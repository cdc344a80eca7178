"""Public surface: every exported name exists, and every name the benchmark traces."""

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import monotone_wfi

MODULES = sorted(f"monotone_wfi.{m.name}" for m in pkgutil.iter_modules(monotone_wfi.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a stale ``__all__`` entry breaks only ``from module import *``, not an import
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_benchmark_trace_targets_exist():
    # the benchmark's tracer wraps these names from outside; a renamed one
    # would break only traced benchmark runs
    path = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in tracing.targets()
        if attr not in vars(owner)
    ]
    assert not missing, f"traced names missing: {missing}"


def test_package_import_loads_nothing_else():
    # names are imported from their modules; the package init is a docstring
    # and a version, so importing it costs neither a submodule nor scipy
    code = (
        "import sys, monotone_wfi; "
        "print(sorted(m for m in sys.modules if m.startswith('monotone_wfi.') "
        "or m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(monotone_wfi.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src}, cwd=src,
    )
    assert done.stdout.strip() == "[]"


def test_source_within_its_line_budget():
    # the budget on non-blank lines under src/
    src = Path(__file__).resolve().parents[1] / "src"
    lines = sum(
        1 for path in src.rglob("*.py") for line in path.read_text().splitlines() if line.strip()
    )
    assert lines <= 3000, f"{lines} non-blank src/ lines, over the 3000-line budget"
