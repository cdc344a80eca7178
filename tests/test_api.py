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


def _fresh_stdout(code: str) -> str:
    """What ``code`` prints in a fresh interpreter that imports the package from ``src``."""
    src = str(Path(monotone_wfi.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src}, cwd=src,
    )
    return done.stdout.strip()


def test_package_import_loads_nothing_else():
    # names are imported from their modules; the package init is a docstring
    # and a version, so importing it costs neither a submodule nor scipy
    code = (
        "import sys, monotone_wfi; "
        "print(sorted(m for m in sys.modules if m.startswith('monotone_wfi.') "
        "or m.split('.')[0] == 'scipy'))"
    )
    assert _fresh_stdout(code) == "[]"


def test_cli_import_loads_no_scipy_optimize():
    # scipy.optimize, imported for its PAVA alone, pulls in scipy.linalg;
    # the stand-in's fall-back to it would show here too
    code = (
        "import sys, monotone_wfi.cli; "
        "print([m for m in ('scipy.optimize', 'scipy.linalg') if m in sys.modules])"
    )
    assert _fresh_stdout(code) == "[]"


def test_missing_pava_file_falls_back_to_scipy(tmp_path, monkeypatch):
    # the compiled module is private to scipy: without its file, the public
    # function takes over, and every fit keeps its bytes
    import scipy
    from scipy.optimize import isotonic_regression

    from monotone_wfi import estimator, limits
    from monotone_wfi.model import FeatureLaw, LinkSpec, Scenario, draw_sample
    from monotone_wfi.streams import stream

    def fits() -> list[bytes]:
        scn = Scenario(LinkSpec("logistic"), FeatureLaw("uniform", 1.0), 1.0, 0.0)
        steps = [estimator.npmle_fit(draw_sample(scn, n, stream(8, n))) for n in (1, 50, 4096)]
        grid = limits.PathGrid(1.0, 0.01, True)
        return [f.jump_xs.tobytes() + f.values.tobytes() for f in steps] + [
            limits.argmin_quadratic_batch(grid, 100, stream(9), 2.0, 0.5, 1.0).tobytes(),
            limits.slow_limit_batch(scn.link, scn.law, 0.0, grid, 100, stream(10)).tobytes(),
        ]

    loaded = fits()
    with monkeypatch.context() as patch:
        patch.setattr(scipy, "__file__", str(tmp_path / "__init__.py"))
        fallback = estimator._load_isotonic_regression()
    assert fallback is isotonic_regression
    assert estimator.isotonic_regression is not isotonic_regression
    monkeypatch.setattr(estimator, "isotonic_regression", fallback)
    monkeypatch.setattr(limits, "isotonic_regression", fallback)
    assert fits() == loaded


def test_source_within_its_line_budget():
    # the budget on non-blank lines under src/
    src = Path(__file__).resolve().parents[1] / "src"
    lines = sum(
        1 for path in src.rglob("*.py") for line in path.read_text().splitlines() if line.strip()
    )
    assert lines <= 3000, f"{lines} non-blank src/ lines, over the 3000-line budget"
