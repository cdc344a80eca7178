"""Public surface: every exported name exists."""

import importlib
import pkgutil

import pytest

import monotone_wfi

MODULES = sorted(f"monotone_wfi.{m.name}" for m in pkgutil.iter_modules(monotone_wfi.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a stale ``__all__`` entry breaks only ``from module import *``, not an import
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
