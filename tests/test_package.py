"""Package-level checks: every name a module exports exists."""

import importlib
import pkgutil

import pytest

import paritysim

# __main__ runs the CLI on import
MODULES = sorted(m.name for m in pkgutil.iter_modules(paritysim.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"paritysim.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"paritysim.{name}.__all__ names missing attributes: {missing}"
