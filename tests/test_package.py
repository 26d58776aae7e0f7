"""Package-level checks: every name a module exports, and every name the
benchmark harness and the scripts import, exists."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import paritysim

# __main__ runs the CLI on import
MODULES = sorted(m.name for m in pkgutil.iter_modules(paritysim.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"paritysim.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"paritysim.{name}.__all__ names missing attributes: {missing}"


def test_benchmark_imports_resolve():
    """Every `from paritysim... import name` in perfbench/*.py and
    scripts/*.py names an attribute that exists, so deleting a function the
    benchmark harness or a script imports fails here rather than there."""
    root = Path(__file__).resolve().parents[1]
    files = [f for d in ("perfbench", "scripts") for f in sorted((root / d).glob("*.py"))]
    assert {f.parent.name for f in files} == {"perfbench", "scripts"}
    missing = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "paritysim":
                mod = importlib.import_module(node.module)
                missing += [f"{path.name}: {node.module}.{a.name}" for a in node.names
                            if not hasattr(mod, a.name)
                            and not (hasattr(mod, "__path__")  # a submodule of a package
                                     and importlib.util.find_spec(f"{node.module}.{a.name}"))]
    assert not missing, missing
