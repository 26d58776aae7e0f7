"""Package-level checks: every name a module exports, and every name the
benchmark harness, the scripts and README's examples import, exists."""

import ast
import importlib
import importlib.util
import pkgutil
import re
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
    """Every `from paritysim... import name` in perfbench/*.py, scripts/*.py
    and README's python code blocks names an attribute that exists, so
    deleting a function the benchmark harness, a script or an example
    imports fails here rather than there."""
    root = Path(__file__).resolve().parents[1]
    files = [f for d in ("perfbench", "scripts") for f in sorted((root / d).glob("*.py"))]
    assert {f.parent.name for f in files} == {"perfbench", "scripts"}
    sources = [(f.name, f.read_text()) for f in files]
    readme = re.findall(r"^```python\n(.*?)^```", (root / "README.md").read_text(), re.M | re.S)
    assert readme, "README.md has no python code block"
    sources += [(f"README.md block {i}", block) for i, block in enumerate(readme)]
    missing = []
    for name, text in sources:
        for node in ast.walk(ast.parse(text, filename=name)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "paritysim":
                mod = importlib.import_module(node.module)
                missing += [f"{name}: {node.module}.{a.name}" for a in node.names
                            if not hasattr(mod, a.name)
                            and not (hasattr(mod, "__path__")  # a submodule of a package
                                     and importlib.util.find_spec(f"{node.module}.{a.name}"))]
    assert not missing, missing
