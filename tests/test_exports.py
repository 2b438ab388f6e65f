"""Every exported name resolves: each module's __all__ and the package's own imports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import quadric_cr

MODULES = sorted(m.name for m in pkgutil.iter_modules(quadric_cr.__path__))


def test_the_package_names_its_modules():
    assert {"convex", "fock", "functions", "spectral", "transform"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"quadric_cr.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_package_imports_resolve():
    tree = ast.parse(Path(quadric_cr.__file__).read_text())
    names = [alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert names
    assert [n for n in names if not hasattr(quadric_cr, n)] == []
