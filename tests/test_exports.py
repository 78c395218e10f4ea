"""The public surface: every exported name resolves, and the package
re-exports only names its modules export, so a deletion cannot leave a stale
export behind."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import maxop

MODULES = sorted(m.name for m in pkgutil.iter_modules(maxop.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"maxop.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, missing


def test_package_imports_only_exported_names():
    tree = ast.parse(pathlib.Path(maxop.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"maxop.{node.module}")
        unexported = {a.name for a in node.names} - set(module.__all__)
        assert not unexported, (node.module, unexported)
