"""The package's export lists name only what the modules define."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import bosonreg

MODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(bosonreg.__path__) if name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_is_defined(name):
    module = importlib.import_module(f"bosonreg.{name}")
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []


def test_package_imports_only_exported_names():
    """Each name the package re-exports is in its source module's __all__."""
    tree = ast.parse(inspect.getsource(bosonreg))
    unexported = [
        f"{node.module}.{alias.name}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name not in importlib.import_module(f"bosonreg.{node.module}").__all__
    ]
    assert unexported == []
