"""The package's export lists name only what the modules define."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import bosonreg
from bosonreg import RegisterOperator, RegisterState

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


@pytest.mark.parametrize("cls", [RegisterState, RegisterOperator], ids=lambda c: c.__name__)
def test_register_values_have_one_spelling_per_operation(cls):
    """States and operators add and subtract with + and -, and scale with
    scale; no second spelling of either is defined."""
    defined = set(vars(cls))
    assert {"__add__", "__sub__", "scale"} <= defined
    assert defined & {"add", "__rmul__", "__mul__", "__neg__"} == set()
