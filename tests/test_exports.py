"""Every name a module lists in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import qal

MODULES = [importlib.import_module(f"qal.{info.name}") for info in pkgutil.iter_modules(qal.__path__)]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_all_names_resolve(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
