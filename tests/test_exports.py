"""Every name in a module's `__all__` exists, so that a star import of
the package or of any of its modules cannot fail on a stale entry."""

import importlib
import pkgutil

import pytest

import beauville

MODULES = ["beauville"] + [
    f"beauville.{m.name}"
    for m in pkgutil.iter_modules(beauville.__path__)
    if not m.name.startswith("_")
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, missing
