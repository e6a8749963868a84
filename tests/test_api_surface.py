"""Every name a module exports in ``__all__`` resolves in that module."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import lplab

MODULES = sorted(
    m.name for m in pkgutil.iter_modules(lplab.__path__, prefix="lplab.")
    if m.name != "lplab.__main__"
)


def test_modules_found():
    assert "lplab.spaces" in MODULES and "lplab.cli" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", None)
    assert exported is not None, f"{name} has no __all__"
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(mod, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
