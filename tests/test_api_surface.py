"""Every name a module exports in ``__all__`` resolves in that module, and
the package reads no environment variable but ``SOURCE_DATE_EPOCH``."""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

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


# a read of os.environ or getenv with a literal variable name
ENV_READ = re.compile(
    r"""(?:environ(?:\.get)?\s*[\[(]|getenv\s*\()\s*["']([A-Za-z_][A-Za-z0-9_]*)["']"""
)


def test_only_env_variable_is_source_date_epoch():
    read: set[str] = set()
    for path in sorted(Path(lplab.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        names = ENV_READ.findall(text)
        # every mention of the environment must be one of those literal reads
        mentions = len(re.findall(r"environ|getenv", text))
        assert mentions == len(names), f"{path.name} reads the environment indirectly"
        read.update(names)
    assert read == {"SOURCE_DATE_EPOCH"}
