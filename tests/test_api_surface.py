"""Every name a module exports in ``__all__`` resolves in that module, and
the package reads no environment variable but ``SOURCE_DATE_EPOCH``."""

from __future__ import annotations

import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
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


def test_import_loads_no_scipy():
    # SciPy is a test-only dependency: the CLI and the battery run on NumPy.
    # operators.minimize stays bound (the benchmark tracer wraps it by name)
    # but imports SciPy only when it is called.
    code = (
        "import sys\n"
        "import lplab.acceptance, lplab.cli, lplab.game, lplab.montecarlo\n"
        "assert callable(lplab.operators.__dict__['minimize'])\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded, loaded\n"
    )
    src = str(Path(lplab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_benchmark_tracer_targets_resolve():
    # perfbench/tracer.py wraps lplab functions by (owner, attribute name);
    # a renamed target would make a traced benchmark run die with KeyError.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for _, owner, attr, _ in tracer.TARGETS
        if attr not in vars(owner)
    ]
    assert not missing, f"tracer targets that no longer resolve: {missing}"


# an import from the operators module, with every name it brings in
OPERATORS_IMPORT = re.compile(r"from\s+(?:\.|lplab\.)operators\s+import\s+(\([^)]*\)|[^\n]*)")


@pytest.mark.parametrize("module", ["constructions.py", "montecarlo.py"])
def test_no_private_operators_import(module):
    text = (Path(lplab.__file__).parent / module).read_text(encoding="utf-8")
    imports = OPERATORS_IMPORT.findall(text)
    assert imports, f"{module} imports nothing from operators"
    names = [n.strip() for group in imports for n in group.strip("()").split(",")]
    private = [n for n in names if n.startswith("_")]
    assert not private, f"{module} imports private operators names: {private}"
