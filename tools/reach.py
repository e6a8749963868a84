"""List every function body of the lplab package that no command enters.

The commands and demos of README are run in process, under a
``sys.setprofile`` hook that records every code object called:

- ``verify-all --seed 7 --out``;
- ``norm`` at p = 1, 2, 3 and on c0, and on a file that does not exist;
- ``spectrum``;
- ``construct`` of every kind at seed 7;
- ``game``: nonsup for 3 rounds, eigenfree for 2, toy eigenfree for 4, at
  seed 7;
- ``mc --csv --out`` on six configurations, and ``mc`` on one that fails
  (IsometryDefect at p = 2);
- the four scripts in ``demos/``.

Each ``def`` of the package (methods and nested functions included) that
none of them enters is printed as ``file:line name (lines)``, followed by a
count.  A name is tagged ``[perfbench]`` when the benchmark's tracer wraps
it (``TARGETS`` in ``perfbench/tracer.py``) or its workloads call it
(``perfbench/workloads.py``): the benchmark pins it.  A command that exits
with another code than the one listed for it is printed first, and makes
the exit code 1.  It takes about 6 s on a 2-core machine::

    PYTHONPATH=src python3 tools/reach.py
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib.util
import inspect
import io
import json
import runpy
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable, Sequence

ROOT = Path(__file__).resolve().parents[1]

MATRIX = [[0.4, [0.3, 0.2], 0.0], [0.0, -0.5, 0.25], [[0.0, 0.1], 0.0, 0.6]]
MC_CONFIGS = [
    {"space": space, "dim": 12, "samples": 4, "seed": seed, "experiment": kind}
    for seed, (space, kind) in enumerate(
        [
            ("l3", "OrbitDecay"),
            ("l3", "EigenStats"),
            ("l3", "IsometryDefect"),
            ("l3", "DisjointSupport"),
            ("c0", "ApSpectrumGrid"),
            ("l2", "OrbitDecay"),
        ]
    )
]
# refused by the experiment: p = 2 has plenty of isometries
MC_FAILING = {"space": "l2", "dim": 4, "samples": 2, "seed": 0, "experiment": "IsometryDefect"}
CONSTRUCT_KINDS = (
    "b-eta-delta",
    "coisometry-l1",
    "t1-coisometry",
    "s-a-omega",
    "commutant-witness",
)

# (argv, expected exit code); "{tmp}" names a scratch directory that holds
# m.json (MATRIX), mc.json (MC_CONFIGS) and mc_fail.json (MC_FAILING)
Command = tuple[tuple[str, ...], int]
COMMANDS: tuple[Command, ...] = (
    (("verify-all", "--seed", "7", "--out", "{tmp}/verify.json"), 0),
    *((("norm", "--matrix", "{tmp}/m.json", "--p", p), 0) for p in ("1", "2", "3", "c0")),
    (("norm", "--matrix", "{tmp}/missing.json"), 2),
    (("spectrum", "--matrix", "{tmp}/m.json"), 0),
    *((("construct", "--kind", kind, "--seed", "7"), 0) for kind in CONSTRUCT_KINDS),
    (("game", "--strategy", "nonsup", "--rounds", "3", "--seed", "7"), 0),
    (("game", "--strategy", "eigenfree", "--rounds", "2", "--seed", "7"), 0),
    (("game", "--strategy", "eigenfree", "--rounds", "4", "--toy", "--seed", "7"), 0),
    (
        ("mc", "--config", "{tmp}/mc.json", "--csv", "{tmp}/grid.csv", "--out", "{tmp}/mc_out.json"),
        0,
    ),
    (("mc", "--config", "{tmp}/mc_fail.json"), 1),
)
DEMOS = ("norm_certificates.py", "doubled_operator.py", "game_round.py", "mc_suite.py")

Key = tuple[str, int]  # (resolved file, line of the def or its first decorator)


def package_dir() -> Path:
    """The directory of the lplab package that ``import lplab`` would load,
    found without importing it."""
    spec = importlib.util.find_spec("lplab")
    if spec is None or not spec.submodule_search_locations:
        raise SystemExit("lplab is not importable; run with PYTHONPATH=src")
    return Path(list(spec.submodule_search_locations)[0]).resolve()


def function_bodies(package: Path) -> dict[Key, tuple[str, int]]:
    """(file, first line) -> (dotted name, lines) for every def in the package.

    The first line is that of the first decorator, as in the def's code
    object; the line count runs from the ``def`` line to the body's end.
    """
    bodies: dict[Key, tuple[str, int]] = {}

    def visit(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                lines = child.end_lineno - child.lineno + 1
                bodies[(path, first)] = (prefix + child.name, lines)
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), str(path), "")
    return bodies


def _key(fn: Any) -> Key | None:
    code = getattr(inspect.unwrap(fn), "__code__", None)
    if code is None:
        return None
    return str(Path(code.co_filename).resolve()), code.co_firstlineno


def _load(path: Path) -> Any:
    spec = importlib.util.spec_from_file_location(f"_reach_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(node: ast.expr, namespace: dict[str, Any]) -> Any:
    """The object a name or dotted attribute of a module's source stands for."""
    if isinstance(node, ast.Name):
        return namespace.get(node.id)
    if isinstance(node, ast.Attribute):
        return getattr(_resolve(node.value, namespace), node.attr, None)
    return None


def benchmark_keys() -> set[Key]:
    """The functions that perfbench's tracer wraps or its workloads call."""
    tracer = _load(ROOT / "perfbench" / "tracer.py")
    fns = [getattr(owner, attr) for _, owner, attr, _ in tracer.TARGETS]
    path = ROOT / "perfbench" / "workloads.py"
    workloads = _load(path)
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            fns.append(_resolve(node.func, vars(workloads)))
    return {k for k in map(_key, fns) if k is not None}


def _entered(run: Callable[[], None]) -> set[Key]:
    """The (file, first line) of every Python function called while run runs."""
    codes = set()

    def hook(frame: Any, event: str, arg: Any) -> None:
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in codes}


def run_all(commands: Sequence[Command], demos: Sequence[str]) -> tuple[set[Key], list[str]]:
    """Run the commands, then the demos, with their output discarded; return
    what they entered and a line per command whose exit code was unexpected."""
    wrong: list[str] = []

    def run() -> None:
        # imported here, so that what lplab's import itself calls is seen
        from lplab.cli import cli_main

        for argv, want in commands:
            got = cli_main([a.format(tmp=tmp) for a in argv])
            if got != want:
                wrong.append(f"lplab {' '.join(argv)}: exit {got}, expected {want}")
        for demo in demos:
            runpy.run_path(str(ROOT / "demos" / demo), run_name="__main__")

    with tempfile.TemporaryDirectory() as tmp:
        for name, data in (("m", MATRIX), ("mc", MC_CONFIGS), ("mc_fail", MC_FAILING)):
            Path(tmp, f"{name}.json").write_text(json.dumps(data), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            entered = _entered(run)
    return entered, wrong


def reach(commands: Sequence[Command], demos: Sequence[str]) -> tuple[list[str], list[str]]:
    """(unexpected exit codes, one line per never-entered body and a count)."""
    package = package_dir()
    entered, wrong = run_all(commands, demos)
    pinned = benchmark_keys()
    bodies = function_bodies(package)
    lines = []
    for (path, first), (name, size) in sorted(bodies.items()):
        if (path, first) in entered:
            continue
        shown = Path(path)
        if shown.is_relative_to(ROOT):
            shown = shown.relative_to(ROOT)
        tag = " [perfbench]" if (path, first) in pinned else ""
        lines.append(f"{shown}:{first} {name} ({size}){tag}")
    missed = [k for k in bodies if k not in entered]
    total = sum(bodies[k][1] for k in missed)
    tagged = sum(1 for k in missed if k in pinned)
    lines.append(
        f"{len(missed)} of {len(bodies)} function bodies ({total} lines) never entered, "
        f"{tagged} of them [perfbench]"
    )
    return wrong, lines


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    wrong, lines = reach(COMMANDS, DEMOS)
    for line in wrong + lines:
        print(line)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
