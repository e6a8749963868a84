"""tools/reach.py: the line it prints per never-entered function body, its
[perfbench] tag and its exit code, on one command instead of the full set."""

from __future__ import annotations

import importlib.util
import pathlib
import re

_SPEC = importlib.util.spec_from_file_location(
    "reach", pathlib.Path(__file__).resolve().parents[1] / "tools" / "reach.py"
)
reach = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reach)

SPECTRUM = ((("spectrum", "--matrix", "{tmp}/m.json"), 0),)
LINE = re.compile(r"^src/lplab/\w+\.py:\d+ [A-Za-z_][\w.]* \(\d+\)( \[perfbench\])?$")


def _names(lines):
    return {line.split()[1]: line for line in lines[:-1]}


def test_spectrum_alone():
    wrong, lines = reach.reach(SPECTRUM, demos=())
    assert wrong == []
    assert all(LINE.match(line) for line in lines[:-1]), lines
    names = _names(lines)
    # entered by spectrum, Report.ok under its @property line: not listed
    assert {"eigs_dense", "_cmd_spectrum", "Report.ok"}.isdisjoint(names)
    # a nested def that spectrum does not enter
    assert "apply.acc" in names
    # not entered, and wrapped by the tracer (op_norm, the staticmethod
    # SpVector.make) or called by the workloads only (run_suite)
    for name in ("op_norm", "SpVector.make", "run_suite"):
        assert names[name].endswith(" [perfbench]"), name
    # neither: no tag
    assert names["report_from_dict"].endswith(")")
    missed, total = re.match(r"^(\d+) of (\d+) function bodies \(\d+ lines\)", lines[-1]).groups()
    assert int(missed) == len(lines) - 1 < int(total)


def test_an_unexpected_exit_code_is_reported(capsys, monkeypatch):
    monkeypatch.setattr(reach, "COMMANDS", ((("spectrum", "--matrix", "{tmp}/none.json"), 0),))
    monkeypatch.setattr(reach, "DEMOS", ())
    assert reach.main([]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "lplab spectrum --matrix {tmp}/none.json: exit 2, expected 0"
