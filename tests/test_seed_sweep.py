"""tools/seed_sweep.py: its exit code and the line it prints per failing record."""

from __future__ import annotations

import importlib.util
import pathlib

from lplab import acceptance
from lplab.reports import check, make_section

_SPEC = importlib.util.spec_from_file_location(
    "seed_sweep", pathlib.Path(__file__).resolve().parents[1] / "tools" / "seed_sweep.py"
)
seed_sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(seed_sweep)


def test_passing_criteria_exit_zero(capsys):
    assert seed_sweep.main(["--criteria", "2", "8", "--seeds", "1", "2"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "0 of 4 runs failed" in out


def test_failing_records_are_printed_and_exit_one(monkeypatch, capsys):
    def failing(seed):
        if seed == 2:
            raise RuntimeError("boom")
        return make_section(
            "kan_inequality",
            [check("violations", 3, "exact", "==", 0), check("fine", 0, "exact", "==", 0)],
        )

    criteria = tuple((n, slug, failing if n == 2 else fn) for n, slug, fn in acceptance.CRITERIA)
    monkeypatch.setattr(acceptance, "CRITERIA", criteria)
    assert seed_sweep.main(["--criteria", "2", "--seeds", "1", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "FAIL criterion 02 seed 1: violations 3 == 0 (exact)",
        "FAIL criterion 02 seed 2: RuntimeError: boom",
        "criteria [2], seeds 1-2: 2 of 2 runs failed",
    ]
