"""Acceptance battery: one test per criterion, one pass/fail line each.

Criteria 1-12 run in process through the battery entries (seed 7); wall-time
budgets are asserted where a criterion carries one.  Criterion 13 invokes the
command-line tool twice in a subprocess, on one and on two BLAS threads, and
compares report bytes.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time

import pytest

from lplab import acceptance
from lplab.acceptance import CRITERIA, DEFAULT_SEED, criterion_norm_engine, run_battery
from lplab.game import EigenfreeParams, play_game, verify_eigenfree_run
from lplab.reports import max_or_nan


@pytest.fixture(scope="module")
def battery():
    """Memoized per-criterion runner: returns (slug, section, seconds)."""
    cache: dict[int, tuple[str, object, float]] = {}

    def run(num: int):
        if num not in cache:
            _, slug, fn = next(c for c in CRITERIA if c[0] == num)
            t0 = time.perf_counter()
            sec = fn(DEFAULT_SEED)
            cache[num] = (slug, sec, time.perf_counter() - t0)
        return cache[num]

    return run


def _check(battery, num: int, budget: float | None = None) -> None:
    slug, sec, elapsed = battery(num)
    verdict = "PASS" if sec.status == "pass" else "FAIL"
    print(f"ACCEPTANCE {num:02d} {slug}: {verdict} ({elapsed:.1f}s)")
    failures = [r for r in sec.records if r.get("ok") is False]
    assert sec.status == "pass", f"criterion {num} failed: {failures}"
    if budget is not None:
        assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s >= {budget}s"


def test_01_norm_engine(battery):
    _check(battery, 1, budget=120.0)


@pytest.mark.parametrize("seed", [1, 2])
def test_01_norm_engine_other_seeds(seed):
    sec = criterion_norm_engine(seed)
    assert [r["samples"] for r in sec.records] == [200] * 6
    assert all(r["ok"] for r in sec.records), sec.records


def test_02_kan_inequality(battery):
    _check(battery, 2)


def test_03_doubled_operator(battery):
    _check(battery, 3)


def test_04_localization(battery):
    _check(battery, 4)


def test_05_circle_spectrum(battery):
    _check(battery, 5)


def test_06_coisometry(battery):
    _check(battery, 6)


def test_07_kernel_greedy(battery):
    _check(battery, 7)


def test_08_flat_polynomials(battery):
    _check(battery, 8)


def test_09_game_nonsup(battery):
    _check(battery, 9, budget=300.0)


def test_10_game_eigenfree(battery):
    _check(battery, 10, budget=600.0)
    # The capped toy geometry must stay interactive: four rounds in under
    # ten seconds, and the result is explicitly not certified.
    t0 = time.perf_counter()
    run = play_game(
        "eigenfree",
        rounds=4,
        seed=DEFAULT_SEED,
        params=EigenfreeParams.toy_mode(),
        adversary="passthrough",
    )
    rep = verify_eigenfree_run(run)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"toy four-round run took {elapsed:.1f}s"
    assert rep["ok"] and not rep["certified"]


def test_11_commutant_witness(battery):
    _check(battery, 11)


def test_11_nan_bezout_residual_fails(monkeypatch):
    """A NaN residual must not vanish from the running maximum."""
    monkeypatch.setattr(acceptance, "bezout_residual", lambda wit: float("nan"))
    sec = acceptance.criterion_commutant_witness(DEFAULT_SEED)
    rec = next(r for r in sec.records if r["name"] == "bezout_residual")
    assert rec["max"] == "nan"  # records hold non-finite floats as strings
    assert rec["ok"] is False
    assert sec.status == "fail"


def test_running_worst_carries_nan():
    # the criteria's running maxima use the shared reports.max_or_nan
    nan = float("nan")
    worst = max_or_nan
    assert worst(0.0, 1e-9, 3e-9, 2e-9) == 3e-9
    assert worst(0.5, 0.25) == 0.5
    for args in ((0.0, nan), (nan, 1.0), (0.0, nan, 1.0), (1.0, 2.0, nan)):
        assert math.isnan(worst(*args)), args


def test_12_triangularization(battery):
    _check(battery, 12)


def test_13_determinism(tmp_path):
    """verify-all --seed 7 twice, on one and on two BLAS threads:
    byte-identical reports, exit code 0."""
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"report_{threads}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "lplab", "verify-all", "--seed", "7",
             "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=900,
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outs.append(out.read_bytes())
    identical = outs[0] == outs[1]
    print(f"ACCEPTANCE 13 determinism: {'PASS' if identical else 'FAIL'}")
    assert identical, "verify-all reports differ between one and two BLAS threads"


def test_unknown_number_raises():
    """A number outside CRITERIA is refused before any criterion runs."""
    progress: list[str] = []
    with pytest.raises(ValueError, match="99"):
        run_battery(numbers=[2, 99], progress=progress.append)
    assert progress == []
