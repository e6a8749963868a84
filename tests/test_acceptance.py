"""Acceptance battery: one test per criterion, one pass/fail line each.

Criteria 1-12 run in process through the battery entries (seed 7); wall-time
budgets are asserted where a criterion carries one.  Criterion 13 invokes the
command-line tool twice in a subprocess, on one and on two BLAS threads, and
compares report bytes.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from lplab import acceptance, constructions, game, operators
from lplab.acceptance import CRITERIA, DEFAULT_SEED, criterion_norm_engine, run_battery
from lplab import cli
from lplab.cli import cli_main
from lplab.game import EigenfreeParams, play_game, verify_eigenfree_run, verify_nonsup_run
from lplab.constructions import build_S_A_omega
from lplab.operators import StructuredOperator, apply, op_norm, op_norm_batch
from lplab.montecarlo import ExperimentKind
from lplab.reports import EVIDENCE, max_or_nan
from lplab.spaces import PNorm, norm
from lplab.spectral import point_spectrum_SAomega


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


def test_01_negative_control(monkeypatch, tmp_path):
    # an engine whose every value is 0.1% low disagrees with the oracle
    batch = acceptance.op_norm_batch

    def low(Ms, pn):
        return [replace(c, value=c.value * (1.0 - 1e-3)) for c in batch(Ms, pn)]

    monkeypatch.setattr(acceptance, "op_norm_batch", low)
    out = tmp_path / "c01.json"
    assert cli_main(["verify-all", "--only", "1", "--seed", "7", "--out", str(out)]) == 1
    records = json.loads(out.read_text(encoding="utf-8"))["sections"][0]["records"]
    ok = {r["name"]: r["ok"] for r in records}
    assert ok["agreement[l3]"] is False and ok["agreement[l1]"] is False


def test_02_kan_inequality(battery):
    _check(battery, 2)


def test_03_doubled_operator(battery):
    _check(battery, 3)


@pytest.mark.parametrize(
    "p, head, name",
    [
        # sigma_1 = sigma_2: no unique norming direction
        (2.0, 0.3 * np.eye(2), "evenly_distributed[p=2]"),
        (3.0, 0.3 * np.eye(2), "evenly_distributed[p!=2]"),
        # the same at p = 2, though every image A z is evenly distributed
        (2.0, [[0.2, 0.2], [0.2, -0.2]], "evenly_distributed[p=2]"),
        # A z has a zero coordinate
        (2.0, [[0.3, 0.1], [0.0, 0.0]], "evenly_distributed[p=2]"),
        (3.0, [[0.3, 0.1], [0.0, 0.0]], "evenly_distributed[p!=2]"),
    ],
)
def test_03_negative_control(monkeypatch, p, head, name):
    """Each head fails the evenly_distributed record of its p, and only it."""
    head = np.asarray(head, dtype=complex)
    monkeypatch.setattr(acceptance, "_doubled_draws", lambda seed: [(p, head)])
    sec = acceptance.criterion_doubled_operator(DEFAULT_SEED)
    assert sec.status == "fail"
    for rec in sec.records:
        assert rec["ok"] == (rec["name"] != name), rec
        if rec["name"].startswith("evenly_distributed"):
            assert rec["configs"] == int(rec["name"] == name)


@pytest.mark.parametrize(
    "seed, index", [(3, 28), (37, 5), (90, 42), (1712826200, 41)]
)
def test_03_slow_heads_pass(seed, index):
    """The configurations whose ascent on B stopped with restarts 1.0e-6 to
    5.7e-6 apart (two at p = 1.5, two at p = 2 with sigma_2/sigma_1 up to
    0.986) are decided from their heads."""
    p, A = acceptance._doubled_draws(seed)[index]
    rec = constructions.build_B_eta_delta(A, len(A) - 1, eta=0.5, p=p)
    passed, gamma, _ = constructions.check_evenly_distributed(rec)
    assert passed
    assert gamma > 0.0


def _ascent_on_B(rec):
    """The verdict and gamma of a direct ascent on the doubled operator: its
    near-maximal restarts must agree within 1e-6, and gamma is the smallest
    image coordinate of the best one."""
    B = rec.op.block
    runs = operators.fixed_point_restarts(B, rec.p)
    best_v, best_x, _ = max(runs, key=lambda r: r[0])
    agree = True
    for v, x, _ in runs:
        if v >= best_v * (1.0 - 1e-9):
            olap = np.vdot(best_x, x)
            agree &= np.abs(x - olap / abs(olap) * best_x).max() <= 1e-6
    img = np.abs(B @ best_x)
    return agree and img.min() > constructions._EVEN_TOL * max(1.0, img.max()), img.min()


def test_03_matches_ascent_on_B():
    for p, A in acceptance._doubled_draws(DEFAULT_SEED):
        rec = constructions.build_B_eta_delta(A, len(A) - 1, eta=0.5, p=p)
        passed, gamma, _ = constructions.check_evenly_distributed(rec)
        ref_passed, ref_gamma = _ascent_on_B(rec)
        assert passed == ref_passed
        assert gamma == pytest.approx(ref_gamma, rel=1e-6)


def test_03_one_ascent_on_B_per_config(monkeypatch):
    """Only op_norm_unit runs the fixed point on the 2(N+1)-dimensional B,
    once per p != 2 configuration; the head A gets its one ascent from
    build_B_eta_delta, whose outcomes check_evenly_distributed polishes."""
    shapes = []
    original = operators.fixed_point_restarts

    def spy(M, p):
        shapes.append(len(M))
        return original(M, p)

    monkeypatch.setattr(operators, "fixed_point_restarts", spy)
    monkeypatch.setattr(constructions, "fixed_point_restarts", spy)
    acceptance.criterion_doubled_operator(DEFAULT_SEED)
    expected = []
    for p, A in acceptance._doubled_draws(DEFAULT_SEED):
        if p != 2.0:
            expected += [len(A), 2 * len(A)]
    assert shapes == expected


def test_04_localization(battery):
    _check(battery, 4)


@pytest.mark.parametrize("p", [3.0, 4.0])
def test_04_riesz_thorin_exact_cases(p):
    """On these 3x5 matrices the bound equals the lp norm: all ones gives
    3^(1/p) 5^(1/q), one column of ones 3^(1/p), one row of ones 5^(1/q),
    and a diagonal its largest modulus."""
    q = p / (p - 1.0)
    col, row, diag = np.zeros((3, 3, 5), dtype=complex)
    col[:, 2] = 1.0
    row[1, :] = 1.0
    diag[[0, 1, 2], [0, 1, 2]] = [0.5, -2.0j, 1.0]
    stack = np.array([np.ones((3, 5)), col, row, diag])
    expect = [3 ** (1 / p) * 5 ** (1 / q), 3 ** (1 / p), 5 ** (1 / q), 2.0]
    np.testing.assert_allclose(
        acceptance._riesz_thorin(stack, p), expect, rtol=1e-15
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_04_bound_dominates_fixed_point(seed):
    """Each coupling block's Riesz-Thorin bound is at least the ascent's
    value for the same block: an upper bound above a lower bound."""
    for p in (3.0, 4.0):
        _, blocks = acceptance._localization_draws(seed, p)
        bounds = acceptance._riesz_thorin(blocks, p)
        certs = op_norm_batch(blocks, PNorm.lp(p))
        assert len(certs) == len(bounds) == 50
        for bound, cert in zip(bounds, certs):
            assert bound >= cert.value > 0.0


@pytest.mark.parametrize("delta, status", [(3.0, "fail"), (0.5, "pass")])
def test_04_negative_control(monkeypatch, delta, status):
    """The bound check cannot fail for a delta that delta_for_B returns (it is
    at most delta/(3 + delta), about 0.09 at the cap 1/2), so a radius far
    outside the ball shows that it responds to delta: about 0.30 at 3.0."""
    monkeypatch.setattr(acceptance, "delta_for_B", lambda *args: delta)
    sec = acceptance.criterion_localization(DEFAULT_SEED)
    assert sec.status == status
    couplings = [r for r in sec.records if r["name"].startswith("coupling")]
    assert len(couplings) == 2
    for rec in couplings:
        assert rec["delta"] == delta
        assert rec["value"] <= delta / (3.0 + delta)
        assert (rec["value"] < rec["bound"]) == (status == "pass")


def test_04_runs_without_norm_ascent(monkeypatch, battery):
    """The coupling bounds are closed form: c04 needs neither op_norm nor
    op_norm_batch (build_B_eta_delta keeps its own binding for A's norm)."""

    def refuse(*args, **kwargs):
        raise AssertionError("criterion 4 called a norm ascent")

    monkeypatch.setattr(acceptance, "op_norm", refuse)
    monkeypatch.setattr(acceptance, "op_norm_batch", refuse)
    monkeypatch.setattr(operators, "op_norm_batch", refuse)
    sec = acceptance.criterion_localization(DEFAULT_SEED)
    assert sec == battery(4)[1]


def test_05_circle_spectrum(battery):
    _check(battery, 5)


@pytest.mark.parametrize("seed", [1, 2, DEFAULT_SEED])
def test_05_norm_comes_from_the_split_model(seed):
    # the record's rectangle is S's block, which neither shift tail meets, and
    # its value is the ascent on that rectangle with the unit tails beside it
    sec = acceptance.criterion_circle_spectrum(seed)
    rec = next(r for r in sec.records if r["name"] == "truncation_norm_bound")
    rng = np.random.default_rng(seed)
    S, _, _, _ = constructions.small_weight_operator(acceptance._crandn(rng, 3, 3), 2.5, 0.3)
    rect, _, _, tails = operators._split_model(S)
    assert rec["rectangle"] == list(rect.shape) == list(S.block.shape)
    assert tails == [1.0, 1.0]
    assert rec["value"] == max(op_norm(StructuredOperator.from_dense(rect), PNorm.lp(2.5)).value, 1.0)


def test_05_left_weight_below_the_disk_fails(monkeypatch):
    """At left weight 0.5 the ratio test no longer rules out the eigenvalues
    0.5 < |lambda| <= 1, so the record fails; lambda = 0.6 then carries an
    eigenvector, which S itself (operators.apply, not the recurrence that
    built it) maps to 0.6 times itself."""
    real = constructions.OmegaWeights
    monkeypatch.setattr(
        constructions, "OmegaWeights", lambda table, left, right: real(table, left=0.5, right=right)
    )
    built = {}

    def capture(A, omega):
        built.update(A=A, omega=omega)
        return build_S_A_omega(A, omega)

    monkeypatch.setattr(constructions, "build_S_A_omega", capture)
    sec = acceptance.criterion_circle_spectrum(DEFAULT_SEED)
    rec = next(r for r in sec.records if r["name"] == "no_point_spectrum_in_unit_disk")
    assert (rec["value"], rec["bound"], rec["ok"]) == (0.5, 1.0, False)
    assert sec.status == "fail"

    A, omega = built["A"], built["omega"]
    pair = point_spectrum_SAomega(A, omega, 0.6, window=600)
    assert pair is not None
    x, pn = pair.vector, PNorm.lp(2.5)
    image = apply(build_S_A_omega(A, omega), x)
    assert norm(image + x.scale(-0.6), pn) / norm(x, pn) < 1e-15
    assert point_spectrum_SAomega(A, real(omega.table, left=1.0, right=1.0), 0.6) is None


def test_06_coisometry(battery):
    _check(battery, 6)


def test_07_kernel_greedy(battery):
    _check(battery, 7)


def test_07_unkilled_witness_fails(monkeypatch):
    """On the base operators themselves no column kills the first image, so
    every greedy search stops at step 1: each record fails, with no exception."""
    monkeypatch.setattr(acceptance, "dq_witness", lambda T0, *args, **kwargs: T0)
    sec = acceptance.criterion_kernel_greedy(DEFAULT_SEED)
    assert sec.status == "fail"
    assert len(sec.records) == 20
    for rec in sec.records:
        assert rec["ok"] is False
        want = 0 if rec["name"].startswith("greedy_steps") else "inf"
        assert rec["value"] == want


def test_08_flat_polynomials(battery):
    _check(battery, 8)
    golay = [r for r in battery(8)[1].records if r["name"].startswith("golay_defect")]
    assert len(golay) == 8 and all(r["value"] == 0 for r in golay)


def test_08_flipped_golay_sign_fails(monkeypatch):
    """One flipped sign in Q_k breaks the Golay identity, and with it c08,
    though the sampled ratio of P_k alone still clears the floor."""
    pair = constructions.rudin_shapiro_pair

    def tampered(k):
        P, Q = pair(k)
        Q = Q.copy()
        Q[-1] = -Q[-1]
        return P, Q

    monkeypatch.setattr(constructions, "rudin_shapiro_pair", tampered)
    sec = acceptance.criterion_flat_polynomials(DEFAULT_SEED)
    assert sec.status == "fail"
    recs = {r["name"]: r for r in sec.records}
    for k in range(3, 11):
        assert recs[f"golay_defect[k={k}]"]["value"] > 0
        assert recs[f"golay_defect[k={k}]"]["ok"] is False
        ratio = recs[f"ratio_sample[k={k}]"]
        assert ratio["value"] >= ratio["bound"] and ratio["ok"] is True


def test_09_game_nonsup(battery):
    _check(battery, 9, budget=300.0)


def _low_floor_start(side, dim):
    # e_0 + 1e-3 e_{N_0 + 1}: the floor at n = 0 is 1e-3/1.001, below 1/9
    x = np.zeros(dim, dtype=complex)
    x[0] = 1.0
    x[side[0].N + 1] = 1e-3
    return x


def _nan_start(side, dim, start=game._nonsup_vector):
    x = start(side, dim)
    x[-1] = math.nan
    return x


@pytest.mark.parametrize("start", [_low_floor_start, _nan_start], ids=["low", "nan"])
def test_09_bad_start_vector_fails_the_exact_floor(monkeypatch, start):
    """The exact floor fails, with its section and criterion 9, on a start
    vector whose floor is below 1/9 or is NaN, and nothing raises."""
    monkeypatch.setattr(game, "_nonsup_vector", start)
    rep = verify_nonsup_run(play_game("nonsup", 3, seed=DEFAULT_SEED, adversary="random"))
    floor = next(s for s in rep["sections"] if s["name"] == "scaled_orbit_floor")
    rec = next(r for r in floor["records"] if r["name"] == "exact_floor_direct_range")
    assert rec["ok"] is False
    assert floor["status"] == "fail"
    sec = acceptance.criterion_game_nonsup(DEFAULT_SEED)
    assert sec.status == "fail"
    recs = {r["name"]: r for r in sec.records}
    assert recs["scaled_orbit_floor"]["ok"] is False
    assert recs["overall"]["ok"] is False


def test_10_game_eigenfree(battery):
    _check(battery, 10, budget=600.0)
    # The capped toy geometry must stay interactive: four rounds in under
    # ten seconds, and the result is explicitly not certified.
    t0 = time.perf_counter()
    run = play_game(
        "eigenfree",
        rounds=4,
        seed=DEFAULT_SEED,
        params=EigenfreeParams(toy=True),
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
    monkeypatch.setattr(acceptance, "bezout_residual", lambda wits: np.full(len(wits), np.nan))
    sec = acceptance.criterion_commutant_witness(DEFAULT_SEED)
    rec = next(r for r in sec.records if r["name"] == "bezout_residual")
    assert rec["value"] == "nan"  # records hold non-finite floats as strings
    assert rec["ok"] is False
    assert sec.status == "fail"


def _tampered_witnesses(monkeypatch, tamper):
    """Criterion 11 on witnesses that the stacked build hands over tampered."""
    build = acceptance.build_commutant_witnesses
    monkeypatch.setattr(
        acceptance,
        "build_commutant_witnesses",
        lambda *a, **k: [tamper(wit) for wit in build(*a, **k)],
    )
    sec = acceptance.criterion_commutant_witness(DEFAULT_SEED)
    return sec, {r["name"]: r for r in sec.records}


def _scale_first_column(wit):
    V = wit.V.copy()
    V[:, 0] *= 1.0 + 1e-6
    return replace(wit, V=V)


@pytest.mark.parametrize(
    "tamper",
    [lambda wit: replace(wit, b_N=wit.b_N * (1.0 + 1e-6)), _scale_first_column],
    ids=["b_N", "V"],
)
def test_11_tampered_witness_fails_the_field_records(monkeypatch, tamper):
    """f_w built from a coupling or an eigenvector off by 1e-6 is no longer a
    transpose-eigenvector, nor paired to 1 with x0: the section fails with
    records, not an exception, and the untouched records still pass."""
    sec, recs = _tampered_witnesses(monkeypatch, tamper)
    assert sec.status == "fail"
    for name in ("eigen_residual_f_w", "pairing_unit"):
        assert recs[name]["value"] > 1e-8 and recs[name]["ok"] is False
    assert recs["bezout_residual"]["ok"] is True
    assert recs["krylov_rank_full"]["ok"] is True


def test_11_nan_betas_fail_the_field_records(monkeypatch):
    sec, recs = _tampered_witnesses(
        monkeypatch, lambda wit: replace(wit, betas=np.full_like(wit.betas, np.nan))
    )
    assert sec.status == "fail"
    for name in ("eigen_residual_f_w", "pairing_unit"):
        assert recs[name]["value"] == "nan" and recs[name]["ok"] is False


def test_11_tampered_x0_fails_the_pairing_record(monkeypatch):
    """x0 off by a factor 1 + 1e-6 pairs to 1 + 1e-6 with every f_w: only
    pairing_unit fails, as a record."""
    sec, recs = _tampered_witnesses(monkeypatch, lambda wit: replace(wit, x0=wit.x0 * (1.0 + 1e-6)))
    assert sec.status == "fail"
    assert recs["pairing_unit"]["value"] == pytest.approx(1e-6, rel=1e-3)
    assert recs["pairing_unit"]["ok"] is False
    for name in ("bezout_residual", "eigen_residual_f_w", "krylov_rank_full"):
        assert recs[name]["ok"] is True


def _ok_records(tree):
    """Every record that carries ok, at any depth of a report tree."""
    if isinstance(tree, dict):
        inner = [r for v in tree.values() for r in _ok_records(v)]
        return [tree] + inner if "ok" in tree else inner
    if isinstance(tree, list):
        return [r for v in tree for r in _ok_records(v)]
    return []


def test_every_check_record_carries_evidence(battery, tmp_path):
    """The twelve criteria, both game strategies, one mc config per kind
    (plus one that errors), norm, spectrum and every construct kind: each
    record with ok is a check record with an evidence label."""
    trees = [battery(num)[1].to_dict() for num, _, _ in CRITERIA]
    matrix = tmp_path / "m.json"
    matrix.write_text("[[0.5, 0.25], [0.1, [0.2, 0.3]]]")
    mc = tmp_path / "mc.json"
    configs = [
        {"space": "c0" if kind is ExperimentKind.AP_SPECTRUM_GRID else "3",
         "dim": 6, "samples": 3, "seed": 5, "experiment": kind.value}
        for kind in ExperimentKind
    ]
    # IsometryDefect refuses p = 2, which gives an experiment_error record
    configs.append({**configs[0], "space": "2", "experiment": "IsometryDefect"})
    mc.write_text(json.dumps(configs))
    commands = [
        ["game", "--strategy", "nonsup", "--seed", "7"],
        ["game", "--strategy", "eigenfree", "--seed", "7"],
        ["mc", "--config", str(mc)],
        ["norm", "--matrix", str(matrix), "--p", "3"],
        ["spectrum", "--matrix", str(matrix)],
    ] + [
        ["construct", "--kind", kind, "--seed", "7"]
        for kind in cli._CONSTRUCT_KINDS
    ]
    for i, argv in enumerate(commands):
        out = tmp_path / f"report{i}.json"
        assert cli_main(argv + ["--out", str(out)]) in (0, 1), argv
        trees.append(json.loads(out.read_text()))
    checks = [rec for tree in trees for rec in _ok_records(tree)]
    assert len(checks) > 150
    unlabelled = [rec for rec in checks if rec.get("evidence") not in EVIDENCE]
    assert not unlabelled
    assert {"exact", "lower", "upper", "consistency"} <= {rec["evidence"] for rec in checks}


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


def test_12_non_cyclic_start_fails(monkeypatch):
    """With M[5:, :5] = 0 the span of e_0..e_4 is invariant, so e_0 is not
    cyclic and its Krylov sequence collapses: each 20 x 20 sample is a
    Hessenberg failure, no sample yields a unitary factor, and the battery
    returns failing records."""
    crandn = acceptance._crandn

    def reducible(rng, *shape):
        M = crandn(rng, *shape)
        if shape == (20, 20):
            M[5:, :5] = 0
        return M

    monkeypatch.setattr(acceptance, "_crandn", reducible)
    report = run_battery(DEFAULT_SEED, numbers=[12])
    (sec,) = report.sections
    recs = {rec["name"]: rec for rec in sec.records}
    assert sec.status == "fail"
    hess = recs["hessenberg_positive_subdiagonal"]
    assert hess["ok"] is False and hess["value"] == 20
    assert recs["unitary_factor"]["ok"] is False and recs["unitary_factor"]["value"] == "nan"
    assert recs["t1_reproduced"]["ok"] is True


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
