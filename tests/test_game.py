"""Tests for the Banach-Mazur game engine (lplab.game)."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import lplab.game as game_mod
from lplab.game import (
    BasicOpenSet,
    EigenfreeParams,
    GameBlock,
    GameCapExceeded,
    RoundData,
    adversary_passthrough,
    adversary_random,
    block_ball_member,
    block_from_columns,
    block_norm_c0,
    block_to_dense,
    game_run_to_dict,
    legal_move,
    opening_position,
    play_game,
    scaled_orbit_floor,
    strategy_eigenfree_respond,
    strategy_nonsup_respond,
    verify_eigenfree_run,
    verify_nonsup_run,
)
from lplab.game import _max_col_diff

EXACT_TOL = 1e-14
NORM_TOL = 1e-12
ORBIT_SLACK = game_mod._ORBIT_SLACK
# blocked powers against a stepwise walk: measured <= 2.8e-14 at 10^5 steps
ORBIT_DRIFT_TOL = 1e-12


def _block_from_dense(M: np.ndarray) -> GameBlock:
    """The GameBlock whose explicit columns are the non-zero columns of M."""
    M = np.asarray(M, dtype=complex)
    cols: dict[int, dict[int, complex]] = {}
    rr, cc = np.nonzero(M)
    for r, c in zip(rr.tolist(), cc.tolist()):
        cols.setdefault(c, {})[r] = complex(M[r, c])
    return block_from_columns(max(M.shape) - 1, cols)


def _flatten(obj, path=""):
    """Leaves of a nested report as {path: value}, list items keyed by name."""
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            out.update(_flatten(v, f"{path}.{k}"))
        return out
    if isinstance(obj, list) and all(isinstance(v, dict) and "name" in v for v in obj):
        out = {}
        for v in obj:
            out.update(_flatten(v, f"{path}[{v['name']}]"))
        return out
    return {path: obj}


def _toy_round(k: int = 0, N: int = 0, eps: float = 0.5, L: int = 4, R: int = 3):
    """Hand-sized round record for structural tests."""
    tau = 0.01 * eps
    return RoundData(
        k=k,
        N=N,
        eps=eps,
        alpha=0.01,
        tau=tau,
        L=L,
        R=R,
        N_next=N + (L + 1) * R - 1,
        eps_next=eps * tau / 32.0,
        certified=False,
    )


class TestRoundGeometry:
    def test_honest_round_zero_fixtures(self):
        U0 = opening_position()
        U1, rd = strategy_eigenfree_respond(U0, 0, EigenfreeParams())
        assert rd.tau == pytest.approx(0.01, abs=0)
        assert rd.L == 629
        assert rd.R == 439
        assert rd.N_next == 276_569
        assert rd.eps_next == pytest.approx(3.125e-4, abs=1e-19)
        assert U1.N == 276_569

    def test_net_spacing_below_tau(self):
        _, rd = strategy_eigenfree_respond(
            opening_position(), 0, EigenfreeParams()
        )
        spacing = 2.0 * math.sin(math.pi / rd.L)
        assert spacing <= rd.tau + EXACT_TOL

    def test_escape_growth_strict_and_minimal(self):
        _, rd = strategy_eigenfree_respond(
            opening_position(), 0, EigenfreeParams()
        )
        lratio = math.log1p(-rd.tau / 2.0) - math.log1p(-rd.tau)
        ltarget = math.log(9.0 / 1.0)
        assert (rd.R - 2) * lratio > ltarget
        assert (rd.R - 3) * lratio <= ltarget

    def test_cap_guard_on_deep_honest_round(self):
        with pytest.raises(GameCapExceeded):
            play_game("eigenfree", 3, seed=0, adversary="passthrough")

    def test_spoke_column_outside_window_rejected(self):
        with pytest.raises(ValueError):
            strategy_eigenfree_respond(opening_position(), 1, EigenfreeParams())


class TestGameBlock:
    def test_from_dense_roundtrip(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        M /= np.abs(M).sum(axis=1).max()
        blk = _block_from_dense(M)
        assert np.allclose(block_to_dense(blk, 5), M, atol=0)

    def test_family_columns_materialize(self):
        rd = _toy_round()  # N=0, eps=0.5, L=4, R=3 -> window 14
        blk = GameBlock(N=rd.N_next, cols=(), rounds=(rd,))
        M = block_to_dense(blk, rd.N_next + 1)
        half = rd.eps / 2.0
        # spoke column 0: entries at rows 3, 6, 9, 12
        for i in range(1, rd.L + 1):
            assert M[3 * i, 0] == pytest.approx(half * rd.root(i), abs=EXACT_TOL)
        # head column 3 -> (1 - eps/2) e_3 + e_4
        assert M[3, 3] == pytest.approx(1.0 - half, abs=0)
        assert M[4, 3] == 1.0
        # chain column 4 -> e_5
        assert M[5, 4] == 1.0
        # column 5 = N + 2R - 1 is identically zero
        assert np.all(M[:, 5] == 0)
        # diagonal columns 6, 9, 12
        for i in (2, 3, 4):
            j = 3 * i
            col = M[:, j].copy()
            assert col[j] == pytest.approx(rd.root(i) * (1.0 - half), abs=EXACT_TOL)
            col[j] = 0
            assert np.all(col == 0)

    def test_norm_c0_explicit_rows(self):
        blk = block_from_columns(2, {0: {1: 0.25 + 0.0j}, 2: {1: -0.5j, 2: 0.1}})
        assert block_norm_c0(blk) == pytest.approx(0.75, abs=0)

    def test_norm_c0_family_rows_are_exactly_one(self):
        rd = _toy_round()
        blk = GameBlock(N=rd.N_next, cols=(), rounds=(rd,))
        assert block_norm_c0(blk) == 1.0
        M = block_to_dense(blk, rd.N_next + 1)
        assert np.abs(M).sum(axis=1).max() <= 1.0 + EXACT_TOL


class TestLegalMove:
    def test_identical_position_is_illegal(self):
        U = opening_position()
        assert not legal_move(U, U)

    def test_strict_radius_shrink_is_legal(self):
        U = opening_position()
        V = BasicOpenSet(N=U.N, A=U.A, eps=0.5 * U.eps)
        assert legal_move(U, V)

    def test_window_shrink_is_illegal(self):
        blk = GameBlock(N=3)
        U = BasicOpenSet(N=3, A=blk, eps=1.0)
        V = BasicOpenSet(N=2, A=GameBlock(N=2), eps=0.1)
        assert not legal_move(U, V)

    def test_large_column_move_is_illegal(self):
        U = BasicOpenSet(N=1, A=GameBlock(N=1), eps=0.25)
        far = block_from_columns(1, {0: {1: 0.9 + 0.0j}})
        V = BasicOpenSet(N=1, A=far, eps=0.01)
        assert not legal_move(U, V)

    def test_strategy_responses_are_legal(self):
        U0 = opening_position()
        U1, _ = strategy_eigenfree_respond(U0, 0, EigenfreeParams())
        assert legal_move(U0, U1)
        V1, _ = strategy_nonsup_respond(U0, 0, 0)
        assert legal_move(U0, V1)

    def test_eigenfree_column_distance_is_half_eps(self):
        U0 = opening_position()
        U1, _ = strategy_eigenfree_respond(U0, 0, EigenfreeParams())
        assert _max_col_diff(U1.A, U0.A, U0.N) == pytest.approx(0.5, abs=0)


class TestEigenfreeParams:
    def test_honest_parameters_validate(self):
        checks = EigenfreeParams().validate()
        assert all(c["ok"] for c in checks)

    def test_bad_parameters_flagged(self):
        bad = EigenfreeParams(c=0.1, eta=0.5)  # c >= 1/24, eta < 16c
        names = {c["name"]: c["ok"] for c in bad.validate()}
        assert not names["c_small"]
        assert not names["eta_large"]

    def test_product_certificate_honest(self):
        cert = EigenfreeParams().certify_product(2)
        assert cert["certified"]
        assert cert["certified_lower_bound"] >= 8.0 / 32.0 + 0.5
        assert cert["partial_product"] > cert["certified_lower_bound"]

    def test_explicit_alpha_sequence_is_uncertified(self):
        p = EigenfreeParams(a=None, alphas=(0.01, 0.005))
        cert = p.certify_product(2)
        assert not cert["certified"]
        assert cert["certified_lower_bound"] is None

    @pytest.mark.parametrize(
        "field",
        [{"c": math.nan}, {"C": math.inf}, {"a": "0.01"}, {"alphas": (0.1, math.nan)},
         {"toy": 1}, {"dim_cap": 5.0}, {"toy_R_cap": True}],
    )
    def test_bad_field_is_refused_before_play(self, field):
        # a NaN c used to play and die with IllegalMove
        with pytest.raises(ValueError, match="bad game parameter"):
            EigenfreeParams(**field)

    def test_alphas_are_stored_as_a_tuple_of_floats(self):
        assert EigenfreeParams(a=None, alphas=[1, 0.5]).alphas == (1.0, 0.5)

    @pytest.mark.parametrize("c", [1e308, 1e-320])
    def test_response_radius_out_of_range_is_refused(self, c):
        # too large a radius makes the response illegal; a subnormal one is
        # too small for player I to shrink
        with pytest.raises(ValueError, match="next radius"):
            strategy_eigenfree_respond(opening_position(), 0, EigenfreeParams(c=c))


class TestNonsupStrategy:
    def test_worked_example(self):
        U1, rec = strategy_nonsup_respond(opening_position(), 0, 0)
        assert rec.L == 3
        assert rec.eps_next == pytest.approx(1.0 / 96.0, abs=1e-18)
        assert U1.N == 1

    def test_new_column_is_unit_diagonal(self):
        U1, _ = strategy_nonsup_respond(opening_position(), 0, 0)
        M = block_to_dense(U1.A, 2)
        assert M[1, 1] == 1.0
        assert np.all(M[:, 0] == 0)

    def test_old_columns_scaled(self):
        blk = block_from_columns(1, {0: {0: 0.5 + 0.0j}, 1: {1: 0.8 + 0.0j}})
        U = BasicOpenSet(N=1, A=blk, eps=0.5)
        V, rec = strategy_nonsup_respond(U, 1, 3)
        M = block_to_dense(V.A, 3)
        assert M[0, 0] == pytest.approx(0.5 * 0.75, abs=0)
        assert M[1, 1] == pytest.approx(0.8 * 0.75, abs=0)
        assert M[2, 2] == 1.0
        assert rec.L >= 4  # strictly above L_prev

    def test_family_block_rejected(self):
        U1, _ = strategy_eigenfree_respond(
            opening_position(), 0, EigenfreeParams()
        )
        with pytest.raises(ValueError):
            strategy_nonsup_respond(U1, 1, 0)


class TestAdversaries:
    def test_random_is_deterministic_and_legal(self):
        U1, _ = strategy_nonsup_respond(opening_position(), 0, 0)
        a = adversary_random(U1, np.random.default_rng(42))
        b = adversary_random(U1, np.random.default_rng(42))
        assert a == b
        assert legal_move(U1, a)

    def test_random_touches_only_fresh_rows_and_columns(self):
        U1, _ = strategy_nonsup_respond(opening_position(), 0, 0)
        V = adversary_random(U1, np.random.default_rng(1))
        for j, ents in V.A.cols:
            for r, val in ents:
                if j <= U1.N:
                    assert (j, (r, val)) in [
                        (jj, e) for jj, es in U1.A.cols for e in es
                    ]
                else:
                    assert r > U1.N

    def test_passthrough_shrinks_radius(self):
        U1, _ = strategy_nonsup_respond(opening_position(), 0, 0)
        V = adversary_passthrough(U1)
        assert V.A == U1.A
        assert V.eps < U1.eps
        assert legal_move(U1, V)


class TestPlayAndAssemble:
    def test_toy_play_assembles_dense(self):
        run = play_game(
            "eigenfree", 4, seed=3, params=EigenfreeParams(toy=True), adversary="random"
        )
        blk = run.final_set.A
        M = block_to_dense(blk, blk.N + 1)
        assert M.shape == (blk.N + 1, blk.N + 1)
        assert not run.certified

    def test_honest_play_stays_lazy(self):
        run = play_game("eigenfree", 2, seed=7, adversary="passthrough")
        assert run.final_set.A.N > 10**13
        assert run.certified

    def test_assembled_block_is_member_of_every_set(self):
        run = play_game("nonsup", 2, seed=5, adversary="random")
        blk = run.final_set.A
        for _, S in run.moves:
            assert block_ball_member(blk, S)

    def test_tampered_run_fails_membership(self):
        run = play_game("nonsup", 2, seed=5, adversary="random")
        blk = run.final_set.A
        bad_cols = dict((j, dict(ents)) for j, ents in blk.cols)
        bad_cols.setdefault(0, {})[0] = 0.9 + 0.0j  # large entry in an old column
        bad = block_from_columns(blk.N, bad_cols)
        bad_set = BasicOpenSet(N=blk.N, A=bad, eps=run.final_set.eps)
        tampered = dataclasses.replace(
            run, moves=run.moves[:-1] + (("II", bad_set),)
        )
        rep = verify_nonsup_run(tampered, n_direct=50)
        member = next(s for s in rep["sections"] if s["name"] == "membership")
        assert member["status"] == "fail"
        assert not rep["ok"]

    def test_transcript_serialization_is_deterministic(self):
        r1 = play_game("eigenfree", 2, seed=7, adversary="passthrough")
        r2 = play_game("eigenfree", 2, seed=7, adversary="passthrough")
        s1 = json.dumps(game_run_to_dict(r1), sort_keys=True)
        s2 = json.dumps(game_run_to_dict(r2), sort_keys=True)
        assert s1 == s2
        # lazy transcripts stay small even at honest scale
        assert len(s1) < 20_000


class TestVerifyEigenfree:
    def test_honest_k2_passes_and_certifies(self):
        run = play_game("eigenfree", 2, seed=7, adversary="passthrough")
        rep = verify_eigenfree_run(run)
        assert rep["ok"] and rep["certified"]
        assert all(s["status"] == "pass" for s in rep["sections"])
        screen = next(s for s in rep["sections"] if s["name"] == "eigen_screen")
        counts = screen["records"][0]["counts"]
        assert counts["violation"] == 0
        assert counts["artifact"] >= 2  # the two spoke columns

    def test_toy_k4_passes_uncertified(self):
        run = play_game(
            "eigenfree", 4, seed=3, params=EigenfreeParams(toy=True), adversary="random"
        )
        rep = verify_eigenfree_run(run)
        assert rep["ok"]
        assert not rep["certified"]
        screen = next(s for s in rep["sections"] if s["name"] == "eigen_screen")
        counts = screen["records"][0]["counts"]
        assert counts["violation"] == 0
        assert counts["cut"] >= 1  # deepest round lies beyond the window

    def test_planted_modulus_violation_is_caught(self):
        # a dishonest round record claims tau = 0.5 while a diagonal entry
        # 0.3 in the spoke column produces an engaged eigenpair of modulus
        # about 0.3 < 1 - tau: the screen must flag it
        rd = dataclasses.replace(_toy_round(eps=1e-3), tau=0.5)
        blk = block_from_columns(
            rd.N_next, {0: {0: 0.3 + 0.0j}}, rounds=(rd,)
        )
        U0 = opening_position()
        U1 = BasicOpenSet(N=rd.N_next, A=blk, eps=1e-4)
        run = play_game("eigenfree", 1, seed=0, adversary="passthrough")
        tampered = dataclasses.replace(run, moves=(("I", U0), ("II", U1)))
        rep = verify_eigenfree_run(tampered)
        screen = next(s for s in rep["sections"] if s["name"] == "eigen_screen")
        assert screen["status"] == "fail"
        assert screen["records"][0]["counts"]["violation"] >= 1
        assert not rep["ok"]

    def test_row_coupling_bounds_exact(self):
        run = play_game("eigenfree", 2, seed=1, adversary="random")
        rep = verify_eigenfree_run(run)
        section = next(s for s in rep["sections"] if s["name"] == "row_coupling")
        assert section["status"] == "pass"
        for c in section["records"]:
            assert c["value"] <= c["bound"] + EXACT_TOL


class TestNanIsCarried:
    """A NaN mass, residual or floor must fail its record, not vanish from
    a running maximum or minimum."""

    @pytest.mark.parametrize("row, kind", [(3, "spoke"), (4, "chain")])
    def test_nan_row_mass_fails_its_complement_check(self, row, kind):
        # toy round N = 0, R = 3: rows 3, 6, 9, 12 are spokes, 4 and 5 chain
        rd = _toy_round()
        blk = block_from_columns(rd.N_next, {1: {row: math.nan}}, rounds=(rd,))
        checks = {c["name"]: c for c in game_mod._row_coupling_checks(blk)}
        rec = checks[f"round0_{kind}_row_complement"]
        assert math.isnan(rec["value"])
        assert rec["ok"] is False

    def test_nan_spoke_term_reaches_the_extended_residual(self):
        rd = dataclasses.replace(_toy_round(), eps=math.nan)
        blk = block_from_columns(rd.N_next, {0: {0: 0.5}}, rounds=(rd,))
        M2 = block_to_dense(blk, 2, 1)
        resid = game_mod._extended_residual(blk, M2, 0.5, np.array([1.0 + 0.0j]))
        assert math.isnan(resid)

    def test_nan_extended_residual_is_a_violation(self, monkeypatch):
        run = play_game("eigenfree", 2, seed=7, adversary="passthrough")
        monkeypatch.setattr(game_mod, "_extended_residual", lambda *args: math.nan)
        rep = verify_eigenfree_run(run)
        screen = next(s for s in rep["sections"] if s["name"] == "eigen_screen")
        assert screen["status"] == "fail"
        assert screen["records"][0]["counts"]["violation"] >= 1
        assert not rep["ok"]

    @pytest.mark.parametrize("field", ["grid", "exact"])
    def test_nan_floor_sample_fails_the_grid_record(self, monkeypatch, field):
        run = play_game("nonsup", 2, seed=2, adversary="passthrough")
        floor = game_mod.scaled_orbit_floor
        calls = []

        def poisoned(v):
            rec = floor(v)
            calls.append(None)
            if len(calls) == 3:
                rec[field] = math.nan
            return rec

        monkeypatch.setattr(game_mod, "scaled_orbit_floor", poisoned)
        rep = verify_nonsup_run(run, n_direct=50)
        section = next(s for s in rep["sections"] if s["name"] == "scaled_orbit_floor")
        name = "grid_floor_subsample" if field == "grid" else "grid_floor_gap_to_exact"
        rec = next(c for c in section["records"] if c["name"] == name)
        assert len(calls) > 3
        assert math.isnan(rec["value"])
        assert rec["ok"] is False
        assert section["status"] == "fail"


class TestScaledOrbitFloor:
    def test_two_coordinate_vector(self):
        v = np.array([1.0 + 0.0j, 1.0])
        rec = scaled_orbit_floor(v)
        assert rec["exact"] == pytest.approx(0.5, abs=0)
        assert rec["grid"] >= rec["exact"] - EXACT_TOL
        assert rec["grid"] == pytest.approx(0.5, abs=5e-3)

    def test_head_only_vector_has_zero_floor(self):
        v = np.array([0.5 - 0.5j, 0.0])
        rec = scaled_orbit_floor(v)
        assert rec["exact"] == 0.0
        assert rec["grid"] <= 2e-2

    def test_headless_vector_has_unit_floor(self):
        v = np.array([0.0 + 0.0j, 0.25j])
        rec = scaled_orbit_floor(v)
        assert rec["exact"] == 1.0
        assert rec["grid"] >= 1.0 - EXACT_TOL


class TestVerifyNonsup:
    def test_k3_random_adversary_full_report(self):
        run = play_game("nonsup", 3, seed=11, adversary="random")
        rep = verify_nonsup_run(run)
        assert rep["ok"] and rep["certified"]
        for s in rep["sections"]:
            assert s["status"] == "pass", s["name"]
        floor = next(s for s in rep["sections"] if s["name"] == "scaled_orbit_floor")
        names = [c["name"] for c in floor["records"]]
        assert "exact_floor_direct_range" in names
        assert "certified_floor_tail_range" in names  # L_5 exceeds n_direct

    def test_grid_floor_matches_independent_orbit_walk(self):
        # 600 steps span three orbit blocks, and the prefix reach (533) ends
        # inside the third.  The report walks by blocked powers and this test
        # by repeated M @ v, so the values agree to within ORBIT_DRIFT_TOL
        # and every verdict agrees exactly
        n_direct = 600
        assert n_direct > 2 * game_mod._ORBIT_BLOCK
        run = play_game("nonsup", 3, seed=7, adversary="random")
        rep = verify_nonsup_run(run, n_direct=n_direct)
        recs = {
            c["name"]: c
            for s in rep["sections"]
            if s["name"] in ("coordinate_floor", "prefix_bounds", "norm_coordinate_ratio")
            for c in s["records"]
        }
        floor = next(s for s in rep["sections"] if s["name"] == "scaled_orbit_floor")
        sub = next(c for c in floor["records"] if c["name"] == "grid_floor_subsample")
        gap = next(c for c in floor["records"] if c["name"] == "grid_floor_gap_to_exact")
        direct = next(c for c in floor["records"] if c["name"] == "exact_floor_direct_range")
        blk = run.final_set.A
        dim = blk.N + 1
        M = block_to_dense(blk, dim)
        x = np.zeros(dim, dtype=complex)
        x[0] = 1.0
        for rec in run.side:
            x[rec.N + 1] += 2.0 ** (-(rec.k + 1))
        want = set(sub["sampled_n"])
        assert sub["grid"] == game_mod._FLOOR_GRID
        assert max(want) == n_direct
        worst_grid, worst_gap = math.inf, 0.0
        worst_exact = math.inf
        coord_gap = {rec.k: math.inf for rec in run.side}
        coord_margin = {rec.k: math.inf for rec in run.side}
        ratio = {rec.k: -math.inf for rec in run.side}
        peaks = []
        v = x.copy()
        for n in range(n_direct + 1):
            if n in want:
                f = scaled_orbit_floor(v)
                worst_grid = min(worst_grid, f["grid"])
                worst_gap = max(worst_gap, abs(f["grid"] - f["exact"]))
            av = np.abs(v)
            a, s = float(av[0]), float(np.max(av[1:]))
            worst_exact = min(worst_exact, s / (a + s) if a + s > 0 else 1.0)
            peaks.append(float(np.max(av)))
            for kk, rec in enumerate(run.side):
                bound = 2.0 ** (-(rec.k + 1)) - 2.0 * n * rec.eps_next
                if bound > 0:
                    coord_gap[rec.k] = min(coord_gap[rec.k], av[rec.N + 1] - bound)
                    if n >= 1:
                        coord_margin[rec.k] = min(coord_margin[rec.k], av[rec.N + 1] - bound)
                lo_n = run.side[kk - 1].L if kk > 0 else 0
                if lo_n <= n < rec.L:
                    ratio[rec.k] = max(ratio[rec.k], peaks[-1] - 8.0 * av[rec.N + 1])
            v = M @ v

        def agrees(rec, walked, verdict):
            # the value within the drift bound, the verdict exactly
            assert abs(rec["value"] - walked) <= ORBIT_DRIFT_TOL, (rec["name"], walked)
            assert rec["ok"] is bool(verdict(walked)), rec["name"]

        assert abs(sub["value"] - worst_grid) <= ORBIT_DRIFT_TOL
        assert abs(gap["value"] - worst_gap) <= ORBIT_DRIFT_TOL
        assert sub["ok"] is (worst_grid >= 1.0 / 9.0 - ORBIT_SLACK)
        assert abs(direct["value"] - worst_exact) <= ORBIT_DRIFT_TOL
        assert direct["ok"] is (worst_exact >= 1.0 / 9.0 - ORBIT_SLACK)
        checkpoints = [kk for kk in range(1, len(run.side)) if run.side[kk - 1].L <= n_direct]
        assert checkpoints
        for kk in checkpoints:
            bound = 2.0 ** (-(kk - 1))
            agrees(
                recs[f"norm_checkpoint_k{kk}"],
                peaks[run.side[kk - 1].L],
                lambda w: w <= bound + ORBIT_SLACK,
            )
        for rec in run.side:
            gap = coord_gap[rec.k] if coord_gap[rec.k] < math.inf else 0.0
            agrees(recs[f"round{rec.k}_coordinate_floor"], -gap, lambda w: -w >= -ORBIT_SLACK)
            margin = recs[f"round{rec.k}_coordinate_floor"]["min_gap_n_ge_1"]
            assert abs(margin - coord_margin[rec.k]) <= ORBIT_DRIFT_TOL
            agrees(
                recs[f"round{rec.k}_norm_coordinate_ratio"],
                ratio[rec.k],
                lambda w: w <= ORBIT_SLACK,
            )
            # each round's prefix start, walked on its own
            w = x.copy()
            w[rec.N + 1 :] = 0.0
            worst_spill = worst_decay = -math.inf
            for n in range(1, min(rec.L, n_direct) + 1):
                w = M @ w
                spill = float(np.max(np.abs(w[rec.N + 1 :]))) if rec.N + 1 < dim else 0.0
                worst_spill = max(worst_spill, spill - n * (rec.N + 1) * rec.eps_next)
                worst_decay = max(
                    worst_decay, float(np.max(np.abs(w))) - (1.0 - rec.eps / 4.0) ** n
                )
            agrees(recs[f"round{rec.k}_prefix_spill"], worst_spill, lambda w: w <= ORBIT_SLACK)
            agrees(recs[f"round{rec.k}_prefix_decay"], worst_decay, lambda w: w <= ORBIT_SLACK)
        assert all(s["status"] == "pass" for s in rep["sections"])

    @pytest.mark.parametrize(
        "rounds, seed, adversary", [(2, 2, "passthrough"), (3, 7, "random")]
    )
    def test_block_size_cannot_move_the_report(self, monkeypatch, rounds, seed, adversary):
        # block size 1 walks by one gemm per step; the passthrough play's
        # prefix reach (533) ends mid-walk at n_direct = 2,000.  Blocked powers
        # round differently per block size, so values agree within
        # ORBIT_DRIFT_TOL and everything else (ok, status, names, ranges)
        # exactly; the seam diagnostic's own block and seam counts differ
        run = play_game("nonsup", rounds, seed=seed, adversary=adversary)
        for n_direct in (1, 200, 2_000):
            want = _flatten(verify_nonsup_run(run, n_direct=n_direct))
            for block in (1, 7, 64):
                monkeypatch.setattr(game_mod, "_ORBIT_BLOCK", block)
                got = _flatten(verify_nonsup_run(run, n_direct=n_direct))
                monkeypatch.undo()
                assert got.keys() == want.keys()
                for key, value in want.items():
                    if ".block_seam." in key:
                        continue
                    if isinstance(value, float):
                        assert abs(got[key] - value) <= ORBIT_DRIFT_TOL, (n_direct, block, key)
                    else:
                        assert got[key] == value, (n_direct, block, key)

    @pytest.mark.parametrize("seed", [1, 2, 3, 7])
    def test_block_seams_agree_with_one_more_step(self, seed):
        # M v_end and the next block's start P[B] S are two roundings of the
        # same vector: the seam residual is a consistency diagnostic
        run = play_game("nonsup", 3, seed=seed, adversary="random")
        rep = verify_nonsup_run(run)
        floor = next(s for s in rep["sections"] if s["name"] == "scaled_orbit_floor")
        direct = next(c for c in floor["records"] if c["name"] == "exact_floor_direct_range")
        seam = direct["block_seam"]
        assert seam["block"] == game_mod._ORBIT_BLOCK
        assert seam["seams"] == direct["checked_n"] // game_mod._ORBIT_BLOCK
        assert 0.0 <= seam["max_residual"] <= 1e-14
        assert rep["ok"]

    def test_game_report_is_byte_identical_across_runs_and_threads(self, tmp_path):
        # the blocked walk's stacked products must not depend on BLAS threads
        outs = []
        for threads in ("1", "1", "2"):
            out = tmp_path / f"game_{len(outs)}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "lplab", "game", "--strategy", "nonsup",
                 "--rounds", "3", "--seed", "7", "--out", str(out)],
                capture_output=True,
                text=True,
                timeout=300,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            )
            assert proc.returncode == 0, proc.stdout + proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("kwargs", [{"n_direct": 0}, {"n_direct": -3}])
    def test_empty_direct_range_is_refused(self, kwargs):
        # no check may pass over an empty range of orbit steps
        run = play_game("nonsup", 3, seed=7, adversary="random")
        with pytest.raises(ValueError, match="empty"):
            verify_nonsup_run(run, **kwargs)

    def test_floor_exceeds_one_ninth_on_direct_range(self):
        run = play_game("nonsup", 2, seed=2, adversary="passthrough")
        rep = verify_nonsup_run(run, n_direct=2_000)
        floor = next(s for s in rep["sections"] if s["name"] == "scaled_orbit_floor")
        direct = next(
            c for c in floor["records"] if c["name"] == "exact_floor_direct_range"
        )
        assert direct["ok"]
        assert direct["value"] >= 1.0 / 9.0 - 1e-12

    def test_tail_certificates_on_truncated_direct_range(self):
        run = play_game("nonsup", 2, seed=2, adversary="passthrough")
        rep = verify_nonsup_run(run, n_direct=50)
        floor = next(s for s in rep["sections"] if s["name"] == "scaled_orbit_floor")
        tail = next(
            c for c in floor["records"] if c["name"] == "certified_floor_tail_range"
        )
        assert tail["ok"]
        assert tail["certificates"]

    def test_coordinate_floor_reports_its_margin_past_step_zero(self):
        # at n = 0 the coordinate equals the bound, so the value is -0.0 on a pass;
        # the margin over n >= 1 is where the check shows its room
        run = play_game("nonsup", 3, seed=7, adversary="random")
        rep = verify_nonsup_run(run, n_direct=600)
        section = next(s for s in rep["sections"] if s["name"] == "coordinate_floor")
        first = section["records"][0]
        assert first["name"] == "round0_coordinate_floor" and first["ok"]
        assert first["value"] == 0.0
        assert first["min_gap_n_ge_1"] > 1e-3
        assert all(c["min_gap_n_ge_1"] >= -ORBIT_SLACK for c in section["records"])

    def test_coordinate_floor_round_zero_value(self):
        # exact first-step value: the tracked coordinate starts at 1/2 and
        # is damped only by later diagonal rescalings
        run = play_game("nonsup", 2, seed=3, adversary="passthrough")
        blk = run.final_set.A
        M = block_to_dense(blk, blk.N + 1)
        r = run.side[0].N + 1
        damp = abs(M[r, r])
        assert 0.0 < damp <= 1.0
        rep = verify_nonsup_run(run, n_direct=100)
        section = next(s for s in rep["sections"] if s["name"] == "coordinate_floor")
        assert all(c["ok"] for c in section["records"])
