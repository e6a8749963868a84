"""Tests for the operator builders and their certified properties."""

from __future__ import annotations

import numpy as np
import pytest

from lplab.constructions import (
    EpsSeq,
    ExposednessUndetermined,
    OmegaWeights,
    SearchExhausted,
    build_B_eta_delta,
    build_coisometry_l1,
    build_S_A_omega,
    build_T1_coisometry_l1,
    check_evenly_distributed,
    delta_for_B,
    dq_witness,
    kan_check,
    kernel_vector_greedy,
    norm_lemma_constants,
    rudin_shapiro,
    shift_poly_gap,
    small_weight_delta,
)
from lplab.operators import (
    StructuredOperator,
    apply,
    dual_sup_norm,
    materialize,
    op_norm,
)
from lplab.spaces import IndexDomain, PNorm, SpVector, norm

TOL_EXACT = 1e-12
TOL_NORM = 1e-8


def _random_l1_contraction(rng, n, margin=0.0):
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    colsums = np.abs(M).sum(axis=0)
    return M / (colsums.max() * (1.0 + margin + 1e-9))


class TestSmallWeightDelta:
    def test_solves_half_margin_equation(self):
        for p in (1.0, 1.5, 2.0, 3.0):
            for na, eps in [(0.5, 0.25), (0.9, 0.1), (0.0, 0.3)]:
                d = small_weight_delta(p, na, eps)
                c1, c2 = norm_lemma_constants(p)
                lhs = (c1 + 1.0) * d**p + c2 * na ** (p - 1.0) * d
                assert lhs <= eps**p / 2.0 + 1e-15
                dd = d * (1.0 + 1e-6) + 1e-12
                lhs_up = (c1 + 1.0) * dd**p + c2 * na ** (p - 1.0) * dd
                assert lhs_up > eps**p / 2.0


class TestBuildSAomega:
    def test_matches_definition_on_window(self):
        rng = np.random.default_rng(11)
        N = 1
        step = 2 * N + 1
        A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        omega = OmegaWeights(table={-5: 0.7, 0: 0.2, 2: 1.3}, left=0.4, right=1.1)
        S = build_S_A_omega(A, omega)
        K = 30
        got = materialize(S, -K - step, K + 1, -K, K + 1)
        want = np.zeros_like(got)
        for j in range(-K, K + 1):
            want[j - step + K + step, j + K] += omega.value(j - step)
            if -N <= j <= N:
                for i in range(-N, N + 1):
                    want[i + K + step, j + K] += A[i + N, j + N]
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_norm_bound_small_inside_weights(self):
        rng = np.random.default_rng(7)
        N = 1
        p = 2.5
        pn = PNorm.lp(p)
        A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        base = StructuredOperator(
            block=A, row_offset=-1, col_offset=-1, rules=(), domain=IndexDomain.INTEGERS
        )
        na = op_norm(base, pn).value
        A = A * (0.8 / na)
        base = StructuredOperator(
            block=A, row_offset=-1, col_offset=-1, rules=(), domain=IndexDomain.INTEGERS
        )
        na = op_norm(base, pn).value
        eps = 0.3
        delta = small_weight_delta(p, na, eps)
        inside = {k: 0.9 * delta for k in range(-(3 * N + 1), N + 1)}
        omega = OmegaWeights(table=inside, left=1.0, right=1.0)
        S = build_S_A_omega(A, omega)
        bound = max((na**p + eps**p) ** (1.0 / p), 1.0)
        val = op_norm(S, pn).value
        assert val <= bound + TOL_NORM

    def test_l1_and_c0_norms_match_brute_force(self):
        rng = np.random.default_rng(3)
        A = 0.5 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        omega = OmegaWeights(table={0: 0.25}, left=0.6, right=0.9)
        S = build_S_A_omega(A, omega)
        K = 120
        W = materialize(S, -K - 5, K + 5, -K, K + 1)
        col_sums = np.abs(W).sum(axis=0).max()
        assert op_norm(S, PNorm.lp(1)).value == pytest.approx(col_sums, abs=TOL_EXACT)
        row_sums = np.abs(materialize(S, -K, K + 1, -K - 5, K + 6)).sum(axis=1).max()
        assert op_norm(S, PNorm.c0()).value == pytest.approx(row_sums, abs=TOL_EXACT)


class TestCoisometries:
    def test_plain_coisometry_norm_and_duals(self):
        rng = np.random.default_rng(21)
        N = 3
        A = _random_l1_contraction(rng, N + 1)
        T = build_coisometry_l1(A, N)
        assert op_norm(T, PNorm.lp(1)).value == pytest.approx(1.0, abs=TOL_EXACT)
        for seed in range(5):
            r2 = np.random.default_rng(seed)
            support = r2.integers(0, 12, size=4)
            xstar = SpVector.make(
                {int(j): complex(r2.normal(), r2.normal()) for j in support}
            )
            sup = max(abs(v) for _, v in xstar.entries)
            assert dual_sup_norm(T, xstar) == pytest.approx(sup, abs=TOL_EXACT)

    def test_t1_variant_columns_and_duals(self):
        rng = np.random.default_rng(4)
        N = 2
        A = _random_l1_contraction(rng, N + 1, margin=0.3)
        eps = EpsSeq(first=0.1, ratio=0.5)
        T = build_T1_coisometry_l1(A, N, eps)
        assert op_norm(T, PNorm.lp(1)).value == pytest.approx(1.0, abs=TOL_EXACT)
        # far column N+1+k: weights (1 - eps(1+k), eps(1+k)) sum to one exactly
        for k in range(6):
            col = T.column(N + 1 + k)
            vals = sorted(abs(v) for _, v in col.entries)
            assert sum(vals) == pytest.approx(1.0, abs=TOL_EXACT)
        # dual sup equals the sup norm of x*: approached along revisits
        xstar = SpVector.make({0: 0.3 + 0.1j, 2: -0.9, 5: 0.2})
        assert dual_sup_norm(T, xstar) == pytest.approx(0.9, abs=TOL_EXACT)

    def test_t1_variant_requires_room(self):
        A = np.eye(3, dtype=complex)  # column sums exactly 1: no room
        with pytest.raises(ValueError):
            build_T1_coisometry_l1(A, 2, EpsSeq(0.1, 0.5))


def _alpha(n):
    # alpha_0 = alpha_1 = 1, then halving: summable and positive
    return (1.0, 1.0) + tuple(2.0 ** (1 - j) for j in range(2, n))


class TestDqWitnessAndGreedy:
    def _setup(self, seed=0, q=2, steps=20):
        rng = np.random.default_rng(seed)
        n = 8
        A = _random_l1_contraction(rng, n)
        T0 = StructuredOperator(
            block=A, row_offset=0, col_offset=0, rules=(), domain=IndexDomain.NATURALS
        )
        alpha = _alpha(steps + 3)
        Ns = tuple(range(0, 3 * (q + 40), 3))
        return T0, alpha, Ns, q

    def test_witness_plan_and_kill(self):
        T0, alpha, Ns, q = self._setup()
        T, plan = dq_witness(T0, q, alpha, Ns, return_plan=True)
        # all singletons trigger: threshold alpha_1 = 1 vs contraction columns
        for j in range(q + 1):
            assert (j,) in plan
        pn = PNorm.lp(1)
        for tau, idx in plan.items():
            trial = SpVector.zero()
            for j, i in enumerate(tau):
                trial = trial + SpVector.basis(Ns[i]).scale(alpha[j])
            killer = trial + SpVector.basis(Ns[idx]).scale(alpha[len(tau)])
            assert norm(apply(T, killer), pn) < TOL_EXACT
            assert norm(apply(T, SpVector.basis(Ns[idx])), pn) <= 1.0 + TOL_EXACT

    def test_witness_preserves_early_columns(self):
        T0, alpha, Ns, q = self._setup(seed=1)
        T = dq_witness(T0, q, alpha, Ns)
        pn = PNorm.lp(1)
        for nidx in range(0, Ns[q] + 1):
            a = apply(T, SpVector.basis(nidx))
            b = apply(T0, SpVector.basis(nidx))
            assert norm(a + b.scale(-1.0), pn) < TOL_EXACT

    def test_zero_operator_all_tuples_trigger(self):
        q = 2
        T0 = StructuredOperator(
            block=np.zeros((1, 1), dtype=complex),
            row_offset=0,
            col_offset=0,
            rules=(),
            domain=IndexDomain.NATURALS,
        )
        alpha = _alpha(10)
        Ns = tuple(range(0, 60, 3))
        T, plan = dq_witness(T0, q, alpha, Ns, return_plan=True)
        assert len(plan) == 2 ** (q + 1) - 1

    def test_greedy_reaches_twenty_steps(self):
        for seed in range(3):
            T0, alpha, Ns, q = self._setup(seed=seed)
            T, plan = dq_witness(T0, q, alpha, Ns, return_plan=True)
            x, trace = kernel_vector_greedy(T, alpha, Ns, max_l=20)
            assert len(trace) == 20
            assert trace[0]["index"] == plan[(0,)]
            assert norm(apply(T, x), PNorm.lp(1)) < alpha[21]
            assert len(x.entries) == 21

    def test_greedy_fails_on_shift_at_step_one(self):
        # forward shift: image norms add up in l1, so step 1 exhausts
        n = 40
        block = np.zeros((n + 1, n), dtype=complex)
        for j in range(n):
            block[j + 1, j] = 1.0
        T = StructuredOperator(
            block=block, row_offset=0, col_offset=0, rules=(), domain=IndexDomain.NATURALS
        )
        alpha = _alpha(10)
        Ns = tuple(range(n))
        with pytest.raises(SearchExhausted, match="step 1"):
            kernel_vector_greedy(T, alpha, Ns, max_l=5)

    def test_alpha_convention_enforced(self):
        T0, _, Ns, q = self._setup()
        bad = tuple(0.9**j for j in range(25))
        with pytest.raises(ValueError):
            dq_witness(T0, q, bad, Ns)
        with pytest.raises(ValueError):
            kernel_vector_greedy(T0, bad, Ns, max_l=3)


class TestKanCheck:
    def test_strict_above_two(self):
        rng = np.random.default_rng(1)
        for p in (2.5, 3.0, 4.0, 8.0):
            for _ in range(200):
                u = complex(rng.normal(), rng.normal())
                v = complex(rng.normal(), rng.normal())
                if abs(v) == 0:
                    continue
                assert kan_check(u, v, p)

    def test_strict_below_two(self):
        rng = np.random.default_rng(2)
        for p in (0.5, 1.2, 1.8):
            for _ in range(200):
                u = complex(rng.normal(), rng.normal())
                v = complex(rng.normal(), rng.normal())
                if abs(u) == 0:
                    continue
                assert kan_check(u, v, p)

    def test_p_two_rejected(self):
        with pytest.raises(ValueError):
            kan_check(1.0, 1.0, 2.0)


class TestEvenlyDistributed:
    def test_doubled_operator_passes(self):
        rng = np.random.default_rng(17)
        p = 3.0
        N = 2
        A = rng.normal(size=(N + 1, N + 1)) + 1j * rng.normal(size=(N + 1, N + 1))
        A = A / (np.abs(A).sum() )
        rec = build_B_eta_delta(A, N, eta=0.5, p=p)
        passed, gamma, x1 = check_evenly_distributed(rec.op, PNorm.lp(p))
        assert passed
        assert gamma > 0.0

    def test_zero_row_fails(self):
        M = np.array([[0.7, 0.1], [0.0, 0.0]], dtype=complex)
        B = StructuredOperator(
            block=M, row_offset=0, col_offset=0, rules=(), domain=IndexDomain.NATURALS
        )
        passed, gamma, _ = check_evenly_distributed(B, PNorm.lp(3.0))
        assert not passed
        assert gamma == pytest.approx(0.0, abs=TOL_EXACT)

    def test_tied_directions_raise(self):
        M = np.diag([0.9, 0.9]).astype(complex)
        B = StructuredOperator(
            block=M, row_offset=0, col_offset=0, rules=(), domain=IndexDomain.NATURALS
        )
        with pytest.raises(ExposednessUndetermined):
            check_evenly_distributed(B, PNorm.lp(3.0))

    def test_non_finite_block_raises(self):
        # the ascent's best value is NaN; without the finiteness check the
        # call returned (False, nan, x1)
        M = np.ones((3, 3), dtype=complex)
        M[1, 2] = np.inf
        B = StructuredOperator.from_dense(M)
        with pytest.raises(ValueError, match="non-finite value"):
            check_evenly_distributed(B, PNorm.lp(3.0))


class TestBEtaDelta:
    @pytest.mark.parametrize("p,eta", [(2.5, 0.4), (3.0, 0.7), (4.0, 1.0)])
    def test_unit_norm_and_unit_gain(self, p, eta):
        rng = np.random.default_rng(int(p * 10))
        N = 2
        A = rng.normal(size=(N + 1, N + 1)) + 1j * rng.normal(size=(N + 1, N + 1))
        A = A / (np.abs(A).sum())  # comfortably small norm
        rec = build_B_eta_delta(A, N, eta=eta, p=p)
        pn = PNorm.lp(p)
        assert rec.closed_form_norm == pytest.approx(1.0, abs=TOL_EXACT)
        assert norm(rec.u0, pn) == pytest.approx(1.0, abs=1e-10)
        assert rec.gain_u0 == pytest.approx(1.0, abs=1e-10)
        assert op_norm(rec.op, pn).value == pytest.approx(1.0, abs=1e-6)

    def test_requires_room(self):
        A = np.eye(2, dtype=complex)
        with pytest.raises(ValueError):
            build_B_eta_delta(A, 1, eta=0.5, p=3.0)


class TestDeltaForB:
    def test_positive_and_capped(self):
        d = delta_for_B(gamma=0.3, eps=0.1, M=5, p=3.0)
        assert 0.0 < d <= 0.15
        # monotone in eps
        assert delta_for_B(0.3, 0.2, 5, 3.0) >= d
        # gamma/2 cap active for generous eps
        assert delta_for_B(0.3, 100.0, 5, 3.0) == pytest.approx(0.15, abs=TOL_EXACT)

    def test_requires_p_above_two(self):
        with pytest.raises(ValueError):
            delta_for_B(0.3, 0.1, 5, 2.0)


class TestFlatPolynomials:
    def test_recursion_small_cases(self):
        np.testing.assert_array_equal(rudin_shapiro(0), [1])
        np.testing.assert_array_equal(rudin_shapiro(1), [1, 1])
        np.testing.assert_array_equal(rudin_shapiro(2), [1, 1, 1, -1])
        np.testing.assert_array_equal(
            rudin_shapiro(3), [1, 1, 1, -1, 1, 1, -1, 1]
        )

    def test_signs_and_length(self):
        for k in range(8):
            c = rudin_shapiro(k)
            assert len(c) == 2**k
            assert set(np.unique(np.abs(c))) == {1}

    def test_gap_record(self):
        for k in (3, 6, 9):
            rec = shift_poly_gap(k, 1.0)
            d = 2**k - 1
            assert rec.d == d
            assert rec.orbit_norm == pytest.approx(float(d + 1), abs=TOL_EXACT)
            assert rec.sup_sample <= rec.sup_bound + 1e-9
            assert rec.ratio_sample >= rec.ratio_floor
            assert rec.ok

    def test_gap_grows_for_l1(self):
        r3 = shift_poly_gap(3, 1.0)
        r8 = shift_poly_gap(8, 1.0)
        assert r8.ratio_sample > r3.ratio_sample > 1.0
