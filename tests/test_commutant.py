"""Tests for Krylov triangularization and the cyclic eigen-family witness."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from lplab import commutant
from lplab.commutant import (
    DegenerateSpectrum,
    KrylovDegenerate,
    bezout_residual,
    build_commutant_witness,
    build_commutant_witnesses,
    eval_f_w,
    f_w_residuals,
    gram_schmidt_triangularize,
    krylov_rank,
    random_t1_contraction,
    random_t1_contractions,
    witness_pairing_residual,
)
from lplab.operators import adjoint, apply, truncate
from lplab.spaces import PNorm, SpVector, norm, pairing

TOL_ENTRYWISE = 1e-12
TOL_UNITARY = 1e-10
TOL_WITNESS = 1e-8


def _rotation_example_block() -> np.ndarray:
    """Head square with eigenvalues exactly {1/2, 1/3}, coupling 0.3."""
    th = 0.7
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    head = rot @ np.diag([0.5, 1.0 / 3.0]) @ rot.T
    blk = np.zeros((3, 2), dtype=complex)
    blk[:2, :2] = head
    blk[2, 1] = 0.3
    return blk


class TestGramSchmidtTriangularize:
    def test_t1_input_reproduced_entrywise(self):
        rng = np.random.default_rng(11)
        for _ in range(3):
            T = random_t1_contraction(9, rng)
            e0 = np.zeros(9)
            e0[0] = 1.0
            U, R = gram_schmidt_triangularize(T, e0)
            assert np.max(np.abs(R - T)) < TOL_ENTRYWISE
            assert np.max(np.abs(U - np.eye(9))) < TOL_ENTRYWISE

    def test_generic_contraction_hessenberg_form(self):
        rng = np.random.default_rng(4)
        D = 20
        M = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
        M *= 0.9 / np.linalg.svd(M, compute_uv=False)[0]
        e0 = np.zeros(D)
        e0[0] = 1.0
        U, R = gram_schmidt_triangularize(M, e0)
        assert np.max(np.abs(U @ U.conj().T - np.eye(D))) < TOL_UNITARY
        assert np.max(np.abs(U @ M @ np.linalg.inv(U) - R)) < TOL_UNITARY
        for i in range(D):
            for j in range(D):
                if i > j + 1:
                    assert R[i, j] == 0
        for j in range(D - 1):
            assert R[j + 1, j].real > 0
            assert R[j + 1, j].imag == 0

    def test_identity_is_degenerate(self):
        with pytest.raises(KrylovDegenerate):
            gram_schmidt_triangularize(np.eye(4), np.ones(4))

    def test_zero_seed_and_shape_errors(self):
        with pytest.raises(KrylovDegenerate):
            gram_schmidt_triangularize(np.eye(3), np.zeros(3))
        with pytest.raises(ValueError):
            gram_schmidt_triangularize(np.ones((2, 3)), np.ones(2))
        with pytest.raises(ValueError):
            gram_schmidt_triangularize(np.eye(3), np.ones(4))

    def test_seed_other_than_e0(self):
        rng = np.random.default_rng(6)
        D = 8
        M = rng.standard_normal((D, D))
        M *= 0.8 / np.linalg.svd(M, compute_uv=False)[0]
        f0 = rng.standard_normal(D)
        U, R = gram_schmidt_triangularize(M, f0)
        assert np.max(np.abs(U @ U.conj().T - np.eye(D))) < TOL_UNITARY
        # First row of U is the normalized seed.
        assert np.max(np.abs(U[0] - f0 / np.linalg.norm(f0))) < TOL_UNITARY


class TestBuildCommutantWitness:
    def test_rotation_example(self):
        wit = build_commutant_witness(_rotation_example_block(), 1)
        lams = sorted(wit.lambdas.tolist(), key=lambda z: z.real)
        assert lams[0] == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert lams[1] == pytest.approx(0.5, abs=1e-10)
        assert wit.b_N == pytest.approx(0.3, abs=1e-14)
        assert bezout_residual([wit])[0] < TOL_WITNESS

    def test_polynomial_invariants(self):
        wit = build_commutant_witness(_rotation_example_block(), 1)
        for lam in wit.lambdas:
            assert abs(np.polyval(wit.p_coeffs, lam)) < 1e-10
            assert abs(np.polyval(wit.q_coeffs, lam)) > 1e-10
        assert len(wit.s_coeffs) == wit.N + 1  # deg s <= N
        assert np.min(np.abs(wit.V[0, :])) > 1e-10
        assert np.min(np.abs(wit.betas)) > 1e-10
        # beta expands e_N in the eigenbasis of the transposed head square.
        e_last = np.zeros(wit.N + 1)
        e_last[wit.N] = 1.0
        assert np.max(np.abs(wit.V @ wit.betas - e_last)) < 1e-10

    def test_pairing_with_x0_is_one(self):
        wit = build_commutant_witness(_rotation_example_block(), 1)
        for w in (0.0, 0.3j, -0.5):
            assert witness_pairing_residual(wit, eval_f_w(wit, w)) < TOL_WITNESS

    def test_x0_cyclic_at_truncation(self):
        for N in (1, 2, 3):
            rng = np.random.default_rng(100 + N)
            wit = build_commutant_witness(random_t1_contraction(N + 2, rng), N)
            D = 3 * (N + 2)
            Td = truncate(wit.op, D)
            x = np.pad(wit.x0, (0, D - len(wit.x0)))
            K = np.column_stack([np.linalg.matrix_power(Td, j) @ x for j in range(D)])
            assert krylov_rank([wit], D)[0] == np.linalg.matrix_rank(K) == D

    @pytest.mark.parametrize("N", [0, 1, 2, 3, 5])
    def test_x0_is_horner_on_the_whole_operator(self, N):
        """Nothing leaves the window 0..2N+1: Horner with the SpVector engine on
        the whole operator gives x0, with no entry past the window."""
        rng = np.random.default_rng(60 + N)
        wit = build_commutant_witness(random_t1_contraction(N + 2, rng), N, seed=N)
        x = SpVector.make({})
        for coeffs, j in ((wit.r_coeffs, N + 1), (wit.s_coeffs, 0)):
            acc = SpVector.make({})
            for c in coeffs:
                acc = apply(wit.op, acc) + SpVector.make({j: c})
            x = x + acc
        assert x.tail is None and max(j for j, _ in x.entries) <= 2 * N + 1
        ref = x.window(0, 2 * N + 2)
        assert wit.x0.shape == ref.shape
        assert np.abs(wit.x0 - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_seeded_sweep(self):
        for N in (1, 2, 3):
            for seed in range(5):
                rng = np.random.default_rng(500 + 10 * N + seed)
                wit = build_commutant_witness(
                    random_t1_contraction(N + 2, rng), N, seed=seed
                )
                assert bezout_residual([wit])[0] < TOL_WITNESS
                for w in (0.0, 0.5j, -0.4, 0.2 - 0.6j):
                    assert witness_pairing_residual(wit, eval_f_w(wit, w)) < TOL_WITNESS

    def test_jitter_fixes_triangular_head(self):
        blk = _triangular_block()
        with pytest.raises(DegenerateSpectrum):
            build_commutant_witness(blk, 1, max_jitter=0)
        wit = build_commutant_witness(blk, 1)
        lams = sorted(wit.lambdas.tolist(), key=lambda z: z.real)
        assert lams[0] == pytest.approx(1.0 / 3.0, abs=1e-6)
        assert lams[1] == pytest.approx(0.5, abs=1e-6)
        assert witness_pairing_residual(wit, eval_f_w(wit, 0.25)) < TOL_WITNESS

    def test_input_validation(self):
        blk = _rotation_example_block()
        bad = blk.copy()
        bad[2, 1] = -0.3
        with pytest.raises(ValueError, match="positive"):
            build_commutant_witness(bad, 1)
        with pytest.raises(ValueError, match="contraction"):
            build_commutant_witness(blk * 3.0, 1)
        tall = np.zeros((5, 2), dtype=complex)
        tall[:3, :2] = blk
        tall[4, 0] = 0.1
        with pytest.raises(ValueError, match="vanish"):
            build_commutant_witness(tall, 1)
        with pytest.raises(ValueError, match="rows"):
            build_commutant_witness(blk[:2, :], 1)

    def test_full_t1_matrix_input_accepted(self):
        rng = np.random.default_rng(9)
        T = random_t1_contraction(8, rng)
        wit = build_commutant_witness(T, 2)
        assert wit.b_N == pytest.approx(T[3, 2].real, abs=1e-14)
        assert witness_pairing_residual(wit, eval_f_w(wit, 0.1 + 0.2j)) < TOL_WITNESS


def _bits(wit) -> tuple:
    """Every field of a witness, arrays as (dtype, shape, bytes)."""
    arrays = (wit.lambdas, wit.V, wit.betas, wit.p_coeffs, wit.q_coeffs, wit.r_coeffs)
    arrays += (wit.s_coeffs, *wit.reduced, wit.x0, wit.op.block)
    head = (wit.N, np.float64(wit.b_N).tobytes(), len(wit.reduced), wit.op.rules)
    return head + tuple((a.dtype.str, a.shape, a.tobytes()) for a in arrays)


def _triangular_block() -> np.ndarray:
    """Upper-triangular head: the transposed square has an eigenvector with
    vanishing first component, so the unjittered data are rejected."""
    blk = np.zeros((3, 2), dtype=complex)
    blk[0, 0] = 0.5
    blk[0, 1] = 0.2
    blk[1, 1] = 1.0 / 3.0
    blk[2, 1] = 0.3
    return blk


class TestWitnessStack:
    """A member of a stack gets the bits of its own one-witness build."""

    def _assert_members_are_lone_builds(self, Bs, N, seeds, ws=(0.0, 0.3j, -0.55 + 0.4j)):
        stack = build_commutant_witnesses(Bs, N, seeds)
        lone = [build_commutant_witness(B, N, seed=s) for B, s in zip(Bs, seeds)]
        assert [_bits(w) for w in stack] == [_bits(w) for w in lone]
        D = 3 * (N + 2)
        eigen, pair = f_w_residuals(stack, ws)
        for m, wit in enumerate(lone):
            assert bezout_residual(stack)[m].tobytes() == bezout_residual([wit])[0].tobytes()
            assert krylov_rank(stack, D)[m] == krylov_rank([wit], D)[0] == D
            (e1,), (p1,) = f_w_residuals([wit], ws)
            assert eigen[m].tobytes() == e1.tobytes() and pair[m].tobytes() == p1.tobytes()
        return stack

    @pytest.mark.parametrize("N", [0, 1, 2, 3])
    def test_random_stacks(self, N):
        rng = np.random.default_rng(80 + N)
        for size in (1, 2, 7, 20):
            keys = rng.integers(0, 2**32, size).tolist()
            Ts = random_t1_contractions(N + 2, [np.random.default_rng(k) for k in keys])
            for T, k in zip(Ts, keys):
                assert T.tobytes() == random_t1_contraction(N + 2, np.random.default_rng(k)).tobytes()
            self._assert_members_are_lone_builds(Ts, N, rng.integers(0, 1000, size).tolist())

    def test_a_jittered_member_mid_stack(self):
        rng = np.random.default_rng(90)
        Bs = [random_t1_contraction(3, rng)[:, :2] for _ in range(4)]
        Bs.insert(2, _triangular_block())
        Bs.insert(4, 0.9 * _triangular_block())
        for m in (2, 4):
            with pytest.raises(DegenerateSpectrum):
                build_commutant_witness(Bs[m], 1, max_jitter=0)
        stack = self._assert_members_are_lone_builds(Bs, 1, [3, 1, 4, 1, 5, 9])
        lams = sorted(stack[2].lambdas.tolist(), key=lambda z: z.real)
        assert lams == pytest.approx([1.0 / 3.0, 0.5], abs=1e-6)

    def test_a_member_out_of_jitter_fails_the_stack(self):
        rng = np.random.default_rng(91)
        Bs = [random_t1_contraction(3, rng)[:, :2], _triangular_block()]
        with pytest.raises(DegenerateSpectrum, match="after 0 jitter attempts"):
            build_commutant_witnesses(Bs, 1, [0, 0], max_jitter=0)

    def test_a_malformed_member_fails_the_stack(self):
        good = _rotation_example_block()
        for bad, match in (
            (good * np.array([[1.0], [1.0], [-1.0]]), "positive"),
            (good * 3.0, "contraction"),
        ):
            with pytest.raises(ValueError, match=match):
                build_commutant_witnesses([good, bad, good], 1, [0, 1, 2])
        with pytest.raises(ValueError, match="one seed each"):
            build_commutant_witnesses([good, good], 1, [0])


class TestStackedPolynomials:
    """The stacked recurrences against NumPy's one-polynomial helpers: Horner
    runs as np.polyval runs it, the others sum in another order."""

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_against_numpy(self, n):
        rng = np.random.default_rng(95 + n)
        roots = 0.95 * rng.random((6, n)) * np.exp(2j * np.pi * rng.random((6, n)))
        a = rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n))
        b = rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n))
        x = 0.9 * np.exp(2j * np.pi * rng.random((6, 5)))
        tol = 64 * np.finfo(float).eps
        p = commutant._poly(roots)
        u = commutant._polymul(a, p)
        u[:, -n:] += b
        quo, rem = commutant._polydiv_monic(u, p)
        vals = commutant._polyval(u, x)
        for m in range(6):
            assert np.allclose(p[m], np.poly(roots[m]), rtol=0, atol=tol)
            assert np.allclose(u[m, :-n], np.polymul(a[m], p[m])[:-n], rtol=0, atol=tol)
            assert np.allclose(quo[m], a[m], rtol=0, atol=tol) and np.allclose(rem[m], b[m], rtol=0, atol=tol)
            assert vals[m].tobytes() == np.polyval(u[m], x[m]).tobytes()


class TestEvalFw:
    def test_w_zero_finitely_supported(self):
        wit = build_commutant_witness(_rotation_example_block(), 1)
        f0 = eval_f_w(wit, 0.0)
        assert f0.tail is None
        assert f0.tail is None
        image = apply(adjoint(wit.op), f0)
        assert norm(image, PNorm.lp(2.0)) < 1e-12

    def test_w_at_eigenvalue_well_defined(self):
        wit = build_commutant_witness(_rotation_example_block(), 1)
        for lam in wit.lambdas:
            f = eval_f_w(wit, lam)
            # The head part collapses to a single transpose-eigenvector.
            assert norm(f, PNorm.lp(2.0)) > 0
            assert witness_pairing_residual(wit, f) < TOL_WITNESS

    def test_outside_disk_rejected(self):
        wit = build_commutant_witness(_rotation_example_block(), 1)
        with pytest.raises(ValueError, match="summable"):
            eval_f_w(wit, 1.0)
        with pytest.raises(ValueError, match="summable"):
            eval_f_w(wit, -1.2j)

    @pytest.mark.parametrize("w", [np.nan, complex(0.2, np.nan), np.inf, complex(0.0, -np.inf)])
    def test_non_finite_w_rejected(self, w):
        wit = build_commutant_witness(_rotation_example_block(), 1)
        with pytest.raises(ValueError, match="non-finite"):
            eval_f_w(wit, w)
        with pytest.raises(ValueError, match="non-finite"):
            f_w_residuals([wit], [0.1, w])

    def test_nan_residual_fails_the_eigen_check(self):
        wit = build_commutant_witness(_rotation_example_block(), 1)
        broken = replace(wit, betas=np.full_like(wit.betas, np.nan))
        with pytest.raises(AssertionError, match="residual nan"):
            eval_f_w(broken, 0.3)

    def test_vanishing_f_w_fails_the_eigen_check(self):
        wit = build_commutant_witness(_rotation_example_block(), 1)
        zero = replace(wit, betas=0 * wit.betas, p_coeffs=0 * wit.p_coeffs)
        with pytest.raises(AssertionError, match="residual 0.000e.00 at"):
            eval_f_w(zero, 0.3)

    def test_eigen_equation_on_disk_grid(self):
        rng = np.random.default_rng(7)
        wit = build_commutant_witness(random_t1_contraction(4, rng), 2, seed=7)
        radii = np.linspace(0.05, 0.9, 40)
        angles = np.linspace(0.0, 2.0 * np.pi, 40, endpoint=False)
        for r, t in zip(radii, angles):
            w = r * np.exp(1j * t)
            f = eval_f_w(wit, w)
            image = apply(adjoint(wit.op), f)
            hi = 81
            res = np.linalg.norm(image.window(0, hi) - w * f.window(0, hi))
            assert res < TOL_WITNESS

    def test_tail_matches_powers_of_w(self):
        wit = build_commutant_witness(_rotation_example_block(), 1)
        w = 0.4 - 0.3j
        f = eval_f_w(wit, w)
        pw = np.polyval(wit.p_coeffs, w)
        for j in range(2, 8):
            assert f.at(j) == pytest.approx(pw * w ** (j - 2), abs=1e-14)


# The grid criterion 11 checks: w = 0 plus three rings of eight points.
CRITERION_GRID = [0.0 + 0.0j] + [
    complex(r * np.exp(2j * np.pi * j / 8)) for r in (0.3, 0.6, 0.9) for j in range(8)
]


def _f_w_pointwise(wit, w: complex) -> tuple[np.ndarray, np.ndarray, complex]:
    """Reference f_w at the single point w, as a scalar chain per term:
    the head on 0..N, the sum of its terms' moduli, and p(w)."""
    head = np.zeros(wit.N + 1, dtype=complex)
    scale = np.zeros(wit.N + 1)
    for n, poly in enumerate(wit.reduced):
        term = wit.b_N * wit.betas[n] * complex(np.polyval(poly, w)) * wit.V[:, n]
        head += term
        scale += np.abs(term)
    return head, scale, complex(np.polyval(wit.p_coeffs, w))


class TestEvalFwGrid:
    @pytest.mark.parametrize("N", [0, 1, 2, 3])
    def test_matches_pointwise_eval_and_image(self, N):
        """The array pass against apply(adjoint(T), f_w), spaces.norm and
        pairing, point by point; f_w against the scalar reference."""
        rng = np.random.default_rng(40 + N)
        wit = build_commutant_witness(random_t1_contraction(N + 2, rng), N, seed=N)
        ws = CRITERION_GRID + [0.0] + [complex(lam) for lam in wit.lambdas]
        (eigen,), (pair,) = f_w_residuals([wit], ws)
        assert eigen.shape == pair.shape == (len(ws),)
        adj, pn2 = adjoint(wit.op), PNorm.lp(2.0)
        eps = np.finfo(float).eps
        for w, eigen_w, pair_w in zip(ws, eigen, pair):
            f = eval_f_w(wit, w)
            head, scale, pw = _f_w_pointwise(wit, w)
            assert np.all(np.abs(f.window(0, N + 1) - head) <= 8 * eps * scale)
            p_scale = np.polyval(np.abs(wit.p_coeffs), abs(w))
            assert abs(f.at(N + 1) - pw) <= 8 * eps * p_scale
            image = apply(adj, f)
            residual = image + f.scale(-w)
            # the image's tail is w f_w's tail, bit for bit
            assert residual.tail is None
            assert all(j <= N for j, _ in residual.entries)
            assert abs(norm(residual, pn2) / norm(f, pn2) - eigen_w) <= 1e-15
            x0 = SpVector.make(enumerate(wit.x0))
            assert abs(abs(pairing(f, x0) - 1.0) - pair_w) <= 1e-15

    def test_any_point_outside_disk_rejected(self):
        wit = build_commutant_witness(_rotation_example_block(), 1)
        for bad in (1.0, -1.2j, 0.8 + 0.6j):
            with pytest.raises(ValueError, match="summable"):
                f_w_residuals([wit], [0.0, 0.5, bad, 0.1j])

    def test_empty_grid(self):
        wit = build_commutant_witness(_rotation_example_block(), 1)
        eigen, pair = f_w_residuals([wit], [])
        assert eigen.shape == pair.shape == (1, 0)
