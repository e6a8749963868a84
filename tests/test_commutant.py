"""Tests for Krylov triangularization and the cyclic eigen-family witness."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from lplab.commutant import (
    DegenerateSpectrum,
    KrylovDegenerate,
    bezout_residual,
    build_commutant_witness,
    eval_f_w,
    eval_f_w_grid,
    gram_schmidt_triangularize,
    krylov_rank,
    random_t1_contraction,
    witness_pairing_residual,
)
from lplab.operators import adjoint, apply, truncate
from lplab.spaces import GeometricTail, PNorm, SpVector, norm

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
        assert bezout_residual(wit) < TOL_WITNESS

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
            assert krylov_rank(Td, wit.x0.window(0, D)) == D

    def test_seeded_sweep(self):
        for N in (1, 2, 3):
            for seed in range(5):
                rng = np.random.default_rng(500 + 10 * N + seed)
                wit = build_commutant_witness(
                    random_t1_contraction(N + 2, rng), N, seed=seed
                )
                assert bezout_residual(wit) < TOL_WITNESS
                for w in (0.0, 0.5j, -0.4, 0.2 - 0.6j):
                    assert witness_pairing_residual(wit, eval_f_w(wit, w)) < TOL_WITNESS

    def test_jitter_fixes_triangular_head(self):
        # Upper-triangular head: the transposed square has an eigenvector
        # with vanishing first component, so the unjittered data are rejected.
        blk = np.zeros((3, 2), dtype=complex)
        blk[0, 0] = 0.5
        blk[0, 1] = 0.2
        blk[1, 1] = 1.0 / 3.0
        blk[2, 1] = 0.3
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
            eval_f_w_grid(wit, [0.1, w])

    def test_nan_residual_fails_the_eigen_check(self):
        wit = build_commutant_witness(_rotation_example_block(), 1)
        broken = replace(wit, betas=np.full_like(wit.betas, np.nan))
        with pytest.raises(AssertionError, match="residual nan"):
            eval_f_w(broken, 0.3)

    def test_eigen_equation_on_disk_grid(self):
        rng = np.random.default_rng(7)
        wit = build_commutant_witness(random_t1_contraction(4, rng), 2, seed=7)
        radii = np.linspace(0.05, 0.9, 40)
        angles = np.linspace(0.0, 2.0 * np.pi, 40, endpoint=False)
        for r, t in zip(radii, angles):
            w = r * np.exp(1j * t)
            f = eval_f_w(wit, w, window=80)
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


def _f_w_pointwise(wit, w: complex) -> SpVector:
    """Reference f_w: every polynomial evaluated at the single point w."""
    head = np.zeros(wit.N + 1, dtype=complex)
    for n, poly in enumerate(wit.reduced):
        head += wit.b_N * wit.betas[n] * complex(np.polyval(poly, w)) * wit.V[:, n]
    pw = complex(np.polyval(wit.p_coeffs, w))
    ents = {j: head[j] for j in range(wit.N + 1)}
    if pw != 0 and w != 0:
        return SpVector.make(ents, GeometricTail(wit.N + 1, pw, w))
    ents[wit.N + 1] = pw
    return SpVector.make(ents)


class TestEvalFwGrid:
    @pytest.mark.parametrize("N", [0, 1, 2, 3])
    def test_matches_pointwise_eval_and_image(self, N):
        rng = np.random.default_rng(40 + N)
        wit = build_commutant_witness(random_t1_contraction(N + 2, rng), N, seed=N)
        ws = CRITERION_GRID + [0.0] + [complex(lam) for lam in wit.lambdas]
        got = eval_f_w_grid(wit, ws)
        assert len(got) == len(ws)
        adj = adjoint(wit.op)
        for w, (f, image) in zip(ws, got):
            want = eval_f_w(wit, w)
            assert f == want == _f_w_pointwise(wit, w)
            assert image == apply(adj, want)

    def test_any_point_outside_disk_rejected(self):
        wit = build_commutant_witness(_rotation_example_block(), 1)
        for bad in (1.0, -1.2j, 0.8 + 0.6j):
            with pytest.raises(ValueError, match="summable"):
                eval_f_w_grid(wit, [0.0, 0.5, bad, 0.1j])

    def test_empty_grid(self):
        wit = build_commutant_witness(_rotation_example_block(), 1)
        assert eval_f_w_grid(wit, []) == []
