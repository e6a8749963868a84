"""Tests for dense eigensolves and point-spectrum probes."""

from __future__ import annotations

import math

import numpy as np
import pytest

from lplab.constructions import build_S_A_omega
from lplab.operators import apply
from lplab.spaces import SpVector
from lplab.spectral import (
    OmegaWeights,
    eigs_dense,
    point_spectrum_SAomega,
)

TOL_RESIDUAL = 1e-10
TOL_EXACT = 1e-12


class TestEigsDense:
    def test_residuals_and_ordering(self):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        pairs = eigs_dense(M)
        assert len(pairs) == 6
        mags = [abs(ep.value) for ep in pairs]
        assert mags == sorted(mags, reverse=True)
        for ep in pairs:
            assert ep.residual < TOL_RESIDUAL
            v = np.asarray(ep.vector)
            direct = np.linalg.norm(M @ v - ep.value * v) / np.linalg.norm(v)
            assert direct < TOL_RESIDUAL

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            eigs_dense(np.eye(257))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_raises(self, bad):
        M = np.eye(3, dtype=complex)
        M[1, 2] = bad
        with pytest.raises(ValueError):
            eigs_dense(M)


class TestLambdaSets:
    """The ratio tests that decide both reconstruction series, seen through
    ``point_spectrum_SAomega``: an eigenpair exists iff the minus series
    converges and either the plus series converges or lam is an eigenvalue
    of the block."""

    def test_zero_lambda(self):
        # lam = 0 has no minus series, even for the zero block, whose kernel is
        # everything
        omega = OmegaWeights(left=0.5, right=0.8)
        assert point_spectrum_SAomega(np.zeros((5, 5)), omega, 0.0) is None
        assert point_spectrum_SAomega(np.eye(5), omega, 0.0) is None

    def test_interior_annulus(self):
        # left < |lam| < right: both series converge for any block
        omega = OmegaWeights(table={0: 0.01}, left=0.3, right=1.0)
        A = np.random.default_rng(4).normal(size=(3, 3))
        ep = point_spectrum_SAomega(A, omega, 0.5, window=40)
        assert ep is not None
        assert ep.residual < TOL_RESIDUAL
        assert _sweep_residual(A, omega, ep, 1) < 1e-8

    def test_table_never_decides(self):
        # finite tables perturb finitely many factors: convergence unchanged.
        # The block has eigenvalues 0.2 and 1.5, so at 1.5 the kernel carries
        # an eigenvector past the diverging plus series; at 0.2 nothing does.
        big = OmegaWeights(table={-5: 100.0, 7: 1e-6}, left=0.3, right=1.0)
        plain = OmegaWeights(left=0.3, right=1.0)
        A = np.diag([1.5, 0.2, 0.1, 0.4, 0.7])
        for lam, exists in ((0.2, False), (0.5, True), (1.5, True)):
            for omega in (big, plain):
                assert (point_spectrum_SAomega(A, omega, lam) is not None) == exists


def _sweep_residual(A, omega, ep, N):
    """Independent check: materialize the operator on a window and apply it
    to the reconstructed vector, comparing with lam * vector on inner rows."""
    S = build_S_A_omega(A, omega)
    vec: SpVector = ep.vector
    lo = min(j for j, _ in vec.entries)
    hi = max(j for j, _ in vec.entries)
    img = apply(S, vec)
    scale = max(abs(v) for _, v in vec.entries)
    inner_lo, inner_hi = lo + (2 * N + 1), hi - (2 * N + 1)
    worst = 0.0
    for j in range(inner_lo, inner_hi + 1):
        worst = max(worst, abs(img.at(j) - ep.value * vec.at(j)))
    return worst / scale


class TestPointSpectrum:
    def test_interior_annulus_eigenvector(self):
        rng = np.random.default_rng(5)
        N = 1
        A = 0.4 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        omega = OmegaWeights(table={-2: 0.05, 1: 0.02}, left=0.3, right=1.0)
        lam = 0.5 + 0.1j
        ep = point_spectrum_SAomega(A, omega, lam, window=40)
        assert ep is not None
        assert ep.residual < TOL_RESIDUAL
        assert _sweep_residual(A, omega, ep, N) < 1e-8

    def test_nan_residual_term_is_carried(self, monkeypatch):
        # NaN from the weight only on the residual loop's last row (k = W):
        # the reconstructed vector stays finite and the residual must be NaN
        A = 0.4 * np.eye(3, dtype=complex)
        omega = OmegaWeights(table={-2: 0.05, 1: 0.02}, left=0.3, right=1.0)
        value = OmegaWeights.value
        calls = []

        def counting(self, k):
            calls.append(k)
            return value(self, k)

        monkeypatch.setattr(OmegaWeights, "value", counting)
        clean = point_spectrum_SAomega(A, omega, 0.5, window=40)
        last = len(calls)
        calls.clear()

        def poisoned(self, k):
            calls.append(k)
            return math.nan if len(calls) == last else value(self, k)

        monkeypatch.setattr(OmegaWeights, "value", poisoned)
        ep = point_spectrum_SAomega(A, omega, 0.5, window=40)
        assert clean.residual < TOL_RESIDUAL
        assert ep.vector == clean.vector
        assert math.isnan(ep.residual)
        assert not ep.residual < TOL_RESIDUAL

    def test_kernel_branch(self):
        # |lam| >= right forces (A - lam) u = 0; pick A with eigenvalue 1.5
        A = np.diag([1.5, 0.2, 0.1])
        omega = OmegaWeights(left=0.3, right=1.0)
        ep = point_spectrum_SAomega(A, omega, 1.5, window=40)
        assert ep is not None
        assert ep.residual < TOL_RESIDUAL
        assert _sweep_residual(A, omega, ep, 1) < 1e-8

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_kernel_branch_non_finite_block_raises(self, bad):
        # no plus-set at |lam| >= right, so the SVD branch runs; np.linalg.svd
        # alone returns NaN (or hangs) on inf instead of raising
        A = np.diag([1.5, 0.2, 0.1]).astype(complex)
        A[0, 1] = bad
        omega = OmegaWeights(left=0.3, right=1.0)
        with pytest.raises(ValueError):
            point_spectrum_SAomega(A, omega, 1.5)

    def test_kernel_branch_rejects_non_eigenvalue(self):
        A = np.diag([1.5, 0.2, 0.1])
        omega = OmegaWeights(left=0.3, right=1.0)
        assert point_spectrum_SAomega(A, omega, 1.4) is None

    def test_small_lambda_rejected(self):
        A = np.zeros((3, 3))
        omega = OmegaWeights(left=0.3, right=1.0)
        assert point_spectrum_SAomega(A, omega, 0.0) is None
        assert point_spectrum_SAomega(A, omega, 0.2) is None

    def test_vector_is_summable_profile(self):
        # interior case: coordinates decay in both directions
        A = np.zeros((3, 3))
        omega = OmegaWeights(left=0.3, right=1.0)
        ep = point_spectrum_SAomega(A, omega, 0.6, window=60)
        vec = ep.vector
        far_left = abs(vec.at(-50))
        far_right = abs(vec.at(50))
        assert far_left < 1e-8
        assert far_right < 1e-8
