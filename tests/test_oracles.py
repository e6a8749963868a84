"""Frozen reference values computed independently of the library routines.

Each value here was produced by a separate calculation (closed forms, 1-D
reductions, or long partial sums) before the corresponding library code was
written.  These tests pin the library against those references.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from lplab.spaces import GeometricTail, PNorm, SpVector, norm

TOL_CLOSED_FORM = 1e-9
TOL_EXACT = 1e-12

# l3 -> l3 norm of [[1,1],[0,1]], via the 1-D reduction
# max ((a+b)^3 + b^3)^(1/3) over a^3 + b^3 = 1 (bounded scalar minimization
# and a 2e6-point grid agree to 2e-13).
UPPER_TRIANGULAR_L3_NORM = 1.6566253896185723
# Same matrix at p=2: largest singular value = golden ratio.
UPPER_TRIANGULAR_L2_NORM = 1.618033988749895


def test_tail_l2_norm_closed_form_vs_partial_sum():
    x = SpVector.make({0: 1.0}, GeometricTail(1, 0.5, 0.5))
    # ||x||_2^2 = 1 + (1/4)/(1 - 1/4) = 4/3
    expected = 2.0 / np.sqrt(3.0)
    assert norm(x, PNorm.lp(2)) == pytest.approx(expected, abs=TOL_EXACT)
    partial = 1.0 + sum(0.25**k for k in range(1, 10_001))
    assert norm(x, PNorm.lp(2)) == pytest.approx(np.sqrt(partial), abs=TOL_CLOSED_FORM)


def test_tail_general_p_closed_form_vs_partial_sum():
    t = GeometricTail(3, 0.7 - 0.2j, 0.6j)
    x = SpVector.make({0: 2.0, 5: 0.1}, t)
    for p in (1.0, 1.5, 3.0):
        direct = 2.0**p + 0.1**p
        for j in range(3, 20_000):
            if j == 5:
                continue
            direct += abs(t.value(j)) ** p
        assert norm(x, PNorm.lp(p)) == pytest.approx(direct ** (1 / p), abs=TOL_CLOSED_FORM)


def test_upper_triangular_matrix_norms_frozen():
    from lplab.operators import StructuredOperator, op_norm

    T = StructuredOperator.from_dense(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert op_norm(T, PNorm.lp(1)).value == pytest.approx(2.0, abs=TOL_EXACT)
    assert op_norm(T, PNorm.c0()).value == pytest.approx(2.0, abs=TOL_EXACT)
    assert op_norm(T, PNorm.lp(2)).value == pytest.approx(UPPER_TRIANGULAR_L2_NORM, abs=1e-10)
    assert op_norm(T, PNorm.lp(3)).value == pytest.approx(UPPER_TRIANGULAR_L3_NORM, abs=1e-8)


def test_upper_triangular_oracle_frozen():
    from lplab.operators import op_norm_oracle

    M = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert op_norm_oracle(M, PNorm.lp(3)).value == pytest.approx(
        UPPER_TRIANGULAR_L3_NORM, abs=1e-6
    )
    assert op_norm_oracle(M, PNorm.lp(1)).value == pytest.approx(2.0, abs=TOL_EXACT)
    assert op_norm_oracle(M, PNorm.c0()).value == pytest.approx(2.0, abs=TOL_EXACT)


def test_rudin_shapiro_k2_coefficients():
    from lplab.constructions import rudin_shapiro_pair

    np.testing.assert_array_equal(rudin_shapiro_pair(2)[0], np.array([1, 1, 1, -1]))


def test_lambda_sets_against_partial_sums():
    from lplab.constructions import OmegaWeights
    from lplab.spectral import lambda_sets

    N = 2
    omega = OmegaWeights(table={-3: 0.01, -2: 0.02, 0: 0.05}, left=0.3, right=1.0)
    for lam, minus_full, plus_full in [
        (0.5 + 0.1j, True, True),  # 0.3 < |lam| < 1
        (0.2, False, True),  # |lam| < 0.3: minus side diverges
        (1.5, True, False),  # |lam| > 1: plus side diverges
    ]:
        ls = lambda_sets(omega, lam, N)
        want_minus = tuple(range(-N, N + 1)) if minus_full else ()
        want_plus = tuple(range(-N, N + 1)) if plus_full else ()
        assert ls.minus == want_minus
        assert ls.plus == want_plus
        # log-space partial-sum cross-check on k = 0: the i-th term of the
        # minus-side series has log |prod omega / lam^i| with asymptotic slope
        # log(left) - log|lam|; summable iff the slope is negative.
        k = 0
        step = 2 * N + 1
        log_terms_minus = []
        acc = 0.0
        for i in range(1, 2000):
            acc += math.log(omega.value(k - (i - 1) * step))
            log_terms_minus.append(acc - i * math.log(abs(lam)))
        slope_minus = (log_terms_minus[-1] - log_terms_minus[999]) / 999.0
        assert (slope_minus < 0) == minus_full
        log_terms_plus = []
        acc = 0.0
        for i in range(1, 2000):
            acc += math.log(omega.value(k + (i - 1) * step))
            log_terms_plus.append(i * math.log(abs(lam)) - acc)
        slope_plus = (log_terms_plus[-1] - log_terms_plus[999]) / 999.0
        assert (slope_plus < 0) == plus_full
