"""Vector model: norms, pairing, algebra, labels."""

from __future__ import annotations

import math

import numpy as np
import pytest

from lplab.montecarlo import space_from_token
from lplab.spaces import (
    GeometricTail,
    PNorm,
    SpVector,
    dense_norm,
    norm,
    pairing,
    row_norms,
)

TOL = 1e-10
N_PAIRS = 1000


def _random_vector(rng: np.random.Generator, with_tail: bool = True) -> SpVector:
    n = int(rng.integers(0, 6))
    idx = rng.choice(40, size=n, replace=False) if n else []
    ents = {int(j): complex(rng.normal(), rng.normal()) for j in idx}
    tail = None
    if with_tail and rng.random() < 0.5:
        s = int(rng.integers(0, 30))
        c = complex(rng.normal(), rng.normal()) or 1.0
        r = 0.85 * rng.random() * np.exp(2j * np.pi * rng.random())
        tail = GeometricTail(s, c, r)
    return SpVector.make(ents, tail)


def _dense(x: SpVector, n: int = 4000) -> np.ndarray:
    return x.window(0, n)


class TestNorm:
    def test_triangle_inequality_random_pairs(self):
        rng = np.random.default_rng(20260301)
        norms = [PNorm.lp(1), PNorm.lp(1.7), PNorm.lp(2), PNorm.lp(3.5), PNorm.c0()]
        for trial in range(N_PAIRS):
            x = _random_vector(rng)
            y = _random_vector(rng)
            pn = norms[trial % len(norms)]
            try:
                z = x + y
            except ValueError:
                continue  # incompatible tail ratios
            assert norm(z, pn) <= norm(x, pn) + norm(y, pn) + TOL

    def test_norm_matches_dense_window(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = _random_vector(rng)
            d = _dense(x)
            assert norm(x, PNorm.lp(2)) == pytest.approx(np.linalg.norm(d), abs=1e-8)
            assert norm(x, PNorm.c0()) == pytest.approx(np.abs(d).max(), abs=1e-8)

    def test_homogeneity(self):
        rng = np.random.default_rng(11)
        x = _random_vector(rng)
        for pn in (PNorm.lp(1.5), PNorm.c0()):
            assert norm(x.scale(-2.5j), pn) == pytest.approx(2.5 * norm(x, pn), abs=TOL)

    @pytest.mark.parametrize("pn", [PNorm.lp(1), PNorm.lp(2.5), PNorm.c0()])
    def test_dense_norm_per_column(self, pn):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
        cols = dense_norm(X, pn)
        assert cols.shape == (4,)
        for k in range(4):
            x = SpVector.make({j: X[j, k] for j in range(5)})
            assert cols[k] == pytest.approx(norm(x, pn), rel=1e-14)
            assert dense_norm(X[:, k], pn) == pytest.approx(cols[k], rel=1e-14)


class TestScaledNorms:
    """Power sums that under- or overflow are summed again scaled by the
    largest modulus.  pyproject turns the overflow RuntimeWarning into an
    error, so these also show that dense_norm raises none; row_norms runs
    under the fixed-point loop's np.errstate(over="ignore"), as here."""

    @pytest.mark.parametrize(
        "entry, n, p", [(1.7e-85, 24, 4.0), (1e100, 5, 4.0), (1e-200, 2, 2.0), (1e300, 3, 1.5)]
    )
    def test_tiny_and_huge_vectors_get_their_norm(self, entry, n, p):
        want = entry * n ** (1.0 / p)
        z = np.full(n, entry) * np.exp(1j * np.arange(n))
        assert dense_norm(z, PNorm.lp(p)) == pytest.approx(want, rel=1e-14, abs=0.0)
        Z = np.stack([z, z[::-1], np.zeros(n), np.full(n, 0.5)])
        with np.errstate(over="ignore"):
            rows = row_norms(Z, PNorm.lp(p))
        assert rows[:2] == pytest.approx([want, want], rel=1e-14, abs=0.0)
        assert rows[2] == 0.0 and rows[3] == 0.5 * n ** (1.0 / p)
        np.testing.assert_array_equal(dense_norm(Z.T, PNorm.lp(p)), rows)

    @pytest.mark.parametrize("p", [1.5, 4.0])
    def test_nan_inf_and_zero_vectors_keep_their_norm(self, p):
        Z = np.array([[np.nan, 1e-200], [0.0, 0.0], [np.inf, 1e-200], [np.inf, np.nan]])
        with np.errstate(over="ignore"):
            rows = row_norms(Z, PNorm.lp(p))
        assert math.isnan(rows[0]) and rows[1] == 0.0 and rows[2] == np.inf
        assert math.isnan(rows[3])
        for z, v in zip(Z, rows):
            assert np.float64(dense_norm(z, PNorm.lp(p))).tobytes() == np.float64(v).tobytes()


class TestLabel:
    @pytest.mark.parametrize(
        "pn, label",
        [
            (PNorm.lp(1), "l1"),
            (PNorm.lp(1.5), "l1.5"),
            (PNorm.lp(2), "l2"),
            (PNorm.lp(2.5), "l2.5"),
            (PNorm.lp(3), "l3"),
            (PNorm.lp(4), "l4"),
            (PNorm.c0(), "c0"),
            (PNorm.lp(1.0000001), "l1.0000001"),
            (PNorm.lp(math.pi), "l3.141592653589793"),
        ],
    )
    def test_label_round_trips(self, pn, label):
        assert pn.label() == label
        assert space_from_token(pn.label()) == pn


class TestPairing:
    def test_bilinear_no_conjugation(self):
        f = SpVector.make({0: 1j})
        x = SpVector.make({0: 1j})
        assert pairing(f, x) == pytest.approx(-1.0)

    def test_tail_tail_closed_form(self):
        f = SpVector.make({}, GeometricTail(0, 1.0, 0.5))
        x = SpVector.make({}, GeometricTail(0, 1.0, 0.5))
        assert pairing(f, x) == pytest.approx(4.0 / 3.0, abs=TOL)

    def test_against_dense(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            f = _random_vector(rng)
            x = _random_vector(rng)
            want = np.sum(_dense(f) * _dense(x))
            assert pairing(f, x) == pytest.approx(want, abs=1e-8)


class TestAlgebra:
    def test_add_same_ratio_tails(self):
        a = SpVector.make({}, GeometricTail(0, 1.0, 0.5))
        b = SpVector.make({}, GeometricTail(2, 3.0, 0.5))
        c = a + b
        d = _dense(a) + _dense(b)
        np.testing.assert_allclose(_dense(c), d, atol=TOL)

    @pytest.mark.parametrize(
        "coeff, ratio",
        [
            (np.nan, 0.5),
            (complex(0.0, np.inf), 0.5),
            (1.0, np.nan),
            (1.0, complex(np.nan, 0.0)),
            (1.0, np.inf),
        ],
    )
    def test_non_finite_tail_rejected(self, coeff, ratio):
        with pytest.raises(ValueError):
            GeometricTail(0, coeff, ratio)

    def test_add_distinct_ratio_tails_raises(self):
        a = SpVector.make({}, GeometricTail(0, 1.0, 0.5))
        b = SpVector.make({}, GeometricTail(0, 1.0, 0.25))
        with pytest.raises(ValueError):
            a + b

    def test_cancellation_inside_tail_region(self):
        a = SpVector.make({}, GeometricTail(0, 1.0, 0.5))
        b = SpVector.make({3: -0.125})
        c = a + b
        assert all(v != 0 for _, v in c.entries)
        np.testing.assert_allclose(_dense(c, 10), _dense(a, 10) + _dense(b, 10), atol=TOL)
