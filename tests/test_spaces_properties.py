"""Property tests: the closed-form SpVector algebra against dense windows.

A vector with a geometric tail of ratio |w| <= 0.9 is, to below 1e-25,
its dense window on [0, 600); ``add``, ``pairing`` and ``norm`` must agree
with the plain array operations on those windows.  Small integer parts
and entries that negate the other summand make exact cancellations (zero
sums, sums inside a tail) common.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lplab.spaces import GeometricTail, PNorm, SpVector, add, dense_norm, norm, pairing

WINDOW = 600
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

parts = st.one_of(st.integers(-3, 3).map(float), st.floats(-4.0, 4.0))
scalars = st.builds(complex, parts, parts)
ratios = st.sampled_from([0.5, -0.5, 0.5j, 0.3 + 0.4j, -0.75j, 0.9])


@st.composite
def vectors(draw, ratio: complex | None = None) -> SpVector:
    entries = draw(st.dictionaries(st.integers(0, 20), scalars, max_size=6))
    tail = None
    if draw(st.booleans()):
        start = draw(st.integers(0, 15))
        coeff = draw(scalars.filter(lambda c: c != 0))
        tail = GeometricTail(start, coeff, draw(ratios) if ratio is None else ratio)
    return SpVector.make(entries, tail)


@st.composite
def same_ratio_pairs(draw) -> tuple[SpVector, SpVector]:
    ratio = draw(ratios)
    x, y = draw(vectors(ratio)), draw(vectors(ratio))
    # entries of y that cancel x exactly, often inside the tails
    cancel = draw(st.lists(st.integers(0, 25), max_size=4))
    entries = dict(y.entries) | {j: -x.at(j) for j in cancel}
    return x, SpVector.make(entries, y.tail)


def _dense(x: SpVector) -> np.ndarray:
    return x.window(0, WINDOW)


@PROPERTY
@given(same_ratio_pairs())
def test_add_matches_dense_windows(pair):
    x, y = pair
    z = add(x, y)
    np.testing.assert_allclose(_dense(z), _dense(x) + _dense(y), rtol=0, atol=1e-12)
    assert all(v != 0 for _, v in z.entries)


@PROPERTY
@given(vectors(), vectors())
def test_pairing_matches_dense_windows(f, x):
    want = np.sum(_dense(f) * _dense(x))
    scale = 1.0 + np.sum(np.abs(_dense(f)) * np.abs(_dense(x)))
    assert abs(pairing(f, x) - want) <= 1e-12 * scale


@PROPERTY
@given(vectors(), st.sampled_from([PNorm.lp(1), PNorm.lp(1.5), PNorm.lp(2), PNorm.lp(3), PNorm.c0()]))
def test_norm_matches_dense_window(x, pn):
    want = float(dense_norm(_dense(x), pn))
    assert norm(x, pn) == pytest.approx(want, rel=1e-10, abs=1e-12)
