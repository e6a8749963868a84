"""Property tests: the closed-form SpVector algebra against dense windows.

A vector with a geometric tail of ratio |w| <= 0.9 is, to below 1e-25,
its dense window on [0, 600); ``add``, ``pairing`` and ``norm`` must agree
with the plain array operations on those windows.  Small integer parts
and entries that negate the other summand make exact cancellations (zero
sums, sums inside a tail) common.

``add``, ``pairing`` and ``SpVector.make`` must also equal, bit for bit,
the references below, which look every index up with ``SpVector.at`` and
normalise entries in two passes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lplab.spaces import (
    GeometricTail,
    IndexDomain,
    PNorm,
    SpVector,
    _merge_tails,
    add,
    dense_norm,
    norm,
    pairing,
)

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


# --- bitwise references -----------------------------------------------------


def _add_by_at(x: SpVector, y: SpVector) -> SpVector:
    """``add`` with a scan of the entries (``SpVector.at``) per index."""
    tail, extra = _merge_tails(x.tail, y.tail)
    values: dict[int, complex] = dict(extra)
    touched = {j for j, _ in x.entries} | {j for j, _ in y.entries}
    for j in touched:
        values[j] = x.at(j) + y.at(j)
    if tail is not None:
        zero_in_tail = [j for j, v in values.items() if j >= tail.start and v == 0]
        if zero_in_tail:
            cut = max(zero_in_tail) + 1
            for j in range(tail.start, cut):
                if j not in values:
                    values[j] = tail.value(j)
            coeff = tail.coeff * tail.ratio ** (cut - tail.start)
            tail = GeometricTail(cut, coeff, tail.ratio) if coeff != 0 else None
    return SpVector.make(values, tail, x.domain)


def _pairing_by_at(f: SpVector, x: SpVector) -> complex:
    """``pairing`` with a scan of x's entries (``SpVector.at``) per entry of f."""
    total = 0.0 + 0.0j
    f_over = {j for j, _ in f.entries}
    x_over = {j for j, _ in x.entries}
    for j, v in f.entries:
        total += v * x.at(j)
    if f.tail is not None:
        tf = f.tail
        for j, v in x.entries:
            if j not in f_over:
                total += tf.value(j) * v
        if x.tail is not None:
            tx = x.tail
            s = max(tf.start, tx.start)
            total += tf.value(s) * tx.value(s) / (1.0 - tf.ratio * tx.ratio)
            for j in f_over | x_over:
                if j >= s:
                    total -= tf.value(j) * tx.value(j)
    return total


def _entries_two_pass(items, tail: GeometricTail | None) -> tuple:
    """``SpVector.make``'s entries: keep each index's last value, then drop
    zeros and restated tail values."""
    out = {int(j): complex(v) for j, v in items}
    for j in [j for j, v in out.items() if v == 0 or (tail is not None and j >= tail.start and v == tail.value(j))]:
        del out[j]
    return tuple(sorted(out.items()))


def _c_bits(v: complex) -> bytes:
    return np.complex128(v).tobytes()


def _vec_bits(x: SpVector) -> tuple:
    tail = None
    if x.tail is not None:
        tail = (x.tail.start, _c_bits(x.tail.coeff), _c_bits(x.tail.ratio))
    return tuple((j, _c_bits(v)) for j, v in x.entries), tail, x.domain


# entries that are NaN, or that restate or negate the other vector's tail value
nan_or_scalar = st.one_of(scalars, st.just(complex(np.nan, 0.0)), st.just(complex(1.0, np.nan)))


@st.composite
def overriding_pairs(draw) -> tuple[SpVector, SpVector]:
    x, y = draw(same_ratio_pairs())
    picks = draw(st.lists(st.tuples(st.integers(0, 25), st.integers(0, 3)), max_size=5))
    entries = dict(y.entries)
    for j, kind in picks:
        if kind == 0 and x.tail is not None:
            entries[j] = x.tail.value(j)  # the other summand's tail value
        elif kind == 1 and y.tail is not None:
            entries[j] = -y.tail.value(j) + x.at(j)  # overrides y's own tail
        elif kind == 2:
            entries[j] = draw(nan_or_scalar)
    return x, SpVector.make(entries, y.tail)


@PROPERTY
@given(overriding_pairs())
def test_add_equals_the_at_reference_bitwise(pair):
    x, y = pair
    assert _vec_bits(add(x, y)) == _vec_bits(_add_by_at(x, y))
    assert _vec_bits(add(y, x)) == _vec_bits(_add_by_at(y, x))


@PROPERTY
@given(overriding_pairs())
def test_pairing_equals_the_at_reference_bitwise(pair):
    f, x = pair
    assert _c_bits(pairing(f, x)) == _c_bits(_pairing_by_at(f, x))
    assert _c_bits(pairing(x, f)) == _c_bits(_pairing_by_at(x, f))


def test_add_restarts_the_tail_after_a_zero_sum_inside_it():
    t = GeometricTail(2, 1.0, 0.5)
    x = SpVector.make({}, t)
    y = SpVector.make({5: -t.value(5)})
    z = add(x, y)
    assert _vec_bits(z) == _vec_bits(_add_by_at(x, y))
    assert z.tail.start == 6 and [j for j, _ in z.entries] == [2, 3, 4]


@PROPERTY
@given(
    st.lists(st.tuples(st.integers(0, 20), nan_or_scalar), max_size=10),
    st.one_of(st.none(), st.builds(GeometricTail, st.integers(0, 15), scalars.filter(lambda c: c != 0), ratios)),
    st.lists(st.integers(0, 20), max_size=4),
)
def test_make_equals_the_two_pass_reference_bitwise(items, tail, restate):
    # repeated indices, and entries restating the tail, before or after others
    if tail is not None:
        items = items + [(j, tail.value(j)) for j in restate]
    got = SpVector.make(items, tail)
    want = _entries_two_pass(items, tail)
    assert [(j, _c_bits(v)) for j, v in got.entries] == [(j, _c_bits(v)) for j, v in want]


@PROPERTY
@given(
    st.lists(st.tuples(st.integers(0, 8), st.one_of(scalars, st.just(0j))), max_size=12),
    st.one_of(st.none(), st.builds(GeometricTail, st.integers(0, 6), scalars.filter(lambda c: c != 0), ratios)),
)
@example([(1, 2.0), (1, 0.0)], None)
@example([(1, 2.0), (1, 0.0)], GeometricTail(0, 1.0, 0.5))
def test_make_of_pairs_equals_make_of_their_dict(items, tail):
    # a repeated index keeps its last value, a zero included
    assert _vec_bits(SpVector.make(items, tail)) == _vec_bits(SpVector.make(dict(items), tail))


def test_make_names_every_negative_index():
    with pytest.raises(ValueError, match=r"^negative indices \[-5, -2\] on the naturals domain$"):
        SpVector.make({3: 1.0, -2: 1.0, 0: 2.0, -5: 0.5j, -7: 0.0})
    # a zero entry is not stored, so it is not refused either
    assert SpVector.make({-1: 0.0, 2: 1.0}).entries == ((2, 1.0),)
    assert SpVector.make({-3: 1.0}, domain=IndexDomain.INTEGERS).entries == ((-3, 1.0),)
