"""Property tests: structured operators against their dense windows.

A random small ``StructuredOperator`` is a dense block at an offset plus up
to two column rules, each with one or two entries: affine rows of slope 0, 1
or 2 or triangle-enumeration rows, and weights c * rho**k + d.  Backward
rules (step -1) run to minus infinity on the integers and down to column 0
on the naturals, where their row shift is >= 0.  ``adjoint`` refuses a
backward rule with row shift > 0 on the naturals (its adjoint would need
rows below 0), so the adjoint properties skip those.  ``materialize`` and ``truncate`` must agree with the column accessor
entry by entry, ``apply`` with the dense product on a window wide enough
that the dropped part of a geometric tail (ratio <= 0.9, 400 columns) is
below 1e-18 of it, and ``adjoint`` with the transposed window and the pairing
identity.
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lplab.operators import (
    ColumnRule,
    RuleEntry,
    StructuredOperator,
    adjoint,
    apply,
    materialize,
    truncate,
)
from lplab.spaces import GeometricTail, IndexDomain, SpVector, pairing

NAT, INT = IndexDomain.NATURALS, IndexDomain.INTEGERS
TAIL_COLS = 400
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

parts = st.one_of(st.integers(-2, 2).map(float), st.floats(-2.0, 2.0))
scalars = st.builds(complex, parts, parts)
weight_ratios = st.sampled_from([1.0, -1.0, 0.5, -0.5j, 0.3 + 0.4j, 0.9j])
tail_ratios = st.sampled_from([0.5, -0.5, 0.5j, 0.3 + 0.4j, -0.75j, 0.9])
domains = st.sampled_from([NAT, INT])
ALL_ROWS = (0, 1, 2, "diag_enum")  # affine slopes, and triangle-enumeration rows


@st.composite
def rules(draw, domain, slopes=ALL_ROWS, rho=None, part=None) -> ColumnRule:
    """A rule whose rows stay inside the domain; ``rho`` fixes every entry's
    ratio, and ``part`` keeps only the geometric part c (``"c"``) or only the
    constant part d (``"d"``) of each weight."""
    step = draw(st.sampled_from([1, -1]))
    start = draw(st.integers(-6, 6)) if domain == INT else draw(st.integers(0, 6))
    row_maps = draw(st.lists(st.sampled_from(slopes), min_size=1, max_size=2, unique=True))
    entries = []
    for a in row_maps:
        if a == "diag_enum":
            kind, a, b = "diag_enum", 0, 0
        else:
            kind = "affine"
            b_min = -4 if domain == INT else (-start if a and step == 1 else 0)
            b = draw(st.integers(b_min, 4))
        entries.append(
            RuleEntry(
                kind,
                a,
                b,
                draw(scalars) if part != "d" else 0.0,
                draw(weight_ratios) if rho is None else rho,
                draw(scalars) if part != "c" else 0.0,
            )
        )
    return ColumnRule(start, step, tuple(entries))


@st.composite
def operators(draw, domain=None, slopes=ALL_ROWS, rho=None, part=None):
    domain = draw(domains) if domain is None else domain
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    block = np.array(draw(st.lists(scalars, min_size=m * n, max_size=m * n)))
    lo = -4 if domain == INT else 0
    ro, co = draw(st.integers(lo, 4)), draw(st.integers(lo, 4))
    rule_list = draw(
        st.lists(rules(domain, slopes, rho, part), max_size=2)
    )
    return StructuredOperator.from_dense(
        block.reshape(m, n), ro, co, tuple(rule_list), domain
    )


@st.composite
def finite_vectors(draw, domain):
    lo = -10 if domain == INT else 0
    entries = draw(st.dictionaries(st.integers(lo, 20), scalars, max_size=5))
    return SpVector.make(entries, domain=domain)


@st.composite
def tailed_vectors(draw, domain):
    lo = -10 if domain == INT else 0
    entries = draw(st.dictionaries(st.integers(lo, 20), scalars, max_size=5))
    start = draw(st.integers(lo, 15))
    coeff = draw(scalars.filter(lambda c: c != 0))
    tail = GeometricTail(start, coeff, draw(tail_ratios))
    return SpVector.make(entries, tail, domain=domain)


def _by_columns(T: StructuredOperator, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
    """The window [r0, r1) x [c0, c1), column by column through T.column."""
    M = np.zeros((r1 - r0, c1 - c0), dtype=complex)
    for j in range(c0, c1):
        for r, v in T.column(j).entries:
            if r0 <= r < r1:
                M[r - r0, j - c0] = v
    return M


def _has_adjoint(T: StructuredOperator) -> bool:
    return T.domain == INT or not any(
        rule.step == -1 and e.row_b > 0 for rule in T.rules for e in rule.entries
    )


def _assert_product(got: np.ndarray, M: np.ndarray, x: np.ndarray) -> None:
    scale = 1.0 + np.abs(M) @ np.abs(x)
    assert np.all(np.abs(got - M @ x) <= 1e-12 * scale)


@PROPERTY
@given(operators(), st.integers(-8, 8), st.integers(-8, 8), st.integers(1, 12), st.integers(1, 12))
def test_materialize_matches_columns(T, r0, c0, h, w):
    if T.domain == NAT:
        r0, c0 = abs(r0), abs(c0)
    np.testing.assert_allclose(
        materialize(T, r0, r0 + h, c0, c0 + w),
        _by_columns(T, r0, r0 + h, c0, c0 + w),
        rtol=0,
        atol=1e-12,
    )


@PROPERTY
@given(operators(), st.integers(1, 12))
def test_truncate_is_the_corner_or_centred_window(T, D):
    lo = 0 if T.domain == NAT else -((D - 1) // 2)
    np.testing.assert_allclose(
        truncate(T, D), _by_columns(T, lo, lo + D, lo, lo + D), rtol=0, atol=1e-12
    )


@PROPERTY
@given(st.data())
def test_apply_matches_dense_product_on_finite_vectors(data):
    T = data.draw(operators())
    x = data.draw(finite_vectors(T.domain))
    # rows a*j + b of columns j in [-10, 20] lie in [-24, 44]; phi(k) >= 0
    r0, r1, c0, c1 = -30, 50, -10, 21
    if T.domain == NAT:
        r0, c0 = 0, 0
    y = apply(T, x)
    assert y.tail is None
    assert all(r0 <= r < r1 for r, _ in y.entries)
    _assert_product(y.window(r0, r1), materialize(T, r0, r1, c0, c1), x.window(c0, c1))


@PROPERTY
@given(st.data())
def test_apply_maps_geometric_tails_through(data):
    # every image tail has one ratio, so the image is representable: rho * w
    # for weights c * rho**k with one shared rho, or w for constant weights d
    rho, part = data.draw(weight_ratios), data.draw(st.sampled_from(["c", "d"]))
    T = data.draw(operators(slopes=(0, 1), rho=rho, part=part))
    x = data.draw(tailed_vectors(T.domain))
    r0, c0 = (-20, -10) if T.domain == INT else (0, 0)
    y = apply(T, x)
    _assert_product(
        y.window(r0, 80), materialize(T, r0, 80, c0, TAIL_COLS), x.window(c0, TAIL_COLS)
    )


@PROPERTY
@given(operators(slopes=(1,)), st.integers(-8, 8), st.integers(-8, 8), st.integers(1, 12), st.integers(1, 12))
def test_adjoint_is_the_transposed_window(T, r0, c0, h, w):
    assume(_has_adjoint(T))
    if T.domain == NAT:
        r0, c0 = abs(r0), abs(c0)
    np.testing.assert_allclose(
        materialize(adjoint(T), c0, c0 + w, r0, r0 + h),
        materialize(T, r0, r0 + h, c0, c0 + w).T,
        rtol=0,
        atol=1e-12,
    )


@PROPERTY
@given(st.data())
def test_adjoint_pairing_identity(data):
    T = data.draw(operators(slopes=(1,)))
    assume(_has_adjoint(T))
    f, x = data.draw(finite_vectors(T.domain)), data.draw(finite_vectors(T.domain))
    lhs, rhs = pairing(f, apply(T, x)), pairing(apply(adjoint(T), f), x)
    lo = -30 if T.domain == INT else 0
    scale = 1.0 + np.abs(f.window(lo, 50)) @ np.abs(materialize(T, lo, 50, lo, 50)) @ np.abs(
        x.window(lo, 50)
    )
    assert abs(lhs - rhs) <= 1e-12 * scale
