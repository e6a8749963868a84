"""The exact l1 norm, c0 norm and dual sup against their per-column references.

The references below enumerate the same columns one ``T.column(j)`` at a time
and sum them through ``norm`` and ``pairing``.  The array routes in
``lplab.operators`` must give the same value bit for bit, the same witness and
the same exception, and must leave the column memo empty.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from lplab import operators
from lplab.acceptance import criterion_coisometry
from lplab.constructions import build_coisometry_l1
from lplab.operators import (
    ColumnRule,
    NormCertificate,
    RuleEntry,
    StructuredOperator,
    _c0_checks,
    _decay_horizon,
    _require_finite,
    _rough_scale,
    dual_sup_norm,
    op_norm,
)
from lplab.spaces import IndexDomain, PNorm, SpVector, norm, pairing


def ref_op_norm_l1(T: StructuredOperator) -> NormCertificate:
    _require_finite(T, "l1 norm")
    scale = _rough_scale(T)
    best, best_j = 0.0, None
    cols: set[int] = set(range(T.col_offset, T.col_offset + T.ncols))
    limits: list[float] = []
    for rule in T.rules:
        K = 8
        lim = 0.0
        for e in rule.entries:
            c, rho, d = e.parts()
            K = max(K, _decay_horizon(c, rho, scale))
            lim += abs(d)
        for k in range(0, K + 1):
            cols.add(rule.col(k))
        limits.append(lim)
    for j in sorted(cols):
        v = norm(T.column(j), PNorm.lp(1))
        if v > best:
            best, best_j = v, j
    value = max([best] + limits)
    witness = SpVector.basis(best_j, T.domain) if best_j is not None and best >= value else None
    return NormCertificate(value, witness, "exact", 0.0)


def ref_op_norm_c0(T: StructuredOperator) -> NormCertificate:
    _require_finite(T, "c0 norm")
    _c0_checks(T)
    scale = _rough_scale(T)
    row_sums: dict[int, float] = {}

    def bump(r: int, v: float) -> None:
        row_sums[r] = row_sums.get(r, 0.0) + v

    cols: set[int] = set(range(T.col_offset, T.col_offset + T.ncols))
    limit_up = 0.0
    limit_down = 0.0
    row_lo = T.row_offset
    row_hi = T.row_offset + max(T.nrows, 0)
    horizons: list[tuple[ColumnRule, RuleEntry, int]] = []
    for rule in T.rules:
        for e in rule.entries:
            c, rho, d = e.parts()
            K = max(8, _decay_horizon(c, rho, scale))
            if e.row_kind == "diag_enum":
                m_hi = int(math.isqrt(2 * K)) + 3
                K = max(K, (m_hi * (m_hi + 1)) // 2 + m_hi)
                row_lo, row_hi = min(row_lo, 0), max(row_hi, m_hi + 1)
            horizons.append((rule, e, K))
            if e.row_kind == "affine":
                for k in (0, K):
                    r = e.row(k, rule.col(k))
                    row_lo, row_hi = min(row_lo, r), max(row_hi, r + 1)
            if e.row_kind == "affine" and e.row_a != 0:
                if e.row_a * rule.step > 0:
                    limit_up += abs(d)
                else:
                    limit_down += abs(d)
    for rule, e, K in horizons:
        if e.row_kind == "affine" and e.row_a != 0:
            span = max(abs(row_hi - e.row(0, rule.col(0))), abs(e.row(0, rule.col(0)) - row_lo))
            K = max(K, span + 2)
        if K > operators._MAX_ENUM:
            raise ValueError("enumeration window too large")
        for k in range(0, K + 1):
            cols.add(rule.col(k))
    for j in sorted(cols):
        for r, v in T.column(j).entries:
            bump(r, abs(v))
    best_row, best = None, 0.0
    for r, v in row_sums.items():
        if v > best:
            best, best_row = v, r
    value = max(best, limit_up, limit_down)
    witness = None
    if best_row is not None and best >= value:
        signs: dict[int, complex] = {}
        for j in sorted(cols):
            for r, v in T.column(j).entries:
                if r == best_row and v != 0:
                    signs[j] = np.conj(v) / abs(v)
        if signs:
            witness = SpVector.make(signs, domain=T.domain)
    return NormCertificate(value, witness, "exact", 0.0)


def ref_dual_sup_norm(T: StructuredOperator, xstar: SpVector) -> float:
    if xstar.tail is not None:
        raise ValueError("dual functional must be finitely supported")
    _require_finite(T, "dual sup")
    if not np.isfinite([v for _, v in xstar.entries]).all():
        raise ValueError("the exact dual sup needs a finite functional")
    supp = {j for j, _ in xstar.entries}
    if not supp:
        return 0.0
    sup_abs = max(abs(v) for _, v in xstar.entries)
    max_supp = max(supp)
    scale = max(_rough_scale(T), sup_abs)
    cols: set[int] = set(range(T.col_offset, T.col_offset + T.ncols))
    limits: list[float] = []
    for rule in T.rules:
        for e in rule.entries:
            c, rho, d = e.parts()
            if e.row_kind == "affine":
                if e.row_a == 0:
                    if e.row_b in supp:
                        K = _decay_horizon(c, rho, scale)
                        for k in range(K + 1):
                            cols.add(rule.col(k))
                        if d != 0:
                            limits.append(abs(d) * abs(xstar.at(e.row_b)))
                    continue
                for r in supp:
                    num = r - e.row_b - e.row_a * rule.start
                    den = e.row_a * rule.step
                    if num % den == 0 and num // den >= 0:
                        cols.add(rule.col(num // den))
            else:
                K = max(_decay_horizon(c, rho, scale), 8)
                K = max(K, max_supp + abs(rule.start) + 4)
                m_hi = int(math.isqrt(2 * K)) + max_supp + 3
                K = max(K, (m_hi * (m_hi + 1)) // 2 + m_hi)
                if K > operators._MAX_ENUM:
                    raise ValueError("enumeration window too large")
                for k in range(K + 1):
                    cols.add(rule.col(k))
                if d != 0:
                    limits.append(abs(d) * sup_abs)
    best = 0.0
    for j in sorted(cols):
        v = abs(pairing(xstar, T.column(j)))
        if v > best:
            best = v
    return max([best] + limits)


def _weight(rng: np.random.Generator, kind: int) -> complex | float:
    """A Python complex, a Python float, or a complex with signed-zero parts."""
    x = complex(rng.normal(), rng.normal())
    if kind == 0:
        return x.real
    if kind == 1:
        return complex(x.real, -0.0)
    return x


def _random_rule(rng: np.random.Generator, c0: bool) -> ColumnRule:
    start, step = int(rng.integers(-3, 8)), int(rng.choice([-1, 1]))
    entries = []
    for row_a in rng.choice([-1, 0, 1, 2, 9], size=int(rng.integers(1, 3)), replace=False):
        r = abs(float(rng.uniform(0.05, 0.9)))
        rho = 1.0 if rng.random() < 0.15 else complex(np.exp(1j * rng.uniform(0, 6.3)) * r)
        rho = r if rng.random() < 0.3 else rho
        c, d = _weight(rng, int(rng.integers(3))), _weight(rng, int(rng.integers(3)))
        if row_a == 9:  # the triangle enumeration
            entries.append(RuleEntry("diag_enum", 0, 0, c, rho, 0.0 if c0 else d))
        else:
            zero_d = c0 and row_a == 0
            entries.append(
                RuleEntry("affine", int(row_a), int(rng.integers(-3, 5)), c, rho, 0.0 if zero_d else d)
            )
    return ColumnRule(start, step, tuple(entries))


def _random_operator(rng: np.random.Generator, c0: bool = False) -> StructuredOperator:
    m, n = int(rng.integers(0, 5)), int(rng.integers(1, 6))
    block = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    block[rng.random((m, n)) < 0.3] = 0.0
    if m and rng.random() < 0.3:
        block = block.real.copy()  # a float block
    domain = IndexDomain.INTEGERS if rng.random() < 0.4 else IndexDomain.NATURALS
    ro, co = int(rng.integers(0, 5)), int(rng.integers(0, 5))
    if domain == IndexDomain.INTEGERS:
        ro, co = ro - 2, co - 2
    rules = tuple(_random_rule(rng, c0) for _ in range(int(rng.integers(0, 3))))
    if rules and m and block.dtype == complex and rng.random() < 0.4:
        # a block entry that cancels the first rule entry where the two meet
        rule, e = rules[0], rules[0].entries[0]
        for k in range(6):
            j = rule.col(k)
            r = e.row(k, j)
            if 0 <= j - co < n and 0 <= r - ro < m:
                block[r - ro, j - co] = -e.weight(k)
                break
    return StructuredOperator(block, ro, co, rules, domain)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, operators.UnboundedRowSums) as exc:
        return exc


def _same(new, ref) -> None:
    if isinstance(ref, Exception):
        assert type(new) is type(ref) and str(new) == str(ref)
        return
    if isinstance(ref, NormCertificate):
        assert new.value.hex() == ref.value.hex()
        assert (new.method, new.residual) == (ref.method, ref.residual)
        # repr tells a -0.0 part from +0.0
        assert repr(new.witness) == repr(ref.witness)
        return
    assert float(new).hex() == float(ref).hex()


def _fresh(T: StructuredOperator) -> StructuredOperator:
    return StructuredOperator(T.block, T.row_offset, T.col_offset, T.rules, T.domain)


@pytest.fixture(params=[operators._CHUNK, 3], ids=["chunk", "chunk3"])
def chunk(request, monkeypatch):
    """The fixed chunk size, and chunks of 3 columns, so many chunk edges."""
    monkeypatch.setattr(operators, "_CHUNK", request.param)


@pytest.mark.parametrize("seed", range(6))
def test_l1_matches_the_reference(chunk, seed):
    rng = np.random.default_rng([27, 1, seed])
    for _ in range(40):
        T = _random_operator(rng)
        new = _outcome(op_norm, T, PNorm.lp(1.0))
        assert T._columns == {}
        _same(new, _outcome(ref_op_norm_l1, _fresh(T)))


@pytest.mark.parametrize("seed", range(6))
def test_c0_matches_the_reference(chunk, seed):
    rng = np.random.default_rng([27, 2, seed])
    for _ in range(40):
        T = _random_operator(rng, c0=True)
        new = _outcome(op_norm, T, PNorm.c0())
        assert T._columns == {}
        _same(new, _outcome(ref_op_norm_c0, _fresh(T)))


@pytest.mark.parametrize("seed", range(6))
def test_dual_sup_matches_the_reference(chunk, seed):
    rng = np.random.default_rng([27, 3, seed])
    for _ in range(30):
        T = _random_operator(rng)
        lo = -4 if T.domain == IndexDomain.INTEGERS else 0
        for _ in range(3):
            support = rng.integers(lo, 12, size=int(rng.integers(0, 14)))  # past 8: no pairwise sums
            xstar = SpVector.make(
                {int(j): _weight(rng, int(rng.integers(3))) for j in support}, domain=T.domain
            )
            new = _outcome(dual_sup_norm, T, xstar)
            assert T._columns == {}
            _same(new, _outcome(ref_dual_sup_norm, _fresh(T), xstar))


def test_c0_ties_go_to_the_row_met_first():
    # rows 0 and 1 both sum to 1; row 1 is met first, in column 0
    T = StructuredOperator.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
    cert = op_norm(T, PNorm.c0())
    _same(cert, ref_op_norm_c0(_fresh(T)))
    assert cert.witness.entries == ((0, 1.0 + 0j),)


def test_dense_c0_and_l1_match_the_reference():
    rng = np.random.default_rng(2724)
    for _ in range(30):
        M = rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24))
        T = StructuredOperator.from_dense(M)
        _same(op_norm(T, PNorm.c0()), ref_op_norm_c0(_fresh(T)))
        _same(op_norm(T, PNorm.lp(1.0)), ref_op_norm_l1(_fresh(T)))


def test_coisometry_dual_sups_match_the_reference():
    """Criterion 6's operators and functionals, plain and T1."""
    from lplab.constructions import EpsSeq, build_T1_coisometry_l1

    rng = np.random.default_rng(6)
    for builder in (
        lambda A: build_coisometry_l1(A, 3),
        lambda A: build_T1_coisometry_l1(A, 3, EpsSeq(first=0.1, ratio=0.5)),
    ):
        for _ in range(5):
            A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            T = builder(0.6 * A / np.abs(A).sum(axis=0).max())
            _same(op_norm(T, PNorm.lp(1.0)), ref_op_norm_l1(_fresh(T)))
            for _ in range(5):
                xstar = SpVector.make(
                    {int(j): complex(*rng.normal(size=2)) for j in rng.integers(0, 12, size=4)}
                )
                _same(dual_sup_norm(T, xstar), ref_dual_sup_norm(_fresh(T), xstar))


def test_slow_decay_rule_is_exactly_one_on_l1_and_c0():
    """A forward rule of weight 0.5 * 0.9999^k beside the identity: the routes
    enumerate its 375,000-odd columns as arrays and keep none in the memo."""
    rule = ColumnRule(2, 1, (RuleEntry("affine", 1, 0, 0.5, 0.9999, 0.0),))
    T = StructuredOperator.from_dense(np.eye(2), rules=(rule,))
    for pn in (PNorm.lp(1.0), PNorm.c0()):
        cert = op_norm(T, pn)
        assert cert.value == 1.0 and cert.method == "exact"
        assert T._columns == {}


def test_plain_dual_preservation_fails_when_the_shift_weight_is_below_one(monkeypatch):
    """Negative control for criterion 6: far columns of weight 0.9 lose dual mass."""

    def build(A, N):
        T = build_coisometry_l1(A, N)
        rule = ColumnRule(N + 1, 1, (RuleEntry("affine", 1, -(N + 1), 0.0, 1.0, 0.9),))
        return StructuredOperator(T.block, rules=(rule,))

    monkeypatch.setattr("lplab.acceptance.build_coisometry_l1", build)
    records = {r["name"]: r for r in criterion_coisometry(7).records}
    assert records["plain_dual_preservation"]["ok"] is False
    assert records["plain_dual_preservation"]["value"] > 1e-3
    assert records["t1_dual_preservation"]["ok"] is True
