"""Structured operators: a dense block plus arithmetic-progression column rules.

An operator is ``T e_j = (block column j) + sum of rule contributions``.  A
rule covers the columns ``j = start + step*k`` (k >= 0, step = +/-1) and each
of its entries places the weight ``c * rho**k + d`` at the row ``a*j + b``
(affine) or at ``phi(k)`` (the triangle enumeration 0; 0,1; 0,1,2; ...).

Norm computations are exact where the structure allows closed forms (p = 1
column sums, c0 row sums, p = 2 via a finite model) and use a monotone
fixed-point ascent on an exactly norm-equivalent finite model otherwise.
The ascent's restarts advance together as the rows of one pool; each row
goes through its own gemv and a scalar root, so its bits match a lone restart.
``op_norm_stream`` admits dense matrices into that pool as their restarts fit
under a fixed bound on live row entries, and yields each matrix's norm, with
its lone bits, when its last restart stops; ``op_norm_batch`` is the same for
a stack, in stack order.

``op_norm_oracle_batch`` is an independent brute-force check for matrices
with at most three rows and columns: extreme-point candidates, a sphere grid,
and one normalised gradient ascent that advances every start of every matrix
in the batch together, each start with its own step size and stopping rule.
A matrix with one column needs neither: its norm is that of the column.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .spaces import (
    GeometricTail,
    IndexDomain,
    PNorm,
    SpVector,
    _merge_tails,
    _moduli_row_norms,
    add,
    dense_norm,
    row_norms,
)

__all__ = [
    "RuleEntry",
    "ColumnRule",
    "StructuredOperator",
    "NormCertificate",
    "UnrepresentableImage",
    "UnboundedRowSums",
    "apply",
    "adjoint",
    "truncate",
    "materialize",
    "op_norm",
    "op_norm_batch",
    "op_norm_stream",
    "op_norm_oracle",
    "op_norm_oracle_batch",
    "best_run",
    "polish_restarts",
    "dual_sup_norm",
]

_DECAY = 1e-17
_MAX_ENUM = 5_000_000
# Columns one StructuredOperator keeps for apply; the exact routes keep none.
_COLUMN_MEMO_MAX = 4096
_CHUNK = 4096  # columns the exact routes build at once, as arrays
# The fixed-point ascent's starts: the basis vectors, the all-ones vector and
# complex Gaussian draws from default_rng(_FIXED_POINT_SEED), 32 in all.
_FIXED_POINT_RESTARTS = 32
_FIXED_POINT_SEED = 0
# Steps each restart of the ascent may take.
_FIXED_POINT_STEPS = 500
# The live row entries (rows x columns) the ascent's pool may hold: the
# restarts of eight 24 x 24 matrices.
_POOL_ENTRIES = 8 * _FIXED_POINT_RESTARTS * 24
# polish_restarts stops once no coordinate moves by _POLISH_STEP
_POLISH_STEP = 1e-13
_POLISH_MAX = 10_000
# The oracle's 10 random starts per matrix come from default_rng(_ORACLE_SEED).
_ORACLE_SEED = 0
# The oracle's ascent stops a start once its step is below 2^-27, just below
# sqrt(u) = 2^-26.5 for u = 2^-53 (see _ascend).
_ASCENT_T_MIN = 2.0**-27


# Unused: perfbench/tracer.py wraps this name; SciPy is imported only on a call.
def minimize(*args, **kwargs):
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


class UnrepresentableImage(Exception):
    """The requested image does not fit the sparse-plus-tail model."""


class UnboundedRowSums(Exception):
    """Row sums are unbounded; no finite c0 norm certificate exists."""


def phi_enum(k: int) -> int:
    """Triangle enumeration: 0; 0,1; 0,1,2; ... (value of the k-th term)."""
    m = (math.isqrt(8 * k + 1) - 1) // 2
    return k - m * (m + 1) // 2


@dataclass(frozen=True)
class RuleEntry:
    """One structured entry of a column rule."""

    row_kind: str = "affine"  # "affine" or "diag_enum"
    row_a: int = 1
    row_b: int = 0
    c: complex = 0.0
    rho: complex = 1.0
    d: complex = 0.0

    def __post_init__(self) -> None:
        if self.row_kind not in ("affine", "diag_enum"):
            raise ValueError(f"unknown row kind {self.row_kind!r}")
        if abs(self.rho) > 1.0:
            raise ValueError("rule weight ratio must satisfy |rho| <= 1")

    def weight(self, k):
        return self.c * self.rho**k + self.d

    def row(self, k: int, col: int) -> int:
        if self.row_kind == "affine":
            return self.row_a * col + self.row_b
        return phi_enum(k)

    def parts(self) -> tuple[complex, complex, complex]:
        """Canonical (geometric coeff, ratio, constant) with rho == 1 folded."""
        if self.rho == 1.0:
            return 0.0, 0.0, self.c + self.d
        return self.c, self.rho, self.d


@dataclass(frozen=True)
class ColumnRule:
    """Columns ``start + step*k`` (k >= 0) with one or two structured entries."""

    start: int
    step: int
    entries: tuple[RuleEntry, ...]

    def __post_init__(self) -> None:
        if self.step not in (1, -1):
            raise ValueError("rule step must be +1 or -1")
        if not 1 <= len(self.entries) <= 2:
            raise ValueError("a rule carries one or two entries")
        if len(self.entries) == 2:
            e1, e2 = self.entries
            if (e1.row_kind, e1.row_a, e1.row_b) == (e2.row_kind, e2.row_a, e2.row_b):
                raise ValueError("rule entries must target distinct row maps")

    def index_of(self, j: int) -> int | None:
        k = (j - self.start) * self.step
        return k if k >= 0 else None

    def col(self, k: int) -> int:
        return self.start + self.step * k


@dataclass(frozen=True)
class StructuredOperator:
    """Dense block at (row_offset, col_offset) plus column rules.

    The block is a read-only copy of the given array, in the same memory
    order: the caller's array stays writeable, and no write to it, or to an
    array it views, can change the operator.  That makes ``column(j)`` safe to
    memoise.  Each column is built once per operator, on first request, and
    kept as one small ``SpVector`` in a dict that is freed with the operator;
    past ``_COLUMN_MEMO_MAX`` columns, the further ones are built on every
    request and not kept.
    """

    block: np.ndarray
    row_offset: int = 0
    col_offset: int = 0
    rules: tuple[ColumnRule, ...] = ()
    domain: IndexDomain = IndexDomain.NATURALS

    def __post_init__(self) -> None:
        # order "K" keeps the memory order of a transposed block, so a gemv on
        # the copy rounds as it would on the given array
        block = self.block.copy(order="K")
        block.flags.writeable = False
        object.__setattr__(self, "block", block)
        object.__setattr__(self, "_columns", {})

    @staticmethod
    def from_dense(
        M: np.ndarray,
        row_offset: int = 0,
        col_offset: int = 0,
        rules: tuple[ColumnRule, ...] = (),
        domain: IndexDomain = IndexDomain.NATURALS,
    ) -> "StructuredOperator":
        M = np.atleast_2d(np.asarray(M, dtype=complex))
        return StructuredOperator(M, row_offset, col_offset, tuple(rules), domain)

    @property
    def nrows(self) -> int:
        return self.block.shape[0]

    @property
    def ncols(self) -> int:
        return self.block.shape[1]

    def column(self, j: int) -> SpVector:
        """T e_j as a finitely supported vector, memoised per operator."""
        memo = self._columns
        col = memo.get(j)
        if col is None:
            col = self._build_column(j)
            if len(memo) < _COLUMN_MEMO_MAX:
                memo[j] = col
        return col

    def _build_column(self, j: int) -> SpVector:
        vals: dict[int, complex] = {}
        if self.col_offset <= j < self.col_offset + self.ncols:
            colv = self.block[:, j - self.col_offset]
            for i in np.nonzero(colv)[0]:
                r = self.row_offset + int(i)
                vals[r] = vals.get(r, 0.0) + colv[i]
        for rule in self.rules:
            k = rule.index_of(j)
            if k is None:
                continue
            for e in rule.entries:
                r = e.row(k, j)
                w = e.weight(k)
                if w != 0:
                    vals[r] = vals.get(r, 0.0) + w
        return SpVector.make(vals, domain=self.domain)


@dataclass(frozen=True)
class NormCertificate:
    """Operator norm value with the route that produced it."""

    value: float
    witness: SpVector | None
    method: str  # "exact", "fixed_point", or "oracle"
    residual: float


# ---------------------------------------------------------------------------
# application / adjoint / composition / materialization


def apply(T: StructuredOperator, x: SpVector) -> SpVector:
    """T x, with geometric tails mapped through in closed form when possible."""
    if x.domain != T.domain:
        raise ValueError("domain mismatch")
    out: dict[int, complex] = {}

    def acc(r: int, v: complex) -> None:
        if v != 0:
            out[r] = out.get(r, 0.0) + v

    for j, v in x.entries:
        for r, w in T.column(j).entries:
            acc(r, v * w)
    if x.tail is None:
        return SpVector.make(out, domain=T.domain)

    t = x.tail
    overridden = {j for j, _ in x.entries if j >= t.start}
    # Block columns inside the tail region: finitely many.
    for j in range(max(t.start, T.col_offset), T.col_offset + T.ncols):
        if j in overridden:
            continue
        colv = T.block[:, j - T.col_offset]
        xv = t.value(j)
        for i in np.nonzero(colv)[0]:
            acc(T.row_offset + int(i), xv * colv[i])

    tails: list[GeometricTail] = []
    for rule in T.rules:
        for e in rule.entries:
            if rule.step == -1:
                kmax = (rule.start - t.start)  # col(k) >= start of tail
                if kmax >= _MAX_ENUM:
                    raise UnrepresentableImage("tail too wide to enumerate")
                for k in range(0, kmax + 1):
                    j = rule.col(k)
                    if j in overridden or j < t.start:
                        continue
                    acc(e.row(k, j), e.weight(k) * t.value(j))
                continue
            # step == +1: infinitely many tail columns.
            k0 = max(0, t.start - rule.start)
            if e.row_kind != "affine":
                raise UnrepresentableImage("triangle-enumeration rows on a tail")
            c, rho, d = e.parts()
            scale0 = t.value(rule.col(k0))
            if e.row_a == 0:
                total = 0.0 + 0.0j
                if c != 0:
                    total += c * rho**k0 * scale0 / (1.0 - rho * t.ratio)
                if d != 0:
                    total += d * scale0 / (1.0 - t.ratio)
                for j in overridden:
                    k = rule.index_of(j)
                    if k is not None and k >= k0:
                        total -= e.weight(k) * t.value(j)
                acc(e.row_b, total)
                continue
            if e.row_a != 1:
                raise UnrepresentableImage("only unit-slope rows map tails to tails")
            r0 = rule.col(k0) + e.row_b
            if c != 0:
                coeff = c * rho**k0 * scale0
                if coeff != 0:
                    tails.append(GeometricTail(r0, coeff, rho * t.ratio))
            if d != 0:
                coeff = d * scale0
                if coeff != 0:
                    tails.append(GeometricTail(r0, coeff, t.ratio))
            # Overridden tail columns were included in the families above;
            # cancel them with explicit corrections.
            for j in overridden:
                k = rule.index_of(j)
                if k is not None and k >= k0:
                    acc(e.row(k, j), -e.weight(k) * t.value(j))

    merged: GeometricTail | None = None
    for tl in tails:
        if merged is not None and tl.ratio != merged.ratio:
            raise UnrepresentableImage("image mixes tails with distinct ratios")
        merged, prefix = _merge_tails(merged, tl)
        for j, v in prefix:  # the unaligned prefix, materialized exactly
            acc(j, v)

    finite = SpVector.make(out, domain=T.domain)
    if merged is None:
        return finite
    return add(finite, SpVector.make({}, merged, domain=T.domain))


def adjoint(T: StructuredOperator) -> StructuredOperator:
    """Transpose with respect to the bilinear pairing sum_j f_j x_j."""
    rules: list[ColumnRule] = []
    for rule in T.rules:
        for e in rule.entries:
            if e.row_kind != "affine" or e.row_a != 1:
                raise UnrepresentableImage("adjoint requires unit-slope affine rows")
            if T.domain == IndexDomain.NATURALS and rule.step == -1 and e.row_b > 0:
                # T* would carry this rule down to column 0, i.e. to rows -b..-1.
                raise ValueError(
                    "adjoint of a backward rule with row shift b > 0 on the naturals "
                    "would need rows below 0"
                )
            rules.append(
                ColumnRule(
                    rule.start + e.row_b,
                    rule.step,
                    (RuleEntry("affine", 1, -e.row_b, e.c, e.rho, e.d),),
                )
            )
    return StructuredOperator(
        T.block.T.copy(), T.col_offset, T.row_offset, tuple(rules), T.domain
    )


def materialize(
    T: StructuredOperator, row_lo: int, row_hi: int, col_lo: int, col_hi: int
) -> np.ndarray:
    """Dense window ``[row_lo, row_hi) x [col_lo, col_hi)``."""
    M = np.zeros((row_hi - row_lo, col_hi - col_lo), dtype=complex)
    r0, r1 = max(row_lo, T.row_offset), min(row_hi, T.row_offset + T.nrows)
    c0, c1 = max(col_lo, T.col_offset), min(col_hi, T.col_offset + T.ncols)
    if r0 < r1 and c0 < c1:
        M[r0 - row_lo : r1 - row_lo, c0 - col_lo : c1 - col_lo] += T.block[
            r0 - T.row_offset : r1 - T.row_offset, c0 - T.col_offset : c1 - T.col_offset
        ]
    for rule in T.rules:
        if rule.step == 1:
            k_lo = max(0, col_lo - rule.start)
            k_hi = col_hi - rule.start
        else:
            k_lo = max(0, rule.start - (col_hi - 1))
            k_hi = rule.start - col_lo + 1
        if k_hi <= k_lo:
            continue
        ks = np.arange(k_lo, k_hi)
        cols = rule.start + rule.step * ks
        for e in rule.entries:
            if e.row_kind == "affine":
                rows = e.row_a * cols + e.row_b
            else:
                rows = np.array([phi_enum(int(k)) for k in ks])
            w = e.c * e.rho**ks + e.d
            mask = (rows >= row_lo) & (rows < row_hi)
            np.add.at(M, (rows[mask] - row_lo, cols[mask] - col_lo), w[mask])
    return M


def truncate(T: StructuredOperator, D: int) -> np.ndarray:
    """Dense D x D corner (naturals) or centered window (integers)."""
    if T.domain == IndexDomain.NATURALS:
        lo = 0
    else:
        lo = -((D - 1) // 2)
    return materialize(T, lo, lo + D, lo, lo + D)


# ---------------------------------------------------------------------------
# norms


def _decay_horizon(c: complex, rho: complex, scale: float) -> int:
    """Smallest K with |c| |rho|^K below the enumeration floor."""
    if c == 0:
        return 0
    r = abs(rho)
    if r == 0:
        return 1
    if r >= 1:
        raise ValueError("cannot bound a non-decaying weight family")
    target = _DECAY * max(scale, 1e-30)
    if abs(c) <= target:
        return 0
    K = int(math.ceil(math.log(target / abs(c)) / math.log(r))) + 1
    if K > _MAX_ENUM:
        raise ValueError("weight family decays too slowly to enumerate")
    return K


def _rough_scale(T: StructuredOperator) -> float:
    s = float(np.abs(T.block).sum()) if T.block.size else 0.0
    for rule in T.rules:
        for e in rule.entries:
            s += abs(e.c) + abs(e.d)
    return max(s, 1e-30)


def _require_finite(T: StructuredOperator, what: str) -> None:
    """Raise ``ValueError`` when T's block or a rule weight is not finite.

    The exact column and row sums would pass over a NaN (``v > best`` is false
    for it) and return inf for an inf, both labelled ``exact``.
    """
    weights = [w for rule in T.rules for e in rule.entries for w in (e.c, e.rho, e.d)]
    if not (np.isfinite(T.block).all() and np.isfinite(weights).all()):
        raise ValueError(f"the exact {what} needs finite entries")


def _column_chunks(
    T: StructuredOperator, parts: list[np.ndarray], rows: np.ndarray | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Yield ``(cs, i, r, v)``, ``_CHUNK`` of the distinct columns in ``parts``
    at a time, ascending: column ``cs[i]`` holds ``v`` at row ``r``, in
    ``column``'s order, summed and free of zeros as ``_build_column`` makes it.
    Given ``rows``, rule entries are built only there and at negative rows,
    which on the naturals raise as ``column`` does."""
    cols = np.sort(np.concatenate(parts))
    cols = cols[np.concatenate(([True], cols[1:] != cols[:-1]))[: cols.size]]  # np.unique, faster
    for s in range(0, cols.size, _CHUNK):
        cs = cols[s : s + _CHUNK]
        lo, hi = np.searchsorted(cs, (T.col_offset, T.col_offset + T.ncols))
        sub = T.block[:, cs[lo:hi] - T.col_offset]
        bi, bj = np.nonzero(sub)
        I, Rs, Vs = [lo + bj], [T.row_offset + bi], [sub[bi, bj]]
        for rule in T.rules:
            at = np.flatnonzero(cs * rule.step >= rule.start * rule.step)
            k = (cs[at] - rule.start) * rule.step
            for e in rule.entries:
                if e.row_kind == "affine":
                    r = e.row_a * cs[at] + e.row_b
                else:  # phi_enum, exact below k = 2**49
                    m = (np.sqrt(8 * k + 1).astype(np.int64) - 1) // 2
                    r = k - m * (m + 1) // 2
                on = slice(None)
                if rows is not None:
                    on = (r < 0) | (rows.take(np.searchsorted(rows, r), mode="clip") == r)
                I.append(at[on]), Rs.append(r[on])
                Vs.append(np.array([e.weight(x) for x in k[on].tolist()], complex))
        i, r, v = np.concatenate(I), np.concatenate(Rs), np.concatenate(Vs)
        o = np.lexsort((r, i))  # stable: a shared row keeps the layer order
        i, r, v = i[o], r[o], v[o]
        head = np.concatenate(([True], (i[1:] != i[:-1]) | (r[1:] != r[:-1])))[: i.size]
        if not head.all():  # a row reached twice in one column
            w = np.zeros(np.count_nonzero(head), complex)
            np.add.at(w, np.cumsum(head) - 1, v)  # in index order
            i, r, v = i[head], r[head], w
        nz = v != 0
        i, r, v = i[nz], r[nz], v[nz] + 0j  # as summed from 0j: complex, no -0.0 part
        if T.domain == IndexDomain.NATURALS and (r < 0).any():  # raise for the first such column
            SpVector.make({j: 1.0 for j in r[i == i[r < 0][0]].tolist()})
        yield cs, i, r, v


def _op_norm_l1(T: StructuredOperator) -> NormCertificate:
    _require_finite(T, "l1 norm")
    scale = _rough_scale(T)
    cols = [np.arange(T.col_offset, T.col_offset + T.ncols)]
    limits: list[float] = []
    for rule in T.rules:
        K = 8
        lim = 0.0
        for e in rule.entries:
            c, rho, d = e.parts()
            K = max(K, _decay_horizon(c, rho, scale))
            lim += abs(d)
        cols.append(rule.col(np.arange(K + 1)))
        limits.append(lim)
    best, best_j = 0.0, None
    for cs, i, _, v in _column_chunks(T, cols):
        sums = np.zeros(cs.size)
        np.add.at(sums, i, np.hypot(v.real, v.imag))  # rows ascending, as norm sums
        if sums.max(initial=0.0) > best:
            best, best_j = float(sums.max()), int(cs[sums.argmax()])
    value = max([best] + limits)
    witness = SpVector.basis(best_j, T.domain) if best_j is not None and best >= value else None
    return NormCertificate(value, witness, "exact", 0.0)


def _c0_checks(T: StructuredOperator) -> None:
    for rule in T.rules:
        for e in rule.entries:
            c, rho, d = e.parts()
            if e.row_kind == "diag_enum":
                if d != 0:
                    raise UnboundedRowSums("constant weights on repeating rows")
                if c != 0 and abs(rho) >= 1:
                    raise UnboundedRowSums("non-decaying weights on repeating rows")
            elif e.row_a == 0:
                if d != 0:
                    raise UnboundedRowSums("constant weights funneled to one row")
                if c != 0 and abs(rho) >= 1:
                    raise UnboundedRowSums("non-decaying weights funneled to one row")
            elif abs(e.row_a) != 1:
                raise ValueError("exact c0 row sums need unit-slope rows")


def _op_norm_c0(T: StructuredOperator) -> NormCertificate:
    _require_finite(T, "c0 norm")
    _c0_checks(T)
    scale = _rough_scale(T)
    # Exact column-merged sums on an enumeration window, then analytic limits.
    # First pass: decay horizons and the row window they touch.
    cols = [np.arange(T.col_offset, T.col_offset + T.ncols)]
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
    # Second pass: extend each affine family until its rows leave the window,
    # so rows with mixed contributions are summed exactly.
    for rule, e, K in horizons:
        if e.row_kind == "affine" and e.row_a != 0:
            span = max(abs(row_hi - e.row(0, rule.col(0))), abs(e.row(0, rule.col(0)) - row_lo))
            K = max(K, span + 2)
        if K > _MAX_ENUM:
            raise ValueError("enumeration window too large")
        cols.append(rule.col(np.arange(K + 1)))
    rows, sums = np.empty(0, np.int64), np.empty(0)
    for _, _, r, v in _column_chunks(T, cols):
        met = np.sort(r)
        met = met[np.concatenate(([True], met[1:] != met[:-1]))[: met.size]]  # no numpy.ma
        at = np.searchsorted(rows, met)
        new = at == np.searchsorted(rows, met, side="right")
        rows, sums = np.insert(rows, at[new], met[new]), np.insert(sums, at[new], 0.0)
        np.add.at(sums, np.searchsorted(rows, r), np.hypot(v.real, v.imag))  # column order
    # Rows beyond the enumerated columns carry weights within the enumeration
    # floor of the direction limits.
    best = float(sums.max(initial=0.0))
    value = max(best, limit_up, limit_down)
    witness = None
    if best > 0 and best >= value:
        # Conjugate-sign pattern along the best row met first: a sup-norm-one
        # input whose image attains the row sum exactly in that coordinate.
        tied, best_row, signs = rows[sums == best], None, {}
        for cs, i, r, v in _column_chunks(T, cols):
            if best_row is None and (hit := np.isin(r, tied)).any():
                best_row = r[hit.argmax()]
            v, j = v[r == best_row], cs[i[r == best_row]]
            signs.update(zip(j.tolist(), np.conj(v) / np.hypot(v.real, v.imag)))
        if signs:
            witness = SpVector.make(signs, domain=T.domain)
    return NormCertificate(value, witness, "exact", 0.0)


def _J(z: np.ndarray, p: float, a: np.ndarray | None = None) -> np.ndarray:
    """conj(z) |z|^(p-2) entrywise, 0 where z is 0 (the duality map's shape).

    ``a``, when given, is |z| already computed; then a and z are both
    overwritten, and the result is z itself.  The masked copies are updated
    in place, the same ufunc calls on the same values as
    ``np.conj(z[nz]) * a[nz] ** (p - 2.0)`` with fewer temporaries.  When no
    coordinate is zero (or NaN) the mask selects everything, so the same
    calls run on the whole arrays, without the copies and the scatter.
    """
    out = None if a is None else z
    if a is None:
        a = np.abs(z)
    # one reduction tells whether every modulus is positive (a NaN fails it)
    if np.minimum.reduce(a, axis=None, initial=np.inf) > 0:
        a **= p - 2.0
        out = np.conjugate(z, out=out)
        out *= a
        return out
    nz = a > 0
    w = a[nz]
    del a
    w **= p - 2.0
    zc = z[nz]
    np.conjugate(zc, out=zc)
    zc *= w
    if out is None:
        out = np.zeros_like(z)
    else:
        out[~nz] = 0.0
    out[nz] = zc
    return out


def _matvec_slices(Ms: Sequence[np.ndarray], Z: np.ndarray, bounds: list[int]) -> np.ndarray:
    """``Ms[k] @ z`` for each row z of ``Z[bounds[k]:bounds[k + 1]]``, one gemv per row.

    Each matrix's rows sit in one contiguous slice, so each slice goes through
    the ``np.matmul`` call a lone matrix gets, on the same view of its matrix,
    written straight into its rows of the result.  ``Z @ M.T`` would be a
    single gemm, which rounds differently from ``M @ z``.
    """
    out = np.empty((len(Z), Ms[0].shape[0], 1), dtype=complex)
    Z = Z[:, :, None]
    for M, a, b in zip(Ms, bounds, bounds[1:]):
        if a < b:
            np.matmul(M, Z[a:b], out=out[a:b])
    return out[:, :, 0]


def _ascent_map(Ts: Sequence[np.ndarray], MX: np.ndarray, bounds: list[int], p: float) -> np.ndarray:
    """The fixed-point map x -> J_q(M^T J_p(M x)), unnormalised, on every row,
    from the rows' images MX; ``Ts`` holds the transposed views."""
    return _J(_matvec_slices(Ts, _J(MX, p), bounds), p / (p - 1.0))


def _images(
    Ms: Sequence[np.ndarray], X: np.ndarray, bounds: list[int], p: float, pn: PNorm
) -> tuple[np.ndarray, np.ndarray]:
    """The norm of M x and J_p(M x) for every row x, from one |M x|."""
    MX = _matvec_slices(Ms, X, bounds)
    A = np.abs(MX)
    return _moduli_row_norms(A, pn), _J(MX, p, A)


@functools.lru_cache(maxsize=16)
def _fixed_point_starts(n: int, p: float) -> np.ndarray:
    """The ascent's non-zero starts on C^n, as read-only rows of lp norm one.

    Kept per (n, p): drawing them costs more than a small matrix's ascent.
    """
    rng = np.random.default_rng(_FIXED_POINT_SEED)
    starts = [np.eye(n, dtype=complex), np.ones((1, n), dtype=complex)]
    starts += [
        rng.normal(size=(1, n)) + 1j * rng.normal(size=(1, n))
        for _ in range(_FIXED_POINT_RESTARTS - n - 1)
    ]
    X = np.concatenate(starts)
    nx = row_norms(X, PNorm.lp(p))
    X = X[nx != 0] / nx[nx != 0, None]
    X.flags.writeable = False
    return X


def _store(
    outs: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]],
    R: int,
    ids: np.ndarray,
    value: np.ndarray,
    res: np.ndarray,
    X: np.ndarray,
) -> None:
    """Write the outcomes of the leaving pool rows ``ids`` (increasing) into
    their matrices' ``outs``: value, residual and x per start."""
    ks = ids // R
    cuts = [0, *(np.flatnonzero(ks[1:] != ks[:-1]) + 1).tolist(), len(ids)]
    for a, b in zip(cuts, cuts[1:]):
        k = int(ks[a])
        r = ids[a:b] - k * R
        vals, ress, xs = outs[k]
        vals[r], ress[r], xs[r] = value[a:b], res[a:b], X[a:b]


Runs = list[tuple[float, np.ndarray, float]]


def _fixed_point_pool(
    Ms: Iterable[np.ndarray], p: float
) -> Iterator[tuple[int, Runs | ValueError]]:
    """``fixed_point_restarts`` of each matrix of an iterable of one shape,
    yielded as ``(k, outcomes of Ms[k])`` in the order the matrices finish.

    The restarts of the matrices in flight are the rows of one pool, each
    matrix's rows one contiguous slice.  The next matrix is drawn from ``Ms``
    when its restarts fit under _POOL_ENTRIES live row entries (rows x
    columns), or when the pool is empty, so a matrix too large for the bound
    runs alone.  Each row takes at most _FIXED_POINT_STEPS steps of its own
    and leaves as soon as it stops; a matrix is yielded when its last row
    has left.  A matrix whose ascent loses monotonicity is yielded at once
    with the ``ValueError`` a lone ascent raises, and the others run on as
    if it had never been in the pool.  Every row gets its own gemv and a
    scalar root, so its bits depend neither on when it entered nor on what
    shares the pool with it.  Overflow and NaN pass silently: a non-finite
    outcome ends in ``best_run``'s ``ValueError``.
    """
    it = iter(Ms)
    first = next(it, None)
    if first is None:
        return
    it = itertools.chain([first], it)
    shape = first.shape
    m, n = shape
    pn = PNorm.lp(p)
    starts = _fixed_point_starts(n, p)
    R = len(starts)
    if not R:  # C^0 has no non-zero start
        for k, _ in enumerate(it):
            yield k, []
        return
    # Pool row k*R + r is start r of matrix k.  ``act`` holds the live rows'
    # ids in increasing order, with their x, J_p(M x), value and residual in
    # X, JX, val and res; mats, trans, keys and ends describe the matrices in
    # flight, in the order they entered, and ``edges`` their first ids.
    mats: list[np.ndarray] = []
    trans: list[np.ndarray] = []  # the views M.T a lone matrix uses
    keys: list[int] = []
    ends: list[int] = []  # the step after which a matrix's rows stop
    outs: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    lost: set[int] = set()
    act = np.zeros(0, dtype=np.intp)
    X = np.zeros((0, n), dtype=complex)
    JX = np.zeros((0, m), dtype=complex)
    val = res = np.zeros(0)
    q = p / (p - 1.0)
    drawn = step = 0
    more = True
    while True:
        done: list[tuple[int, Runs | ValueError]] = []
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            while not done:  # steps until some matrix is done
                # the next matrix's restarts enter when they fit, or alone
                # into an empty pool
                new: list[np.ndarray] = []
                while more and (
                    (len(act) + (len(new) + 1) * R) * n <= _POOL_ENTRIES or not (len(act) or new)
                ):
                    M = next(it, None)
                    if M is None:
                        more = False
                    elif M.shape != shape:
                        raise ValueError(f"a matrix of shape {M.shape} in a pool of shape {shape}")
                    else:
                        new.append(M)
                if new:
                    Xn = np.tile(starts, (len(new), 1))
                    vn, JXn = _images(new, Xn, list(range(0, len(Xn) + 1, R)), p, pn)
                    act = np.concatenate([act, np.arange(drawn * R, (drawn + len(new)) * R)])
                    X, JX = np.concatenate([X, Xn]), np.concatenate([JX, JXn])
                    val, res = np.concatenate([val, vn]), np.concatenate([res, vn])
                    del Xn, JXn  # only the pool's copies stay
                    for M in new:
                        mats.append(M)
                        trans.append(M.T)
                        keys.append(drawn)
                        ends.append(step + _FIXED_POINT_STEPS)
                        outs[drawn] = (np.empty(R), np.empty(R), np.empty((R, n), dtype=complex))
                        drawn += 1
                    edges = [k * R for k in keys] + [drawn * R]
                    bounds = np.searchsorted(act, edges).tolist()
                if not len(act):
                    break
                W = _matvec_slices(trans, JX, bounds)
                del JX  # the step's new arrays need not sit beside it
                Y = _J(W, q, np.abs(W))
                ny = row_norms(Y, pn)
                left = not ny.all()
                if left:  # a row with a zero step stops where it is
                    moved = ny != 0
                    si = np.flatnonzero(~moved)
                    _store(outs, R, act[si], val[si], res[si], X.take(si, axis=0))
                    act, Y, ny, val = act[moved], Y[moved], ny[moved], val[moved]
                    bounds = np.searchsorted(act, edges).tolist()
                Y /= ny[:, None]
                X = Y
                v, JX = _images(mats, X, bounds, p, pn)
                res = v - val
                drop = v < val - 1e-12 * np.maximum(1.0, val)
                val = v
                step += 1
                # a row stops once its step is small or NaN, or after its
                # last step.  A NaN step means a non-finite value, which later
                # steps never bring back to a finite one, so the matrix ends
                # with best_run's ValueError at once
                leave = ~(res > 1e-15 * np.maximum(v, 1e-30))
                capped = 0
                while capped < len(ends) and ends[capped] <= step:
                    capped += 1
                leave[: bounds[capped]] = True
                store = leave
                if drop.any():
                    bad = np.unique(act[drop] // R)
                    lost.update(bad.tolist())
                    gone = np.isin(act // R, bad)
                    store = leave & ~gone
                    leave = leave | gone
                if leave.any():
                    left = True
                    si = np.flatnonzero(store)
                    if len(si):
                        _store(outs, R, act[si], val[si], res[si], X.take(si, axis=0))
                    si = np.flatnonzero(~leave)
                    act, val, res = act[si], val[si], res[si]
                    X, JX = X.take(si, axis=0), JX.take(si, axis=0)
                    bounds = np.searchsorted(act, edges).tolist()
                if left:  # a matrix whose last row has left is done
                    live = [a < b for a, b in zip(bounds, bounds[1:])]
                    if not all(live):
                        for k in itertools.compress(keys, [not a for a in live]):
                            vals, ress, xs = outs.pop(k)
                            if k in lost:
                                done.append((k, ValueError("fixed-point ascent lost monotonicity")))
                            else:
                                done.append((k, list(zip(vals.tolist(), xs, np.abs(ress).tolist()))))
                        mats, trans, keys, ends = (
                            list(itertools.compress(seq, live)) for seq in (mats, trans, keys, ends)
                        )
                        edges = [k * R for k in keys] + [drawn * R]
                        bounds = np.searchsorted(act, edges).tolist()
        if not done:
            return
        yield from done


def fixed_point_restarts(M: np.ndarray, p: float) -> Runs:
    """All restart outcomes of the monotone fixed-point ascent (value, x, residual).

    One outcome per non-zero start, in start order.  The starts advance
    together as the rows of one array, and a row leaves as soon as it stops.
    Each row still gets its own gemv (``M @ x`` and ``M.T @ y``, with ``M.T``
    a transposed view) and a scalar root, so every outcome is bit for bit the
    one its start gives when run alone.  This is the fixed-point pool of
    ``op_norm_stream`` holding one matrix, which runs each matrix's rows
    through the same calls and so gives each matrix these same bits.
    """
    _, runs = next(_fixed_point_pool([M], p))
    if isinstance(runs, ValueError):
        raise runs
    return runs


def _split_model(
    T: StructuredOperator,
) -> tuple[np.ndarray, int, int, list[float]] | None:
    """Rectangle plus disjoint constant shift tails, exactly norm-equivalent.

    Requires every rule to be a single constant-weight unit-slope entry and at
    most one rule per row direction; the cut is chosen so tail rows and
    columns are disjoint from the rectangle.
    """
    if not T.rules:
        return T.block, T.row_offset, T.col_offset, []
    dirs: set[int] = set()
    for rule in T.rules:
        if len(rule.entries) != 1:
            return None
        e = rule.entries[0]
        c, rho, d = e.parts()
        if e.row_kind != "affine" or abs(e.row_a) != 1 or c != 0:
            return None
        direction = e.row_a * rule.step
        if direction in dirs:
            return None
        dirs.add(direction)
    row_lo, row_hi = T.row_offset, T.row_offset + T.nrows
    col_lo, col_hi = T.col_offset, T.col_offset + T.ncols
    tails: list[float] = []
    keep: list[tuple[ColumnRule, int]] = []  # rule, k-cut (prefix into rectangle)
    for rule in T.rules:
        e = rule.entries[0]
        _, _, d = e.parts()
        tails.append(abs(d))
        kcut = 0
        while kcut < _MAX_ENUM:
            j = rule.col(kcut)
            r = e.row(kcut, j)
            if (j < col_lo or j >= col_hi) and (r < row_lo or r >= row_hi):
                break
            kcut += 1
        keep.append((rule, kcut))
    # extend the rectangle to absorb rule prefixes
    for rule, kcut in keep:
        for k in range(kcut):
            j = rule.col(k)
            r = rule.entries[0].row(k, j)
            col_lo, col_hi = min(col_lo, j), max(col_hi, j + 1)
            row_lo, row_hi = min(row_lo, r), max(row_hi, r + 1)
    # after extension, recheck disjointness of the remaining tails
    for rule, kcut in keep:
        e = rule.entries[0]
        for k in range(kcut, kcut + max(row_hi - row_lo, col_hi - col_lo) + 2):
            j = rule.col(k)
            r = e.row(k, j)
            if col_lo <= j < col_hi or row_lo <= r < row_hi:
                return None
    rect = materialize(T, row_lo, row_hi, col_lo, col_hi)
    return rect, row_lo, col_lo, tails


def best_run(runs: Sequence[tuple[float, np.ndarray, float]], p: float) -> tuple[float, np.ndarray, float]:
    """The ascent's best outcome; a non-finite best value raises ``ValueError``."""
    v, x, res = max(runs, key=lambda t: t[0])
    if not math.isfinite(v):
        raise ValueError(f"fixed-point ascent at p = {p!r} gave a non-finite value {v}")
    return v, x, res


def polish_restarts(
    M: np.ndarray, runs: Sequence[tuple[float, np.ndarray, float]], p: float
) -> tuple[np.ndarray, int]:
    """The best of the outcomes ``runs`` of ``fixed_point_restarts(M, p)`` and
    every one within 1e-9 of its value, as rows (best first), each continued
    by the ascent's map, normalised, until no coordinate of any row moves by
    _POLISH_STEP (or _POLISH_MAX steps); returns the rows and the steps.  A
    non-finite best value raises ``best_run``'s ``ValueError``; a non-finite
    row stops the loop and stays non-finite."""
    best_v, best_x, _ = best_run(runs, p)
    X = np.array([best_x] + [x for v, x, _ in runs if v >= best_v * (1.0 - 1e-9)])
    Ms, bounds, pn = M[None], [0, len(X)], PNorm.lp(p)
    Ts = Ms.transpose(0, 2, 1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for steps in range(1, _POLISH_MAX + 1):
            Y = _ascent_map(Ts, _matvec_slices(Ms, X, bounds), bounds, p)
            Y /= row_norms(Y, pn)[:, None]
            moved = np.abs(Y - X).max()
            X = Y
            if not moved >= _POLISH_STEP:
                break
    return X, steps


def _split_certificate(
    v_rect: float,
    x: np.ndarray,
    res: float,
    col_lo: int,
    tails: list[float],
    domain: IndexDomain,
    method: str,
) -> NormCertificate:
    value = max([v_rect] + tails)
    witness = None
    if v_rect >= value and x.size:
        witness = SpVector.make({col_lo + i: x[i] for i in range(len(x))}, domain=domain)
    return NormCertificate(value, witness, method, res)


def _op_norm_split(T: StructuredOperator, p: float) -> NormCertificate:
    """Norm of the exact split model: the SVD at p = 2, the fixed point otherwise."""
    model = _split_model(T)
    if model is None:
        raise ValueError(
            f"no exact finite model for this operator at p = {2 if p == 2.0 else p}"
        )
    rect, _, col_lo, tails = model
    if not rect.size:
        v_rect, x, res = 0.0, np.zeros(0), 0.0
    elif p == 2.0:
        # np.linalg.svd does not check its input: on inf it returns NaN or hangs
        _, s, vh = np.linalg.svd(np.asarray_chkfinite(rect))
        v_rect, x, res = float(s[0]), np.conj(vh[0]), 0.0
    else:
        v_rect, x, res = best_run(fixed_point_restarts(rect, p), p)
    method = "exact" if p == 2.0 else "fixed_point"
    return _split_certificate(v_rect, x, res, col_lo, tails, T.domain, method)


def op_norm(T: StructuredOperator, pn: PNorm) -> NormCertificate:
    """Operator norm certificate for T acting on the pn space."""
    if pn.is_c0:
        return _op_norm_c0(T)
    if pn.p == 1.0:
        return _op_norm_l1(T)
    return _op_norm_split(T, pn.p)


def _op_norm_dense(M: np.ndarray, pn: PNorm) -> NormCertificate | ValueError:
    try:
        return op_norm(StructuredOperator.from_dense(M), pn)
    except ValueError as exc:  # non-finite entries: this matrix's failure alone
        return exc


def op_norm_stream(
    Ms: Iterable[np.ndarray], pn: PNorm
) -> Iterator[tuple[int, NormCertificate | Exception]]:
    """``(k, op_norm of Ms[k])`` for each dense matrix of an iterable of one
    shape, yielded as each norm completes.

    Each certificate is bit for bit what ``op_norm(StructuredOperator.from_dense(
    Ms[k]), pn)`` returns, or the exception that call raises: a matrix whose
    ascent loses monotonicity or ends non-finite fails alone, with its own
    error, and every other entry stays as it is.

    At p = 1, p = 2, on c0 and for matrices without entries, the matrices are
    drawn and normed one at a time, in order.  Otherwise they go through the
    fixed-point pool of ``_fixed_point_pool``: a matrix is drawn from ``Ms``
    when its restarts fit among the pool's live rows, and it is yielded when
    its last restart stops.  The cost of the numpy calls per step is shared
    by the whole pool, and a restart that runs long holds back no matrix
    after it; the pool's bound, not the length of ``Ms``, sets the memory.
    """
    Ms = iter(Ms)
    first = next(Ms, None)
    if first is None:
        return
    Ms = (np.asarray(M, dtype=complex) for M in itertools.chain([first], Ms))
    if pn.is_c0 or pn.p in (1.0, 2.0) or 0 in np.shape(first):
        for k, M in enumerate(Ms):
            yield k, _op_norm_dense(M, pn)
        return
    for k, runs in _fixed_point_pool(Ms, pn.p):
        try:
            if isinstance(runs, ValueError):
                raise runs
            best = best_run(runs, pn.p)
        except ValueError as exc:
            yield k, exc
            continue
        yield k, _split_certificate(*best, 0, [], IndexDomain.NATURALS, "fixed_point")


def op_norm_batch(Ms: np.ndarray, pn: PNorm) -> list[NormCertificate | Exception]:
    """``op_norm_stream`` of a stack of dense matrices of one shape, in stack
    order: entry k is ``op_norm``'s certificate for ``Ms[k]``, or the
    exception it raises.  An empty stack gives ``[]``."""
    Ms = np.asarray(Ms, dtype=complex)
    if Ms.ndim != 3:
        raise ValueError(f"op_norm_batch needs a stack of matrices, got shape {Ms.shape}")
    certs = dict(op_norm_stream(Ms, pn))
    return [certs[k] for k in range(len(Ms))]


# ---------------------------------------------------------------------------
# small-dimension oracle


def _eval_batch(M: np.ndarray, X: np.ndarray, den: np.ndarray, pn: PNorm) -> np.ndarray:
    """The gain ||M x||_pn / ||x||_pn at each column x of X, given the column
    norms ``den`` of X; 0 at a zero column."""
    num = dense_norm(M @ X, pn)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(den > 0, num / den, 0.0)
    return out


def _simplex_grid(n: int, G: int) -> np.ndarray:
    if n == 1:
        return np.ones((1, 1))
    pts = []
    if n == 2:
        for i in range(G + 1):
            pts.append((i / G, 1 - i / G))
    else:
        for i in range(G + 1):
            for j in range(G + 1 - i):
                pts.append((i / G, j / G, 1 - (i + j) / G))
    return np.array(pts).T  # (n, B)


def _phase_grid(n: int, P: int) -> np.ndarray:
    ang = 2j * np.pi * np.arange(P) / P
    phases = np.exp(ang)
    if n == 1:
        return np.ones((1, 1))
    grids = np.meshgrid(*([phases] * (n - 1)), indexing="ij")
    B = grids[0].size
    out = np.ones((n, B), dtype=complex)
    for i, g in enumerate(grids):
        out[i + 1] = g.reshape(-1)
    return out


_TINY = np.finfo(float).tiny


def _gain_and_direction(
    A: np.ndarray, AH: np.ndarray, X: np.ndarray, p: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gain ||A[r] x||_p / ||x||_p at each row x of X, ||x||_p, and a unit ascent direction.

    With d|z|^p = p |z|^(p-2) Re(conj(z) dz), the gradient of the gain in the
    (re, im) coordinates, written as one complex vector, is a positive
    multiple of A^H(|y|^(p-2) y) - gain^p |x|^(p-2) x with y = Ax (a zero
    coordinate contributes 0; moduli are floored at the smallest normal float
    so that |0|^(p-2) stays finite).  The direction is that vector scaled to
    unit Euclidean length, or zero where it vanishes.  Products are broadcast
    products summed over the last axis, not a batched gemm, and each
    reduction runs over one row's <= 3 coordinates, so a row gets the same
    bits alone as in any batch.
    """
    aX = np.abs(X)
    Gp = (aX**p).sum(axis=-1)
    Y = (A * X[:, None, :]).sum(axis=-1)
    aY = np.abs(Y)
    gp = (aY**p).sum(axis=-1) / Gp
    dx = np.maximum(aX, _TINY) ** (p - 2.0) * X
    dy = np.maximum(aY, _TINY) ** (p - 2.0) * Y
    g = (AH * dy[:, None, :]).sum(axis=-1) - gp[:, None] * dx
    size = np.sqrt((np.abs(g) ** 2).sum(axis=-1))
    return gp ** (1.0 / p), Gp ** (1.0 / p), g / np.maximum(size, _TINY)[:, None]


def _ascend(A: np.ndarray, X: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Normalised gradient ascent of ||A[r] x||_p / ||x||_p from each row x of X.

    Every start keeps its own step t: the trial ``x + t d`` is kept, put back
    on the unit sphere, if the gain rises (t <- 1.5 t), and dropped otherwise
    (t <- t / 2).  A start stops once t < ``_ASCENT_T_MIN`` = 2^-27, or after
    1000 trials, and leaves the batch.  Returns the final gains and unit
    vectors.

    Why 2^-27: the gain g is smooth on the sphere away from zero coordinates,
    so at a maximum x* its derivative along the unit direction d vanishes and
    g(x* + t d) = g(x*) + O(t^2).  Once t^2 is below u = 2^-53, a trial moves
    the gain by O(u) relative, which is the rounding of the gain itself: the
    test "the gain rises" is then decided by rounding, not by the ascent.
    2^-27 is the first power of two below sqrt(u) = 2^-26.5 ~ 1.05e-8.  A
    start's steps and trials do not depend on the other rows, so stopping at
    2^-27 ends each start on a prefix of the path it would take with a
    smaller floor, at a gain no higher than that path's last.
    """
    AH = np.conj(np.swapaxes(A, 1, 2))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        value, G, D = _gain_and_direction(A, AH, X, p)
        X = X / G[:, None]
        best, out = value.copy(), X.copy()
        t = np.full(len(X), 0.1)
        act = np.arange(len(X))
        for _ in range(1000):
            Xt = X + t[:, None] * D
            vt, Gt, Dt = _gain_and_direction(A, AH, Xt, p)
            up = vt > value
            np.copyto(value, vt, where=up)
            np.copyto(X, Xt / Gt[:, None], where=up[:, None])
            np.copyto(D, Dt, where=up[:, None])
            t *= 0.5 + up
            if t.min() < _ASCENT_T_MIN:
                stop = t < _ASCENT_T_MIN
                best[act[stop]], out[act[stop]] = value[stop], X[stop]
                keep = ~stop
                act, A, AH, X, D, t, value = (a[keep] for a in (act, A, AH, X, D, t, value))
                if not act.size:
                    break
        best[act], out[act] = value, X
    return best, out


@functools.lru_cache(maxsize=16)
def _oracle_grid(n: int, p: float, nonneg: bool) -> tuple[np.ndarray, np.ndarray]:
    """Sphere grid, magnitude simplex x phase torus or the simplex alone, as
    read-only columns, with their lp norms (read-only too).

    Kept per (n, p, nonneg), as ``_fixed_point_starts`` is: each matrix of a
    batch, and each lone call, reuses the grid and its norms.
    """
    if nonneg:
        X = (_simplex_grid(n, 24) ** (1.0 / p)).astype(complex)
    else:
        mags = _simplex_grid(n, 10) ** (1.0 / p)
        ph = _phase_grid(n, 10)
        X = (mags[:, :, None] * ph[:, None, :]).reshape(n, -1)
    den = dense_norm(X, PNorm.lp(p))
    X.flags.writeable = den.flags.writeable = False
    return X, den


def op_norm_oracle_batch(Ms: np.ndarray, pn: PNorm) -> list[NormCertificate]:
    """Brute-force norms of matrices of one shape, at most three rows and columns.

    Exact extreme-point candidates (basis vectors; per-row phase-aligned
    corners) attain the norm at c0 and l1.  Off those, a matrix with one
    column gets its exact norm ||M e_0||_p (witness e_0, residual 0): every
    unit vector of C^1 is a phase times e_0.  Otherwise each matrix adds a
    sphere grid (magnitude simplex x phase torus, or the simplex alone for a
    non-negative matrix; kept per shape and p with its norms) and takes its
    6 best grid points plus 10 seeded random vectors as starts; all starts of
    all matrices then run one batched normalised gradient ascent
    (``_ascend``), which stops each start once its step falls below
    sqrt(u).  A matrix gets the same bits alone as in any batch.  An empty
    stack gives ``[]``; a non-finite entry raises ``ValueError``.
    Independent of the structural norm routes.
    """
    Ms = np.asarray(Ms, dtype=complex)
    if Ms.ndim != 3:
        raise ValueError("expected a stack of matrices of one shape")
    _, m, n = Ms.shape
    if n > 3 or m > 3:
        raise ValueError("oracle is limited to three rows and columns")
    if not np.isfinite(Ms).all():
        raise ValueError("the oracle needs finite entries")
    if not len(Ms):
        return []
    exact = pn.is_c0 or pn.p == 1.0
    if n == 1 and not exact:
        e0 = SpVector.basis(0)
        return [NormCertificate(float(dense_norm(M[:, 0], pn)), e0, "oracle", 0.0) for M in Ms]

    def witness(x: np.ndarray) -> SpVector:
        nx = dense_norm(x, pn)
        return SpVector.make({j: x[j] / nx for j in range(n)})

    X_cands = []
    for M in Ms:
        # basis vectors, and per-row aligned corners: exact maximizers of row sums
        a = np.abs(M)
        corners = np.where(a > 0, np.conj(M) / np.where(a > 0, a, 1.0), 1.0)
        X_cands.append(np.concatenate([np.eye(n, dtype=complex), corners.T], axis=1))
    if exact:
        out = []
        for M, X in zip(Ms, X_cands):
            vals = _eval_batch(M, X, dense_norm(X, pn), pn)
            i = int(np.argmax(vals))
            out.append(NormCertificate(float(vals[i]), witness(X[:, i]), "oracle", 0.0))
        return out
    p = pn.p
    rng = np.random.default_rng(_ORACLE_SEED)
    randoms = [rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(10)]
    starts, owners, grid_best = [], [], []
    for b, (M, X) in enumerate(zip(Ms, X_cands)):
        nonneg = bool(np.all(np.isreal(M)) and np.all(M.real >= 0))
        grid, grid_den = _oracle_grid(n, p, nonneg)
        den = np.concatenate([dense_norm(X, pn), grid_den])
        X = np.concatenate([X, grid], axis=1)
        vals = _eval_batch(M, X, den, pn)
        order = np.argsort(vals)[::-1]
        own = [X[:, i] for i in order[:6]] + randoms
        starts += own
        owners += [b] * len(own)
        grid_best.append((float(vals[order[0]]), X[:, order[0]]))
    owner = np.array(owners)
    values, xs = _ascend(Ms[owner], np.array(starts), p)
    out = []
    for b, (best_val, best_x) in enumerate(grid_best):
        rows = np.flatnonzero(owner == b)
        second = 0.0
        for v, x in zip(values[rows].tolist(), xs[rows]):
            if v > best_val:
                second = best_val
                best_val, best_x = v, x
            elif v > second:
                second = v
        residual = max(1e-12, best_val - second if second > 0 else 1e-12)
        out.append(NormCertificate(best_val, witness(best_x), "oracle", min(residual, 1e-4)))
    return out


def op_norm_oracle(M: np.ndarray, pn: PNorm) -> NormCertificate:
    """``op_norm_oracle_batch`` on the single matrix M."""
    return op_norm_oracle_batch(np.atleast_2d(np.asarray(M, dtype=complex))[None], pn)[0]


# ---------------------------------------------------------------------------
# dual sups


def dual_sup_norm(T: StructuredOperator, xstar: SpVector) -> float:
    """sup over columns j of |<x*, T e_j>| for finitely supported x*.

    Exact: geometric weight families are enumerated to exhaustion and the
    constant parts contribute their limit values (the sup may be attained
    only in the limit).  A non-finite entry of T or of x* raises
    ``ValueError``: the sup would pass over a NaN, as the exact norms would.
    """
    if xstar.tail is not None:
        raise ValueError("dual functional must be finitely supported")
    _require_finite(T, "dual sup")
    if not xstar.entries:
        return 0.0
    supp, xs = map(np.array, zip(*xstar.entries))
    if not np.isfinite(xs).all():
        raise ValueError("the exact dual sup needs a finite functional")
    sup_abs = max(abs(v) for _, v in xstar.entries)
    max_supp = int(supp[-1])
    scale = max(_rough_scale(T), sup_abs)
    cols = [np.arange(T.col_offset, T.col_offset + T.ncols)]
    limits: list[float] = []
    for rule in T.rules:
        for e in rule.entries:
            c, rho, d = e.parts()
            if e.row_kind == "affine":
                if e.row_a == 0:
                    if e.row_b in supp:
                        K = _decay_horizon(c, rho, scale)
                        cols.append(rule.col(np.arange(K + 1)))
                        if d != 0:
                            limits.append(abs(d) * abs(xstar.at(e.row_b)))
                    continue
                k, rem = np.divmod(supp - e.row_b - e.row_a * rule.start, e.row_a * rule.step)
                cols.append(rule.col(k[(rem == 0) & (k >= 0)]))
            else:
                K = max(_decay_horizon(c, rho, scale), 8)
                # columns whose second-entry rows may still touch supp
                K = max(K, max_supp + abs(rule.start) + 4)
                m_hi = int(math.isqrt(2 * K)) + max_supp + 3
                K = max(K, (m_hi * (m_hi + 1)) // 2 + m_hi)
                if K > _MAX_ENUM:
                    raise ValueError("enumeration window too large")
                cols.append(rule.col(np.arange(K + 1)))
                if d != 0:
                    limits.append(abs(d) * sup_abs)
    best = 0.0
    for cs, i, r, v in _column_chunks(T, cols, supp):
        at = np.searchsorted(supp, r)
        on = supp.take(at, mode="clip") == r
        # <x*, T e_j> summed from 0j over x*'s entries in index order, each
        # product's parts rounded as Python rounds them
        i, x, v, p = i[on], xs[at[on]], v[on], np.zeros((2, cs.size))
        np.add.at(p[0], i, x.real * v.real - x.imag * v.imag)
        np.add.at(p[1], i, x.real * v.imag + x.imag * v.real)
        best = float(np.fmax.reduce(np.hypot(*p), initial=best))  # NaNs pass
    return max([best] + limits)
