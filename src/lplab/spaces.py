"""Sequence-space vectors: finitely many explicit entries plus a geometric tail.

The vector model is ``x_j = entries[j]`` where an entry exists, otherwise
``x_j = c * w**(j - s)`` inside the tail region ``j >= s``, otherwise ``0``.
Explicit entries override the tail.  All norm and pairing computations on
tails use closed forms, never truncation.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "PNorm",
    "IndexDomain",
    "GeometricTail",
    "SpVector",
    "norm",
    "dense_norm",
    "row_norms",
    "pairing",
]

_TAIL_RATIO_MAX = 1.0 - 1e-13


class IndexDomain(Enum):
    """Index set the vector lives over."""

    NATURALS = "naturals"
    INTEGERS = "integers"


@dataclass(frozen=True)
class PNorm:
    """Norm marker: either an l_p norm (1 <= p < inf) or the c0 sup norm."""

    kind: str  # "lp" or "c0"
    p: float = 0.0

    @staticmethod
    def lp(p: float) -> "PNorm":
        if not (1.0 <= p < math.inf):
            raise ValueError(f"p must lie in [1, inf), got {p}")
        return PNorm("lp", float(p))

    @staticmethod
    def c0() -> "PNorm":
        return PNorm("c0", 0.0)

    @property
    def is_c0(self) -> bool:
        return self.kind == "c0"

    def label(self) -> str:
        """Space name; ``l`` + p in ``:g`` form only when that parses back to p."""
        if self.is_c0:
            return "c0"
        short = f"{self.p:g}"
        return f"l{short}" if float(short) == self.p else f"l{self.p!r}"


@dataclass(frozen=True)
class GeometricTail:
    """Tail ``x_j = coeff * ratio**(j - start)`` for ``j >= start``."""

    start: int
    coeff: complex
    ratio: complex

    def __post_init__(self) -> None:
        if not (cmath.isfinite(self.coeff) and cmath.isfinite(self.ratio)):
            raise ValueError(
                f"tail coefficient and ratio must be finite, got {self.coeff!r}, {self.ratio!r}"
            )
        if abs(self.ratio) > _TAIL_RATIO_MAX:
            raise ValueError(f"tail ratio must satisfy |w| < 1, got |w|={abs(self.ratio)}")
        if self.coeff == 0:
            raise ValueError("tail coefficient must be nonzero")

    def value(self, j: int) -> complex:
        if j < self.start:
            return 0.0
        return self.coeff * self.ratio ** (j - self.start)


def _normalized_entries(
    entries: Mapping[int, complex] | Iterable[tuple[int, complex]],
    tail: GeometricTail | None,
) -> tuple[tuple[int, complex], ...]:
    """Sorted non-zero entries, the last value of a repeated index winning.

    A zero, or an entry that merely restates the tail value, is not stored,
    and it removes an earlier value of its index too; so an iterable of
    pairs gives the entries of the dict built from it.
    """
    items = entries.items() if isinstance(entries, Mapping) else entries
    out: dict[int, complex] = {}
    for j, v in items:
        v = complex(v)
        j = int(j)
        if v == 0 or (tail is not None and j >= tail.start and v == tail.value(j)):
            out.pop(j, None)
        else:
            out[j] = v
    return tuple(sorted(out.items()))


@dataclass(frozen=True)
class SpVector:
    """Sparse-plus-geometric-tail vector."""

    entries: tuple[tuple[int, complex], ...] = ()
    tail: GeometricTail | None = None
    domain: IndexDomain = IndexDomain.NATURALS

    @staticmethod
    def make(
        entries: Mapping[int, complex] | Iterable[tuple[int, complex]] = (),
        tail: GeometricTail | None = None,
        domain: IndexDomain = IndexDomain.NATURALS,
    ) -> "SpVector":
        ents = _normalized_entries(entries, tail)
        if domain == IndexDomain.NATURALS:
            if ents and ents[0][0] < 0:  # sorted: the first index is the least
                bad = [j for j, _ in ents if j < 0]
                raise ValueError(f"negative indices {bad} on the naturals domain")
            if tail is not None and tail.start < 0:
                raise ValueError("tail start must be >= 0 on the naturals domain")
        return SpVector(ents, tail, domain)

    @staticmethod
    def basis(j: int, domain: IndexDomain = IndexDomain.NATURALS) -> "SpVector":
        return SpVector.make({j: 1.0}, domain=domain)

    def at(self, j: int) -> complex:
        for i, v in self.entries:
            if i == j:
                return v
        if self.tail is not None:
            return self.tail.value(j)
        return 0.0

    def window(self, lo: int, hi: int) -> np.ndarray:
        """Dense values on ``[lo, hi)``."""
        out = np.zeros(hi - lo, dtype=complex)
        if self.tail is not None:
            s = self.tail.start
            j0 = max(lo, s)
            if j0 < hi:
                k = np.arange(j0 - s, hi - s)
                out[j0 - lo :] = self.tail.coeff * self.tail.ratio ** k
        for j, v in self.entries:
            if lo <= j < hi:
                out[j - lo] = v
        return out

    def scale(self, a: complex) -> "SpVector":
        a = complex(a)
        if a == 0:
            return SpVector(domain=self.domain)
        tail = None
        if self.tail is not None:
            tail = GeometricTail(self.tail.start, a * self.tail.coeff, self.tail.ratio)
        return SpVector.make({j: a * v for j, v in self.entries}, tail, self.domain)

    def __add__(self, other: "SpVector") -> "SpVector":
        return add(self, other)


def _merge_tails(a: GeometricTail | None, b: GeometricTail | None) -> tuple[GeometricTail | None, list[tuple[int, complex]]]:
    """Sum of two tails; returns the merged tail plus entries materialized
    from the unaligned prefix."""
    if a is None:
        return b, []
    if b is None:
        return a, []
    if a.ratio != b.ratio:
        raise ValueError("cannot add tails with different ratios")
    s = max(a.start, b.start)
    coeff = a.coeff * a.ratio ** (s - a.start) + b.coeff * b.ratio ** (s - b.start)
    extra: list[tuple[int, complex]] = []
    for j in range(min(a.start, b.start), s):
        extra.append((j, a.value(j) + b.value(j)))
    if coeff == 0:
        return None, extra
    return GeometricTail(s, coeff, a.ratio), extra


def _lookup(x: SpVector) -> Callable[[int], complex]:
    """``x.at`` through one dict of x's entries instead of a scan per index.

    A missing index gets the tail value, or ``0.0``, exactly as ``at`` gives it.
    """
    ents = dict(x.entries)
    tail = x.tail
    if tail is None:
        return lambda j: ents.get(j, 0.0)
    return lambda j: ents[j] if j in ents else tail.value(j)


def add(x: SpVector, y: SpVector) -> SpVector:
    """``x + y``; each summand's entries are looked up in one dict of them."""
    if x.domain != y.domain:
        raise ValueError("domain mismatch")
    tail, extra = _merge_tails(x.tail, y.tail)
    values: dict[int, complex] = dict(extra)
    x_at, y_at = _lookup(x), _lookup(y)
    touched = {j for j, _ in x.entries} | {j for j, _ in y.entries}
    for j in touched:
        values[j] = x_at(j) + y_at(j)
    # Positions where an explicit entry of one summand meets the other's tail
    # take that tail's value there.  Zero results inside the tail region force
    # a tail restart (explicit zeros are not stored).
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


def _tail_lp_pow(t: GeometricTail, p: float, overridden: set[int]) -> float:
    """sum_{j>=s, j not overridden} |t(j)|^p, closed form minus finitely many terms."""
    q = abs(t.ratio) ** p
    total = abs(t.coeff) ** p / (1.0 - q)
    for j in overridden:
        if j >= t.start:
            total -= abs(t.value(j)) ** p
    return max(total, 0.0)


def _tail_sup(t: GeometricTail, overridden: set[int]) -> float:
    j = t.start
    while j in overridden:
        j += 1
    return abs(t.value(j))


def norm(x: SpVector, pn: PNorm) -> float:
    """Norm of ``x``; tails are summed in closed form."""
    overridden = {j for j, _ in x.entries}
    if pn.is_c0:
        best = max((abs(v) for _, v in x.entries), default=0.0)
        if x.tail is not None:
            best = max(best, _tail_sup(x.tail, overridden))
        return best
    p = pn.p
    total = sum(abs(v) ** p for _, v in x.entries)
    if x.tail is not None:
        total += _tail_lp_pow(x.tail, p, overridden)
    return total ** (1.0 / p)


_TINY = np.finfo(float).tiny


def _repair_norms(
    vectors: np.ndarray, sums: np.ndarray, out: np.ndarray | list, p: float
) -> None:
    """Where the power sum sums[i] of vectors[i] (non-negative entries)
    underflowed below the normal floats or overflowed, set out[i] to the lp
    norm summed on vectors[i] / max(vectors[i]).  Every other out[i] keeps
    its bits, and a vector whose max is 0 or not finite keeps its 0, inf or
    NaN."""
    # the common case, nothing to repair, costs two reductions
    lo = np.minimum.reduce(sums, initial=np.inf)
    if lo >= _TINY and np.maximum.reduce(sums, initial=0.0) < np.inf:
        return
    for i in np.flatnonzero(~((sums >= _TINY) & (sums < np.inf))):
        m = float(vectors[i].max())
        if 0.0 < m < math.inf:
            out[i] = m * float(np.sum((vectors[i] / m) ** p)) ** (1.0 / p)


def dense_norm(z: np.ndarray, pn: PNorm) -> np.floating | np.ndarray:
    """Norm of a dense vector, or of each column of a matrix (axis 0).

    |z_j|^p is summed as it stands; where that sum underflows below the
    normal floats or overflows, the vector is summed again divided by its
    largest modulus, so tiny and huge finite vectors get their norm, not 0
    or inf.
    """
    a = np.abs(z)
    if pn.is_c0:
        return a.max(axis=0)
    with np.errstate(over="ignore"):
        sums = np.sum(a**pn.p, axis=0)
    out = np.atleast_1d(sums ** (1.0 / pn.p))
    _repair_norms(np.atleast_2d(a.T), np.atleast_1d(sums), out, pn.p)
    return out if a.ndim > 1 else out[0]


def row_norms(Z: np.ndarray, pn: PNorm) -> np.ndarray:
    """The norm of each row of Z, bit for bit ``dense_norm`` of that row.

    On lp numpy sums the contiguous last axis in a lone vector's order, the
    root is taken on Python floats (numpy's array ``pow`` can differ in the
    last bit), and sums that under- or overflowed are redone as there.  It
    holds no ``np.errstate``: a caller whose rows may overflow holds one.
    """
    return _moduli_row_norms(np.abs(Z), pn)


def _moduli_row_norms(A: np.ndarray, pn: PNorm) -> np.ndarray:
    """``row_norms`` of Z from its moduli A = |Z|, which are left as they are."""
    if pn.is_c0:
        return A.max(axis=-1)
    r = 1.0 / pn.p
    sums = np.add.reduce(A**pn.p, axis=-1)  # np.sum's reduction, without its wrapper
    out = [s**r for s in sums.tolist()]
    _repair_norms(A, sums, out, pn.p)
    return np.array(out)


def pairing(f: SpVector, x: SpVector) -> complex:
    """Bilinear pairing ``sum_j f_j x_j`` (no conjugation); tails in closed form.

    x's values at f's entries are looked up in one dict of x's entries.
    """
    total = 0.0 + 0.0j
    f_over = {j for j, _ in f.entries}
    x_over = {j for j, _ in x.entries}
    x_at = _lookup(x)
    for j, v in f.entries:
        total += v * x_at(j)
    if f.tail is not None:
        tf = f.tail
        for j, v in x.entries:
            if j not in f_over:
                total += tf.value(j) * v
        if x.tail is not None:
            tx = x.tail
            r = tf.ratio * tx.ratio
            s = max(tf.start, tx.start)
            a = tf.value(s) * tx.value(s)
            # Geometric series over j >= s minus overridden positions.
            total += a / (1.0 - r)
            for j in f_over | x_over:
                if j >= s:
                    total -= tf.value(j) * tx.value(j)
    # a finitely supported f meets x's tail only at f's entries, summed above
    return total
