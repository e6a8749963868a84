"""Spectral probes: dense eigenpairs and weighted-translate point spectra.

The bilateral model couples a finite block A on the span of f_{-N}..f_N with
a weighted translation by 2N+1 positions: column j carries the weight
omega_{j-(2N+1)} at row j-(2N+1), plus the block action for |j| <= N.
Eigenvector membership is governed by two geometric-series tests (one per
direction), which for eventually constant weights are all-or-nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .reports import max_or_nan
from .spaces import IndexDomain, SpVector

__all__ = [
    "OmegaWeights",
    "LambdaSets",
    "EigenPair",
    "eigs_dense",
    "lambda_sets",
    "point_spectrum_SAomega",
]

MAX_DENSE_DIM = 256


@dataclass(frozen=True)
class OmegaWeights:
    """Positive weight sequence: finite table plus one constant per side."""

    table: tuple[tuple[int, float], ...]
    left: float
    right: float

    def __init__(self, table=(), left: float = 1.0, right: float = 1.0) -> None:
        if isinstance(table, Mapping):
            table = tuple(sorted(table.items()))
        else:
            table = tuple(sorted(table))
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "left", float(left))
        object.__setattr__(self, "right", float(right))
        if self.left <= 0 or self.right <= 0:
            raise ValueError("side constants must be positive")
        if any(v <= 0 for _, v in self.table):
            raise ValueError("weights must be positive")

    def value(self, k: int) -> float:
        for i, v in self.table:
            if i == k:
                return v
        return self.left if k < 0 else self.right

    def table_span(self) -> tuple[int, int]:
        if not self.table:
            return 0, 0
        ks = [k for k, _ in self.table]
        return min(ks), max(ks)


@dataclass(frozen=True)
class LambdaSets:
    """Index sets where the two reconstruction series converge."""

    minus: tuple[int, ...]
    plus: tuple[int, ...]


@dataclass(frozen=True)
class EigenPair:
    value: complex
    vector: object  # SpVector or dense ndarray
    residual: float


def eigs_dense(M: np.ndarray) -> list[EigenPair]:
    """Eigenpairs of a dense matrix (dimension capped), residuals attached."""
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError("square matrix required")
    if n > MAX_DENSE_DIM:
        raise ValueError(f"dense eigensolve capped at dimension {MAX_DENSE_DIM}")
    vals, vecs = np.linalg.eig(M)
    out = []
    for i in range(n):
        v = vecs[:, i]
        res = float(np.linalg.norm(M @ v - vals[i] * v) / np.linalg.norm(v))
        out.append(EigenPair(complex(vals[i]), v.copy(), res))
    out.sort(key=lambda ep: -abs(ep.value))
    return out


def lambda_sets(omega: OmegaWeights, lam: complex, N: int) -> LambdaSets:
    """Convergence sets of the two reconstruction series on [-N, N].

    With eventually constant weights the ratio test decides both series
    uniformly in the base index: the finite table never affects convergence,
    and the boundary cases diverge (eventually constant nonzero terms).
    """
    full = tuple(range(-N, N + 1))
    if lam == 0:
        minus_ok = False
    else:
        minus_ok = omega.left < abs(lam)
    plus_ok = abs(lam) < omega.right  # lam = 0: all terms vanish
    return LambdaSets(full if minus_ok else (), full if plus_ok else ())


def point_spectrum_SAomega(
    A: np.ndarray,
    omega: OmegaWeights,
    lam: complex,
    window: int | None = None,
) -> EigenPair | None:
    """Eigenpair of the coupled weighted translate at lam, or None.

    The block A acts on indices [-N, N].  A nonzero vector u with support in
    the minus-convergence set and with (A - lam)u supported in the
    plus-convergence set extends to an eigenvector via the row recurrences;
    the returned vector carries the reconstruction on an explicit window and
    its residual is evaluated on the inner half of that window.
    """
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    n = A.shape[0]
    if A.shape != (n, n) or n % 2 == 0:
        raise ValueError("block must be square with odd dimension 2N+1")
    N = (n - 1) // 2
    step = 2 * N + 1
    ls = lambda_sets(omega, lam, N)
    if not ls.minus:
        return None
    if ls.plus:
        u = np.zeros(n, dtype=complex)
        u[N] = 1.0  # index 0
    else:
        # need (A - lam) u = 0 exactly: smallest singular vector
        B = A - lam * np.eye(n)
        uu, ss, vh = np.linalg.svd(np.asarray_chkfinite(B))
        scale = ss[0] if ss[0] > 0 else 1.0
        if ss[-1] > 1e-10 * scale:
            return None
        u = np.conj(vh[-1])
    lo, hi = omega.table_span()
    W = max(3 * N + 1, abs(lo) + step, abs(hi) + step, window or 0)
    # values y_j on [-W - step, W + step]
    offs = W + step
    y = np.zeros(2 * offs + 1, dtype=complex)

    def setv(j: int, v: complex) -> None:
        y[j + offs] = v

    def getv(j: int) -> complex:
        return y[j + offs]

    for k in range(-N, N + 1):
        setv(k, u[k + N])
    r = A @ u - lam * u
    for k in range(-N, N + 1):
        setv(k + step, -r[k + N] / omega.value(k))
    for j in range(3 * N + 2, W + step + 1):
        setv(j, lam * getv(j - step) / omega.value(j - step))
    for j in range(-N - 1, -W - step - 1, -1):
        setv(j, omega.value(j) * getv(j + step) / lam)
    # residual of the eigen equation on rows [-W, W]
    res = 0.0
    for k in range(-W, W + 1):
        val = omega.value(k) * getv(k + step)
        if -N <= k <= N:
            val += sum(A[k + N, i + N] * getv(i) for i in range(-N, N + 1))
        res = max_or_nan(res, abs(val - lam * getv(k)))
    scale = float(np.abs(y).max())
    vec = SpVector.make(
        {j - offs: y[j] for j in range(len(y)) if y[j] != 0},
        domain=IndexDomain.INTEGERS,
    )
    return EigenPair(complex(lam), vec, res / max(scale, 1e-30))
