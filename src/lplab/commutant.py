"""Krylov triangularization and the cyclic eigen-family witness on l2.

Operators here live on the one-sided Hilbert sequence space.  The central
object is a contraction T that acts as a dense block on the head coordinates
``0..N`` and as the forward shift on coordinates ``>= N+1``, with a positive
coupling entry ``b_N = <T e_N, e_{N+1}>``.  For such T we build explicit
polynomial data (p, q, r, s) and a vector ``x0`` with the two properties
that drive everything else:

* a family ``f_w`` of transpose-eigenvectors, holomorphic in ``w`` on the
  open unit disk, with ``adjoint(T) f_w = w f_w``;
* ``pairing(f_w, x0) = 1`` for every ``w``, which exhibits ``x0`` as cyclic.

``x0`` is an array on coordinates ``0..2N+1``.  ``f_w_residuals`` checks
both over a grid of ``w`` in one array pass per witness, the geometric tails
summed in closed form; ``eval_f_w`` builds ``f_w`` as an ``SpVector`` from
the same arrays at one point.
"""

from __future__ import annotations

import cmath
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .operators import (
    ColumnRule,
    RuleEntry,
    StructuredOperator,
    adjoint,
    apply,
    truncate,
)
from .spaces import GeometricTail, PNorm, SpVector, norm, pairing
from .spectral import eigs_dense

__all__ = [
    "KrylovDegenerate",
    "DegenerateSpectrum",
    "CommutantWitness",
    "gram_schmidt_triangularize",
    "random_t1_contraction",
    "build_commutant_witness",
    "eval_f_w",
    "f_w_residuals",
    "krylov_rank",
    "witness_pairing_residual",
    "bezout_residual",
]

class KrylovDegenerate(Exception):
    """The seed vector is not numerically cyclic at the given scale."""


class DegenerateSpectrum(ValueError):
    """No jitter attempt produced usable spectral data for the head block."""


_CYCLIC_RTOL = 1e-10
_DISTINCT_TOL = 1e-8
_NONZERO_TOL = 1e-10
_BEZOUT_TOL = 1e-8
_EIGEN_RESIDUAL_TOL = 1e-8
_T1_NORM = 0.95


def gram_schmidt_triangularize(
    T: np.ndarray, f0: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormalize the Krylov sequence of ``f0`` and rewrite ``T`` in it.

    Returns ``(U, R)`` where ``U`` is unitary (within 1e-10), ``R = U T U^-1``
    is upper Hessenberg with strictly positive subdiagonal, and the rows of
    ``U`` are the orthonormalized Krylov vectors ``T^j f0``.  When ``T`` is
    already upper Hessenberg with positive subdiagonal and ``f0 = e_0``, the
    process reproduces the standard basis and ``R`` equals ``T``.

    Raises ``KrylovDegenerate`` when the Krylov vectors are numerically
    dependent (relative step residual at most 1e-10), e.g. ``T = I``.
    """
    T = np.asarray(T, dtype=complex)
    D = T.shape[0]
    if T.ndim != 2 or T.shape != (D, D):
        raise ValueError("square matrix required")
    f0 = np.asarray(f0, dtype=complex).reshape(-1)
    if f0.shape[0] != D:
        raise ValueError("seed vector length must match the matrix dimension")
    nf0 = float(np.linalg.norm(f0))
    if nf0 == 0.0:
        raise KrylovDegenerate("zero seed vector")

    Q = np.zeros((D, D), dtype=complex)
    H = np.zeros((D, D), dtype=complex)
    Q[:, 0] = f0 / nf0
    for j in range(D):
        v = T @ Q[:, j]
        scale = float(np.linalg.norm(v))
        for _ in range(2):  # second pass re-orthogonalizes
            coeffs = Q[:, : j + 1].conj().T @ v
            H[: j + 1, j] += coeffs
            v = v - Q[:, : j + 1] @ coeffs
        if j + 1 == D:
            break
        rest = float(np.linalg.norm(v))
        if rest <= _CYCLIC_RTOL * max(scale, 1.0):
            raise KrylovDegenerate(
                f"Krylov sequence collapses at step {j + 1} of {D}"
            )
        H[j + 1, j] = rest
        Q[:, j + 1] = v / rest
    return Q.conj().T.copy(), H


def random_t1_contraction(D: int, rng: np.random.Generator) -> np.ndarray:
    """Random dense contraction of l2 norm ``_T1_NORM``, upper Hessenberg
    with positive subdiagonal."""
    if D < 1:
        raise ValueError("dimension must be positive")
    M = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    M = np.triu(M, k=-1)
    idx = np.arange(D - 1)
    M[idx + 1, idx] = np.abs(M[idx + 1, idx]) + 0.05
    smax = float(np.linalg.svd(M, compute_uv=False)[0])
    return M * (_T1_NORM / smax)


@dataclass(frozen=True)
class CommutantWitness:
    """Spectral and polynomial data certifying a cyclic vector for ``op``.

    ``op`` is the head block plus forward-shift tail; ``lambdas`` and the
    columns of ``V`` are eigenvalues and eigenvectors of the transposed head
    square; ``betas`` expands ``e_N`` in that eigenbasis.  Polynomial
    coefficient arrays are in descending powers, with ``r*p + s*q = 1``;
    ``reduced[n]`` holds prod_{k != n}(w - lambda_k); ``x0`` holds
    ``r(T) e_{N+1} + s(T) e_0`` on coordinates ``0..2N+1``.
    """

    N: int
    b_N: float
    lambdas: np.ndarray
    V: np.ndarray
    betas: np.ndarray
    p_coeffs: np.ndarray
    q_coeffs: np.ndarray
    r_coeffs: np.ndarray
    s_coeffs: np.ndarray
    reduced: tuple[np.ndarray, ...]
    x0: np.ndarray
    op: StructuredOperator


def _shift_extended(block: np.ndarray, N: int) -> StructuredOperator:
    """Head block on columns ``0..N`` plus the forward shift beyond."""
    rule = ColumnRule(N + 1, 1, (RuleEntry("affine", 1, 1, 0.0, 1.0, 1.0),))
    return StructuredOperator.from_dense(block, rules=(rule,))


def build_commutant_witness(
    B: np.ndarray, N: int, seed: int = 0, max_jitter: int = 100
) -> CommutantWitness:
    """Build the cyclic-vector witness for the block ``B`` on ``0..N``.

    ``B`` holds the matrix of the operator on columns ``0..N``: rows ``0..N``
    are the head square ``B_N`` and row ``N+1`` carries the coupling entry
    ``b_N > 0`` in its last column (upper-Hessenberg inputs have exactly this
    shape).  Any rows supplied below ``N+1`` must vanish on these columns.

    The eigendecomposition of the transposed head square must have distinct
    eigenvalues, eigenvector first components away from zero, and a nowhere
    zero expansion of ``e_N``; failing that the head square is perturbed by a
    seeded Hessenberg-patterned jitter, up to ``max_jitter`` times, after
    which ``DegenerateSpectrum`` is raised.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    B = np.atleast_2d(np.asarray(B, dtype=complex))
    if B.shape[0] < N + 2 or B.shape[1] < N + 1:
        raise ValueError(f"block must cover rows 0..{N + 1} and columns 0..{N}")
    scale = max(1.0, float(np.max(np.abs(B))))
    if B.shape[0] > N + 2 and np.max(np.abs(B[N + 2 :, : N + 1])) > 1e-12 * scale:
        raise ValueError("block must vanish below row N+1 on columns 0..N")
    block0 = B[: N + 2, : N + 1].copy()
    b0 = block0[N + 1, N]
    if abs(b0.imag) > 1e-14 * scale or b0.real <= 0.0:
        raise ValueError("coupling entry <B e_N, e_{N+1}> must be positive")
    smax = float(np.linalg.svd(block0, compute_uv=False)[0])
    if smax > 1.0 + 1e-9:
        raise ValueError("block must be a contraction on the Hilbert space")

    rng = np.random.default_rng(seed)
    e_last = np.zeros(N + 1, dtype=complex)
    e_last[N] = 1.0
    for attempt in range(max_jitter + 1):
        if attempt == 0:
            block = block0
        else:
            jit = 1e-8 * attempt
            G = rng.standard_normal((N + 1, N + 1)) + 1j * rng.standard_normal(
                (N + 1, N + 1)
            )
            G = np.triu(G, k=-1)
            idx = np.arange(N)
            G[idx + 1, idx] = G[idx + 1, idx].real
            block = block0.copy()
            block[: N + 1, : N + 1] += jit * G
            block /= 1.0 + 2.0 * jit
        head = block[: N + 1, : N + 1]
        b_N = float(block[N + 1, N].real)
        if b_N <= 0.0:
            continue

        pairs = eigs_dense(head.T)
        lams = np.array([ep.value for ep in pairs])
        V = np.column_stack([ep.vector for ep in pairs])
        lam_scale = max(1.0, float(np.max(np.abs(lams))))
        if N >= 1:
            sep = min(
                abs(lams[i] - lams[j])
                for i in range(N + 1)
                for j in range(i + 1, N + 1)
            )
            if sep <= _DISTINCT_TOL * lam_scale:
                continue
        if np.min(np.abs(V[0, :])) <= _NONZERO_TOL:
            continue
        try:
            betas = np.linalg.solve(V, e_last)
        except np.linalg.LinAlgError:
            continue
        if np.min(np.abs(betas)) <= _NONZERO_TOL:
            continue

        p_coeffs = np.atleast_1d(np.poly(lams))
        reduced = tuple(
            np.atleast_1d(np.poly(np.delete(lams, n))) for n in range(N + 1)
        )
        q_coeffs = np.zeros(N + 1, dtype=complex)
        for n in range(N + 1):
            q_coeffs += b_N * betas[n] * V[0, n] * reduced[n]
        q_at_lam = np.array([np.polyval(q_coeffs, lam) for lam in lams])
        if np.min(np.abs(q_at_lam)) <= _NONZERO_TOL:
            continue

        s_coeffs = np.zeros(N + 1, dtype=complex)
        for n in range(N + 1):
            denom = complex(np.polyval(reduced[n], lams[n]))
            s_coeffs += reduced[n] / (q_at_lam[n] * denom)
        num = -np.polymul(s_coeffs, q_coeffs)
        num[-1] += 1.0
        r_coeffs, remainder = np.polydiv(num, p_coeffs)
        if float(np.max(np.abs(remainder))) >= _BEZOUT_TOL:
            continue

        op = _shift_extended(block, N)
        # T maps coordinates 0..m into 0..max(m, N) + 1 and deg r, deg s <= N,
        # so Horner on this window of T is exact
        Tw = truncate(op, 2 * N + 2)
        x0 = np.zeros(2 * N + 2, dtype=complex)
        for coeffs, j in ((r_coeffs, N + 1), (s_coeffs, 0)):
            acc = np.zeros_like(x0)
            for c in np.atleast_1d(coeffs):
                acc = Tw @ acc
                acc[j] += c
            x0 += acc
        return CommutantWitness(
            N=N,
            b_N=b_N,
            lambdas=lams,
            V=V,
            betas=betas,
            p_coeffs=p_coeffs,
            q_coeffs=np.asarray(q_coeffs),
            r_coeffs=np.atleast_1d(r_coeffs),
            s_coeffs=s_coeffs,
            reduced=reduced,
            x0=x0,
            op=op,
        )
    raise DegenerateSpectrum(
        f"no usable spectrum after {max_jitter} jitter attempts"
    )


def _f_w_field(wit: CommutantWitness, ws: Sequence[complex]) -> tuple[np.ndarray, np.ndarray]:
    """``(grid, F)``: row ``g`` of ``F`` is ``f_w`` on ``0..N+1`` at ``w = grid[g]``.

    ``f_w`` is ``sum_n b_N beta_n reduced_n(w) V[:, n]`` on ``0..N`` and the
    geometric tail ``p(w) w^(j-(N+1))`` from ``N+1`` on, each polynomial
    evaluated once over the grid.  The expanded form makes ``w = lambda_n``
    admissible; non-finite ``w`` and ``|w| >= 1`` raise ``ValueError``.
    """
    ws = [complex(w) for w in ws]
    for w in ws:
        if not cmath.isfinite(w):
            raise ValueError(f"non-finite w {w!r} rejected")
        if abs(w) >= 1.0:
            raise ValueError("|w| >= 1 rejected: the tail is not summable")
    grid = np.array(ws, dtype=complex)
    cols = wit.b_N * wit.betas * wit.V
    # one outer product per n, summed in order: a row's bits do not depend on
    # the grid, where np.sum may reorder a short axis
    H = sum(np.outer(np.polyval(poly, grid), cols[:, n]) for n, poly in enumerate(wit.reduced))
    return grid, np.column_stack([H, np.polyval(wit.p_coeffs, grid)])


def f_w_residuals(wit: CommutantWitness, ws: Sequence[complex]) -> tuple[np.ndarray, np.ndarray]:
    """``||adjoint(T) f_w - w f_w||_2 / ||f_w||_2`` and ``|<f_w, x0> - 1|`` over ``ws``.

    Both are exact over the whole vector.  ``adjoint(T)`` acts on ``0..N`` as
    ``F @ block`` and maps the tail of ``f_w`` to the one with coefficient
    ``p(w) w`` at ``N+1``, so each tail adds ``|c|^2 / (1 - |w|^2)`` to a
    squared norm.  ``w`` as for ``eval_f_w``.
    """
    grid, F = _f_w_field(wit, ws)
    H, p_at = F[:, :-1], F[:, -1]
    geo = 1.0 / (1.0 - np.abs(grid) ** 2)
    head_res = F @ wit.op.block - grid[:, None] * H
    tail_res = p_at * grid - grid * p_at
    res = np.sqrt(np.sum(np.abs(head_res) ** 2, axis=1) + np.abs(tail_res) ** 2 * geo)
    size = np.sqrt(np.sum(np.abs(H) ** 2, axis=1) + np.abs(p_at) ** 2 * geo)
    js = np.arange(len(wit.x0))
    # f_j(w) is F[:, j] up to N+1, then p(w) w^(j-(N+1)); w^0 = 1 exactly
    f_at = F[:, np.minimum(js, wit.N + 1)] * grid[:, None] ** np.maximum(js - (wit.N + 1), 0)
    return res / size, np.abs(f_at @ wit.x0 - 1.0)


def eval_f_w(wit: CommutantWitness, w: complex) -> SpVector:
    """Transpose-eigenvector ``f_w`` of ``wit.op``, from ``_f_w_field`` at one
    point (``ValueError`` unless ``w`` is finite with ``|w| < 1``).

    Raises ``AssertionError`` when ``||adjoint(T) f_w - w f_w||_2``, by the
    ``SpVector`` engine and relative once ``||f_w||_2 < 1``, is not below 1e-8.
    """
    grid, F = _f_w_field(wit, [w])
    w, pw = complex(grid[0]), complex(F[0, -1])
    # with a tail, the entry p(w) at N+1 restates it and is not stored
    tail = GeometricTail(wit.N + 1, pw, w) if pw != 0 and w != 0 else None
    f_w = SpVector.make(enumerate(F[0]), tail)
    pn2 = PNorm.lp(2.0)
    residual = norm(apply(adjoint(wit.op), f_w) + f_w.scale(-w), pn2)
    size = norm(f_w, pn2)
    # relative below norm 1, so that a vanishing f_w cannot pass
    if not residual < _EIGEN_RESIDUAL_TOL * min(1.0, size):
        raise AssertionError(f"eigen-equation residual {residual:.3e} at ||f_w||_2 {size:.3e}")
    return f_w


def krylov_rank(T: np.ndarray, v: np.ndarray) -> int:
    """Rank of the full Krylov matrix ``[v, Tv, ..., T^(D-1) v]``."""
    T = np.asarray(T, dtype=complex)
    D = T.shape[0]
    cols = np.zeros((D, D), dtype=complex)
    cur = np.asarray(v, dtype=complex).reshape(-1).copy()
    for j in range(D):
        cols[:, j] = cur
        cur = T @ cur
    return int(np.linalg.matrix_rank(cols))


def witness_pairing_residual(wit: CommutantWitness, f_w: SpVector) -> float:
    """|pairing(f_w, x0) - 1| for ``f_w = eval_f_w(wit, w)``."""
    return abs(pairing(f_w, SpVector.make(enumerate(wit.x0))) - 1.0)


def bezout_residual(wit: CommutantWitness) -> float:
    """Max coefficient of ``r p + s q - 1`` (descending convention)."""
    total = np.polyadd(
        np.polymul(wit.r_coeffs, wit.p_coeffs),
        np.polymul(wit.s_coeffs, wit.q_coeffs),
    )
    total[-1] -= 1.0
    return float(np.max(np.abs(total)))
