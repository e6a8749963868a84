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

``x0`` is an array on coordinates ``0..2N+1``.  Witnesses are built and
checked as stacks that share ``N``: ``build_commutant_witnesses`` runs the
eigendecompositions, the polynomial recurrences and the Horner pass for
``x0`` once per stack, and ``bezout_residual``, ``krylov_rank`` and
``f_w_residuals`` (both properties over a grid of ``w``, the geometric tails
summed in closed form) take a stack too.  A member gets the same bits in any
stack; one witness is a stack of one.  ``eval_f_w`` builds ``f_w`` as an
``SpVector`` from the same arrays at one point.
"""

from __future__ import annotations

import cmath
from collections.abc import Sequence
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .operators import ColumnRule, RuleEntry, StructuredOperator, adjoint, apply
from .spaces import GeometricTail, PNorm, SpVector, norm, pairing

__all__ = [
    "KrylovDegenerate",
    "DegenerateSpectrum",
    "CommutantWitness",
    "gram_schmidt_triangularize",
    "random_t1_contraction",
    "random_t1_contractions",
    "build_commutant_witness",
    "build_commutant_witnesses",
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


def _complex_normal(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_t1_contractions(D: int, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Stack of random dense contractions of l2 norm ``_T1_NORM``, upper
    Hessenberg with positive subdiagonal; member ``m`` draws from ``rngs[m]``."""
    if D < 1:
        raise ValueError("dimension must be positive")
    M = np.triu(np.array([_complex_normal(rng, D) for rng in rngs]), k=-1)
    idx = np.arange(D - 1)
    M[:, idx + 1, idx] = np.abs(M[:, idx + 1, idx]) + 0.05
    smax = np.linalg.svd(M, compute_uv=False)[:, 0]
    return M * (_T1_NORM / smax)[:, None, None]


def random_t1_contraction(D: int, rng: np.random.Generator) -> np.ndarray:
    """``random_t1_contractions`` for one generator."""
    return random_t1_contractions(D, [rng])[0]


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


def _shift_rules(N: int) -> tuple[ColumnRule]:
    """The forward shift on columns ``>= N+1``."""
    return (ColumnRule(N + 1, 1, (RuleEntry("affine", 1, 1, 0.0, 1.0, 1.0),)),)


# Stacked arithmetic.  Each entry is summed in index order by elementwise
# operations, never by BLAS or by a reduction that may regroup a short axis,
# so a member's bits do not depend on the stack it is computed in.
# Polynomials are coefficient arrays over the last axis, in descending powers.


def _sum_last(a: np.ndarray) -> np.ndarray:
    out = a[..., 0]
    for t in range(1, a.shape[-1]):
        out = out + a[..., t]
    return out


def _matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``A @ x`` for stacks ``A`` (..., m, k) and ``x`` (..., k)."""
    return _sum_last(A * x[..., None, :])


def _step(blocks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``T x`` on the window ``0..D-1`` of ``x`` (S, D), for the operators
    ``T`` with head blocks ``blocks`` (S, N+2, N+1): the block on ``0..N``,
    the forward shift beyond, and the entry it would put at ``D`` cut."""
    N = blocks.shape[-1] - 1
    y = np.zeros_like(x)
    y[:, : N + 2] = _matvec(blocks, x[:, : N + 1])
    y[:, N + 2 :] = x[:, N + 1 : -1]
    return y


def _poly(roots: np.ndarray) -> np.ndarray:
    """Monic polynomial with the roots on the last axis."""
    c = np.zeros(roots.shape[:-1] + (roots.shape[-1] + 1,), dtype=complex)
    c[..., 0] = 1.0
    for k in range(roots.shape[-1]):
        c[..., 1 : k + 2] -= roots[..., k, None] * c[..., : k + 1]
    return c


def _polyval(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Horner as ``np.polyval`` runs it, ``c[..., :, None]`` against ``x``."""
    y = np.zeros(np.broadcast_shapes(c.shape[:-1] + (1,), np.shape(x)), dtype=complex)
    for i in range(c.shape[-1]):
        y = y * x + c[..., i, None]
    return y


def _polymul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros(a.shape[:-1] + (a.shape[-1] + b.shape[-1] - 1,), dtype=complex)
    for i in range(a.shape[-1]):
        out[..., i : i + b.shape[-1]] += a[..., i, None] * b
    return out


def _polydiv_monic(u: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quotient and remainder of ``u`` by the monic ``p``, eliminated as
    ``np.polydiv`` does; the remainder keeps ``deg p`` coefficients."""
    n = p.shape[-1] - 1
    rem = u.copy()
    quo = np.zeros(u.shape[:-1] + (max(u.shape[-1] - n, 1),), dtype=complex)
    for k in range(u.shape[-1] - n):
        quo[..., k] = rem[..., k]
        rem[..., k : k + n + 1] -= quo[..., k, None] * p
    return quo, rem[..., rem.shape[-1] - n :]


def _attempt(blocks: np.ndarray, N: int) -> tuple[np.ndarray, list[CommutantWitness]]:
    """One build attempt on a stack of ``(N+2) x (N+1)`` blocks: the indices
    of the members whose spectral data are usable, and their witnesses."""
    n = N + 1
    live = np.arange(len(blocks))
    b_N = blocks[:, n, N].real
    vals, vecs = np.linalg.eig(blocks[:, :n, :n].transpose(0, 2, 1))
    # by decreasing modulus, ties in LAPACK's order; np.hypot is Python's abs
    order = np.argsort(-np.hypot(vals.real, vals.imag), axis=1, kind="stable")
    lams = np.take_along_axis(vals, order, axis=1)
    V = np.take_along_axis(vecs, order[:, None, :], axis=2)
    iu, ju = np.triu_indices(n, 1)
    sep = np.min(np.abs(lams[:, iu] - lams[:, ju]), axis=1, initial=np.inf)
    ok = (
        (b_N > 0.0)
        & (sep > _DISTINCT_TOL * np.maximum(1.0, np.max(np.abs(lams), axis=1)))
        & (np.min(np.abs(V[:, 0, :]), axis=1) > _NONZERO_TOL)
        # a zero pivot, where np.linalg.solve would raise
        & (np.linalg.slogdet(V)[0] != 0)
    )
    live, b_N, lams, V = live[ok], b_N[ok], lams[ok], V[ok]
    e_last = np.zeros(n, dtype=complex)
    e_last[N] = 1.0
    betas = np.linalg.solve(V, e_last)

    p = _poly(lams)
    others = np.array([[k for k in range(n) if k != m] for m in range(n)], dtype=int)
    reduced = _poly(lams[:, others])  # row m: prod over k != m
    q = np.zeros((len(live), n), dtype=complex)
    for m in range(n):
        q += (b_N * betas[:, m] * V[:, 0, m])[:, None] * reduced[:, m]
    q_at_lam = _polyval(q, lams)
    ok = (np.min(np.abs(betas), axis=1) > _NONZERO_TOL) & (
        np.min(np.abs(q_at_lam), axis=1) > _NONZERO_TOL
    )
    live, b_N, lams, V, betas, p, reduced, q, q_at_lam = (
        a[ok] for a in (live, b_N, lams, V, betas, p, reduced, q, q_at_lam)
    )

    denom = _polyval(reduced, lams[:, :, None])[:, :, 0]  # reduced_m(lambda_m)
    s = np.zeros_like(q)
    for m in range(n):
        s += reduced[:, m] / (q_at_lam[:, m] * denom[:, m])[:, None]
    num = -_polymul(s, q)
    num[:, -1] += 1.0
    r, remainder = _polydiv_monic(num, p)
    ok = np.max(np.abs(remainder), axis=1) < _BEZOUT_TOL
    live, b_N, lams, V, betas, p, reduced, q, r, s = (
        a[ok] for a in (live, b_N, lams, V, betas, p, reduced, q, r, s)
    )

    # T maps coordinates 0..m into 0..max(m, N) + 1 and deg r, deg s <= N,
    # so Horner on this window is exact
    blocks, rules = blocks[live], _shift_rules(N)
    x0 = np.zeros((len(live), 2 * N + 2), dtype=complex)
    for coeffs, j in ((r, N + 1), (s, 0)):
        acc = np.zeros_like(x0)
        for i in range(coeffs.shape[1]):
            acc = _step(blocks, acc)
            acc[:, j] += coeffs[:, i]
        x0 += acc
    return live, [
        CommutantWitness(
            N=N,
            b_N=float(b_N[i]),
            lambdas=lams[i],
            V=V[i],
            betas=betas[i],
            p_coeffs=p[i],
            q_coeffs=q[i],
            r_coeffs=r[i],
            s_coeffs=s[i],
            reduced=tuple(reduced[i]),
            x0=x0[i],
            op=StructuredOperator.from_dense(blocks[i], rules=rules),
        )
        for i in range(len(live))
    ]


def build_commutant_witnesses(
    Bs: Sequence[np.ndarray] | np.ndarray,
    N: int,
    seeds: Sequence[int],
    max_jitter: int = 100,
) -> list[CommutantWitness]:
    """Build the cyclic-vector witness for each block ``Bs[m]`` on ``0..N``.

    ``Bs[m]`` holds the matrix of the operator on columns ``0..N``: rows
    ``0..N`` are the head square ``B_N`` and row ``N+1`` carries the coupling
    entry ``b_N > 0`` in its last column (upper-Hessenberg inputs have exactly
    this shape).  Any rows supplied below ``N+1`` must vanish on these
    columns.  The blocks share one shape; a malformed one raises
    ``ValueError``.

    The eigendecomposition of a transposed head square must have distinct
    eigenvalues, eigenvector first components away from zero, and a nowhere
    zero expansion of ``e_N``; failing that the head square is perturbed by a
    Hessenberg-patterned jitter drawn from ``default_rng(seeds[m])``, up to
    ``max_jitter`` times, after which ``DegenerateSpectrum`` is raised.  Each
    attempt runs on the stack of the members still without a witness, and a
    member gets the same bits in any stack, a stack of one included.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    B = np.asarray(Bs, dtype=complex)
    if B.ndim != 3 or len(seeds) != len(B):
        raise ValueError("a stack of blocks with one seed each required")
    if B.shape[1] < N + 2 or B.shape[2] < N + 1:
        raise ValueError(f"block must cover rows 0..{N + 1} and columns 0..{N}")
    scale = np.maximum(1.0, np.max(np.abs(B), axis=(1, 2)))
    if B.shape[1] > N + 2 and np.any(
        np.max(np.abs(B[:, N + 2 :, : N + 1]), axis=(1, 2)) > 1e-12 * scale
    ):
        raise ValueError("block must vanish below row N+1 on columns 0..N")
    block0 = B[:, : N + 2, : N + 1].copy()
    b0 = block0[:, N + 1, N]
    if np.any((np.abs(b0.imag) > 1e-14 * scale) | (b0.real <= 0.0)):
        raise ValueError("coupling entry <B e_N, e_{N+1}> must be positive")
    if np.any(np.linalg.svd(block0, compute_uv=False)[:, 0] > 1.0 + 1e-9):
        raise ValueError("block must be a contraction on the Hilbert space")

    witnesses: list[CommutantWitness | None] = [None] * len(B)
    todo, blocks = np.arange(len(B)), block0
    idx = np.arange(N)
    for attempt in range(max_jitter + 1):
        if attempt > 0:
            if attempt == 1:
                rngs = {m: np.random.default_rng(seeds[m]) for m in todo.tolist()}
            jit = 1e-8 * attempt
            G = np.triu(np.array([_complex_normal(rngs[m], N + 1) for m in todo.tolist()]), k=-1)
            G[:, idx + 1, idx] = G[:, idx + 1, idx].real
            blocks = block0[todo]
            blocks[:, : N + 1, : N + 1] += jit * G
            blocks /= 1.0 + 2.0 * jit
        done, built = _attempt(blocks, N)
        for m, wit in zip(todo[done].tolist(), built):
            witnesses[m] = wit
        todo = np.delete(todo, done)
        if todo.size == 0:
            return witnesses
    raise DegenerateSpectrum(f"no usable spectrum after {max_jitter} jitter attempts")


def build_commutant_witness(
    B: np.ndarray, N: int, seed: int = 0, max_jitter: int = 100
) -> CommutantWitness:
    """``build_commutant_witnesses`` for the one block ``B``."""
    return build_commutant_witnesses(np.atleast_2d(B)[None], N, [seed], max_jitter)[0]


def _stack(wits: Sequence[CommutantWitness], name: str) -> np.ndarray:
    """Attribute ``name`` (dotted) of every witness, stacked; the witnesses
    share one ``N``."""
    if len({wit.N for wit in wits}) != 1:
        raise ValueError("a stack of witnesses shares one N")
    return np.array([attrgetter(name)(wit) for wit in wits])


def _f_w_field(
    wits: Sequence[CommutantWitness], ws: Sequence[complex]
) -> tuple[np.ndarray, np.ndarray]:
    """``(grid, F)``: row ``g`` of ``F[m]`` is ``f_w`` of ``wits[m]`` on
    ``0..N+1`` at ``w = grid[g]``.

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
    cols = (_stack(wits, "b_N")[:, None] * _stack(wits, "betas"))[:, None, :] * _stack(wits, "V")
    R = _polyval(_stack(wits, "reduced"), grid)  # (S, n, G)
    H = R[:, 0, :, None] * cols[:, None, :, 0]
    for n in range(1, cols.shape[-1]):
        H = H + R[:, n, :, None] * cols[:, None, :, n]
    return grid, np.concatenate([H, _polyval(_stack(wits, "p_coeffs"), grid)[..., None]], axis=-1)


def f_w_residuals(
    wits: Sequence[CommutantWitness], ws: Sequence[complex]
) -> tuple[np.ndarray, np.ndarray]:
    """``||adjoint(T) f_w - w f_w||_2 / ||f_w||_2`` and ``|<f_w, x0> - 1|``,
    row ``m`` for ``wits[m]``, column ``g`` for ``ws[g]``.

    Both are exact over the whole vector.  ``adjoint(T)`` acts on ``0..N`` as
    ``F @ block`` and maps the tail of ``f_w`` to the one with coefficient
    ``p(w) w`` at ``N+1``, so each tail adds ``|c|^2 / (1 - |w|^2)`` to a
    squared norm.  ``w`` as for ``eval_f_w``.
    """
    grid, F = _f_w_field(wits, ws)
    N = wits[0].N
    H, p_at = F[..., :-1], F[..., -1]
    geo = 1.0 / (1.0 - np.abs(grid) ** 2)
    blocks = _stack(wits, "op.block")
    head_res = _matvec(blocks.transpose(0, 2, 1)[:, None], F) - grid[:, None] * H
    tail_res = p_at * grid - grid * p_at
    res = np.sqrt(_sum_last(np.abs(head_res) ** 2) + np.abs(tail_res) ** 2 * geo)
    size = np.sqrt(_sum_last(np.abs(H) ** 2) + np.abs(p_at) ** 2 * geo)
    js = np.arange(2 * N + 2)
    # f_j(w) is F[..., j] up to N+1, then p(w) w^(j-(N+1)); w^0 = 1 exactly
    f_at = F[..., np.minimum(js, N + 1)] * grid[:, None] ** np.maximum(js - (N + 1), 0)
    return res / size, np.abs(_matvec(f_at, _stack(wits, "x0")) - 1.0)


def eval_f_w(wit: CommutantWitness, w: complex) -> SpVector:
    """Transpose-eigenvector ``f_w`` of ``wit.op``, from ``_f_w_field`` at one
    point (``ValueError`` unless ``w`` is finite with ``|w| < 1``).

    Raises ``AssertionError`` when ``||adjoint(T) f_w - w f_w||_2``, by the
    ``SpVector`` engine and relative once ``||f_w||_2 < 1``, is not below 1e-8.
    """
    grid, F = _f_w_field([wit], [w])
    w, pw = complex(grid[0]), complex(F[0, 0, -1])
    # with a tail, the entry p(w) at N+1 restates it and is not stored
    tail = GeometricTail(wit.N + 1, pw, w) if pw != 0 and w != 0 else None
    f_w = SpVector.make(enumerate(F[0, 0]), tail)
    pn2 = PNorm.lp(2.0)
    residual = norm(apply(adjoint(wit.op), f_w) + f_w.scale(-w), pn2)
    size = norm(f_w, pn2)
    # relative below norm 1, so that a vanishing f_w cannot pass
    if not residual < _EIGEN_RESIDUAL_TOL * min(1.0, size):
        raise AssertionError(f"eigen-equation residual {residual:.3e} at ||f_w||_2 {size:.3e}")
    return f_w


def krylov_rank(wits: Sequence[CommutantWitness], D: int) -> np.ndarray:
    """Rank of the Krylov matrix ``[x0, T x0, ..., T^(D-1) x0]`` of each
    witness, ``T`` its operator's ``D x D`` corner (``D >= 2N+2``)."""
    x0 = _stack(wits, "x0")
    if D < x0.shape[1]:
        raise ValueError("the corner must hold x0")
    blocks = _stack(wits, "op.block")
    K = [np.pad(x0, ((0, 0), (0, D - x0.shape[1])))]
    for _ in range(D - 1):
        K.append(_step(blocks, K[-1]))
    return np.linalg.matrix_rank(np.stack(K, axis=-1))


def witness_pairing_residual(wit: CommutantWitness, f_w: SpVector) -> float:
    """|pairing(f_w, x0) - 1| for ``f_w = eval_f_w(wit, w)``."""
    return abs(pairing(f_w, SpVector.make(enumerate(wit.x0))) - 1.0)


def bezout_residual(wits: Sequence[CommutantWitness]) -> np.ndarray:
    """Max coefficient of ``r p + s q - 1`` (descending convention), per witness."""
    rp = _polymul(_stack(wits, "r_coeffs"), _stack(wits, "p_coeffs"))
    sq = _polymul(_stack(wits, "s_coeffs"), _stack(wits, "q_coeffs"))
    # r p and s q aligned at the constant term, as np.polyadd aligns them
    width = max(rp.shape[1], sq.shape[1])
    total = np.zeros((len(wits), width), dtype=complex)
    total[:, width - rp.shape[1] :] += rp
    total[:, width - sq.shape[1] :] += sq
    total[:, -1] -= 1.0
    return np.max(np.abs(total), axis=1)
