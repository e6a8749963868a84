"""Builders for the structured operator families studied by the package.

Each builder returns either a :class:`~lplab.operators.StructuredOperator`
or a small frozen record bundling the operator with the quantities that
certify its defining properties (norm values, designed vectors, margins).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .operators import (
    ColumnRule,
    RuleEntry,
    StructuredOperator,
    best_run,
    fixed_point_restarts,
    materialize,
    op_norm,
    polish_restarts,
)
from .spaces import IndexDomain, PNorm, dense_norm
from .spectral import OmegaWeights

__all__ = [
    "OmegaWeights",
    "EpsSeq",
    "SearchExhausted",
    "ExposednessUndetermined",
    "BEtaDelta",
    "ShiftPolyGap",
    "norm_lemma_constants",
    "small_weight_delta",
    "build_S_A_omega",
    "small_weight_operator",
    "build_coisometry_l1",
    "build_T1_coisometry_l1",
    "dq_witness",
    "kernel_vector_greedy",
    "kan_check",
    "check_evenly_distributed",
    "build_B_eta_delta",
    "delta_for_B",
    "rudin_shapiro_pair",
    "golay_defect",
    "shift_poly_gap",
]


# check_evenly_distributed: a coordinate of the image B u0 of the record's
# norming vector below _EVEN_TOL times the largest one (or 1) counts as zero,
# and _GAP_MARGIN is the relative SVD gap that decides the head at p = 2 (the
# derivation is in the docstring)
_EVEN_TOL = 1e-10
_GAP_MARGIN = 1e-9


class SearchExhausted(RuntimeError):
    """Raised when a bounded greedy index search finds no admissible index."""


class ExposednessUndetermined(RuntimeError):
    """Raised when distinct near-maximizing directions prevent a clean verdict."""


@dataclass(frozen=True)
class EpsSeq:
    """Geometric positive sequence eps_j = first * ratio**j."""

    first: float
    ratio: float

    def __post_init__(self) -> None:
        if not (self.first > 0.0):
            raise ValueError("first must be positive")
        if not (0.0 < self.ratio < 1.0):
            raise ValueError("ratio must lie in (0, 1)")

    def value(self, j: int) -> float:
        if j < 0:
            raise ValueError("index must be nonnegative")
        return self.first * self.ratio**j


# ---------------------------------------------------------------------------
# weighted translate perturbations
# ---------------------------------------------------------------------------


def norm_lemma_constants(p: float) -> tuple[float, float]:
    """Constants (c1, c2) of the norm bound for small translate weights."""
    if not p >= 1.0:
        raise ValueError("p must be >= 1")
    c1 = 2.0 ** (p - 1.0)
    c2 = p * 2.0 ** (p - 1.0)
    return c1, c2


def small_weight_delta(p: float, norm_a: float, eps: float) -> float:
    """Largest delta (up to bisection accuracy) with
    (c1 + 1) delta**p + c2 norm_a**(p-1) delta <= eps**p / 2.

    The right-hand side keeps a factor-two safety margin below eps**p so the
    norm bound max((norm_a**p + eps**p)**(1/p), sup outside weights) holds
    with room for the weights actually chosen below delta.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if norm_a < 0.0:
        raise ValueError("norm_a must be nonnegative")
    c1, c2 = norm_lemma_constants(p)
    target = eps**p / 2.0

    def f(d: float) -> float:
        return (c1 + 1.0) * d**p + c2 * norm_a ** (p - 1.0) * d

    hi = 1.0
    while f(hi) < target:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) <= target:
            lo = mid
        else:
            hi = mid
    return lo


def build_S_A_omega(A: np.ndarray, omega: OmegaWeights) -> StructuredOperator:
    """Operator on two-sided sequences: a dense centre block A acting on
    coordinates [-N, N] plus the weighted downward translate by 2N+1,
    column j contributing omega(j - (2N+1)) at row j - (2N+1).
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] % 2 != 1:
        raise ValueError("A must be square with odd dimension 2N+1")
    N = (A.shape[0] - 1) // 2
    step = 2 * N + 1
    lo, hi = omega.table_span()
    # Columns with |j| > W follow the constant one-sided weights exactly.
    W = max(N, hi + step, -lo + step)
    row_lo = -W - step
    row_hi = max(N, W - step)
    nrows = row_hi - row_lo + 1
    ncols = 2 * W + 1
    block = np.zeros((nrows, ncols), dtype=complex)
    for j in range(-W, W + 1):
        k = j - step
        block[k - row_lo, j + W] += omega.value(k)
        if -N <= j <= N:
            for i in range(-N, N + 1):
                block[i - row_lo, j + W] += A[i + N, j + N]
    right = ColumnRule(
        W + 1, 1, (RuleEntry("affine", 1, -step, 0.0, 1.0, omega.right),)
    )
    left = ColumnRule(
        -(W + 1), -1, (RuleEntry("affine", 1, -step, 0.0, 1.0, omega.left),)
    )
    return StructuredOperator(
        block=block,
        row_offset=row_lo,
        col_offset=-W,
        rules=(right, left),
        domain=IndexDomain.INTEGERS,
    )


def small_weight_operator(
    A: np.ndarray, p: float, eps: float
) -> tuple[StructuredOperator, OmegaWeights, float, float]:
    """S_{A, omega} around a drawn (2N+1) x (2N+1) head A scaled to lp norm
    0.8, with omega 0.9 ``small_weight_delta`` at -(3N+1)..N and 1 outside.
    Returns (S, omega, ||A||, bound), bound = max((||A||^p + eps^p)^(1/p), 1)
    the norm lemma's bound on ||S||."""
    pn = PNorm.lp(p)
    N = (A.shape[0] - 1) // 2
    A = A * (0.8 / op_norm(StructuredOperator.from_dense(A), pn).value)
    na = op_norm(StructuredOperator.from_dense(A), pn).value
    delta = small_weight_delta(p, na, eps)
    inside = {k: 0.9 * delta for k in range(-(3 * N + 1), N + 1)}
    omega = OmegaWeights(table=inside, left=1.0, right=1.0)
    bound = max((na**p + eps**p) ** (1.0 / p), 1.0)
    return build_S_A_omega(A, omega), omega, na, bound


# ---------------------------------------------------------------------------
# l1 co-isometries
# ---------------------------------------------------------------------------


def build_coisometry_l1(A: np.ndarray, N: int) -> StructuredOperator:
    """Extend a dense l1-contraction on E_N by unit shifts of the far columns
    back onto E_N-indexed rows: column N+1+k maps to row k with weight one.
    """
    A = np.asarray(A, dtype=complex)
    if A.shape != (N + 1, N + 1):
        raise ValueError("A must be (N+1) x (N+1)")
    if np.abs(A).sum(axis=0).max() > 1.0 + 1e-12:
        raise ValueError("A must be an l1 contraction")
    rule = ColumnRule(N + 1, 1, (RuleEntry("affine", 1, -(N + 1), 0.0, 1.0, 1.0),))
    return StructuredOperator(
        block=A.copy(),
        row_offset=0,
        col_offset=0,
        rules=(rule,),
        domain=IndexDomain.NATURALS,
    )


def build_T1_coisometry_l1(A: np.ndarray, N: int, eps: EpsSeq) -> StructuredOperator:
    """Variant whose far columns split between a dense revisiting pattern and
    a forward shift: column N+1+k maps to row phi(k) with weight 1-eps(1+k)
    and to row N+2+k with weight eps(1+k); column N acquires eps(0) at row N+1.

    The construction requires strict norm room: every column of A has l1 sum
    strictly below one, and the column-N sum plus eps(0) stays <= 1.
    """
    A = np.asarray(A, dtype=complex)
    if A.shape != (N + 1, N + 1):
        raise ValueError("A must be (N+1) x (N+1)")
    colsums = np.abs(A).sum(axis=0)
    if colsums.max() >= 1.0:
        raise ValueError("columns of A must have l1 sum strictly below one")
    if colsums[N] + eps.value(0) > 1.0 + 1e-12:
        raise ValueError("column N has no room for the extra entry eps(0)")
    block = np.zeros((N + 2, N + 1), dtype=complex)
    block[: N + 1, :] = A
    block[N + 1, N] = eps.value(0)
    c = eps.first * eps.ratio  # eps(1 + k) = c * ratio**k
    rule = ColumnRule(
        N + 1,
        1,
        (
            RuleEntry("diag_enum", 0, 0, -c, eps.ratio, 1.0),
            RuleEntry("affine", 1, 1, c, eps.ratio, 0.0),
        ),
    )
    return StructuredOperator(
        block=block,
        row_offset=0,
        col_offset=0,
        rules=(rule,),
        domain=IndexDomain.NATURALS,
    )


# ---------------------------------------------------------------------------
# kernel-vector game: witnesses and the greedy search
# ---------------------------------------------------------------------------


def _check_alpha_nseq(alpha: tuple[float, ...], Ns: tuple[int, ...]) -> None:
    if len(alpha) < 2 or alpha[0] != 1.0 or alpha[1] != 1.0:
        raise ValueError("alpha must start with alpha_0 = alpha_1 = 1")
    if any(a <= 0 for a in alpha):
        raise ValueError("alpha must be positive")
    if not Ns or Ns[0] != 0:
        raise ValueError("Nseq must start at 0")
    if list(Ns) != sorted(set(Ns)):
        raise ValueError("Nseq must be strictly increasing")


def _require_plain(T: StructuredOperator) -> None:
    """The kernel-vector game reads T as its block on columns and rows from 0."""
    if T.rules or T.row_offset or T.col_offset:
        raise ValueError("operator must be a block at offset 0 without rules")


def dq_witness(
    T0: StructuredOperator,
    q: int,
    alpha: Sequence[float],
    Ns: Sequence[int],
    return_plan: bool = False,
):
    """Modify T0 beyond column Ns[q] so every triggering tuple is annihilated.

    For every increasing tuple tau inside {0..q} whose weighted trial vector
    sum_j alpha_j e_{Ns[tau_j]} has image norm at most alpha_{len(tau)}, a
    fresh column is planted at Ns[q + 1 + position] that exactly cancels that
    image; all remaining far columns are zeroed.  With ``return_plan`` the
    mapping from each triggering tuple to its cancelling index is returned
    alongside the operator.  T0 must be a block at offset 0 without rules
    (``ValueError`` otherwise).
    """
    if q > 16:
        raise ValueError("tuple enumeration is exponential in q; q > 16 refused")
    _require_plain(T0)
    alpha = tuple(float(a) for a in alpha)
    Ns = tuple(int(n) for n in Ns)
    _check_alpha_nseq(alpha, Ns)
    if len(alpha) < q + 3:
        raise ValueError("alpha must provide at least q+3 terms")

    head = materialize(T0, 0, T0.nrows, 0, Ns[q] + 1)
    pn = PNorm.lp(1.0)
    triggering: list[tuple[int, ...]] = []
    images: list[np.ndarray] = []
    for size in range(1, q + 2):
        for tau in itertools.combinations(range(q + 1), size):
            # summed over tau's columns in index order, as apply sums T0 x
            img = sum(a * head[:, Ns[idx]] for a, idx in zip(alpha, tau))
            if dense_norm(img, pn) <= alpha[size] + 1e-12:
                triggering.append(tau)
                images.append(img)
    s = len(triggering)
    if len(Ns) <= q + s:
        raise ValueError("Ns must extend past q by the number of triggering tuples")

    block = np.zeros((T0.nrows, (Ns[q + s] if s else Ns[q]) + 1), dtype=complex)
    block[:, : Ns[q] + 1] = head
    plan: dict[tuple[int, ...], int] = {}
    for k, (tau, img) in enumerate(zip(triggering, images)):
        plan[tau] = q + 1 + k
        block[:, Ns[q + 1 + k]] = (-1.0 / alpha[len(tau)]) * img
    T = StructuredOperator(
        block=block, row_offset=0, col_offset=0, rules=(), domain=IndexDomain.NATURALS
    )
    if return_plan:
        return T, plan
    return T


def kernel_vector_greedy(
    T: StructuredOperator,
    alpha: Sequence[float],
    Ns: Sequence[int],
    max_l: int,
) -> tuple[np.ndarray, list[dict]]:
    """Greedy growth of x = sum_{j<=l} alpha_j e_{Ns[i_j]} with i_0 = 0.

    At step l (1 <= l <= max_l) the search scans i > i_{l-1} up to the end
    of Ns for the first index with ||T(x + alpha_l e_{Ns[i]})||_1 <
    alpha_{l+1}.  Raises :class:`SearchExhausted` reporting the failing step.
    Returns the final vector on coordinates 0..Ns[-1] and a per-step trace
    (index chosen, candidates tested, image norm).  T must be a block at
    offset 0 without rules (``ValueError`` otherwise).
    """
    _require_plain(T)
    alpha = tuple(float(a) for a in alpha)
    Ns = tuple(int(n) for n in Ns)
    _check_alpha_nseq(alpha, Ns)
    if len(alpha) < max_l + 2:
        raise ValueError("alpha must provide max_l + 2 terms")
    cap = len(Ns) - 1
    cols = materialize(T, 0, T.nrows, 0, Ns[-1] + 1)[:, list(Ns)]  # T e_{Ns[i]}
    x = np.zeros(Ns[-1] + 1, dtype=complex)
    x[Ns[0]] = alpha[0]
    img = alpha[0] * cols[:, 0]
    chosen = [0]
    trace: list[dict] = []
    for l in range(1, max_l + 1):
        lo = chosen[-1] + 1
        # the l1 norm of every candidate's image at once; each column sums
        # down its rows in order, as spaces.norm sums T x
        norms = np.abs(img[:, None] + alpha[l] * cols[:, lo:]).sum(axis=0)
        hits = np.flatnonzero(norms < alpha[l + 1])
        if not hits.size:
            raise SearchExhausted(
                f"step {l}: no admissible index in ({chosen[-1]}, {cap}]"
            )
        i = lo + int(hits[0])
        img = img + alpha[l] * cols[:, i]
        x[Ns[i]] = alpha[l]
        chosen.append(i)
        trace.append(
            {"step": l, "index": i, "tested": int(hits[0]) + 1, "image_norm": float(norms[hits[0]])}
        )
    return x, trace


# ---------------------------------------------------------------------------
# scalar convexity inequality
# ---------------------------------------------------------------------------


def kan_check(u: complex, v: complex, p: float) -> bool:
    """Strict two-point inequality separating p > 2 from p < 2.

    For p > 2 (and v != 0):  |u+v|^p + |u-v|^p > 2|u|^p + p |u|^(p-2) |v|^2.
    For 0 < p < 2 (and u != 0) the strict inequality reverses.
    p = 2 is rejected: both sides coincide identically.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    if p == 2.0:
        raise ValueError("p = 2 gives identical sides")
    au, av = abs(u), abs(v)
    if p > 2.0:
        if av == 0.0:
            raise ValueError("v must be nonzero for p > 2")
    else:
        if au == 0.0:
            raise ValueError("u must be nonzero for p < 2")
    lhs = abs(u + v) ** p + abs(u - v) ** p
    rhs = 2.0 * au**p + p * au ** (p - 2.0) * av**2 if au > 0 else 2.0 * au**p
    if p > 2.0:
        return lhs > rhs
    return lhs < rhs


# ---------------------------------------------------------------------------
# the doubled operator B_{eta, delta}
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BEtaDelta:
    """Doubled operator [[A, dA], [hA, hdA]] on lp with tuned delta and its
    norming vector u0 on coordinates 0..2N+1; closed_form_norm restates the
    factored norm value.  head_runs holds every outcome of A's fixed-point
    ascent (none at p = 2)."""

    op: StructuredOperator
    u0: np.ndarray
    delta: float
    eta: float
    closed_form_norm: float
    norm_a: float
    gain_u0: float
    p: float
    head_runs: tuple[tuple[float, np.ndarray, float], ...]


def build_B_eta_delta(A: np.ndarray, N: int, eta: float, p: float) -> BEtaDelta:
    """Double A on E_{2N+1} with mixing weights delta and eta so the result
    has norm exactly one; u0 is the explicit unit vector of maximal gain.

    delta solves (1 + delta^p')^{1/p'} (1 + eta^p)^{1/p} ||A|| = 1, which
    requires (1 + eta^p)^{1/p} ||A|| < 1.
    """
    if not 1.0 < p < math.inf:
        raise ValueError("p must lie in (1, infinity)")
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    A = np.asarray(A, dtype=complex)
    if A.shape != (N + 1, N + 1):
        raise ValueError("A must be (N+1) x (N+1)")
    pn = PNorm.lp(p)
    q = p / (p - 1.0)
    if p == 2.0:
        # op_norm's SVD; np.linalg.svd does not check its input
        _, sv, vh = np.linalg.svd(np.asarray_chkfinite(A))
        norm_a, x0, runs = float(sv[0]), np.conj(vh[0]), ()
    else:
        # A's one ascent; check_evenly_distributed polishes the kept outcomes
        runs = tuple(fixed_point_restarts(A, p))
        norm_a, x0, _ = best_run(runs, p)
    head = (1.0 + eta**p) ** (1.0 / p) * norm_a
    if head >= 1.0:
        raise ValueError("(1 + eta^p)^(1/p) ||A|| must stay below one")
    delta = (head ** (-q) - 1.0) ** (1.0 / q)

    m = N + 1
    block = np.zeros((2 * m, 2 * m), dtype=complex)
    block[:m, :m] = A
    block[:m, m:] = delta * A
    block[m:, :m] = eta * A
    block[m:, m:] = eta * delta * A
    B = StructuredOperator(
        block=block, row_offset=0, col_offset=0, rules=(), domain=IndexDomain.NATURALS
    )

    scale = (1.0 + delta**q) ** (1.0 / p)
    # real and imaginary parts divided apart: numpy's complex / real
    # multiplies by the reciprocal, which rounds differently
    u0 = (np.concatenate([x0, delta ** (q - 1.0) * x0]).view(float) / scale).view(complex)
    closed = (1.0 + eta**p) ** (1.0 / p) * (1.0 + delta**q) ** (1.0 / q) * norm_a
    gain = float(dense_norm(block @ u0, pn))
    return BEtaDelta(
        op=B,
        u0=u0,
        delta=delta,
        eta=eta,
        closed_form_norm=closed,
        norm_a=norm_a,
        gain_u0=gain,
        p=p,
        head_runs=runs,
    )


def check_evenly_distributed(rec: BEtaDelta) -> tuple[bool, float, int]:
    """Decide whether B = rec.op has a unique norming direction (up to phase)
    and an evenly distributed image, from the head A = B[:m, :m] alone.

    B = ((1, eta)^T (1, delta)) (x) A, so for x = (x1, x2)
    ||B x|| = (1 + eta^p)^(1/p) ||A (x1 + delta x2)||
            <= (1 + eta^p)^(1/p) ||A|| (||x1|| + delta ||x2||) <= ||B|| ||x||,
    with equality exactly when x = (c1 z, c2 z), z norms A and (c1, c2) is
    the Holder extremal of (1, delta) (Minkowski and Holder are strict for
    1 < p < infinity).  So B is exposed iff A is, every norming vector of B
    is a phase times u0, and its image (1, eta)^T (x) A z is evenly
    distributed iff A z has no zero coordinate.  A is decided as follows.

    - p = 2, exactly: A is exposed iff sigma_1(A) > sigma_2(A).  LAPACK's
      SVD is backward stable, so each computed singular value is within
      c(n) eps ||A||_2 of the exact one, c(n) a modest function of n, and
      ||A||_2 <= s_1 / (1 - c(n) eps) for the computed s_1.  The gap
      s_1 - s_2 > _GAP_MARGIN s_1 = 4.5e6 eps s_1 therefore proves
      sigma_1 > sigma_2 for any c(n) below 2e6, far above LAPACK's growth at
      these sizes.  A smaller computed gap is undecided.
    - other p, as a consistency check: the restarts of A's fixed-point
      ascent that the record keeps and whose value lies within 1e-9 of the
      best are continued by the same map until their direction step is below
      1e-13 (``polish_restarts``), then must agree within 1e-6 after a
      common phase.  The value step the ascent stops on shrinks like the
      square of the direction error, so unpolished restarts can stop 1e-6
      apart near a slow, unique maximiser.  Agreeing restarts are necessary
      for a unique maximiser, not a proof of one.

    Returns (passed, gamma, steps): gamma = min |B u0|, passed says
    gamma exceeds _EVEN_TOL times max(1, max |B u0|), and steps is the
    number of polish steps (0 at p = 2).  Distinct norming directions raise
    :class:`ExposednessUndetermined`; a non-finite head raises
    ``ValueError``.
    """
    B = rec.op.block
    m = B.shape[0] // 2
    A = B[:m, :m]
    # np.linalg.svd does not check its input, and head_runs are A's as built
    if not np.isfinite(A).all():
        raise ValueError("the head of B has a non-finite value")
    if rec.p == 2.0:
        s = np.append(np.linalg.svd(A, compute_uv=False), 0.0)
        if not s[0] - s[1] > _GAP_MARGIN * s[0]:
            raise ExposednessUndetermined("sigma_1 of the head is not separated from sigma_2")
        steps = 0
    else:
        X, steps = polish_restarts(A, rec.head_runs, rec.p)
        for x in X[1:]:
            olap = np.vdot(X[0], x)
            theta = olap / abs(olap) if abs(olap) > 0 else 1.0
            if not np.abs(x - theta * X[0]).max() <= 1e-6:
                raise ExposednessUndetermined(
                    "near-maximal restarts found far-apart directions"
                )
    img = np.abs(B @ rec.u0)
    gamma = float(img.min())
    passed = gamma > _EVEN_TOL * max(1.0, float(img.max()))
    return passed, gamma, steps


def delta_for_B(gamma: float, eps: float, M: int, p: float) -> float:
    """Localization radius: perturbations below this delta keep near-maximal
    vectors within eps of the designed profile on a window of M coordinates.
    """
    if p <= 2.0:
        raise ValueError("p must exceed 2")
    if not (0.0 < gamma):
        raise ValueError("gamma must be positive")
    if not (0.0 < eps):
        raise ValueError("eps must be positive")
    if M < 1:
        raise ValueError("M must be at least 1")
    K_p = (2.0 * p / (p - 2.0)) ** ((p - 2.0) / p)
    cap = (
        eps
        / (K_p**0.5 * M ** (1.0 / p) * (2.0 / gamma) ** ((p - 2.0) / 2.0))
    ) ** (2.0 * p / (p - 2.0))
    return min(gamma / 2.0, cap)


# ---------------------------------------------------------------------------
# flat polynomials of the shift
# ---------------------------------------------------------------------------


def rudin_shapiro_pair(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient vectors (signs +-1, int64) of the k-th Rudin-Shapiro pair
    (P_k, Q_k) of degree 2^k - 1, built by P_{j+1} = P_j + z^{2^j} Q_j,
    Q_{j+1} = P_j - z^{2^j} Q_j from P_0 = Q_0 = 1.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    P = np.array([1], dtype=np.int64)
    Q = np.array([1], dtype=np.int64)
    for j in range(k):
        newP = np.concatenate([P, Q])
        newQ = np.concatenate([P, -Q])
        P, Q = newP, newQ
    return P, Q


def golay_defect(P: np.ndarray, Q: np.ndarray) -> int:
    """Largest deviation, in exact integer arithmetic, of the summed aperiodic
    autocorrelations of P and Q from 2(d+1) e_d (shift 0 at index d).

    It is 0 exactly when (P, Q) is a Golay complementary pair, and then
    |P|^2 + |Q|^2 = 2(d+1) on the unit circle, so sup |P| <= sqrt(2(d+1)).
    """
    acf = np.correlate(P, P, "full") + np.correlate(Q, Q, "full")
    d = len(P) - 1
    acf[d] -= 2 * (d + 1)
    return int(np.abs(acf).max())


@dataclass(frozen=True)
class ShiftPolyGap:
    """Gap data for p(S) e_0 with p the k-th flat polynomial of degree d.

    ``golay_defect`` is 0 exactly when (P_k, Q_k) is a Golay pair, which
    certifies sup |P_k| <= sup_bound.  ``sup_sample`` is a maximum over 4,096
    FFT samples, a lower bound on the sup, so ``ratio_sample`` is a
    diagnostic upper bound on the true ratio, not a certificate.
    """

    k: int
    d: int
    p: float
    orbit_norm: float
    sup_bound: float
    sup_sample: float
    ratio_sample: float
    ratio_floor: float
    golay_defect: int
    ok: bool


def shift_poly_gap(k: int, p: float) -> ShiftPolyGap:
    """Compare ||p_k(S) e_0||_p = (d+1)^{1/p} with the sup of |p_k| on the
    circle: the ratio is certified to stay above (d+1)^{1/p - 1/2} / sqrt(2)
    because sup |p_k| <= sqrt(2 (d+1)), which the Golay identity of
    (P_k, Q_k) proves exactly; ``ok`` requires that identity.
    """
    if not 1.0 <= p < math.inf:
        raise ValueError("p must lie in [1, infinity)")
    coeffs, partner = rudin_shapiro_pair(k)
    d = len(coeffs) - 1
    orbit = float((d + 1) ** (1.0 / p))
    grid = 4096
    vals = np.abs(np.fft.fft(coeffs.astype(complex), n=max(grid, d + 1)))
    sup_sample = float(vals.max())
    sup_bound = math.sqrt(2.0 * (d + 1))
    ratio_sample = orbit / sup_sample
    ratio_floor = (d + 1) ** (1.0 / p - 0.5) / math.sqrt(2.0)
    defect = golay_defect(coeffs, partner)
    ok = defect == 0 and ratio_sample >= ratio_floor * (1.0 - 1e-12)
    return ShiftPolyGap(
        k=k,
        d=d,
        p=p,
        orbit_norm=orbit,
        sup_bound=sup_bound,
        sup_sample=sup_sample,
        ratio_sample=ratio_sample,
        ratio_floor=ratio_floor,
        golay_defect=defect,
        ok=ok,
    )
