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
    _best_run,
    apply,
    fixed_point_restarts,
    op_norm,
)
from .spaces import IndexDomain, PNorm, SpVector, norm
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
    "build_coisometry_l1",
    "build_T1_coisometry_l1",
    "dq_witness",
    "kernel_vector_greedy",
    "kan_check",
    "check_evenly_distributed",
    "build_B_eta_delta",
    "delta_for_B",
    "rudin_shapiro",
    "shift_poly_gap",
]


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


def dq_witness(
    T0: StructuredOperator,
    q: int,
    alpha: Sequence[float],
    Ns: Sequence[int],
    r: int | None = None,
    return_plan: bool = False,
):
    """Modify T0 beyond column Ns[r] so every triggering tuple is annihilated.

    For every increasing tuple tau inside {0..q} whose weighted trial vector
    sum_j alpha_j e_{Ns[tau_j]} has image norm at most alpha_{len(tau)}, a
    fresh column is planted at Ns[r + 1 + position] that exactly cancels that
    image; all remaining far columns are zeroed.  With ``return_plan`` the
    mapping from each triggering tuple to its cancelling index is returned
    alongside the operator.
    """
    if r is None:
        r = q
    if r < q:
        raise ValueError("r must be at least q")
    if q > 16:
        raise ValueError("tuple enumeration is exponential in q; q > 16 refused")
    alpha = tuple(float(a) for a in alpha)
    Ns = tuple(int(n) for n in Ns)
    _check_alpha_nseq(alpha, Ns)
    if len(alpha) < q + 3:
        raise ValueError("alpha must provide at least q+3 terms")

    pn = PNorm.lp(1.0)
    triggering: list[tuple[int, ...]] = []
    images: list[SpVector] = []
    for size in range(1, q + 2):
        for tau in itertools.combinations(range(q + 1), size):
            trial = SpVector.zero()
            for j, idx in enumerate(tau):
                trial = trial + SpVector.basis(Ns[idx]).scale(alpha[j])
            img = apply(T0, trial)
            if norm(img, pn) <= alpha[size] + 1e-12:
                triggering.append(tau)
                images.append(img)
    s = len(triggering)
    if len(Ns) <= r + s:
        raise ValueError("Ns must extend past r by the number of triggering tuples")

    plan: dict[tuple[int, ...], int] = {}
    killer_cols: dict[int, SpVector] = {}
    for k, (tau, img) in enumerate(zip(triggering, images)):
        idx = r + 1 + k
        plan[tau] = idx
        killer_cols[Ns[idx]] = img.scale(-1.0 / alpha[len(tau)])

    last_col = Ns[r + s] if s else Ns[r]
    cols: list[SpVector] = []
    max_row = 0
    for n in range(last_col + 1):
        if n <= Ns[r]:
            col = apply(T0, SpVector.basis(n))
            if not col.support_is_finite():
                raise ValueError("T0 columns must be finitely supported")
        else:
            col = killer_cols.get(n, SpVector.zero())
        cols.append(col)
        for j, _ in col.entries:
            max_row = max(max_row, j)
    block = np.zeros((max_row + 1, last_col + 1), dtype=complex)
    for n, col in enumerate(cols):
        for j, v in col.entries:
            block[j, n] = v
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
    cap: int | None = None,
    pn: PNorm | None = None,
) -> tuple[SpVector, list[dict]]:
    """Greedy growth of x = sum_{j<=l} alpha_j e_{Ns[i_j]} with i_0 = 0.

    At step l (1 <= l <= max_l) the search scans i > i_{l-1} up to ``cap``
    (default: the end of Ns) for the first index with
    ||T(x + alpha_l e_{Ns[i]})|| < alpha_{l+1}.  Raises
    :class:`SearchExhausted` reporting the failing step.  Returns the final
    vector and a per-step trace (index chosen, candidates tested, image norm).
    """
    if pn is None:
        pn = PNorm.lp(1.0)
    alpha = tuple(float(a) for a in alpha)
    Ns = tuple(int(n) for n in Ns)
    _check_alpha_nseq(alpha, Ns)
    if len(alpha) < max_l + 2:
        raise ValueError("alpha must provide max_l + 2 terms")
    if cap is None:
        cap = len(Ns) - 1
    if cap >= len(Ns):
        raise ValueError("cap must stay within Ns")
    x = SpVector.basis(Ns[0]).scale(alpha[0])
    chosen = [0]
    trace: list[dict] = []
    for l in range(1, max_l + 1):
        found: tuple[int, SpVector, float, int] | None = None
        tested = 0
        for i in range(chosen[-1] + 1, cap + 1):
            tested += 1
            cand = x + SpVector.basis(Ns[i]).scale(alpha[l])
            v = norm(apply(T, cand), pn)
            if v < alpha[l + 1]:
                found = (i, cand, v, tested)
                break
        if found is None:
            raise SearchExhausted(
                f"step {l}: no admissible index in ({chosen[-1]}, {cap}]"
            )
        i, x, v, tested = found
        chosen.append(i)
        trace.append({"step": l, "index": i, "tested": tested, "image_norm": v})
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
# even distribution
# ---------------------------------------------------------------------------


def check_evenly_distributed(
    B: StructuredOperator,
    pn: PNorm,
    tol: float = 1e-10,
    seed: int = 0,
) -> tuple[bool, float, SpVector]:
    """Test whether the norming direction of B has an evenly distributed image.

    Runs the multi-restart norm ascent; if two near-maximal restarts disagree
    in direction (beyond a global phase) the verdict is ambiguous and
    :class:`ExposednessUndetermined` is raised.  Otherwise returns
    (passed, gamma, x1) with gamma the smallest image coordinate magnitude.
    """
    if B.rules:
        raise ValueError("dense-block operators only")
    if pn.is_c0 or pn.p in (1.0,):
        raise ValueError("requires a smooth p-norm (1 < p < infinity)")
    runs = fixed_point_restarts(np.asarray(B.block), float(pn.p), restarts=32, seed=seed)
    best_v, best_x, _ = _best_run(runs, float(pn.p))
    for v, x, _ in runs:
        if v >= best_v * (1.0 - 1e-9):
            olap = np.vdot(best_x, x)
            theta = olap / abs(olap) if abs(olap) > 0 else 1.0
            dist = np.abs(x - theta * best_x).max()
            if dist > 1e-6:
                raise ExposednessUndetermined(
                    "near-maximal restarts found far-apart directions"
                )
    x1 = SpVector.make(
        [(B.col_offset + i, best_x[i]) for i in range(len(best_x))]
    )
    img = np.asarray(B.block) @ best_x
    gamma = float(np.abs(img).min())
    passed = gamma > tol * max(1.0, float(np.abs(img).max()))
    return passed, gamma, x1


# ---------------------------------------------------------------------------
# the doubled operator B_{eta, delta}
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BEtaDelta:
    """Doubled operator [[A, dA], [hA, hdA]] with tuned delta and its norming
    vector u0; closed_form_norm restates the factored norm value."""

    op: StructuredOperator
    u0: SpVector
    delta: float
    eta: float
    closed_form_norm: float
    norm_a: float
    gain_u0: float


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
    base = StructuredOperator(
        block=A.copy(), row_offset=0, col_offset=0, rules=(), domain=IndexDomain.NATURALS
    )
    cert = op_norm(base, pn)
    norm_a = cert.value
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

    if cert.witness is None:
        raise RuntimeError("norm certificate lacks a witness")
    x0 = cert.witness
    scale = (1.0 + delta**q) ** (1.0 / p)
    u0_entries = [(j, v / scale) for j, v in x0.entries]
    u0_entries += [(j + m, delta ** (q - 1.0) * v / scale) for j, v in x0.entries]
    u0 = SpVector.make(u0_entries)
    closed = (1.0 + eta**p) ** (1.0 / p) * (1.0 + delta**q) ** (1.0 / q) * norm_a
    gain = norm(apply(B, u0), pn)
    return BEtaDelta(
        op=B,
        u0=u0,
        delta=delta,
        eta=eta,
        closed_form_norm=closed,
        norm_a=norm_a,
        gain_u0=gain,
    )


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


def rudin_shapiro(k: int) -> np.ndarray:
    """Coefficient vector (signs +-1) of the k-th flat polynomial P_k of
    degree 2^k - 1, built by P_{j+1} = P_j + z^{2^j} Q_j, Q_{j+1} = P_j - z^{2^j} Q_j.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    P = np.array([1], dtype=np.int64)
    Q = np.array([1], dtype=np.int64)
    for j in range(k):
        newP = np.concatenate([P, Q])
        newQ = np.concatenate([P, -Q])
        P, Q = newP, newQ
    return P


@dataclass(frozen=True)
class ShiftPolyGap:
    """Gap data for p(S) e_0 with p the k-th flat polynomial of degree d."""

    k: int
    d: int
    p: float
    orbit_norm: float
    sup_bound: float
    sup_sample: float
    ratio_sample: float
    ratio_floor: float
    ok: bool


def shift_poly_gap(k: int, p: float) -> ShiftPolyGap:
    """Compare ||p_k(S) e_0||_p = (d+1)^{1/p} with the sup of |p_k| on the
    circle: the ratio is certified to stay above (d+1)^{1/p - 1/2} / sqrt(2)
    because sup |p_k| <= sqrt(2 (d+1)).
    """
    if not 1.0 <= p < math.inf:
        raise ValueError("p must lie in [1, infinity)")
    coeffs = rudin_shapiro(k)
    d = len(coeffs) - 1
    orbit = float((d + 1) ** (1.0 / p))
    grid = 4096
    vals = np.abs(np.fft.fft(coeffs.astype(complex), n=max(grid, d + 1)))
    sup_sample = float(vals.max())
    sup_bound = math.sqrt(2.0 * (d + 1))
    ratio_sample = orbit / sup_sample
    ratio_floor = (d + 1) ** (1.0 / p - 0.5) / math.sqrt(2.0)
    ok = ratio_sample >= ratio_floor * (1.0 - 1e-12)
    return ShiftPolyGap(
        k=k,
        d=d,
        p=p,
        orbit_norm=orbit,
        sup_bound=sup_bound,
        sup_sample=sup_sample,
        ratio_sample=ratio_sample,
        ratio_floor=ratio_floor,
        ok=ok,
    )
