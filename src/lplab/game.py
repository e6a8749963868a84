"""Banach-Mazur game engine on the unit ball of B(c0).

Positions are basic strong-operator-topology neighborhoods

    U(N, A, eps) = { T : ||T|| <= 1,  ||(T - A) e_j||_inf < eps  for j <= N },

encoded by a window size ``N``, a sparse block ``A`` and a radius ``eps``.
Player I plays any legal neighborhood; player II answers with one of two
strategies:

* the *eigen-free* strategy, whose limit operator has empty point spectrum
  (spoke / diagonal / chain column families indexed by a root-of-unity net);
* the *non-supercyclicity* strategy, whose limit operator T admits a vector
  x with inf_lambda ||lambda T^n x - e_0|| >= 1/9 for all n.

Blocks are stored lazily: explicit sparse columns plus O(1) per-round family
records, so honest parameter choices (window sizes beyond 10^13) remain
representable.  All verification checks are inequalities evaluated in closed
form on this sparse data.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import asdict, dataclass
from typing import Mapping

import numpy as np

from .reports import check, max_or_nan, min_or_nan, section_status
from .spectral import eigs_dense

__all__ = [
    "GameCapExceeded",
    "IllegalMove",
    "RoundData",
    "NonsupRound",
    "GameBlock",
    "BasicOpenSet",
    "EigenfreeParams",
    "GameRun",
    "block_from_columns",
    "block_column_map",
    "block_to_dense",
    "block_norm_c0",
    "block_ball_member",
    "legal_move",
    "strategy_eigenfree_respond",
    "strategy_nonsup_respond",
    "adversary_random",
    "adversary_passthrough",
    "opening_position",
    "play_game",
    "verify_eigenfree_run",
    "verify_nonsup_run",
    "scaled_orbit_floor",
    "game_run_to_dict",
]

_EXACT_SLACK = 1e-14  # slack for inequalities on exactly representable data
_ORBIT_SLACK = 1e-9  # slack for inequalities reached through orbit iteration
_NORM_TOL = 1e-12
# orbit steps verify_nonsup_run walks and reduces at once; its powers
# [I, M, ..., M^B] take (B + 1) dim^2 complex entries (0.7 MB at B = 256,
# dim = 13)
_ORBIT_BLOCK = 256
_RESIDUAL_TOL = 1e-6  # extended-window residual above which an eigenpair
# of a truncation is a truncation artifact
_SCREEN_WINDOW = 128  # largest truncation verify_eigenfree_run screens
# scaled_orbit_floor's grid: _FLOOR_GRID moduli x _FLOOR_GRID phases, zoomed
# _FLOOR_REFINE times; verify_nonsup_run runs it at _FLOOR_SAMPLES steps
_FLOOR_GRID = 64
_FLOOR_REFINE = 3
_FLOOR_SAMPLES = 40
# smallest eigen-free radius: player I shrinks a radius by 0.999, which a
# subnormal float may round back to itself
_MIN_RADIUS = sys.float_info.min


class GameCapExceeded(Exception):
    """A strategy response would exceed the configured dimension cap."""


class IllegalMove(Exception):
    """A move violates the nesting rule for basic neighborhoods."""


# ---------------------------------------------------------------------------
# block storage
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoundData:
    """Closed-form description of one eigen-free response round.

    The response adds, on top of the copied block of the previous position
    (window ``N``, radius ``eps``):

    * spoke: column ``k`` gains entries (eps/2) * root(i) in row N + i*R,
      i = 1..L, where root(i) = exp(2*pi*1j*(i-1)/L);
    * diagonal: column N + i*R maps to root(i)*(1 - eps/2) * e_{N+i*R} for
      2 <= i <= L;
    * head: column N + R maps to (1 - eps/2) * e_{N+R} + e_{N+R+1};
    * chain: column N + R + s maps to e_{N+R+s+1} for 1 <= s <= R - 2;
    * every other new column is zero.
    """

    k: int
    N: int
    eps: float
    alpha: float
    tau: float
    L: int
    R: int
    N_next: int
    eps_next: float
    certified: bool

    def root(self, i: int) -> complex:
        """i-th point of the root-of-unity net (1-based, root(1) = 1)."""
        if i == 1:
            return 1.0 + 0.0j
        return complex(np.exp(2j * np.pi * (i - 1) / self.L))

    def family_row_kind(self, r: int) -> tuple[str, int] | None:
        """Classify row ``r``: ("spoke", i), ("chain", s), or None."""
        off = r - self.N
        if off <= 0 or off > self.L * self.R:
            return None
        if off % self.R == 0:
            return ("spoke", off // self.R)
        if self.R < off < 2 * self.R:
            return ("chain", off - self.R)
        return None

    def family_column_entries(self, j: int) -> dict[int, complex] | None:
        """Family entries of column ``j`` (spoke column excluded), else None."""
        off = j - self.N
        if off <= 0 or off > self.L * self.R:
            return None
        if off == self.R:  # head column
            return {j: (1.0 - self.eps / 2.0) + 0.0j, j + 1: 1.0 + 0.0j}
        if off % self.R == 0:  # diagonal column, i >= 2
            i = off // self.R
            return {j: self.root(i) * (1.0 - self.eps / 2.0)}
        if self.R < off < 2 * self.R - 1:  # chain column
            return {j + 1: 1.0 + 0.0j}
        return {}


@dataclass(frozen=True)
class NonsupRound:
    """Parameters of one non-supercyclicity response round."""

    k: int
    N: int
    eps: float
    L: int
    N_next: int
    eps_next: float


@dataclass(frozen=True)
class GameBlock:
    """Sparse block: explicit columns plus closed-form round families.

    ``cols`` maps column -> ((row, value), ...); ``rounds`` holds the
    eigen-free family records in play order.  Columns absent from both are
    zero.  The block acts on c0 by zero extension beyond window ``N``.
    """

    N: int
    cols: tuple[tuple[int, tuple[tuple[int, complex], ...]], ...] = ()
    rounds: tuple[RoundData, ...] = ()


def block_from_columns(
    N: int,
    cols: Mapping[int, Mapping[int, complex]],
    rounds: tuple[RoundData, ...] = (),
) -> GameBlock:
    """Canonicalize a column map into a GameBlock (zeros dropped, sorted)."""
    packed = []
    for j in sorted(cols):
        ents = tuple(
            (int(r), complex(v)) for r, v in sorted(cols[j].items()) if v != 0
        )
        if ents:
            packed.append((int(j), ents))
    return GameBlock(N=int(N), cols=tuple(packed), rounds=rounds)


def block_column_map(blk: GameBlock) -> dict[int, dict[int, complex]]:
    """Explicit columns of the block as a nested dict (families excluded)."""
    return {j: dict(ents) for j, ents in blk.cols}


def block_to_dense(
    blk: GameBlock, rows: int, cols: int | None = None
) -> np.ndarray:
    """Materialize the window [0, rows) x [0, cols) of the block."""
    if cols is None:
        cols = rows
    M = np.zeros((rows, cols), dtype=complex)
    for j, ents in blk.cols:
        if j >= cols:
            continue
        for r, v in ents:
            if r < rows:
                M[r, j] += v
    for rd in blk.rounds:
        if rd.k < cols:
            half = rd.eps / 2.0
            i = 1
            while rd.N + i * rd.R < rows and i <= rd.L:
                M[rd.N + i * rd.R, rd.k] += half * rd.root(i)
                i += 1
        # family columns intersecting the window
        j = rd.N + rd.R
        while j <= rd.N + rd.L * rd.R and j < cols:
            fam = rd.family_column_entries(j)
            if fam:
                for r, v in fam.items():
                    if r < rows:
                        M[r, j] += v
            # skip the gaps between chain block and diagonal columns
            if j < rd.N + 2 * rd.R - 1:
                j += 1
            else:
                j += rd.R - (j - rd.N) % rd.R if (j - rd.N) % rd.R else rd.R
    return M


def block_norm_c0(blk: GameBlock) -> float:
    """Exact c0 -> c0 operator norm: the sup of the row l1 sums.

    Family rows each sum to exactly 1 (spoke + diagonal mass eps/2 + 1-eps/2,
    chain rows a single unit entry) and never meet an explicit row, so the
    norm is max(1 if any round is present, explicit row sums).
    """
    rows: dict[int, float] = {}
    for _, ents in blk.cols:
        for r, v in ents:
            rows[r] = rows.get(r, 0.0) + abs(v)
    best = max(rows.values(), default=0.0)
    for rd in blk.rounds:
        for r in rows:
            if rd.family_row_kind(r) is not None:
                # an explicit entry shares a family row: add the family mass
                best = max(best, rows[r] + 1.0)
        best = max(best, 1.0)
    return best


# ---------------------------------------------------------------------------
# basic open sets and legality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BasicOpenSet:
    """Basic neighborhood U(N, A, eps) inside the contraction ball of c0."""

    N: int
    A: GameBlock
    eps: float

    def __post_init__(self) -> None:
        if self.eps <= 0:
            raise ValueError("radius eps must be positive")
        if self.N < 0:
            raise ValueError("window size must be nonnegative")
        if block_norm_c0(self.A) > 1.0 + _NORM_TOL:
            raise ValueError("center block must be a c0 contraction")


def _entry_diff_sup(a: Mapping[int, complex], b: Mapping[int, complex]) -> float:
    best = 0.0
    for r in set(a) | set(b):
        best = max(best, abs(a.get(r, 0.0) - b.get(r, 0.0)))
    return best


def _max_col_diff(bnew: GameBlock, bold: GameBlock, n_window: int) -> float:
    """sup over columns j <= n_window of ||(bnew - bold) e_j||_inf.

    Requires the two blocks to share their round prefix (always true along a
    play); the non-shared rounds contribute their spoke sup eps/2 in closed
    form, and family columns of non-shared rounds lie beyond the window in
    legal play (enumerated defensively otherwise).
    """
    shared = min(len(bnew.rounds), len(bold.rounds))
    if bnew.rounds[:shared] != bold.rounds[:shared]:
        raise ValueError("blocks do not share a common round prefix")
    extra = bnew.rounds[shared:] + bold.rounds[shared:]
    cm_new = block_column_map(bnew)
    cm_old = block_column_map(bold)
    best = 0.0
    for j in set(cm_new) | set(cm_old):
        if j <= n_window:
            best = max(best, _entry_diff_sup(cm_new.get(j, {}), cm_old.get(j, {})))
    for rd in extra:
        if rd.k <= n_window:
            best = max(best, rd.eps / 2.0)
        if rd.N < n_window:
            j = rd.N + 1
            while j <= min(n_window, rd.N + rd.L * rd.R):
                fam = rd.family_column_entries(j)
                if fam:
                    best = max(best, max(abs(v) for v in fam.values()))
                j += 1
    return best


def legal_move(prev: BasicOpenSet, nxt: BasicOpenSet) -> bool:
    """May ``nxt`` be played after ``prev``?  (guarantees nxt inside prev)

    Requires nxt.N >= prev.N and, strictly,
    sup_{j <= prev.N} ||(A_next - A_prev) e_j|| + eps_next < eps_prev.
    """
    if nxt.N < prev.N:
        return False
    diff = _max_col_diff(nxt.A, prev.A, prev.N)
    return diff + nxt.eps < prev.eps


def block_ball_member(blk: GameBlock, S: BasicOpenSet) -> bool:
    """Is the zero-extension of ``blk`` a member of the basic set ``S``?"""
    if block_norm_c0(blk) > 1.0 + _NORM_TOL:
        return False
    return _max_col_diff(blk, S.A, S.N) < S.eps


# ---------------------------------------------------------------------------
# eigen-free strategy
# ---------------------------------------------------------------------------


def _finite_real(value: object) -> bool:
    """A number, not a bool, that converts to a finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _whole(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# The type of each EigenfreeParams field; alphas may be any sequence.
_PARAM_OK = {
    "c": _finite_real,
    "eta": _finite_real,
    "C": _finite_real,
    "a": lambda v: v is None or _finite_real(v),
    "alphas": lambda v: v is None
    or (isinstance(v, (list, tuple)) and all(_finite_real(a) for a in v)),
    "toy": lambda v: isinstance(v, bool),
    "dim_cap": _whole,
    "toy_L_cap": _whole,
    "toy_R_cap": _whole,
}


@dataclass(frozen=True)
class EigenfreeParams:
    """Winning-parameter bundle for the eigen-free strategy.

    alpha_k is geometric a*2^-k when ``a`` is set, else taken from the
    explicit tuple ``alphas``.  The winning conditions are c < 1/24,
    eta >= 16c, 8c + eta < 1, C > 4/eta, and
    prod_k (1 - alpha_k)/(1 + 4 alpha_k) >= 8c + eta; for geometric alpha the
    infinite product is certified analytically through
    log(1 - t) >= -2 log(2) t (t <= 1/2) and log(1 + 4t) <= 4t.

    A field of the wrong type, a non-finite number or eta <= 0 raises
    ``ValueError``; ``alphas`` is stored as a tuple of floats.
    """

    c: float = 1.0 / 32.0
    eta: float = 0.5
    C: float = 9.0
    a: float | None = 0.01
    alphas: tuple[float, ...] | None = None
    toy: bool = False
    dim_cap: int = 10**15
    toy_L_cap: int = 8
    toy_R_cap: int = 6

    def __post_init__(self) -> None:
        for name, ok in _PARAM_OK.items():
            if not ok(getattr(self, name)):
                raise ValueError(f"bad game parameter {name}: {getattr(self, name)!r}")
        if self.alphas is not None:
            object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        if not self.eta > 0.0:
            raise ValueError(f"eta must be positive (C > 4/eta), got {self.eta!r}")

    def alpha(self, k: int) -> float:
        if self.alphas is not None:
            if k >= len(self.alphas):
                raise ValueError(f"alpha sequence exhausted at round {k}")
            return self.alphas[k]
        if self.a is None:
            raise ValueError("no alpha sequence configured")
        return self.a * 2.0 ** (-k)

    def threshold(self) -> float:
        return 8.0 * self.c + self.eta

    def validate(self) -> list[dict]:
        """Winning-parameter inequalities, each as a check record."""
        a0 = float(self.alpha(0))
        return [
            check("c_small", float(self.c), "exact", "<", 1.0 / 24.0),
            check("eta_large", float(self.eta), "exact", ">=", 16.0 * self.c),
            check("threshold_below_one", float(self.threshold()), "exact", "<", 1.0),
            check("C_large", float(self.C), "exact", ">", 4.0 / self.eta),
            check("alpha0_positive", a0, "exact", ">", 0.0),
            check("alpha0_at_most_half", a0, "exact", "<=", 0.5),
        ]

    def certify_product(self, K: int) -> dict:
        """Partial product over K rounds plus (geometric only) a tail bound."""
        partial = 1.0
        for k in range(K):
            t = self.alpha(k)
            partial *= (1.0 - t) / (1.0 + 4.0 * t)
        rec = {
            "rounds": K,
            "partial_product": partial,
            "threshold": self.threshold(),
        }
        if self.alphas is None and self.a is not None:
            s_tail = self.a * 2.0 ** (1 - K)
            lower = partial * math.exp(-(2.0 * math.log(2.0) + 4.0) * s_tail)
            rec["tail_sum"] = s_tail
            rec["certified_lower_bound"] = lower
            rec["certified"] = bool(lower >= self.threshold())
        else:
            rec["certified_lower_bound"] = None
            rec["certified"] = False
        return rec


def _eigenfree_geometry(eps: float, alpha: float, C: float) -> tuple[float, int, int]:
    """(tau, L, R) of a response round: net size and escape-chain length.

    L is the size of a tau-net of roots of unity; R is minimal with
    ((1 - tau/2)/(1 - tau))^(R-2) > C/eps, evaluated in log space (log1p)
    so that extremely small tau stays well-conditioned.
    """
    tau = alpha * eps
    if not 0.0 < tau < 1.0:
        raise ValueError("tau = alpha * eps must lie in (0, 1)")
    try:
        L = math.ceil(math.pi / math.asin(tau / 2.0))
        lratio = math.log1p(-tau / 2.0) - math.log1p(-tau)
        m = math.floor(math.log(C / eps) / lratio) + 1
    except (ZeroDivisionError, OverflowError):
        raise ValueError(
            f"net size L or chain length R is not finite at tau = {tau!r}, C/eps = {C / eps!r}"
        ) from None
    return tau, L, max(0, m) + 2


def strategy_eigenfree_respond(
    U: BasicOpenSet, k: int, params: EigenfreeParams
) -> tuple[BasicOpenSet, RoundData]:
    """Round-k response of the eigen-free strategy to position ``U``."""
    if k < 0 or k > U.N:
        raise ValueError("spoke column k must lie inside the current window")
    alpha = params.alpha(k)
    tau, L, R = _eigenfree_geometry(U.eps, alpha, params.C)
    certified = not params.toy
    if params.toy:
        L_cap, R_cap = params.toy_L_cap, params.toy_R_cap
        if L > L_cap or R > R_cap:
            certified = False
        L, R = min(L, L_cap), min(R, R_cap)
    if L < 2 or R < 2:
        raise ValueError("degenerate net: L and R must both be at least 2")
    n_next = U.N + (L + 1) * R - 1
    if n_next > params.dim_cap:
        raise GameCapExceeded(
            f"window {n_next} exceeds the dimension cap {params.dim_cap}"
        )
    eps_next = params.c * tau * U.eps
    # the response moves column k by eps/2, so it is legal only with a next
    # radius below eps/2; below _MIN_RADIUS player I could not shrink it
    if not _MIN_RADIUS <= eps_next < U.eps / 2.0:
        raise ValueError(
            f"round {k}: the next radius c * tau * eps = {eps_next!r} must be a "
            f"normal float below eps/2 = {U.eps / 2.0!r}"
        )
    rd = RoundData(
        k=k,
        N=U.N,
        eps=U.eps,
        alpha=alpha,
        tau=tau,
        L=L,
        R=R,
        N_next=n_next,
        eps_next=eps_next,
        certified=certified,
    )
    blk = GameBlock(N=n_next, cols=U.A.cols, rounds=U.A.rounds + (rd,))
    return BasicOpenSet(N=n_next, A=blk, eps=eps_next), rd


# ---------------------------------------------------------------------------
# non-supercyclicity strategy
# ---------------------------------------------------------------------------


def _min_halving_length(eps: float, k: int) -> int:
    """Smallest L >= 1 with (1 - eps/4)^L <= 2^-(k+1), in log space."""
    guess = (k + 1) * math.log(2.0) / -math.log1p(-eps / 4.0)
    return max(1, math.ceil(guess))


def strategy_nonsup_respond(
    U: BasicOpenSet, k: int, L_prev: int
) -> tuple[BasicOpenSet, NonsupRound]:
    """Round-k response of the non-supercyclicity strategy.

    Scales every played column by 1 - eps/2, adjoins the fixed unit column
    e_{N+1} |-> e_{N+1}, and shrinks the radius so that on the new window the
    scaled block contracts prefixes geometrically for L steps, where L is
    long enough to halve k+1 times.
    """
    if U.A.rounds:
        raise ValueError("non-sup strategy requires an explicit (family-free) block")
    scale = 1.0 - U.eps / 2.0
    n_next = U.N + 1
    cols = {
        j: {r: scale * v for r, v in ents.items()}
        for j, ents in block_column_map(U.A).items()
    }
    cols[n_next] = {n_next: 1.0 + 0.0j}
    L = max(L_prev + 1, _min_halving_length(U.eps, k))
    eps_next = min(
        U.eps / 2.0 - U.eps / 100.0,
        (U.eps / 4.0) * (1.0 - U.eps / 2.0) ** L / (L * (U.N + 1)),
    )
    rec = NonsupRound(k=k, N=U.N, eps=U.eps, L=L, N_next=n_next, eps_next=eps_next)
    blk = block_from_columns(n_next, cols)
    return BasicOpenSet(N=n_next, A=blk, eps=eps_next), rec


# ---------------------------------------------------------------------------
# adversaries (player I)
# ---------------------------------------------------------------------------


def adversary_random(U: BasicOpenSet, rng: np.random.Generator) -> BasicOpenSet:
    """Random legal reply of player I.

    Appends up to five fresh columns whose entries live only in fresh rows
    (beyond U.N), scaled so every fresh row l1-sum stays below 1, and shrinks
    the radius by the factor 0.999.  Old columns are untouched, so the move
    is legal with column difference exactly zero.
    """
    growth = int(rng.integers(0, 6))
    n_next = U.N + growth
    cols = block_column_map(U.A)
    if growth > 0:
        fresh: dict[int, dict[int, complex]] = {}
        for j in range(U.N + 1, n_next + 1):
            nnz = int(rng.integers(1, growth + 1))
            rws = rng.integers(U.N + 1, n_next + 1, size=nnz)
            vals = rng.standard_normal(nnz) + 1j * rng.standard_normal(nnz)
            col: dict[int, complex] = {}
            for r, v in zip(rws.tolist(), vals.tolist()):
                col[int(r)] = col.get(int(r), 0.0 + 0.0j) + v
            fresh[j] = col
        row_sums: dict[int, float] = {}
        for col in fresh.values():
            for r, v in col.items():
                row_sums[r] = row_sums.get(r, 0.0) + abs(v)
        s = max(row_sums.values(), default=0.0)
        damp = 1.0 / (s * (1.0 + 1e-12)) if s > 1.0 else 1.0
        for j, col in fresh.items():
            cols[j] = {r: damp * v for r, v in col.items()}
    blk = block_from_columns(n_next, cols, rounds=U.A.rounds)
    return BasicOpenSet(N=n_next, A=blk, eps=0.999 * U.eps)


def adversary_passthrough(U: BasicOpenSet) -> BasicOpenSet:
    """Minimal legal reply of player I: same center, slightly smaller radius."""
    return BasicOpenSet(N=U.N, A=U.A, eps=0.999 * U.eps)


# ---------------------------------------------------------------------------
# play orchestration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GameRun:
    """Transcript of a finite play: alternating I/II moves plus round data."""

    strategy: str
    seed: int
    adversary: str
    params: EigenfreeParams | None
    moves: tuple[tuple[str, BasicOpenSet], ...]
    side: tuple[RoundData, ...] | tuple[NonsupRound, ...]

    @property
    def final_set(self) -> BasicOpenSet:
        return self.moves[-1][1]

    @property
    def rounds_played(self) -> int:
        return len(self.side)

    @property
    def certified(self) -> bool:
        if self.strategy == "eigenfree":
            if self.params is None or self.params.toy:
                return False
            if not all(rd.certified for rd in self.side):
                return False
            return bool(self.params.certify_product(len(self.side))["certified"])
        return True


def opening_position() -> BasicOpenSet:
    """Canonical first move of player I: the whole contraction ball."""
    return BasicOpenSet(N=0, A=GameBlock(N=0), eps=1.0)


def play_game(
    strategy: str,
    rounds: int,
    seed: int = 0,
    params: EigenfreeParams | None = None,
    adversary: str = "random",
) -> GameRun:
    """Alternate I (adversary) and II (strategy) for ``rounds`` II-moves.

    Player I opens with ``opening_position()``.  Every consecutive pair of
    moves is checked for legality; the transcript ends with a II move whose
    block is the germ of the limit operator.
    """
    if strategy not in ("eigenfree", "nonsup"):
        raise ValueError("strategy must be 'eigenfree' or 'nonsup'")
    if adversary not in ("random", "passthrough"):
        raise ValueError("adversary must be 'random' or 'passthrough'")
    if rounds < 1:
        raise ValueError("at least one round must be played")
    if strategy == "eigenfree" and params is None:
        params = EigenfreeParams()
    rng = np.random.default_rng(seed)
    U = opening_position()
    moves: list[tuple[str, BasicOpenSet]] = [("I", U)]
    side: list = []
    L_prev = 0
    for k in range(rounds):
        if k > 0:
            prev = U
            U = (
                adversary_random(U, rng)
                if adversary == "random"
                else adversary_passthrough(U)
            )
            if not legal_move(prev, U):
                raise IllegalMove(f"adversary move {k} is illegal")
            moves.append(("I", U))
        prev = U
        if strategy == "eigenfree":
            assert params is not None
            U, rec = strategy_eigenfree_respond(U, k, params)
        else:
            U, rec = strategy_nonsup_respond(U, k, L_prev)
            L_prev = rec.L
        if not legal_move(prev, U):
            raise IllegalMove(f"strategy response {k} is illegal")
        moves.append(("II", U))
        side.append(rec)
    return GameRun(
        strategy=strategy,
        seed=seed,
        adversary=adversary,
        params=params,
        moves=tuple(moves),
        side=tuple(side),
    )


# ---------------------------------------------------------------------------
# verification: eigen-free runs
# ---------------------------------------------------------------------------


def _legality_checks(run: GameRun) -> list[dict]:
    """One record per consecutive pair of moves: is the later one legal?"""
    out = []
    for i in range(len(run.moves) - 1):
        (who, prev), (who_next, nxt) = run.moves[i], run.moves[i + 1]
        legal = bool(legal_move(prev, nxt))
        out.append(check(f"move_{i}_{who}_to_{who_next}", legal, "exact", "==", True))
    return out


def _membership_checks(run: GameRun, blk: GameBlock) -> list[dict]:
    """The limit block lies in every played set and is a c0 contraction."""
    out = [
        check(f"member_window_{S.N}", bool(block_ball_member(blk, S)), "exact", "==", True)
        for _, S in run.moves
    ]
    out.append(check("c0_operator_norm", block_norm_c0(blk), "exact", "<=", 1.0, _NORM_TOL))
    return out


def _verification(parts: dict[str, list[dict]], certified: bool) -> dict:
    """The verification report: one section per part, ok when all pass."""
    sections = [
        {"name": name, "status": section_status(recs), "records": recs}
        for name, recs in parts.items()
    ]
    ok = all(s["status"] == "pass" for s in sections)
    return {"ok": ok, "certified": bool(certified and ok), "sections": sections}


def _row_coupling_checks(blk: GameBlock) -> list[dict]:
    """Row l1 sums over excluded-column complements, per round.

    For each round: spoke rows N + i*R must carry at most 2*eps_next of mass
    outside columns {k, N + i*R}; chain rows N + R + s at most eps_next
    outside column N + R + s - 1.  On the lazy data the family mass in those
    rows sits exactly in the excluded columns, so the checks reduce to the
    explicit entries (adversary columns), bucketed by row.
    """
    rows: dict[int, dict[int, float]] = {}
    for j, ents in blk.cols:
        for r, v in ents:
            bucket = rows.setdefault(r, {})
            bucket[j] = bucket.get(j, 0.0) + abs(v)

    def at_most(name: str, mass: float, bound: float) -> dict:
        return check(name, float(mass), "exact", "<=", bound, _EXACT_SLACK)

    out: list[dict] = []
    for rd in blk.rounds:
        worst_spoke = 0.0
        worst_chain = 0.0
        for r, per_col in rows.items():
            kind = rd.family_row_kind(r)
            if kind is None:
                continue
            if kind[0] == "spoke":
                excluded = {rd.k, r}
                mass = sum(v for j, v in per_col.items() if j not in excluded)
                worst_spoke = max_or_nan(worst_spoke, mass)
            else:
                excluded = {r - 1}
                mass = sum(v for j, v in per_col.items() if j not in excluded)
                worst_chain = max_or_nan(worst_chain, mass)
        out.append(at_most(f"round{rd.k}_spoke_row_complement", worst_spoke, 2.0 * rd.eps_next))
        out.append(at_most(f"round{rd.k}_chain_row_complement", worst_chain, rd.eps_next))
        # spot samples: recompute a few family rows entry-by-entry
        for i in sorted({1, 2, rd.L // 2, rd.L}):
            if not 1 <= i <= rd.L:
                continue
            r = rd.N + i * rd.R
            mass = sum(
                v for j, v in rows.get(r, {}).items() if j not in (rd.k, r)
            )
            out.append(at_most(f"round{rd.k}_spoke_row_sample_i{i}", mass, 2.0 * rd.eps_next))
    return out


def _extended_residual(
    blk: GameBlock, M2: np.ndarray, lam: complex, vec: np.ndarray
) -> float:
    """sup-norm of (T - lam) x over all rows, x the zero-padded vector.

    Dense rows come from the rectangular window M2 (2D x D); spoke rows of
    each round beyond the window contribute |x_k| * eps/2 exactly.
    """
    rows2, D = M2.shape
    img = M2 @ vec
    img[:D] -= lam * vec
    best = float(np.max(np.abs(img))) if rows2 else 0.0
    for rd in blk.rounds:
        if rd.k < D and abs(vec[rd.k]) > 0.0:
            if rd.N + rd.L * rd.R >= rows2:
                best = max_or_nan(best, abs(vec[rd.k]) * rd.eps / 2.0)
    return best


def verify_eigenfree_run(run: GameRun) -> dict:
    """Verification report for an eigen-free play.

    The limit operator is the zero-extension of the final block.  Sections:
    legality of the transcript, membership of the limit block in every
    played set, exact row-coupling bounds, winning-parameter
    invariants with the certified product bound, and an eigenpair screen of
    the D-truncation, D = min(_SCREEN_WINDOW, N + 1): every eigenpair must be
    a truncation artifact (extended residual beyond the doubled window above
    ``_RESIDUAL_TOL``), or carry no round coordinate of relative size
    8c + eta, or have modulus at least 1 - tau_k for every round whose
    coordinate is that large.
    """
    if run.strategy != "eigenfree":
        raise ValueError("run was not produced by the eigen-free strategy")
    params = run.params if run.params is not None else EigenfreeParams()
    blk = run.final_set.A
    parts: dict[str, list[dict]] = {}

    parts["legality"] = _legality_checks(run)
    parts["membership"] = _membership_checks(run, blk)

    # -- row coupling --------------------------------------------------------
    parts["row_coupling"] = _row_coupling_checks(blk)

    # -- parameters ----------------------------------------------------------
    pchecks = params.validate()
    product = params.certify_product(run.rounds_played)
    threshold = product.pop("threshold")
    # every factor is below 1, so the partial product is an upper bound on
    # the infinite product: a necessary condition only
    partial = product["partial_product"]
    pchecks.append(check("round_product_vs_threshold", partial, "consistency", ">=", threshold))
    if product["certified_lower_bound"] is None:  # explicit alphas: no bound to check
        pchecks.append({"name": "product_certificate", "threshold": threshold, **product})
    else:
        lower = product.pop("certified_lower_bound")
        pchecks.append(check("product_certificate", lower, "lower", ">=", threshold, **product))
    parts["parameters"] = pchecks

    # -- eigenpair screen ----------------------------------------------------
    D_eff = min(_SCREEN_WINDOW, blk.N + 1)
    M2 = block_to_dense(blk, 2 * D_eff, D_eff)
    Msq = M2[:D_eff, :]
    thr = params.threshold()
    counts = {"artifact": 0, "benign": 0, "cut": 0, "consistent": 0, "violation": 0}
    violations: list[dict] = []
    for pair in eigs_dense(Msq):
        vec = np.asarray(pair.vector, dtype=complex)
        resid = _extended_residual(blk, M2, pair.value, vec)
        if math.isnan(resid):
            # an unreadable residual classifies nothing, so it counts against the run
            counts["violation"] += 1
            violations.append(
                {"eigenvalue": [pair.value.real, pair.value.imag], "residual": resid, "rounds": []}
            )
            continue
        if resid > _RESIDUAL_TOL:
            counts["artifact"] += 1
            continue
        peak = float(np.max(np.abs(vec)))
        large_rounds = [
            rd
            for rd in blk.rounds
            if rd.k < D_eff and abs(vec[rd.k]) >= thr * peak
        ]
        if not large_rounds:
            counts["benign"] += 1
            continue
        # a large coordinate refutes the modulus bound only when the pair
        # actually resolves the round's spoke coupling: the residual must be
        # small against the spoke mass |x_k| * eps/2, else the escape
        # structure was lost to the truncation
        engaged = [
            rd
            for rd in large_rounds
            if resid < 1e-3 * abs(vec[rd.k]) * rd.eps / 2.0
        ]
        if not engaged:
            counts["cut"] += 1
            continue
        if all(abs(pair.value) >= 1.0 - rd.tau - _EXACT_SLACK for rd in engaged):
            counts["consistent"] += 1
        else:
            counts["violation"] += 1
            violations.append(
                {
                    "eigenvalue": [pair.value.real, pair.value.imag],
                    "residual": resid,
                    "rounds": [rd.k for rd in engaged],
                }
            )
    parts["eigen_screen"] = [
        check(
            "truncation_eigenpairs", counts["violation"], "exact", "==", 0,
            window=D_eff, counts=counts, violations=violations,
        )
    ]
    return _verification(parts, run.certified)


# ---------------------------------------------------------------------------
# verification: non-supercyclicity runs
# ---------------------------------------------------------------------------


def scaled_orbit_floor(v: np.ndarray) -> dict:
    """inf over lambda of ||lambda v - e_0||_inf, exactly and over a grid.

    With a = |v_0| and s = sup_{j >= 1} |v_j| the infimum equals s/(a + s)
    (attained along lambda*v_0 in [0, 1]).  The grid scan covers moduli up to
    2/(a + s) times phases, then zooms ``_FLOOR_REFINE`` times around the
    best cell.
    """
    a = float(abs(v[0]))
    s = float(np.max(np.abs(v[1:]))) if v.size > 1 else 0.0
    exact = s / (a + s) if a + s > 0 else 1.0
    r_hi = 2.0 / (a + s) if a + s > 0 else 1.0
    r_lo, th_lo, th_hi = 0.0, 0.0, 2.0 * math.pi
    best = math.inf
    best_r = best_th = 0.0
    grid = _FLOOR_GRID
    for _ in range(_FLOOR_REFINE + 1):
        rr = np.linspace(r_lo, r_hi, grid)
        tt = np.linspace(th_lo, th_hi, grid, endpoint=False)
        lam = rr[:, None] * np.exp(1j * tt[None, :])
        val = np.maximum(np.abs(lam * v[0] - 1.0), np.abs(lam) * s)
        idx = np.unravel_index(int(np.argmin(val)), val.shape)
        if float(val[idx]) < best:
            best = float(val[idx])
            best_r, best_th = float(rr[idx[0]]), float(tt[idx[1]])
        dr = (r_hi - r_lo) / (grid - 1)
        dth = (th_hi - th_lo) / grid
        r_lo, r_hi = max(0.0, best_r - dr), best_r + dr
        th_lo, th_hi = best_th - dth, best_th + dth
    return {"exact": exact, "grid": best, "a": a, "s": s}


def _nonsup_vector(side: tuple[NonsupRound, ...], dim: int) -> np.ndarray:
    """x = e_0 + sum_k 2^-(k+1) e_{N_k + 1} for the played rounds."""
    x = np.zeros(dim, dtype=complex)
    x[0] = 1.0
    for rec in side:
        x[rec.N + 1] += 2.0 ** (-(rec.k + 1))
    return x


def verify_nonsup_run(run: GameRun, n_direct: int = 100_000) -> dict:
    """Verification report for a non-supercyclicity play.

    Numerical checks by direct orbit iteration for n <= n_direct: the
    diagonal-row coupling bound, the coordinate floor
    |<e*_{N_k+1}, T^n x>| >= 2^-(k+1) - 2 n eps', the prefix spill and decay
    bounds, the norm checkpoints ||T^{L'} x|| <= 2^-(k-1), the 8:1
    norm-to-coordinate ratio, and the scaled-orbit floor
    inf_lambda ||lambda T^n x - e_0|| >= 1/9 (exact infimum every step, grid
    + refinement at ``_FLOOR_SAMPLES`` geometrically spaced steps).  With
    n_max the last round's L, for n_direct < n <= n_max the floor and ratio
    are certified analytically from the closed-form round inequalities
    2 L eps' <= (eps/2)(1 - eps/2)^L <= 2^-(k+2).

    The orbit is walked in blocks of B = ``_ORBIT_BLOCK`` steps by blocked
    matrix powers: P = [I, M, ..., M^B] is computed once, each block is one
    stacked product of P with the block's start vectors, and each block is
    reduced with whole-array abs and max.  Blocked powers round differently
    from the repeated gemv of a stepwise walk, so the orbit's last bits (and
    the ``value`` fields read from it) depend on B; no check outcome
    does, as the drift is orders of magnitude inside ``_ORBIT_SLACK``.  The
    ``exact_floor_direct_range`` record carries ``block_seam``: the largest
    ||M v_end - v_next||_inf over the block seams, where v_end is a block's
    last step and v_next the next block's start.  It is a deterministic
    consistency diagnostic of the two products, not a bound on the drift.
    An empty direct range (n_direct < 1) raises ``ValueError``: no check may
    pass over no steps.
    """
    if run.strategy != "nonsup":
        raise ValueError("run was not produced by the non-sup strategy")
    side: tuple[NonsupRound, ...] = run.side  # type: ignore[assignment]
    K = len(side)
    blk = run.final_set.A
    dim = blk.N + 1
    M = block_to_dense(blk, dim)
    x = _nonsup_vector(side, dim)
    if n_direct < 1:
        raise ValueError(f"direct orbit range is empty: n_direct = {n_direct}")
    n_max = side[-1].L  # the rounds' L increase, so this one is the largest
    n_cap = min(n_max, n_direct)
    parts: dict[str, list[dict]] = {}

    def exact_check(name: str, value: float, bound: float, **fields) -> dict:
        """A closed-form quantity bounded above, with the rounding slack."""
        return check(name, value, "exact", "<=", bound, _EXACT_SLACK, **fields)

    def orbit_check(name: str, value: float, bound: float = 0.0, **fields) -> dict:
        """An orbit quantity bounded above, with the orbit-iteration slack."""
        return check(name, float(value), "exact", "<=", bound, _ORBIT_SLACK, **fields)

    parts["legality"] = _legality_checks(run)
    parts["membership"] = _membership_checks(run, blk)

    # -- diagonal-row coupling (exact sparse sums) ---------------------------
    coupling = []
    for rec in side:
        r = rec.N + 1
        mass = float(np.sum(np.abs(M[r, :]))) - float(abs(M[r, r]))
        coupling.append(exact_check(f"round{rec.k}_row_complement", mass, rec.eps_next))
    parts["row_coupling"] = coupling

    # -- orbit iteration ------------------------------------------------------
    # x and the prefix starts y_k (x cut after N_k) walk once, as the columns
    # of one start block S; beyond[k] marks what lies past e_0 (for x) or
    # past N_k (for y_k).  With P = [I, M, ..., M^B] computed once, the block
    # of steps lo .. lo + B - 1 is the stacked product P[:B] @ S, and the next
    # block starts at P[B] @ S.  The prefix columns walk while a block holds a
    # step <= reach, then x walks alone.  abs, max and masking are exact, but
    # blocked powers round differently from repeated M @ v, so the block size
    # moves the last bits of the orbit (the drift against a stepwise walk is
    # ~1e-14 at 10^5 steps, far inside _ORBIT_SLACK), never a check outcome.
    ts = sorted(
        set(range(0, min(n_cap, 10) + 1))
        | set(
            int(t)
            for t in np.unique(np.geomspace(1, n_cap, _FLOOR_SAMPLES).astype(int))
            if t <= n_cap
        )
    )
    worst_grid = math.inf
    worst_mismatch = 0.0
    coords = np.zeros((K, n_cap + 1))
    head = np.zeros(n_cap + 1)
    rest = np.zeros(n_cap + 1)
    full = np.zeros(n_cap + 1)
    spans = [min(rec.L, n_cap, 10_000) for rec in side]
    reach = max(spans, default=0)
    prefix_peak = np.zeros((K, reach + 1))
    prefix_spill = np.zeros((K, reach + 1))
    cut = np.array([1] + [rec.N + 1 for rec in side])
    beyond = np.arange(dim)[None, :] >= cut[:, None]
    B = _ORBIT_BLOCK
    P = np.empty((min(B, n_cap) + 1, dim, dim), dtype=complex)
    P[0] = np.eye(dim)
    for j in range(1, len(P)):
        np.matmul(M, P[j - 1], out=P[j])
    S = np.vstack([x, np.where(beyond[1:], 0.0, x)]).T
    seam = 0.0  # max over seams of ||M v_(block end) - v_(next block start)||_inf
    seams = 0
    for lo in range(0, n_cap + 1, B):
        hi = min(lo + B, n_cap + 1)  # this block holds steps lo .. hi - 1
        if lo > reach:
            S = S[:, :1]
        V = np.matmul(P[: hi - lo], S)
        A = np.abs(V).transpose(0, 2, 1)  # step, start, coordinate
        head[lo:hi] = A[:, 0, 0]
        full[lo:hi] = A[:, 0].max(axis=1)
        rest[lo:hi] = np.where(beyond[0], A[:, 0], 0.0).max(axis=1)
        coords[:, lo:hi] = A[:, 0, cut[1:]].T
        pre = min(hi - 1, reach) + 1 - lo
        if pre > 0:
            Q = A[:pre, 1:]
            prefix_peak[:, lo : lo + pre] = Q.max(axis=2).T
            prefix_spill[:, lo : lo + pre] = np.where(beyond[1:], Q, 0.0).max(axis=2).T
        for t in ts[bisect_left(ts, lo) : bisect_left(ts, hi)]:
            rec_floor = scaled_orbit_floor(V[t - lo, :, 0])
            worst_grid = min_or_nan(worst_grid, rec_floor["grid"])
            worst_mismatch = max_or_nan(
                worst_mismatch, abs(rec_floor["grid"] - rec_floor["exact"])
            )
        if hi <= n_cap:
            S = P[B] @ S
            seam = max_or_nan(seam, float(np.max(np.abs(M @ V[-1] - S))))
            seams += 1

    checks: list[dict] = []
    # coordinate floor (cl-style lower bound), per round
    for kk, rec in enumerate(side):
        lo = 2.0 ** (-(rec.k + 1))
        ns = np.arange(n_cap + 1)
        bound = lo - 2.0 * ns * rec.eps_next
        live = bound > 0
        gap = float(np.min(coords[kk][live] - bound[live])) if live.any() else 0.0
        # at n = 0 the coordinate equals the bound exactly, so the gap above
        # is never positive; the margin is the gap over n >= 1 alone
        live[0] = False
        margin = float(np.min(coords[kk][live] - bound[live])) if live.any() else None
        checks.append(
            orbit_check(
                f"round{rec.k}_coordinate_floor", -gap, checked_n=int(n_cap), min_gap_n_ge_1=margin
            )
        )
    parts["coordinate_floor"] = checks

    # prefix spill/decay over n = 1..span, and norm checkpoints; the decay
    # bound is a Python float power, as numpy's array pow can differ in the
    # last bit
    pref: list[dict] = []
    for kk, rec in enumerate(side):
        span = spans[kk]
        ns = np.arange(1, span + 1)
        decay = np.array([(1.0 - rec.eps / 4.0) ** n for n in ns.tolist()])
        spill = prefix_spill[kk, 1 : span + 1] - ns * (rec.N + 1) * rec.eps_next
        worst_spill = float(np.max(spill, initial=-math.inf))
        worst_decay = float(
            np.max(prefix_peak[kk, 1 : span + 1] - decay, initial=-math.inf)
        )
        pref.append(orbit_check(f"round{rec.k}_prefix_spill", worst_spill, checked_n=span))
        pref.append(orbit_check(f"round{rec.k}_prefix_decay", worst_decay, checked_n=span))
    for kk in range(1, K):
        ckpt = side[kk - 1].L
        if ckpt <= n_cap:
            pref.append(orbit_check(f"norm_checkpoint_k{kk}", full[ckpt], 2.0 ** (-(kk - 1))))
    parts["prefix_bounds"] = pref

    # 8:1 norm-to-coordinate ratio on each round's range
    ratio_checks: list[dict] = []
    for kk, rec in enumerate(side):
        lo_n = side[kk - 1].L if kk > 0 else 0
        hi_n = min(rec.L, n_cap + 1)
        if lo_n >= hi_n:
            continue
        seg = slice(lo_n, hi_n)
        worst = float(np.max(full[seg] - 8.0 * coords[kk][seg]))
        ratio_checks.append(
            orbit_check(
                f"round{rec.k}_norm_coordinate_ratio", worst, checked_n=[int(lo_n), int(hi_n - 1)]
            )
        )
    parts["norm_coordinate_ratio"] = ratio_checks

    # scaled-orbit floor: exact infimum every step, grid on a subsample
    floor_checks: list[dict] = []
    a_arr, s_arr = head, rest
    exact_inf = np.where(a_arr + s_arr > 0, s_arr / (a_arr + s_arr), 1.0)
    seam_info = {
        "role": "consistency diagnostic, not a drift bound",
        "block": B,
        "seams": seams,
        "max_residual": seam,
    }
    floor_checks.append(
        check(
            "exact_floor_direct_range", float(np.min(exact_inf)), "exact", ">=", 1.0 / 9.0,
            _ORBIT_SLACK, checked_n=int(n_cap), block_seam=seam_info,
        )
    )
    # a grid minimum over lambda is an upper bound on the infimum
    floor_checks.append(
        check(
            "grid_floor_subsample", worst_grid, "consistency", ">=", 1.0 / 9.0, _ORBIT_SLACK,
            sampled_n=ts, grid=_FLOOR_GRID,
        )
    )
    # the gap is a modulus, so this fails only on NaN: a grid value that could
    # not be compared with its exact one
    floor_checks.append(check("grid_floor_gap_to_exact", worst_mismatch, "exact", ">=", 0.0))

    # analytic certification beyond the direct range
    if n_max > n_cap:
        cert: list[dict] = []
        for kk, rec in enumerate(side):
            lo_n = side[kk - 1].L if kk > 0 else 0
            if rec.L <= n_cap:
                continue
            name, mid = f"round{rec.k}_tail", (rec.eps / 2.0) * (1.0 - rec.eps / 2.0) ** rec.L
            tail = {"range": [max(lo_n, n_cap + 1), rec.L - 1], "implied_floor": 1.0 / 9.0}
            cert.append(exact_check(f"{name}_coupling", 2.0 * rec.L * rec.eps_next, mid, **tail))
            cert.append(exact_check(f"{name}_coordinate_floor", mid, 2.0 ** (-(rec.k + 2)), **tail))
            if lo_n <= n_cap:
                ckpt = 2.0 ** (-(rec.k - 1))
                cert.append(orbit_check(f"{name}_norm_checkpoint", full[lo_n], ckpt, **tail))
        failed = sum(1 for c in cert if not c["ok"])
        floor_checks.append(
            check(
                "certified_floor_tail_range", failed, "exact", "==", 0,
                n_direct=int(n_cap), n_max=int(n_max), certificates=cert,
            )
        )
    parts["scaled_orbit_floor"] = floor_checks

    return _verification(parts, True)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _complex_to_json(v: complex) -> list[float]:
    return [float(v.real), float(v.imag)]


def _block_to_dict(blk: GameBlock) -> dict:
    return {
        "N": blk.N,
        "cols": {
            str(j): {str(r): _complex_to_json(v) for r, v in ents}
            for j, ents in blk.cols
        },
        "rounds": [asdict(rd) for rd in blk.rounds],
    }


def game_run_to_dict(run: GameRun) -> dict:
    """JSON-ready transcript (blocks stay sparse: families by parameters)."""
    out: dict = {
        "strategy": run.strategy,
        "seed": run.seed,
        "adversary": run.adversary,
        "rounds_played": run.rounds_played,
        "certified": run.certified,
        "moves": [
            {
                "player": who,
                "N": S.N,
                "eps": S.eps,
                "block": _block_to_dict(S.A),
            }
            for who, S in run.moves
        ],
    }
    if run.strategy == "eigenfree" and run.params is not None:
        p = run.params
        out["params"] = {
            "c": p.c,
            "eta": p.eta,
            "C": p.C,
            "a": p.a,
            "alphas": list(p.alphas) if p.alphas is not None else None,
            "toy": p.toy,
        }
    if run.strategy == "nonsup":
        out["side"] = [asdict(rec) for rec in run.side]
    return out
