"""Randomized experiments on contractions: sampling and summary statistics.

Every experiment here is illustrative: it samples random contractions on a
finite window, measures something, and reports the distribution.  Nothing in
this module is evidence about category-theoretic (Baire) genericity, and the
emitted reports say so explicitly.

Determinism contract: a suite run is a pure function of its configuration
list.  Per-sample random streams are split from each experiment's seed with
``SeedSequence.spawn`` and samples are aggregated in index order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .operators import op_norm_stream
from .reports import Report, Section, check, make_report, make_section
from .spaces import PNorm, row_norms

__all__ = [
    "ExperimentKind",
    "ExperimentConfig",
    "sample_contraction",
    "isometry_defect",
    "ap_grid_points",
    "ap_gain_profile",
    "exp_orbit_decay",
    "exp_eigen_stats",
    "exp_isometry_defect",
    "exp_apspectrum_grid",
    "exp_disjoint_support",
    "run_experiment",
    "run_suite",
    "space_to_token",
    "space_from_token",
]

MAX_DIM = 256
MAX_SAMPLES = 100_000
ORBIT_STEPS = 200
DECAY_THRESHOLD = 0.01
SUPPORT_TOL = 1e-9
_SCALE_PAD = 1e-9
# ApSpectrumGrid's polar grid on the closed unit disk: the origin and
# (radii - 1) x angles points
AP_GRID_RADII = 20
AP_GRID_ANGLES = 20

ILLUSTRATIVE_NOTE = (
    "illustrative statistics over random samples; not evidence about "
    "Baire-category genericity"
)


class ExperimentKind(Enum):
    ORBIT_DECAY = "OrbitDecay"
    EIGEN_STATS = "EigenStats"
    ISOMETRY_DEFECT = "IsometryDefect"
    AP_SPECTRUM_GRID = "ApSpectrumGrid"
    DISJOINT_SUPPORT = "DisjointSupport"


def space_to_token(pn: PNorm) -> str:
    """Short parseable space name: "c0" or the exponent as text."""
    return "c0" if pn.is_c0 else repr(pn.p)


def space_from_token(token: str) -> PNorm:
    """Inverse of :func:`space_to_token`; also accepts labels like "l2"."""
    tok = token.strip().lower()
    if tok == "c0":
        return PNorm.c0()
    if tok.startswith("l"):
        tok = tok[1:]
    return PNorm.lp(float(tok))


@dataclass(frozen=True)
class ExperimentConfig:
    """One randomized experiment: which statistic, on which space, how much."""

    space: PNorm
    dim: int
    samples: int
    seed: int
    experiment: ExperimentKind

    def __post_init__(self) -> None:
        if not 1 <= self.dim <= MAX_DIM:
            raise ValueError(f"dim must be in [1, {MAX_DIM}], got {self.dim}")
        if not 0 <= self.samples <= MAX_SAMPLES:
            raise ValueError(
                f"samples must be in [0, {MAX_SAMPLES}], got {self.samples}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not isinstance(self.experiment, ExperimentKind):
            raise ValueError("experiment must be an ExperimentKind")

    def to_dict(self) -> dict[str, Any]:
        return {
            "space": space_to_token(self.space),
            "dim": self.dim,
            "samples": self.samples,
            "seed": self.seed,
            "experiment": self.experiment.value,
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "ExperimentConfig":
        unknown = sorted(set(data) - {f.name for f in fields(ExperimentConfig)})
        if unknown:
            raise ValueError(f"unknown config keys {unknown}")
        for key in ("dim", "samples", "seed"):
            if isinstance(data[key], bool) or not isinstance(data[key], int):
                raise ValueError(f"{key} must be an integer, got {data[key]!r}")
        return ExperimentConfig(
            space=space_from_token(str(data["space"])),
            dim=data["dim"],
            samples=data["samples"],
            seed=data["seed"],
            experiment=ExperimentKind(data["experiment"]),
        )


# ---------------------------------------------------------------------------
# sampling


def _gaussian(dim: int, rng: np.random.Generator) -> np.ndarray:
    return (
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    ) / np.sqrt(2.0)


def _contractions(
    Gs: Iterable[np.ndarray], pn: PNorm
) -> Iterator[tuple[int, np.ndarray | Exception]]:
    """``(k, Gs[k] divided by its op_norm value times (1 + 1e-9))`` for each G
    of an iterable of one shape, yielded as each norm completes.

    A G whose norm computation fails gets its exception in its place.  The
    G's are drawn only as ``op_norm_stream`` takes them, and each is let go
    once it is divided.
    """
    held: dict[int, np.ndarray] = {}

    def draw() -> Iterator[np.ndarray]:
        for k, G in enumerate(Gs):
            held[k] = G
            yield G

    for k, cert in op_norm_stream(draw(), pn):
        G = held.pop(k)
        if isinstance(cert, Exception):
            yield k, cert
        elif cert.value <= 0.0:
            yield k, G
        else:
            yield k, G / (cert.value * (1.0 + _SCALE_PAD))


def sample_contraction(dim: int, pn: PNorm, rng: np.random.Generator) -> np.ndarray:
    """Draw a random contraction candidate on the dim-dimensional window.

    A complex Gaussian matrix G is divided by ``op_norm(G).value`` times
    (1 + 1e-9).  At p = 1, p = 2 and on c0 that value is exact, so the
    result's norm is at most 1.  At other p it is the fixed-point ascent's
    best value, a lower bound on the norm, so ``||M|| <= 1`` is not
    certified there: M is a contraction only as far as the ascent found the
    maximum.  The experiments normalise their samples the same way, with
    every sample of a configuration streamed through one fixed-point pool
    (see ``_map_samples``), which gives each sample the bits it gets here.
    """
    _, M = next(_contractions([_gaussian(dim, rng)], pn))
    if isinstance(M, Exception):
        raise M
    return M


# ---------------------------------------------------------------------------
# per-sample machinery


def _map_samples(
    cfg: ExperimentConfig,
    fn: Callable[[int, np.ndarray], dict[str, Any]],
) -> list[dict[str, Any]]:
    """Run fn(i, M) once per sample i, on that sample's random contraction M.

    Sample i's Gaussian matrix comes from its own stream, split from the
    configuration's seed, and is normalised as in ``sample_contraction``.
    The samples are drawn lazily, in index order, as ``op_norm_stream``'s
    fixed-point pool has room for them, and fn runs on each as soon as its
    norm completes; the pool's bound on live rows is the only bound on the
    matrices held at once.  An exception, from the normalisation or from fn,
    becomes that sample's failed error record (one error, checked against 0)
    instead of aborting; results come back in sample-index order.
    """
    streams = np.random.SeedSequence(cfg.seed).spawn(max(cfg.samples, 1))
    Gs = (_gaussian(cfg.dim, np.random.default_rng(s)) for s in streams[: cfg.samples])
    records: dict[int, dict[str, Any]] = {}
    for i, M in _contractions(Gs, cfg.space):
        try:
            if isinstance(M, Exception):
                raise M
            rec = fn(i, M)
        except Exception as exc:  # propagate per sample, keep the suite alive
            records[i] = _error_record("sample_error", exc, sample=i)
            continue
        rec.setdefault("sample", i)
        records[i] = rec
    return [records[i] for i in range(cfg.samples)]


def _error_record(name: str, exc: Exception, **fields: Any) -> dict[str, Any]:
    """A failed check: one error, counted against none."""
    return check(name, 1, "exact", "==", 0, error=f"{type(exc).__name__}: {exc}", **fields)


def _summary(values: Sequence[float]) -> dict[str, float | None]:
    if not values:
        return {"min": None, "mean": None, "max": None}
    arr = np.asarray(values, dtype=float)
    return {
        "min": float(arr.min()),
        "mean": float(arr.mean()),
        "max": float(arr.max()),
    }


def _aggregate(records: list[dict[str, Any]], **stats: Any) -> dict[str, Any]:
    errors = sum(1 for r in records if "error" in r)
    agg: dict[str, Any] = {"aggregate": True, "errors": errors}
    agg.update(stats)
    agg["note"] = ILLUSTRATIVE_NOTE
    return agg


# ---------------------------------------------------------------------------
# experiments


def exp_orbit_decay(cfg: ExperimentConfig) -> Section:
    """Orbit of e_0: norms along 200 iterates of a random contraction.

    Per sample the orbit norms must be non-increasing (a contraction cannot
    grow them); the headline statistic is the fraction of samples whose
    orbit has dropped below 0.01 by step 200.
    """

    def one(i: int, M: np.ndarray) -> dict[str, Any]:
        v = np.zeros(cfg.dim, dtype=complex)
        v[0] = 1.0
        orbit = np.empty((ORBIT_STEPS + 1, cfg.dim), dtype=complex)
        orbit[0] = v
        for n in range(ORBIT_STEPS):
            v = M @ v
            orbit[n + 1] = v
        norms = row_norms(orbit, cfg.space)
        monotone = bool(
            np.all(norms[1:] <= norms[:-1] * (1.0 + 1e-9) + 1e-15)
        )
        return check(
            "monotone",
            monotone,
            "exact",
            "==",
            True,
            final_norm=float(norms[-1]),
            half_norm=float(norms[ORBIT_STEPS // 2]),
        )

    records = _map_samples(cfg, one)
    finals = [r["final_norm"] for r in records if "final_norm" in r]
    frac = (
        float(np.mean([f < DECAY_THRESHOLD for f in finals])) if finals else None
    )
    records.append(
        _aggregate(
            records,
            fraction_decayed=frac,
            final_norm=_summary(finals),
        )
    )
    return make_section(cfg.experiment.value, records)


def exp_eigen_stats(cfg: ExperimentConfig) -> Section:
    """Eigenvalue moduli of random contractions on the window.

    The spectral radius of each sample must stay at most 1 (up to 1e-8);
    the distribution of moduli is reported as a ten-bin histogram.
    """
    bins = np.linspace(0.0, 1.0, 11)
    hist_total = np.zeros(10, dtype=int)

    def one(i: int, M: np.ndarray) -> dict[str, Any]:
        moduli = np.abs(np.linalg.eigvals(M))
        rad = float(moduli.max()) if moduli.size else 0.0
        counts, _ = np.histogram(np.clip(moduli, 0.0, 1.0), bins=bins)
        return check("spectral_radius", rad, "exact", "<=", 1.0, slack=1e-8, hist=counts)

    records = _map_samples(cfg, one)
    radii = [r["value"] for r in records if r.get("name") == "spectral_radius"]
    for r in records:
        if "hist" in r:
            hist_total += np.asarray(r["hist"], dtype=int)
            r["hist"] = [int(c) for c in r["hist"]]
    records.append(
        _aggregate(
            records,
            spectral_radius=_summary(radii),
            fraction_radius_below_0p99=(
                float(np.mean([r < 0.99 for r in radii])) if radii else None
            ),
            modulus_histogram=[int(c) for c in hist_total],
            histogram_bins=[float(b) for b in bins],
        )
    )
    return make_section(cfg.experiment.value, records)


def isometry_defect(M: np.ndarray) -> float:
    """min over columns j of |M[0, j]| * |M[1, j]|.

    Zero exactly when some column avoids one of the first two coordinate
    functionals; a forward shift has defect zero, a dense Gaussian sample
    has positive defect almost surely.
    """
    if M.shape[0] < 2 or M.shape[1] < 1:
        raise ValueError("isometry_defect needs at least 2 rows and 1 column")
    return float(np.min(np.abs(M[0, :]) * np.abs(M[1, :])))


def exp_isometry_defect(cfg: ExperimentConfig) -> Section:
    """Distribution of the two-row column defect over random contractions.

    Only meaningful on spaces whose isometries are not plentiful, so the
    Hilbert exponent p = 2 and the extreme-point-rich p = 1 are rejected.
    """
    if not cfg.space.is_c0 and cfg.space.p in (1.0, 2.0):
        raise ValueError(
            "isometry defect is not informative for p in {1, 2}; "
            "use another exponent or c0"
        )
    if cfg.dim < 2:
        raise ValueError("isometry defect needs dim >= 2")

    def one(i: int, M: np.ndarray) -> dict[str, Any]:
        d = isometry_defect(M)
        return {"defect": d, "positive": d > 0.0}

    records = _map_samples(cfg, one)
    defects = [r["defect"] for r in records if "defect" in r]
    records.append(
        _aggregate(
            records,
            defect=_summary(defects),
            fraction_positive=(
                float(np.mean([d > 0.0 for d in defects])) if defects else None
            ),
        )
    )
    return make_section(cfg.experiment.value, records)


# ---------------------------------------------------------------------------
# approximate point spectrum probe


def ap_grid_points() -> list[complex]:
    """The origin, then AP_GRID_ANGLES points on each positive grid radius."""
    radii = np.linspace(0.0, 1.0, AP_GRID_RADII)
    angles = np.linspace(0.0, 2.0 * np.pi, AP_GRID_ANGLES, endpoint=False)
    return [0j] + [complex(r * np.exp(1j * t)) for r in radii[1:] for t in angles]


# Relative slack of the head certificates in ap_gain_profile (see there).
_HEAD_MARGIN = 1e-9
_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0


@functools.lru_cache(maxsize=64)
def _shift_tail_gains(n_tail: int) -> np.ndarray:
    """sigma_min(J - r) of the n_tail-dimensional backward shift J at the
    AP_GRID_RADII grid radii; read-only, and computed once per n_tail."""
    shift = np.eye(n_tail, k=1)
    tail = np.array([
        np.linalg.svd(shift - r * np.eye(n_tail), compute_uv=False)[-1]
        for r in np.linspace(0.0, 1.0, AP_GRID_RADII)
    ])
    tail.flags.writeable = False
    return tail


def _head_gain_floor(A: np.ndarray, lams: np.ndarray, smax: float) -> np.ndarray:
    """At each lambda, a number that the computed sigma_min(A - lambda) is
    at least: the larger of the Weyl and eigenvector bounds, less the margin,
    and at least 0.  smax is the computed sigma_max(A); the derivation is in
    ``ap_gain_profile``."""
    n = A.shape[0]
    mu, V = np.linalg.eig(A)
    sv = np.linalg.svd(V, compute_uv=False)
    R = A @ V - V * mu
    gamma = 2 * n * _UNIT_ROUNDOFF / (1.0 - 2 * n * _UNIT_ROUNDOFF)
    res = np.linalg.norm(R) + np.sqrt(2.0) * gamma * (
        np.linalg.norm(A) + np.abs(mu).max()
    ) * np.linalg.norm(V)
    dist = np.abs(lams[:, None] - mu[None, :]).min(axis=1)
    eig = (sv[-1] * dist - res) / sv[0]
    weyl = np.abs(lams) - smax
    return np.maximum(0.0, np.maximum(weyl, eig) - _HEAD_MARGIN * (smax + 1.0))


def ap_gain_profile(A: np.ndarray, D: int = 80) -> dict[str, Any]:
    """Euclidean window gains sigma_min(M - lambda) over the disk grid.

    M is the D-dimensional window with A on the head (coordinates
    0..dim-1) and the backward shift J on the tail: e_j maps to e_{j-1} for
    j >= dim+1 and e_dim is killed, so the two blocks never interact.  M is
    block-diagonal, hence

        sigma_min(M - lambda) = min(sigma_min(A - lambda), sigma_min(J - lambda)).

    The tail term depends on |lambda| only: with U = diag(e^{ik theta}) and
    theta = -arg(lambda), U (J - lambda) U* = e^{-i theta} (J - |lambda|).
    So the tail takes one real SVD per grid radius.  These depend on
    D - dim alone and are computed once per tail size.

    The head takes one SVD for s = sigma_max(A), one eigendecomposition
    A V = V diag(mu) + R with one SVD of V, and a dim x dim SVD at each grid
    point where neither of two lower bounds rules out that the head sets
    the gain:

    - Weyl: sigma_min(A - lambda) >= |lambda| - ||A||_2.
    - Eigenvectors (Bauer-Fike type): R is the exact residual of the
      computed mu and V, so (A - lambda) V z = V (diag(mu) - lambda) z + R z.
      With x = V z for an invertible V, and d(lambda) = min_k |lambda - mu_k|,
      ||(A - lambda) x|| >= (sigma_min(V) d - ||R||_2) ||z|| and
      ||z|| >= ||x|| / ||V||_2, so
      sigma_min(A - lambda) >= (sigma_min(V) d(lambda) - ||R||_2) / ||V||_2.
      A defective or ill-conditioned A makes the right side negative, and
      then only the Weyl bound, or the SVD, is left.  ||R||_2 is bounded by
      the computed ||R||_F plus the rounding of forming it.  The real and
      the imaginary part of an entry of A V is a sum of 2 dim real
      products, and of V diag(mu) a sum of 2, so each is off by at most
      gamma_{2 dim} = 2 dim u / (1 - 2 dim u) (u = eps/2) times the sum of
      the products' moduli.  Hence R is off by at most
      sqrt(2) gamma_{2 dim} (||A||_F + max |mu|) ||V||_F in Frobenius norm,
      and the last subtraction's rounding is a relative error on ||R||_F.

    LAPACK's SVD of an n x n X is backward stable: each computed singular
    value is within p(n) eps ||X||_2 of the exact one, with p(n) a modest
    function of n.  LAPACK's eig is backward stable too, so each computed
    mu_k is an eigenvalue of a matrix within p(n) eps ||A||_2 of A, and
    d(lambda) <= 1 + s (1 + 2 p(n) eps) on the disk.  What the computed
    numbers can lose against the exact ones:

    - the skipped SVD of A - lambda: p(n) eps (s + 1), since
      ||A - lambda||_2 <= ||A||_2 + 1 on the disk;
    - the Weyl bound, through the SVD for s: p(n) eps s;
    - the eigenvector bound, through the computed sigma(V): 2 p(n) eps d;
      through the distance (one subtraction, one modulus), the norms of R,
      A and V (each with a relative error below (dim^2 + 3) u), R's last
      subtraction and the bound's own arithmetic: below 2 (dim^2 + 11) u d.

    In all, at most about 3 p(n) eps (s + 1) + 2 (dim^2 + 11) u (s + 1).  The
    margin 1e-9 (s + 1) is about 4.5e6 eps (s + 1), so it covers p(n) up to
    1.4e6, which is 21 n^2 at MAX_DIM = 256, far above the growth LAPACK's
    bounds allow; it is relative because A is not assumed to be a
    contraction.  Hence at every point where the tail's gain is at most
    max(0, max(Weyl, eigenvector bound) - margin) the computed head gain is
    at least the tail's (a computed singular value is never negative).
    There the gain is the tail's, bit for bit, and the head cannot bind, so
    its SVD is skipped and its gain recorded as +inf.  Where neither bound
    reaches the tail's gain, as near the eigenvalues of any A or anywhere
    for a defective A, the SVD is taken, so the bounds never change a
    result, only how many SVDs it costs.  A non-finite A is refused before
    any SVD.

    Gains measure how far each grid point is from being an approximate
    eigenvalue of the windowed operator.  Interior points (|lambda| <= 0.9)
    see geometric approximate eigenvectors of the shift tail and give tiny
    gains; on the unit circle the D-window cannot do better than roughly
    pi/(2D), so boundary gains are reported separately.

    ``argmax_lambda`` is the first grid point, in ``ap_grid_points`` order,
    whose gain equals ``max_gain``.  ``head_binding_points`` counts the grid
    points where the head's gain is strictly below the tail's.
    """
    dim = A.shape[0]
    if A.shape != (dim, dim):
        raise ValueError("A must be square")
    if D < dim + 2:
        raise ValueError(f"window D={D} too small for head dim={dim}")
    if not np.isfinite(A).all():
        raise ValueError("the head A must have finite entries")
    lams = ap_grid_points()
    grid = np.asarray(lams)
    moduli = np.abs(grid)
    # a grid point of modulus r lies on grid radius r (AP_GRID_RADII - 1)
    tail_at = _shift_tail_gains(D - dim)[np.rint(moduli * (AP_GRID_RADII - 1)).astype(int)]
    smax = np.linalg.svd(A, compute_uv=False)[0]
    floor = _head_gain_floor(A, grid, smax)
    eye = np.eye(dim, dtype=complex)
    head = np.full(len(lams), np.inf)
    for idx in np.flatnonzero(~(tail_at <= floor)):  # a NaN floor skips nothing
        head[idx] = np.linalg.svd(A - lams[idx] * eye, compute_uv=False)[-1]
    gains = np.minimum(head, tail_at)
    interior = moduli <= 0.9 + 1e-12
    boundary = moduli >= 1.0 - 1e-12
    kmax = int(np.argmax(gains))
    return {
        "max_gain": float(gains.max()),
        "argmax_lambda": complex(lams[kmax]),
        "min_gain": float(gains.min()),
        "interior_max_gain": float(gains[interior].max()),
        "boundary_max_gain": (
            float(gains[boundary].max()) if boundary.any() else None
        ),
        "head_binding_points": int(np.count_nonzero(head < tail_at)),
        "window": D,
    }


def exp_apspectrum_grid(cfg: ExperimentConfig) -> Section:
    """Grid gains for random-head + shift-tail windows.

    Every grid point in the open disk should be close to the approximate
    point spectrum regardless of the random head, because the shift tail
    supplies geometric near-eigenvectors on its own.  Each sample's gain is
    the smaller of the head's and the tail's (the window is block-diagonal),
    and the tail's depends on |lambda| alone; ``head_binding_points`` records
    at how many grid points the random head, not the tail, sets the gain.
    """
    D = max(80, cfg.dim + 40)

    def one(i: int, A: np.ndarray) -> dict[str, Any]:
        prof = ap_gain_profile(A, D=D)
        prof["argmax_lambda"] = [
            prof["argmax_lambda"].real,
            prof["argmax_lambda"].imag,
        ]
        return dict(prof)

    records = _map_samples(cfg, one)
    interior = [
        r["interior_max_gain"] for r in records if "interior_max_gain" in r
    ]
    overall = [r["max_gain"] for r in records if "max_gain" in r]
    records.append(
        _aggregate(
            records,
            interior_max_gain=_summary(interior),
            max_gain=_summary(overall),
            window=D,
        )
    )
    return make_section(cfg.experiment.value, records)


def exp_disjoint_support(cfg: ExperimentConfig) -> Section:
    """How often a random contraction has two columns with disjoint support.

    Dense Gaussian samples essentially never do; the statistic calibrates
    how special disjointly-supported constructions are among random ones.
    """

    def one(i: int, M: np.ndarray) -> dict[str, Any]:
        B = (np.abs(M) > SUPPORT_TOL).astype(int)
        overlap = B.T @ B
        off = ~np.eye(cfg.dim, dtype=bool)
        n_disjoint = int(np.count_nonzero((overlap == 0) & off)) // 2
        return {
            "n_disjoint_pairs": n_disjoint,
            "has_disjoint_pair": n_disjoint > 0,
        }

    records = _map_samples(cfg, one)
    flags = [
        r["has_disjoint_pair"] for r in records if "has_disjoint_pair" in r
    ]
    records.append(
        _aggregate(
            records,
            fraction_with_disjoint_pair=(
                float(np.mean(flags)) if flags else None
            ),
        )
    )
    return make_section(cfg.experiment.value, records)


# ---------------------------------------------------------------------------
# suite driver


_RUNNERS: dict[ExperimentKind, Callable[[ExperimentConfig], Section]] = {
    ExperimentKind.ORBIT_DECAY: exp_orbit_decay,
    ExperimentKind.EIGEN_STATS: exp_eigen_stats,
    ExperimentKind.ISOMETRY_DEFECT: exp_isometry_defect,
    ExperimentKind.AP_SPECTRUM_GRID: exp_apspectrum_grid,
    ExperimentKind.DISJOINT_SUPPORT: exp_disjoint_support,
}


def run_experiment(cfg: ExperimentConfig) -> Section:
    """Dispatch one configuration to its experiment."""
    return _RUNNERS[cfg.experiment](cfg)


def run_suite(
    configs: ExperimentConfig | Sequence[ExperimentConfig],
) -> Report:
    """Run each configuration and assemble a deterministic report.

    A configuration that raises (for example the p = 2 guard of the
    isometry-defect experiment) becomes a failed section; the remaining
    configurations still run.  An empty configuration list yields a report
    with no sections.
    """
    if isinstance(configs, ExperimentConfig):
        configs = [configs]
    configs = list(configs)
    sections: list[Section] = []
    seen: dict[str, int] = {}
    for cfg in configs:
        base = cfg.experiment.value
        seen[base] = seen.get(base, 0) + 1
        name = base if seen[base] == 1 else f"{base}#{seen[base]}"
        try:
            sec = run_experiment(cfg)
        except Exception as exc:
            sections.append(
                make_section(
                    name, [_error_record("experiment_error", exc, config=cfg.to_dict())]
                )
            )
            continue
        if sec.name != name:
            sec = replace(sec, name=name)
        sections.append(sec)
    seeds = {cfg.seed for cfg in configs}
    seed = seeds.pop() if len(seeds) == 1 else None
    return make_report(
        seed=seed,
        config=[cfg.to_dict() for cfg in configs],
        sections=sections,
    )
