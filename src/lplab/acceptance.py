"""Release acceptance battery: twelve in-process checks plus CLI determinism.

Each criterion function runs a fixed, seeded experiment and returns a report
Section whose records are ``reports.check`` records: the measured quantity,
its bound at the stated tolerance, and the evidence the number gives.
``run_battery`` stitches them into one Report; wall-clock budgets are
asserted by the test suite and printed by the CLI, never stored in the
report, so two runs with the same seed emit
byte-identical artifacts.  The thirteenth check — byte-identical reports from
two identical command-line invocations — exercises the battery from the
outside and lives in the test suite and CLI docs.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, Sequence

import numpy as np

from .commutant import (
    KrylovDegenerate,
    bezout_residual,
    build_commutant_witness,
    f_w_residuals,
    gram_schmidt_triangularize,
    krylov_rank,
    random_t1_contraction,
)
from .constructions import (
    EpsSeq,
    ExposednessUndetermined,
    SearchExhausted,
    build_B_eta_delta,
    build_coisometry_l1,
    build_T1_coisometry_l1,
    check_evenly_distributed,
    delta_for_B,
    dq_witness,
    kan_check,
    kernel_vector_greedy,
    shift_poly_gap,
    small_weight_operator,
)
from .game import (
    EigenfreeParams,
    play_game,
    verify_eigenfree_run,
    verify_nonsup_run,
)
from .operators import (
    NormCertificate,
    StructuredOperator,
    dual_sup_norm,
    materialize,
    op_norm,
    op_norm_batch,
    op_norm_oracle_batch,
    truncate,
)
from .reports import Report, Section, check, make_report, make_section, max_or_nan
from .spaces import PNorm, SpVector, dense_norm

__all__ = [
    "CRITERIA",
    "criterion_norm_engine",
    "criterion_kan_inequality",
    "criterion_doubled_operator",
    "criterion_localization",
    "criterion_circle_spectrum",
    "criterion_coisometry",
    "criterion_kernel_greedy",
    "criterion_flat_polynomials",
    "criterion_game_nonsup",
    "criterion_game_eigenfree",
    "criterion_commutant_witness",
    "criterion_triangularization",
    "run_battery",
]

DEFAULT_SEED = 7


def _crandn(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _l1_contraction(rng: np.random.Generator, n: int, margin: float = 0.0) -> np.ndarray:
    M = _crandn(rng, n, n)
    colsums = np.abs(M).sum(axis=0)
    return M / (colsums.max() * (1.0 + margin + 1e-9))


# ---------------------------------------------------------------------------
# 1. norm engine vs oracle


def criterion_norm_engine(seed: int = DEFAULT_SEED) -> Section:
    """Structural norm routes agree with the brute-force oracle at dim <= 3."""
    rng = np.random.default_rng(seed)
    spaces = [
        PNorm.lp(1.0),
        PNorm.lp(1.5),
        PNorm.lp(2.0),
        PNorm.lp(3.0),
        PNorm.lp(4.0),
        PNorm.c0(),
    ]
    records = []
    for pn in spaces:
        exact = pn.is_c0 or pn.p == 1.0
        tol = 1e-12 if exact else 1e-4
        Ms = []
        for _ in range(200):
            d = int(rng.integers(1, 4))
            Ms.append(_crandn(rng, d, d))
        # one op_norm batch and one oracle batch per shape, back in draw order
        engine: dict[int, NormCertificate | Exception] = {}
        oracle: dict[int, float] = {}
        for d in sorted({M.shape[0] for M in Ms}):
            idx = [i for i, M in enumerate(Ms) if M.shape[0] == d]
            stack = np.array([Ms[i] for i in idx])
            engine.update(zip(idx, op_norm_batch(stack, pn)))
            oracle.update(zip(idx, (c.value for c in op_norm_oracle_batch(stack, pn))))
        worst = 0.0
        for i in range(len(Ms)):
            cert = engine[i]
            if isinstance(cert, Exception):
                raise cert
            worst = max_or_nan(worst, abs(cert.value - oracle[i]))
        # elsewhere the oracle, and off p = 2 op_norm, is an ascent's lower bound
        evidence = "exact" if exact else "consistency"
        records.append(check(f"agreement[{pn.label()}]", worst, evidence, "<=", tol, samples=200))
    return make_section("norm_engine", records)


# ---------------------------------------------------------------------------
# 2. two-point power inequality


def criterion_kan_inequality(seed: int = DEFAULT_SEED) -> Section:
    """Strict branch above p = 2 and the reversed branch below, zero violations."""
    rng = np.random.default_rng(seed)
    records = []
    for branch, ps in (
        ("strict_above_two", (2.5, 3.0, 4.0, 8.0)),
        ("reversed_below_two", (0.5, 1.2, 1.8)),
    ):
        for p in ps:
            violations = 0
            for _ in range(1000):
                u = complex(rng.standard_normal(), rng.standard_normal())
                v = complex(rng.standard_normal(), rng.standard_normal())
                if not kan_check(u, v, p):
                    violations += 1
            records.append(check(f"{branch}[p={p}]", violations, "exact", "==", 0, samples=1000))
    return make_section("kan_inequality", records)


# ---------------------------------------------------------------------------
# 3. the doubled operator with unit norm


def _doubled_draws(seed: int) -> list[tuple[float, np.ndarray]]:
    """Criterion 3's 50 configurations (p, A), in draw order: A is an
    (N+1) x (N+1) head with N in 1..3, scaled well inside the unit ball."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(50):
        N = int(rng.integers(1, 4))
        p = float(rng.choice([1.5, 2.0, 3.0]))
        A = _crandn(rng, N + 1, N + 1)
        draws.append((p, A / (np.abs(A).sum() + 1.0)))
    return draws


def criterion_doubled_operator(seed: int = DEFAULT_SEED) -> Section:
    """50 random doubled-operator configurations: unit norm, unit gain on u0,
    evenly distributed image.

    ``check_evenly_distributed`` decides each B from its head A: exactly at
    p = 2 (the SVD gap of A), and by agreeing polished restarts elsewhere,
    which is a necessary condition only; hence the two records.
    """
    draws = _doubled_draws(seed)
    worst_norm = 0.0
    worst_gain = 0.0
    configs = {"p=2": 0, "p!=2": 0}
    failures = {"p=2": 0, "p!=2": 0}
    polish_steps = 0
    for p, A in draws:
        key = "p=2" if p == 2.0 else "p!=2"
        rec = build_B_eta_delta(A, A.shape[0] - 1, eta=0.5, p=p)
        pn = PNorm.lp(p)
        worst_norm = max_or_nan(worst_norm, abs(op_norm(rec.op, pn).value - 1.0))
        worst_gain = max_or_nan(worst_gain, abs(rec.gain_u0 - 1.0))
        try:
            passed, _, steps = check_evenly_distributed(rec)
            polish_steps = max(polish_steps, steps)
        except ExposednessUndetermined:
            passed = False
        configs[key] += 1
        failures[key] += not passed
    records = [
        # off p = 2 op_norm is an ascent's lower bound, so its distance from 1
        # is no certificate
        check("op_norm_unit", worst_norm, "consistency", "<=", 1e-6, configs=len(draws)),
        check("u0_gain_unit", worst_gain, "exact", "<=", 1e-9),
        check(
            "evenly_distributed[p=2]", failures["p=2"], "exact", "==", 0, configs=configs["p=2"]
        ),
        check(
            "evenly_distributed[p!=2]",
            failures["p!=2"],
            "consistency",
            "==",
            0,
            configs=configs["p!=2"],
            max_polish_steps=polish_steps,
        ),
    ]
    return make_section("doubled_operator", records)


# ---------------------------------------------------------------------------
# 4. localization of perturbed contractions


_LOC_M = 8  # head window of the localization lemma
_LOC_W = 4 * _LOC_M  # truncation window of B and of each perturbation
_LOC_EPS = 0.25
_LOC_SAMPLES = 50


def _riesz_thorin(C: np.ndarray, p: float) -> np.ndarray:
    """Riesz-Thorin upper bound ||C||_1^(1/p) ||C||_inf^(1/q) on the lp norm
    of a matrix, or of each matrix of a stack (last two axes), exact up to
    the rounding of the column and row sums and the two powers."""
    q = p / (p - 1.0)
    col = np.abs(C).sum(axis=-2).max(axis=-1)
    row = np.abs(C).sum(axis=-1).max(axis=-1)
    return col ** (1.0 / p) * row ** (1.0 / q)


def _localization_draws(seed: int, p: float) -> tuple[float, np.ndarray]:
    """Criterion 4's experiment at one p: the tuned radius delta and the
    coupling blocks T[:M, M:] of the 50 sampled contractions T in the
    delta/3-ball around the truncated doubled operator B, in draw order."""
    rng = np.random.default_rng(seed + int(p))
    A = _crandn(rng, 3, 3)
    A = A / (np.abs(A).sum() + 1.0)
    rec = build_B_eta_delta(A, 2, eta=0.5, p=p)
    _, gamma, _ = check_evenly_distributed(rec)
    delta = delta_for_B(gamma, _LOC_EPS, _LOC_M, p)
    Bd = truncate(rec.op, _LOC_W)
    blocks = np.empty((_LOC_SAMPLES, _LOC_M, _LOC_W - _LOC_M), dtype=complex)
    for i in range(_LOC_SAMPLES):
        R = _crandn(rng, _LOC_W, _LOC_W)
        # ||R||_p <= schur, so ||T - B|| <= 2 delta/3 on the window
        schur = _riesz_thorin(R, p)
        T = (Bd + R * (delta / 3.0 / schur)) / (1.0 + delta / 3.0)
        blocks[i] = T[:_LOC_M, _LOC_M:]
    return delta, blocks


def criterion_localization(seed: int = DEFAULT_SEED) -> Section:
    """Contractions within the tuned delta-ball keep the head-tail coupling
    below eps on the 4M window.

    ``max_coupling_upper`` is the largest Riesz-Thorin bound
    ||C||_1^(1/p) ||C||_inf^(1/q) over the coupling blocks C: an upper bound
    on each block's lp norm, exact up to the rounding of two sums and two
    powers, so its check certifies every coupling below eps without an
    ascent.
    The check cannot fail for a delta that ``delta_for_B`` returns: B lives
    on 6 coordinates, so each block is a scaled corner of R and its bound is
    at most delta/(3 + delta) <= 1/7 at delta_for_B's cap delta = 1/2 (it
    reads about 0.09 there).  Only a delta far outside the ball fails it.
    The reported delta rests on gamma from the ascent's unpolished witness
    u0, so it carries about 7 significant digits; delta > 0 does not need more.
    """
    records = []
    for p in (3.0, 4.0):
        delta, blocks = _localization_draws(seed, p)
        worst = float(np.max(_riesz_thorin(blocks, p)))
        records.append(check(f"delta_positive[p={p}]", delta, "exact", ">", 0.0))
        records.append(
            check(
                f"coupling[p={p}]",
                worst,
                "upper",
                "<",
                _LOC_EPS,
                samples=_LOC_SAMPLES,
                delta=delta,
                window=_LOC_W,
            )
        )
    return make_section("localization", records)


# ---------------------------------------------------------------------------
# 5. two-sided translate with unit-circle weights


def criterion_circle_spectrum(seed: int = DEFAULT_SEED) -> Section:
    """No point spectrum in the closed unit disk; truncation norms obey the
    small-inside-weights bound.

    The point spectrum is decided in closed form.  An eigenvector's left
    tail is continued by y_j = omega_j y_(j+2N+1) / lambda, whose terms grow
    by left/|lambda| per step, and lambda = 0 forces the block part to
    vanish; so for |lambda| <= left no eigenvector lies in lp (a ratio
    test).  With left >= 1 that covers the closed unit disk.

    ||S|| comes from ``op_norm`` on S's exact split model.  The weight table
    reaches 3N + 1 to the left, so neither unit shift tail meets S's block,
    and the block is the model's rectangle.
    """
    rng = np.random.default_rng(seed)
    p, eps = 2.5, 0.3
    S, omega, _, bound = small_weight_operator(_crandn(rng, 3, 3), p, eps)
    val, rect = op_norm(S, PNorm.lp(p)).value, list(S.block.shape)
    records = [
        check(
            "no_point_spectrum_in_unit_disk",
            omega.left,
            "exact",
            ">=",
            1.0,
            reason="ratio test: the left series diverges where |lambda| <= left weight",
        ),
        # val is a fixed-point ascent's value, a lower bound on the norm
        check("truncation_norm_bound", val, "consistency", "<=", bound, slack=1e-8, rectangle=rect),
    ]
    return make_section("circle_spectrum", records)


# ---------------------------------------------------------------------------
# 6. co-isometries on the summable space


def criterion_coisometry(seed: int = DEFAULT_SEED) -> Section:
    """Exact unit norm and exact dual sup preservation, plain and T1 variants."""
    rng = np.random.default_rng(seed)
    N = 3
    records = []
    for variant, builder, margin in (
        ("plain", lambda A: build_coisometry_l1(A, N), 0.0),
        (
            "t1",
            lambda A: build_T1_coisometry_l1(A, N, EpsSeq(first=0.1, ratio=0.5)),
            0.3,
        ),
    ):
        worst_norm = 0.0
        worst_dual = 0.0
        for _ in range(20):
            A = _l1_contraction(rng, N + 1, margin=margin)
            T = builder(A)
            worst_norm = max_or_nan(
                worst_norm, abs(op_norm(T, PNorm.lp(1.0)).value - 1.0)
            )
            for _ in range(5):
                support = rng.integers(0, 12, size=4)
                xstar = SpVector.make(
                    {
                        int(j): complex(rng.standard_normal(), rng.standard_normal())
                        for j in support
                    }
                )
                sup = max(abs(v) for _, v in xstar.entries)
                worst_dual = max_or_nan(worst_dual, abs(dual_sup_norm(T, xstar) - sup))
        records.append(
            check(f"{variant}_norm_exact", worst_norm, "exact", "<=", 1e-12, operators=20)
        )
        records.append(
            check(f"{variant}_dual_preservation", worst_dual, "exact", "<=", 1e-12, duals=100)
        )
    return make_section("coisometry", records)


# ---------------------------------------------------------------------------
# 7. kernel vector greedy search


def _alpha_seq(n: int) -> tuple[float, ...]:
    return (1.0, 1.0) + tuple(2.0 ** (1 - j) for j in range(2, n))


def criterion_kernel_greedy(seed: int = DEFAULT_SEED) -> Section:
    """Greedy kernel search runs through step 20 on every witness operator.

    Base operators have every column mass pinned to 0.9: singleton tuples
    all trigger, killer columns are never admissible after the first kill,
    and the first-fit scan cannot poison its own image by grabbing a
    low-mass column early.
    """
    q = 2
    alpha = _alpha_seq(23)
    Ns = tuple(range(0, 3 * (q + 40), 3))
    records = []
    for s in range(10):
        rng = np.random.default_rng(seed * 1000 + s)
        M = _crandn(rng, 8, 8)
        M = 0.9 * M / np.abs(M).sum(axis=0)
        T0 = StructuredOperator.from_dense(M)
        T = dq_witness(T0, q, alpha, Ns)
        try:
            x, trace = kernel_vector_greedy(T, alpha, Ns, max_l=20)
            image = materialize(T, 0, T.nrows, 0, len(x)) @ x
            steps, residual = len(trace), float(dense_norm(image, PNorm.lp(1.0)))
        except SearchExhausted:
            steps, residual = 0, math.inf
        records.append(check(f"greedy_steps[seed={s}]", steps, "exact", "==", 20))
        records.append(check(f"greedy_residual[seed={s}]", residual, "exact", "<", alpha[21]))
    return make_section("kernel_greedy", records)


# ---------------------------------------------------------------------------
# 8. flat polynomials of the shift


def criterion_flat_polynomials(seed: int = DEFAULT_SEED) -> Section:
    """Orbit-to-sup gap of the flat sign polynomials, k = 3..10 at p = 1.

    The floor is certified exactly: a ``golay_defect`` of 0 means (P_k, Q_k)
    is a Golay pair in integer arithmetic, so sup |P_k| <= sqrt(2(d+1)) and
    the ratio (d+1)/sup |P_k| is at least the floor.  ``ratio_sample``
    divides by the largest of 4,096 FFT samples, so it is an upper bound on
    the ratio and its check against the floor is a consistency check only.
    """
    records = []
    for k in range(3, 11):
        rec = shift_poly_gap(k, 1.0)
        d = rec.d
        records.append(check(f"golay_defect[k={k}]", rec.golay_defect, "exact", "==", 0, degree=d))
        records.append(
            check(
                f"orbit_norm[k={k}]",
                rec.orbit_norm,
                "exact",
                "==",
                d + 1.0,
                slack=1e-12 * (d + 1.0),
            )
        )
        records.append(
            check(f"ratio_sample[k={k}]", rec.ratio_sample, "consistency", ">=", rec.ratio_floor)
        )
    return make_section("flat_polynomials", records)


# ---------------------------------------------------------------------------
# 9. game run without sup-attaining orbits


def _game_subsections(rep: dict) -> list[dict]:
    """One record per verification section: the count of its failed checks."""
    return [
        check(
            sec["name"],
            sum(1 for r in sec["records"] if r.get("ok") is False),
            "exact",
            "==",
            0,
            status=sec["status"],
        )
        for sec in rep["sections"]
    ]


def criterion_game_nonsup(seed: int = DEFAULT_SEED) -> Section:
    """Three honest rounds against the random adversary verify end to end,
    including the exact 1/9 floor up to the final checkpoint."""
    run = play_game("nonsup", rounds=3, seed=seed, adversary="random")
    rep = verify_nonsup_run(run)
    records = _game_subsections(rep)
    records.append(check("overall", rep["ok"], "exact", "==", True, n_max=run.side[-1].L))
    return make_section("game_nonsup", records)


# ---------------------------------------------------------------------------
# 10. game run with no large point spectrum


def criterion_game_eigenfree(seed: int = DEFAULT_SEED) -> Section:
    """Two honest rounds verify with certified parameters and no screen
    violations; the toy pipeline also runs four rounds, non-certified."""
    run = play_game(
        "eigenfree",
        rounds=2,
        seed=seed,
        params=EigenfreeParams(),
        adversary="passthrough",
    )
    rep = verify_eigenfree_run(run)
    records = _game_subsections(rep)
    screen = next(s for s in rep["sections"] if s["name"] == "eigen_screen")
    pairs = next(r for r in screen["records"] if r["name"] == "truncation_eigenpairs")
    counts = pairs["counts"]
    records.append(
        check(
            "screen_rejections",
            counts.get("violation", 0),
            "exact",
            "==",
            0,
            counts=counts,
            window=pairs["window"],
        )
    )
    records.append(check("certified", rep["certified"], "exact", "==", True))

    toy_run = play_game(
        "eigenfree",
        rounds=4,
        seed=seed,
        params=EigenfreeParams(toy=True),
        adversary="passthrough",
    )
    toy_rep = verify_eigenfree_run(toy_run)
    toy = {"rounds": 4, "label": "NON-CERTIFIED"}
    records.append(check("toy_pipeline_verified", toy_rep["ok"], "exact", "==", True, **toy))
    certified = toy_rep["certified"]
    records.append(check("toy_pipeline_not_certified", certified, "exact", "==", False, **toy))
    return make_section("game_eigenfree", records)


# ---------------------------------------------------------------------------
# 11. commutant witness field


def criterion_commutant_witness(seed: int = DEFAULT_SEED) -> Section:
    """Bezout residual, full Krylov rank, and the transpose-eigen residual of
    f_w and its unit pairing with x0 from one array pass per witness over 25
    points of the disk, across 20 seeds and N in {1, 2, 3}."""
    grid = [0.0 + 0.0j] + [
        complex(r * np.exp(2j * np.pi * j / 8))
        for r in (0.3, 0.6, 0.9)
        for j in range(8)
    ]
    worst_bezout = worst_eigen = worst_pair = 0.0
    rank_failures = 0
    for s in range(20):
        for N in (1, 2, 3):
            rng = np.random.default_rng(seed + 100 * s + N)
            wit = build_commutant_witness(random_t1_contraction(N + 2, rng), N, seed=s)
            worst_bezout = max_or_nan(worst_bezout, bezout_residual(wit))
            D = 3 * (N + 2)
            if krylov_rank(truncate(wit.op, D), np.pad(wit.x0, (0, D - len(wit.x0)))) != D:
                rank_failures += 1
            eigen, pair = f_w_residuals(wit, grid)
            worst_eigen = max_or_nan(worst_eigen, *eigen.tolist())
            worst_pair = max_or_nan(worst_pair, *pair.tolist())
    records = [
        check("bezout_residual", worst_bezout, "exact", "<", 1e-8, witnesses=60),
        check("eigen_residual_f_w", worst_eigen, "exact", "<", 1e-8, grid_points=len(grid)),
        check("pairing_unit", worst_pair, "exact", "<", 1e-8),
        check("krylov_rank_full", rank_failures, "exact", "==", 0),
    ]
    return make_section("commutant_witness", records)


# ---------------------------------------------------------------------------
# 12. triangularization


def criterion_triangularization(seed: int = DEFAULT_SEED) -> Section:
    """Triangular inputs are reproduced entrywise; generic contractions come
    out in Hessenberg form with positive subdiagonal.  A sample for which e_0
    is not cyclic (``KrylovDegenerate``) counts as a Hessenberg failure."""
    rng = np.random.default_rng(seed)
    t1_dev = 0.0
    for _ in range(20):
        T = random_t1_contraction(9, rng)
        e0 = np.zeros(9)
        e0[0] = 1.0
        U, R = gram_schmidt_triangularize(T, e0)
        t1_dev = max_or_nan(
            t1_dev,
            float(np.max(np.abs(R - T))),
            float(np.max(np.abs(U - np.eye(9)))),
        )

    D = 20
    hess_failures = 0
    unitary_devs = []
    for _ in range(20):
        M = _crandn(rng, D, D)
        M *= 0.9 / np.linalg.svd(M, compute_uv=False)[0]
        e0 = np.zeros(D)
        e0[0] = 1.0
        try:
            U, R = gram_schmidt_triangularize(M, e0)
        except KrylovDegenerate:  # e0 not cyclic: no Hessenberg form from it
            hess_failures += 1
            continue
        unitary_devs.append(float(np.max(np.abs(U @ U.conj().T - np.eye(D)))))
        below = [R[i, j] for j in range(D) for i in range(j + 2, D)]
        subdiag = [R[j + 1, j] for j in range(D - 1)]
        if any(v != 0 for v in below) or any(
            v.real <= 0 or v.imag != 0 for v in subdiag
        ):
            hess_failures += 1
    records = [
        check("t1_reproduced", t1_dev, "exact", "<=", 1e-12, operators=20),
        check(
            "hessenberg_positive_subdiagonal",
            hess_failures,
            "exact",
            "==",
            0,
            operators=20,
            dim=D,
        ),
    ]
    # NaN, a failure, when no sample yields a factor to measure
    unitary_dev = max_or_nan(0.0, *unitary_devs) if unitary_devs else math.nan
    records.append(check("unitary_factor", unitary_dev, "exact", "<=", 1e-10))
    return make_section("triangularization", records)


# ---------------------------------------------------------------------------
# battery driver


CRITERIA: tuple[tuple[int, str, Callable[[int], Section]], ...] = (
    (1, "norm_engine", criterion_norm_engine),
    (2, "kan_inequality", criterion_kan_inequality),
    (3, "doubled_operator", criterion_doubled_operator),
    (4, "localization", criterion_localization),
    (5, "circle_spectrum", criterion_circle_spectrum),
    (6, "coisometry", criterion_coisometry),
    (7, "kernel_greedy", criterion_kernel_greedy),
    (8, "flat_polynomials", criterion_flat_polynomials),
    (9, "game_nonsup", criterion_game_nonsup),
    (10, "game_eigenfree", criterion_game_eigenfree),
    (11, "commutant_witness", criterion_commutant_witness),
    (12, "triangularization", criterion_triangularization),
)


def run_battery(
    seed: int = DEFAULT_SEED,
    numbers: Sequence[int] | None = None,
    progress: Callable[[str], None] | None = None,
) -> Report:
    """Run the selected criteria (all twelve by default) into one Report.

    A number outside ``CRITERIA`` raises ValueError before any criterion runs.

    ``progress`` receives one human-readable line per criterion; timings are
    reported there and deliberately kept out of the Report so that repeated
    runs are byte-identical.
    """
    import time

    chosen = set(numbers) if numbers is not None else None
    if chosen is not None:
        unknown = chosen - {num for num, _, _ in CRITERIA}
        if unknown:
            raise ValueError(f"unknown criteria {sorted(unknown)}")
    sections = []
    for num, slug, fn in CRITERIA:
        if chosen is not None and num not in chosen:
            continue
        t0 = time.monotonic()
        sec = fn(seed)
        elapsed = time.monotonic() - t0
        sec = replace(sec, name=f"{num:02d}-{slug}")
        sections.append(sec)
        if progress is not None:
            progress(
                f"criterion {num:02d} {slug}: "
                f"{sec.status.upper()} ({elapsed:.1f}s)"
            )
    config = {
        "seed": seed,
        "criteria": sorted(chosen) if chosen is not None else [n for n, _, _ in CRITERIA],
    }
    return make_report(seed=seed, config=config, sections=sections)
