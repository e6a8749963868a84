"""Command-line front end: construct, norm, spectrum, game, mc, verify-all.

Exit codes: 0 when every check in the run passed, 1 when some check failed,
2 on usage or configuration errors.  Human-readable summaries go to standard
output; the machine-readable report is written to ``--out`` as canonical
JSON.  ``--csv`` adds a tabular dump for grid scans only.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from typing import Any, Sequence

import numpy as np

from .acceptance import run_battery
from .commutant import (
    bezout_residual,
    build_commutant_witness,
    eval_f_w,
    random_t1_contraction,
    witness_pairing_residual,
)
from .constructions import (
    EpsSeq,
    build_B_eta_delta,
    build_coisometry_l1,
    build_T1_coisometry_l1,
    small_weight_operator,
)
from .game import (
    EigenfreeParams,
    GameCapExceeded,
    game_run_to_dict,
    play_game,
    verify_eigenfree_run,
    verify_nonsup_run,
)
from .montecarlo import ExperimentConfig, run_suite, space_from_token
from .operators import NormCertificate, StructuredOperator, op_norm, truncate
from .reports import (
    EXIT_OK,
    EXIT_USAGE,
    Report,
    check,
    exit_code,
    make_report,
    make_section,
)
from .spaces import PNorm
from .spectral import eigs_dense

__all__ = ["cli_main"]

_CONSTRUCT_KINDS = (
    "b-eta-delta",
    "coisometry-l1",
    "t1-coisometry",
    "s-a-omega",
    "commutant-witness",
)


class _ConfigError(Exception):
    """Bad input data (not a usage error in the flag grammar)."""


def _check_seed(seed: int) -> int:
    if not 0 <= seed < 2**64:
        raise _ConfigError("--seed must be an unsigned 64-bit integer")
    return seed


def _parse_matrix(data: Any) -> np.ndarray:
    """Accept nested lists of numbers or [re, im] pairs."""
    if isinstance(data, dict) and "rows" in data:
        data = data["rows"]
    if not isinstance(data, list) or not data:
        raise _ConfigError("matrix JSON must be a non-empty list of rows")

    def scalar(v: Any) -> complex:
        if isinstance(v, (int, float)):
            return complex(v)
        if isinstance(v, list) and len(v) == 2:
            return complex(float(v[0]), float(v[1]))
        raise _ConfigError("matrix entries must be numbers or [re, im] pairs")

    rows = [[scalar(v) for v in row] for row in data]
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise _ConfigError("matrix rows must all have the same length")
    M = np.array(rows, dtype=complex)
    if not np.all(np.isfinite(M)):
        raise _ConfigError("matrix entries must be finite")
    return M


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _ConfigError(f"{path} is not valid JSON: {exc}") from exc


def _space(token: str) -> PNorm:
    try:
        return space_from_token(token)
    except ValueError as exc:
        raise _ConfigError(f"bad space {token!r}: use c0 or a p >= 1") from exc


def _emit(report: Report, out: str | None) -> int:
    for sec in report.sections:
        print(f"[{sec.status.upper():4}] {sec.name}")
    code = exit_code(report)
    print(f"result: {'all checks passed' if code == EXIT_OK else 'check failure'}")
    if out:
        report.write(out)
        print(f"report written to {out}")
    return code


def _norm_evidence(cert: NormCertificate) -> str:
    """An exact route's value is the norm; an ascent's is a lower bound, so a
    two-sided or upper test of it is only a consistency check."""
    return "exact" if cert.method == "exact" else "consistency"


def _window_record(T: StructuredOperator, size: int) -> dict[str, Any]:
    W = truncate(T, size)
    return {"window": [[c for c in row] for row in W.tolist()], "size": size}


def _construct_p(kind: str, token: str | None) -> float:
    """The exponent ``construct --kind`` computes on, from ``--p`` or the
    kind's default; a space the kind cannot serve is a configuration error."""
    fixed = {"coisometry-l1": 1.0, "t1-coisometry": 1.0, "commutant-witness": 2.0}.get(kind)
    if token is None:
        return fixed or {"b-eta-delta": 3.0, "s-a-omega": 2.5}[kind]
    pn = _space(token)
    if fixed is not None and pn != PNorm.lp(fixed):
        raise _ConfigError(f"--kind {kind} runs on l{fixed:g} only, not on {pn.label()}")
    if pn.is_c0:
        raise _ConfigError(f"--kind {kind} has no c0 model: give --p as a number >= 1")
    return pn.p


# ---------------------------------------------------------------------------
# subcommands


def _cmd_construct(args: argparse.Namespace) -> int:
    seed = _check_seed(args.seed)
    rng = np.random.default_rng(seed)
    N = args.dim
    if N < 0:
        raise _ConfigError(f"--dim must be >= 0, not {N}")
    p = args.p
    pval = _construct_p(args.kind, p)
    records: list[dict[str, Any]] = []
    if args.kind == "b-eta-delta":
        A = rng.standard_normal((N + 1, N + 1)) + 1j * rng.standard_normal((N + 1, N + 1))
        A = A / (np.abs(A).sum() + 1.0)
        rec = build_B_eta_delta(A, N, eta=0.5, p=pval)
        cert = op_norm(rec.op, PNorm.lp(pval))
        records.append(
            check(
                "unit_norm",
                cert.value,
                _norm_evidence(cert),
                "==",
                1.0,
                slack=1e-6,
                closed_form=rec.closed_form_norm,
                delta=rec.delta,
                eta=rec.eta,
            )
        )
        records.append(_window_record(rec.op, 2 * (N + 1)))
    elif args.kind in ("coisometry-l1", "t1-coisometry"):
        A = rng.standard_normal((N + 1, N + 1)) + 1j * rng.standard_normal((N + 1, N + 1))
        A = A / (np.abs(A).sum(axis=0).max() * 1.5)
        if args.kind == "coisometry-l1":
            T = build_coisometry_l1(A, N)
        else:
            T = build_T1_coisometry_l1(A, N, EpsSeq(first=0.1, ratio=0.5))
        cert = op_norm(T, PNorm.lp(1.0))
        records.append(
            check("unit_norm", cert.value, _norm_evidence(cert), "==", 1.0, slack=1e-12)
        )
        records.append(_window_record(T, 3 * (N + 1)))
    elif args.kind == "s-a-omega":
        side = 2 * N + 1
        A = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
        S, _, na, bound = small_weight_operator(A, pval, 0.3)
        cert = op_norm(S, PNorm.lp(pval))
        records.append(
            check(
                "norm_bound",
                cert.value,
                _norm_evidence(cert),
                "<=",
                bound,
                slack=1e-8,
                head_norm=na,
            )
        )
    else:  # commutant-witness
        wit = build_commutant_witness(random_t1_contraction(N + 2, rng), N, seed=seed)
        records.append(
            check(
                "bezout_residual",
                float(bezout_residual([wit])[0]),
                "exact",
                "<",
                1e-8,
                lambdas=list(wit.lambdas),
            )
        )
        pair = witness_pairing_residual(wit, eval_f_w(wit, 0.3))
        records.append(check("pairing_at_0.3", pair, "exact", "<", 1e-8))
    report = make_report(
        seed=seed,
        config={"cmd": "construct", "kind": args.kind, "dim": N, "p": p, "seed": seed},
        sections=[make_section(args.kind, records)],
    )
    return _emit(report, args.out)


def _cmd_norm(args: argparse.Namespace) -> int:
    M = _parse_matrix(_load_json(args.matrix))
    pn = _space(args.p)
    cert = op_norm(StructuredOperator.from_dense(M), pn)
    print(
        f"operator norm on {pn.label()}: {cert.value!r} "
        f"(method {cert.method}, residual {cert.residual:.2e})"
    )
    records = [
        check(
            "norm_certificate",
            cert.value,
            _norm_evidence(cert),
            "<",
            math.inf,
            space=pn.label(),
            method=cert.method,
            residual=cert.residual,
            shape=list(M.shape),
        ),
        check("norm_residual", cert.residual, "exact", "<", math.inf),
    ]
    report = make_report(
        seed=None,
        config={"cmd": "norm", "matrix": args.matrix, "p": args.p},
        sections=[make_section("norm", records)],
    )
    return _emit(report, args.out)


def _cmd_spectrum(args: argparse.Namespace) -> int:
    M = _parse_matrix(_load_json(args.matrix))
    pairs = eigs_dense(M)
    records: list[dict[str, Any]] = [
        check("eigenpair_residual", ep.residual, "exact", "<", 1e-8, eigenvalue=ep.value)
        for ep in pairs
    ]
    radius = max((abs(ep.value) for ep in pairs), default=0.0)
    records.append({"name": "spectral_radius", "value": radius})
    print(f"{len(pairs)} eigenvalues, spectral radius {radius:.6f}")
    report = make_report(
        seed=None,
        config={"cmd": "spectrum", "matrix": args.matrix},
        sections=[make_section("spectrum", records)],
    )
    return _emit(report, args.out)


def _game_params(args: argparse.Namespace) -> EigenfreeParams:
    if args.params:
        data = _load_json(args.params)
        if not isinstance(data, dict):
            raise _ConfigError("--params must hold a JSON object")
        if args.toy:
            data.setdefault("toy", True)
        try:
            return EigenfreeParams(**data)
        except TypeError as exc:
            raise _ConfigError(f"bad game parameters: {exc}") from exc
    return EigenfreeParams(toy=args.toy)


def _cmd_game(args: argparse.Namespace) -> int:
    seed = _check_seed(args.seed)
    params = _game_params(args) if args.strategy == "eigenfree" else None
    try:
        run = play_game(
            args.strategy,
            rounds=args.rounds,
            seed=seed,
            params=params,
            adversary=args.adversary,
        )
        if args.strategy == "eigenfree":
            rep = verify_eigenfree_run(run)
        else:
            rep = verify_nonsup_run(run)
    except GameCapExceeded as exc:
        raise _ConfigError(
            f"game exceeds the honest dimension cap ({exc}); use --toy"
        ) from exc
    sections = [make_section("transcript", [{"game": game_run_to_dict(run)}])] + [
        make_section(sec["name"], sec["records"]) for sec in rep["sections"]
    ]
    certified = bool(rep.get("certified", False))
    print(
        f"{args.strategy} game, {args.rounds} round(s) vs {args.adversary}: "
        f"{'CERTIFIED' if certified else 'NON-CERTIFIED'}"
    )
    config = {
        "cmd": "game",
        "strategy": args.strategy,
        "rounds": args.rounds,
        "seed": seed,
        "adversary": args.adversary,
        "toy": args.toy,
    }
    report = make_report(seed=seed, config=config, sections=sections)
    return _emit(report, args.out)


def _mc_configs(data: Any) -> list[ExperimentConfig]:
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise _ConfigError("mc config must be an object or a list of objects")
    try:
        return [ExperimentConfig.from_dict(d) for d in data]
    except (KeyError, ValueError, TypeError) as exc:
        raise _ConfigError(f"bad experiment config: {exc}") from exc


def _write_grid_csv(report: Report, path: str) -> int:
    """Tabulate grid-scan records (the only CSV output the tool emits)."""
    fields = [
        "section",
        "sample",
        "max_gain",
        "interior_max_gain",
        "boundary_max_gain",
        "min_gain",
    ]
    rows = []
    for sec in report.sections:
        for rec in sec.records:
            if "max_gain" in rec and "sample" in rec:
                rows.append([sec.name] + [rec.get(f) for f in fields[1:]])
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        writer.writerows(rows)
    return len(rows)


def _cmd_mc(args: argparse.Namespace) -> int:
    configs = _mc_configs(_load_json(args.config))
    report = run_suite(configs)
    if args.csv:
        n = _write_grid_csv(report, args.csv)
        print(f"{n} grid rows written to {args.csv}")
    return _emit(report, args.out)


def _cmd_verify_all(args: argparse.Namespace) -> int:
    seed = _check_seed(args.seed)
    numbers = None
    if args.only is not None:
        try:
            numbers = sorted({int(tok) for tok in args.only.split(",")})
        except ValueError as exc:
            raise _ConfigError("--only takes a comma-separated list of integers") from exc
    report = run_battery(seed=seed, numbers=numbers, progress=print)
    passed = sum(1 for s in report.sections if s.status == "pass")
    print(f"acceptance: {passed}/{len(report.sections)} criteria passed")
    if args.out:
        report.write(args.out)
        print(f"report written to {args.out}")
    return exit_code(report)


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="lplab",
        description="numerical laboratory for contractions on lp and c0",
    )
    sub = top.add_subparsers(dest="cmd", required=True)

    def add_common(p: argparse.ArgumentParser, seed: bool = True) -> None:
        if seed:
            p.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
        p.add_argument("--out", help="write the canonical JSON report here")

    p = sub.add_parser("construct", help="build a named operator and check it")
    p.add_argument("--kind", choices=_CONSTRUCT_KINDS, required=True)
    p.add_argument("--dim", type=int, default=2, help="head parameter N")
    p.add_argument("--p", default=None, help="exponent p or c0")
    add_common(p)
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("norm", help="operator-norm certificate for a dense matrix")
    p.add_argument("--matrix", required=True, help="JSON file with the matrix")
    p.add_argument("--p", default="2.0", help="exponent p or c0")
    add_common(p, seed=False)
    p.set_defaults(fn=_cmd_norm)

    p = sub.add_parser("spectrum", help="dense eigenvalues with residuals")
    p.add_argument("--matrix", required=True, help="JSON file with the matrix")
    add_common(p, seed=False)
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("game", help="play and verify a strategy run")
    p.add_argument("--strategy", choices=("eigenfree", "nonsup"), required=True)
    p.add_argument("--rounds", type=int, default=2)
    p.add_argument("--adversary", choices=("random", "passthrough"), default="random")
    p.add_argument("--toy", action="store_true", help="capped toy geometry (non-certified)")
    p.add_argument("--params", help="JSON file with strategy parameters")
    add_common(p)
    p.set_defaults(fn=_cmd_game)

    p = sub.add_parser("mc", help="randomized experiment suite")
    p.add_argument("--config", required=True, help="JSON experiment config (object or list)")
    p.add_argument("--csv", help="also dump grid-scan rows as CSV")
    add_common(p, seed=False)
    p.set_defaults(fn=_cmd_mc)

    p = sub.add_parser("verify-all", help="run the acceptance battery")
    p.add_argument("--only", help="comma-separated criterion numbers")
    add_common(p)
    p.set_defaults(fn=_cmd_verify_all)
    return top


def cli_main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return int(args.fn(args))
    except _ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(cli_main())
