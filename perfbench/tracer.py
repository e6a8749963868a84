"""Spans and counts around calls into ``lplab``, measured from outside.

``Tracer`` wraps the public functions listed in ``TARGETS`` for the length of
a ``with`` block.  Each wrapper replaces the function under every name an
``lplab`` module binds it to (``op_norm`` lives in ``operators`` but is also
imported by ``acceptance``, ``montecarlo``, ``constructions`` and others), so
the program's own calls go through it.  Leaving the block puts every original
object back.  ``lplab`` itself has no tracing hooks.

A span is ``(name, start, end, parent)``: ``parent`` is the index of the
enclosing span in ``Tracer.spans``, or -1 for a top-level span.  Spans and
counts stay in memory until ``write`` saves them.  The tracer assumes that
the program runs on one thread, which holds while ``LPLAB_THREADS`` is unset.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from typing import Any, Callable

import numpy as np

from lplab import (
    acceptance,
    commutant,
    constructions,
    game,
    montecarlo,
    operators,
    reports,
    spaces,
    spectral,
)


def _op_norm_route(args: tuple, kwargs: dict) -> str:
    pn = kwargs["pn"] if "pn" in kwargs else args[1]
    if pn.is_c0 or pn.p in (1.0, 2.0):
        return "operators.op_norm_exact"
    return "operators.op_norm_lp"


# Spans whose totals are also added into a wider name.
ALIASES = {
    "operators.op_norm_exact": "operators.op_norm",
    "operators.op_norm_lp": "operators.op_norm",
}


def _experiment_span(args: tuple, kwargs: dict) -> str:
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[0]
    return f"montecarlo.run_experiment.{cfg.experiment.value}"


def _count_restarts(tracer: "Tracer", result: Any) -> None:
    tracer.counts["operators.fixed_point.restarts"] += len(result)


def _count_nfev(tracer: "Tracer", result: Any) -> None:
    tracer.counts["operators.bfgs.nfev"] += int(result.nfev)


def _count_orbit_steps(tracer: "Tracer", result: Any) -> None:
    stack = [result]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            if "n_direct" in node:
                tracer.counts["game.orbit_steps"] += int(node["n_direct"])
            stack.extend(node.values())
        elif isinstance(node, (list, tuple)):
            stack.extend(node)


# (span name, owner, attribute, on_result).  A span name that is a callable
# picks the name from the call's arguments.
TARGETS: tuple[tuple[Any, Any, str, Callable | None], ...] = (
    (_op_norm_route, operators, "op_norm", None),
    ("operators.fixed_point", operators, "fixed_point_restarts", _count_restarts),
    ("operators.oracle", operators, "op_norm_oracle", None),
    ("operators.bfgs", operators, "minimize", _count_nfev),
    ("operators.apply", operators, "apply", None),
    ("operators.materialize", operators, "materialize", None),
    ("operators.truncate", operators, "truncate", None),
    ("spaces.make", spaces.SpVector, "make", None),
    ("spaces.add", spaces, "add", None),
    ("spaces.norm", spaces, "norm", None),
    ("spaces.pairing", spaces, "pairing", None),
    ("commutant.build_witness", commutant, "build_commutant_witness", None),
    ("commutant.eval_f_w", commutant, "eval_f_w", None),
    ("commutant.pairing_residual", commutant, "witness_pairing_residual", None),
    ("game.play", game, "play_game", None),
    ("game.verify_eigenfree", game, "verify_eigenfree_run", None),
    ("game.verify_nonsup", game, "verify_nonsup_run", _count_orbit_steps),
    ("montecarlo.sample_contraction", montecarlo, "sample_contraction", None),
    ("montecarlo.ap_gain_profile", montecarlo, "ap_gain_profile", None),
    (_experiment_span, montecarlo, "run_experiment", None),
    ("spectral.eigs_dense", spectral, "eigs_dense", None),
    ("spectral.point_spectrum", spectral, "point_spectrum_SAomega", None),
    ("constructions.build_B", constructions, "build_B_eta_delta", None),
    ("constructions.evenly", constructions, "check_evenly_distributed", None),
    ("reports.canonical_json", reports, "canonical_json", None),
)

# Calls that are only counted, never timed: the SVDs of the approximate
# point spectrum grid.  np.linalg.svd is shared by all of lplab, so a call
# counts only while montecarlo.ap_gain_profile is the innermost open span.
SVD_PARENT = "montecarlo.ap_gain_profile"


def _lplab_modules() -> list[Any]:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "lplab" or name.startswith("lplab."))
    ]


class Tracer:
    """Context manager that records spans and counts while it is entered."""

    def __init__(self, extra: tuple[tuple[str, Any, str], ...] = ()) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self._extra = extra

    # -- spans -------------------------------------------------------------

    def _wrap(
        self,
        span: str | Callable[[tuple, dict], str],
        fn: Callable,
        on_result: Callable | None,
    ) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            name = span if isinstance(span, str) else span(args, kwargs)
            idx = len(spans)
            spans.append((name, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, spans[idx][3])
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def _svd_counter(self, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if stack and spans[stack[-1]][0] == SVD_PARENT:
                counts["montecarlo.svd.calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original: Callable, wrapper: Callable) -> None:
        for mod in _lplab_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _install(self) -> None:
        for span, owner, attr, on_result in TARGETS:
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                self._set(owner, attr, staticmethod(self._wrap(span, raw.__func__, on_result)))
                continue
            self._patch_everywhere(raw, self._wrap(span, raw, on_result))
        for span, owner, attr in self._extra:
            self._set(owner, attr, self._wrap(span, owner.__dict__[attr], None))
        # run_battery iterates over CRITERIA, which holds the criterion
        # functions themselves, so the tuple is replaced too.
        criteria = []
        for num, slug, fn in acceptance.CRITERIA:
            wrapper = self._wrap(f"acceptance.c{num:02d}", fn, None)
            self._patch_everywhere(fn, wrapper)
            criteria.append((num, slug, wrapper))
        self._set(acceptance, "CRITERIA", tuple(criteria))
        self._set(np.linalg, "svd", self._svd_counter(np.linalg.svd))

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-name ``.calls``, ``.s`` and ``.self_s``, plus the counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            for key in {name, ALIASES.get(name, name)}:
                out[f"{key}.calls"] = out.get(f"{key}.calls", 0) + 1
                out[f"{key}.s"] = out.get(f"{key}.s", 0.0) + (end - start)
                out[f"{key}.self_s"] = out.get(f"{key}.self_s", 0.0) + (end - start - inner)
        out.update(self.counts)
        return out

    def top_level_s(self) -> float:
        """Time covered by spans that have no traced parent."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def write(self, path: str) -> None:
        """Save every span and count as one JSON document."""
        with open(path, "w", encoding="ascii") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                fh,
            )
