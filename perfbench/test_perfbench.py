"""Tests of the benchmark itself: python3 -m pytest -q perfbench

The workloads run here on smaller inputs (fewer samples, seeds and
criteria) than in the benchmark, through the same code.
"""

from __future__ import annotations

import json
import os
import re

import numpy as np
import pytest

import child
import run
import tracer
import workloads
from lplab import acceptance, spaces
from lplab.montecarlo import ExperimentKind

NAME = re.compile(r"[A-Za-z0-9_.-]+")
COUNT_SUFFIXES = (".calls", ".restarts", ".nfev", "orbit_steps")
EXTRA = (("acceptance.c01_scaled", workloads, "norm_agreement"),)


@pytest.fixture
def small(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr(workloads, "AGREEMENT_PER_DIM", 1)
    monkeypatch.setattr(workloads, "BATTERY_REST", (4, 5, 9))
    monkeypatch.setattr(workloads, "MC_SAMPLES", 2)
    monkeypatch.setattr(workloads, "STRUCTURED_SEEDS", 1)


def texts(name: str, seed: int) -> list[str]:
    return [fn() for _, fn in workloads.WORKLOADS[name](seed)]


def traced(name: str, seed: int) -> tuple[list[str], tracer.Tracer]:
    with tracer.Tracer(extra=EXTRA) as tr:
        out = texts(name, seed)
    return out, tr


def bindings() -> dict[tuple[str, str], int]:
    """id of every attribute the tracer may patch."""
    out = {}
    for mod in tracer._lplab_modules() + [workloads, np.linalg]:
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = id(value)
    out[("SpVector", "make")] = id(spaces.SpVector.__dict__["make"])
    return out


def test_benchmark_json_names_and_units() -> None:
    with open(os.path.join(run.HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END


def test_declared_layers_exist() -> None:
    spans = {name for name, *_ in tracer.TARGETS if isinstance(name, str)}
    spans |= set(tracer.ALIASES) | set(tracer.ALIASES.values())
    spans |= {f"montecarlo.run_experiment.{k.value}" for k in ExperimentKind}
    spans |= {f"acceptance.c{num:02d}" for num, _, _ in acceptance.CRITERIA}
    spans |= {name for name, _, _ in EXTRA}
    possible = {f"{s}{suffix}" for s in spans for suffix in (".calls", ".s", ".self_s")}
    possible |= {"operators.fixed_point.restarts", "operators.bfgs.nfev", "game.orbit_steps",
                 "montecarlo.svd.calls", "reports.bytes", "trace.wall_s", "trace.overhead_s",
                 "trace.uncovered_s"}
    assert set(run.per_layer_spec()) <= possible


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_is_byte_identical_and_restores(small: None, name: str) -> None:
    before = bindings()
    criteria = acceptance.CRITERIA
    plain = texts(name, 5)
    out, tr = traced(name, 5)
    assert out == plain
    assert bindings() == before
    assert acceptance.CRITERIA is criteria
    assert tr.spans and all(NAME.fullmatch(k) for k in tr.layer_metrics())


def test_restores_after_an_exception(small: None) -> None:
    before = bindings()
    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer(extra=EXTRA):
            assert bindings() != before
            1 / 0
    assert bindings() == before


def test_mc_suite_digest_follows_the_seed(small: None) -> None:
    a, b, c = (texts("mc_suite", s) for s in (3, 3, 4))
    assert a == b
    assert a != c


def test_counts_repeat_exactly(small: None) -> None:
    for name in sorted(workloads.WORKLOADS):
        first = traced(name, 2)[1].layer_metrics()
        second = traced(name, 2)[1].layer_metrics()
        counts = {k for k in first if k.endswith(COUNT_SUFFIXES)}
        assert counts
        assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_layer_shares_point_where_the_profile_does(small: None) -> None:
    m = traced("mc_suite", 1)[1].layer_metrics()
    assert m["montecarlo.svd.calls"] == 400 * workloads.MC_SAMPLES
    assert m["operators.fixed_point.restarts"] == 32 * m["operators.fixed_point.calls"]
    m = traced("structured", 1)[1].layer_metrics()
    assert m["game.orbit_steps"] == 100_000
    assert "operators.oracle.calls" not in m and "operators.fixed_point.calls" not in m


def test_self_time_excludes_children() -> None:
    tr = tracer.Tracer()
    tr.spans[:] = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("b", 5.0, 6.0, 0), ("c", 11.0, 12.0, -1)]
    m = tr.layer_metrics()
    assert m["a.s"] == 10.0 and m["a.self_s"] == 6.0 and m["b.calls"] == 2
    assert tr.top_level_s() == 11.0


def test_gate_counts_failures() -> None:
    report = {"sections": [{"name": "x", "status": "fail", "records": [{"ok": False}, {"ok": True}]},
                           {"name": "y", "status": "info", "records": [{"mean": 1.0}]}]}
    assert child.check_counts(report) == (3, 2)
    ok = {"checks": 5, "failed": 0, "digest": "a"}
    odd = {"checks": 5, "failed": 0, "digest": "b"}
    assert run.gate([ok, ok, odd], crashed=0) == (15, 5, "a")
    assert run.gate([ok], crashed=1) == (6, 1, "a")


def test_times_are_scaled_to_the_reference_speed() -> None:
    ref = run.PROBE_REF_S
    fast = {"wall": {"u": 1.0}, "probe": {"u": ref}}
    slow_spell = {"wall": {"u": 1.5}, "probe": {"u": 2 * ref}}
    assert run.unit_best([fast, slow_spell], "wall") == {"u": 0.75}
    assert 0.0 < child.probe() < 10.0


def test_refuses_to_run_without_the_program(tmp_path: pytest.TempPathFactory, monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.chdir(tmp_path)
    argv = ["--workload", "mc_suite", "--seed", "1", "--seconds", "1"]
    assert run.main(argv) != 0
