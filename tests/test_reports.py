from __future__ import annotations

import json
import math

import numpy as np
import pytest

from lplab.reports import (
    EXIT_CHECK_FAILED,
    EVIDENCE,
    EXIT_OK,
    Report,
    Section,
    build_timestamp,
    canonical_json,
    check,
    config_hash,
    exit_code,
    jsonable,
    make_report,
    make_section,
    max_or_nan,
    report_from_dict,
    section_status,
)


class TestJsonable:
    def test_complex_becomes_pair(self):
        assert jsonable(1 + 2j) == [1.0, 2.0]

    def test_numpy_scalars_and_arrays(self):
        assert jsonable(np.float64(0.5)) == 0.5
        assert jsonable(np.int32(7)) == 7
        assert jsonable(np.array([1.0, 2.0])) == [1.0, 2.0]

    def test_nonfinite_floats_become_strings(self):
        assert jsonable(float("nan")) == "nan"
        assert jsonable(float("inf")) == "inf"
        assert jsonable(float("-inf")) == "-inf"

    def test_tuples_and_nested_maps(self):
        out = jsonable({"a": (1, 2), "b": {"c": 3j}})
        assert out == {"a": [1, 2], "b": {"c": [0.0, 3.0]}}

    def test_unserializable_rejected(self):
        with pytest.raises(TypeError):
            jsonable(object())


class TestCanonicalJson:
    def test_sorted_keys_minimal_separators(self):
        text = canonical_json({"b": 1, "a": [1, 2]})
        assert text == '{"a":[1,2],"b":1}'

    def test_key_order_does_not_matter(self):
        a = {"x": 1, "y": {"p": 2, "q": 3}}
        b = {"y": {"q": 3, "p": 2}, "x": 1}
        assert canonical_json(a) == canonical_json(b)
        assert config_hash(a) == config_hash(b)

    def test_hash_distinguishes_values(self):
        assert config_hash({"x": 1}) != config_hash({"x": 2})

    def test_parses_back(self):
        obj = {"v": [0.1, "nan"], "w": None}
        assert json.loads(canonical_json(obj)) == obj


class TestTimestamp:
    def test_default_is_epoch(self, monkeypatch):
        monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
        assert build_timestamp() == "1970-01-01T00:00:00+00:00"

    def test_env_pin(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "86400")
        assert build_timestamp() == "1970-01-02T00:00:00+00:00"


class TestSection:
    def test_status_derivation(self):
        assert section_status([{"ok": True}, {"ok": True}]) == "pass"
        assert section_status([{"ok": True}, {"ok": False}]) == "fail"
        assert section_status([{"value": 3}]) == "info"
        assert section_status([]) == "info"

    def test_make_section(self):
        sec = make_section("s", [{"ok": True, "lhs": 1.0}])
        assert sec.status == "pass"
        assert sec.records[0]["lhs"] == 1.0

    def test_claimed_pass_with_failed_check_rejected(self):
        with pytest.raises(ValueError):
            Section(name="s", status="pass", records=({"ok": False},))

    def test_claimed_fail_without_failed_check_rejected(self):
        with pytest.raises(ValueError):
            Section(name="s", status="fail", records=({"ok": True},))

    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError):
            Section(name="s", status="maybe", records=())


class TestReport:
    def _report(self, ok: bool) -> Report:
        sec = make_section("checks", [check("c", 1.0 if ok else 2.0, "exact", "<=", 1.0)])
        return make_report(seed=7, config={"k": 1}, sections=[sec])

    def test_meta_fields(self):
        rep = self._report(True)
        assert rep.meta["tool_version"]
        assert rep.meta["seed"] == 7
        assert rep.meta["config_hash"] == config_hash({"k": 1})
        assert "timestamp" in rep.meta

    def test_roundtrip_lossless(self):
        rep = self._report(True)
        again = report_from_dict(rep.to_dict())
        assert again.to_json() == rep.to_json()

    def test_roundtrip_via_json_text(self):
        rep = self._report(False)
        again = report_from_dict(json.loads(rep.to_json()))
        assert again.to_json() == rep.to_json()

    def test_exit_codes(self):
        assert exit_code(self._report(True)) == EXIT_OK
        assert exit_code(self._report(False)) == EXIT_CHECK_FAILED

    def test_info_sections_do_not_fail(self):
        sec = make_section("stats", [{"value": 1.5}])
        rep = make_report(seed=None, config={}, sections=[sec])
        assert rep.ok and exit_code(rep) == EXIT_OK

    def test_section_lookup(self):
        rep = self._report(True)
        assert rep.section("checks").name == "checks"
        with pytest.raises(KeyError):
            rep.section("absent")

    def test_write(self, tmp_path):
        rep = self._report(True)
        path = tmp_path / "r.json"
        rep.write(str(path))
        assert report_from_dict(json.loads(path.read_text())).ok


def test_running_max_carries_nan():
    nan = float("nan")
    for args in ((0.0, nan), (nan, 1.0), (0.0, nan, 1.0), (1.0, 2.0, nan)):
        assert math.isnan(max_or_nan(*args)), args
    # finite input: the builtin's result, down to which zero of a tie is kept
    for a, b in ((0.0, -0.0), (-0.0, 0.0), (2.0, 2.0)):
        assert math.copysign(1.0, max_or_nan(a, b)) == math.copysign(1.0, max(a, b))


class TestCheck:
    def test_record_shape(self):
        rec = check("x", 0.5, "exact", "<=", 1.0, slack=1e-9, samples=3)
        assert rec == {
            "name": "x",
            "value": 0.5,
            "op": "<=",
            "bound": 1.0,
            "slack": 1e-9,
            "evidence": "exact",
            "ok": True,
            "samples": 3,
        }

    @pytest.mark.parametrize(
        "op, value, ok",
        [
            ("<=", 1.0 + 1e-9, True),
            ("<=", 1.0 + 2e-9, False),
            ("<", 1.0 + 5e-10, True),
            (">=", 1.0 - 1e-9, True),
            (">=", 1.0 - 2e-9, False),
            (">", 1.0 - 5e-10, True),
            ("==", 1.0 - 1e-9, True),
            ("==", 1.0 + 2e-9, False),
        ],
    )
    def test_slack_loosens_toward_the_passing_side(self, op, value, ok):
        assert check("x", value, "exact", op, 1.0, slack=1e-9)["ok"] is ok

    @pytest.mark.parametrize("evidence", EVIDENCE)
    def test_nan_value_fails(self, evidence):
        ops = {"lower": [">="], "upper": ["<="]}.get(evidence, ["<=", "<", ">=", ">", "=="])
        for op in ops:
            assert check("x", math.nan, evidence, op, 1.0, slack=1.0)["ok"] is False
            assert check("x", np.float64("nan"), evidence, op, 1.0)["ok"] is False

    @pytest.mark.parametrize(
        "evidence, op",
        [("lower", "<="), ("lower", "<"), ("lower", "=="),
         ("upper", ">="), ("upper", ">"), ("upper", "==")],
    )
    def test_refuses_what_a_one_sided_bound_cannot_certify(self, evidence, op):
        with pytest.raises(ValueError, match="cannot certify"):
            check("x", 0.5, evidence, op, 1.0)

    @pytest.mark.parametrize("evidence, op", [("lower", ">="), ("upper", "<")])
    def test_accepts_the_certifying_direction(self, evidence, op):
        assert check("x", 0.5, evidence, op, 0.25 if op == ">=" else 1.0)["ok"]

    def test_unknown_evidence_or_op_refused(self):
        with pytest.raises(ValueError, match="evidence"):
            check("x", 0.5, "roughly", "<=", 1.0)
        with pytest.raises(ValueError, match="comparison"):
            check("x", 0.5, "exact", "!=", 1.0)

    def test_numpy_scalars_become_python_numbers(self):
        rec = check("n", np.int64(3), "exact", "==", 3)
        assert type(rec["value"]) is int and rec["ok"]


class TestEvidenceGuard:
    def test_make_report_refuses_an_unlabelled_check(self):
        sec = make_section("checks", [{"name": "c", "ok": True}])
        with pytest.raises(ValueError, match="'c' has ok but no evidence"):
            make_report(seed=None, config={}, sections=[sec])

    def test_make_report_refuses_a_nested_unlabelled_check(self):
        inner = {"name": "inner", "ok": True}
        sec = make_section("checks", [check("outer", 0, "exact", "==", 0, parts=[inner])])
        with pytest.raises(ValueError, match="no evidence"):
            make_report(seed=None, config={}, sections=[sec])

    def test_make_section_alone_does_not_refuse(self):
        # sections built outside a report keep their records as given
        assert make_section("s", [{"ok": True}]).status == "pass"
