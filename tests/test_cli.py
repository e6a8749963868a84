"""Command-line interface: exit codes, report files, and output shapes."""

from __future__ import annotations

import csv
import json

import pytest

from lplab.cli import cli_main
from lplab.reports import report_from_dict

TOL = 1e-10


def _write(path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.fixture()
def matrix_file(tmp_path):
    return _write(tmp_path / "m.json", [[0.5, [0.0, 0.5]], [0.0, 0.25]])


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert cli_main(["frobnicate"]) == 2

    def test_no_subcommand(self):
        assert cli_main([]) == 2

    def test_help_exits_zero(self):
        assert cli_main(["--help"]) == 0

    def test_missing_required_flag(self):
        assert cli_main(["norm"]) == 2

    def test_negative_seed(self):
        assert cli_main(["verify-all", "--only", "2", "--seed", "-3"]) == 2

    def test_unknown_criterion_number(self):
        assert cli_main(["verify-all", "--only", "2,99"]) == 2

    def test_malformed_only_list(self):
        assert cli_main(["verify-all", "--only", "2,x"]) == 2

    def test_bad_matrix_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert cli_main(["norm", "--matrix", str(bad), "--p", "2"]) == 2

    def test_missing_matrix_file(self, tmp_path):
        assert cli_main(["norm", "--matrix", str(tmp_path / "nope.json")]) == 2

    def test_ragged_matrix(self, tmp_path):
        path = _write(tmp_path / "r.json", [[1.0, 2.0], [3.0]])
        assert cli_main(["norm", "--matrix", path]) == 2

    @pytest.mark.parametrize("bad", [float("nan"), [0.0, float("-inf")]])
    @pytest.mark.parametrize(
        "cmd", [["norm", "--p", "3"], ["norm", "--p", "c0"], ["spectrum"]]
    )
    def test_non_finite_matrix(self, tmp_path, capsys, cmd, bad):
        path = _write(tmp_path / "nan.json", [[1.0, bad], [0.0, 1.0]])
        assert cli_main([cmd[0], "--matrix", path] + cmd[1:]) == 2
        captured = capsys.readouterr()
        assert "all checks passed" not in captured.out
        assert "finite" in captured.err

    @pytest.mark.parametrize("p", ["1.001", "1.0000001"])
    def test_non_finite_fixed_point(self, tmp_path, capsys, p):
        path = _write(tmp_path / "m.json", [[1, 2], [0, 1]])
        assert cli_main(["norm", "--matrix", path, "--p", p]) == 2
        captured = capsys.readouterr()
        assert "all checks passed" not in captured.out
        assert "non-finite" in captured.err

    def test_lost_monotonicity_is_an_error_line(self, tmp_path, capsys):
        # the duality map of this finite matrix's images overflows at p = 7
        path = _write(
            tmp_path / "m.json", [[[7e29, 8e29], 1e-27], [-0.01, [1e57, 5e57]]]
        )
        assert cli_main(["norm", "--matrix", path, "--p", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ValueError: fixed-point ascent lost monotonicity\n"

    def test_bad_space_token(self, matrix_file):
        assert cli_main(["norm", "--matrix", matrix_file, "--p", "junk"]) == 2

    def test_bad_mc_config(self, tmp_path):
        good = {"space": "l2", "dim": 4, "samples": 2, "seed": 1,
                "experiment": "OrbitDecay"}
        cases = [
            {"space": "l2", "dim": 4},
            {**good, "dim": 4.9},
            {**good, "samples": 2.5},
            {**good, "seed": 1.0},
            {**good, "dim": True},
            {**good, "seed": False},
            {**good, "dim": "4"},
            {**good, "seed": -1},
        ]
        for i, cfg in enumerate(cases):
            path = _write(tmp_path / f"cfg{i}.json", cfg)
            assert cli_main(["mc", "--config", path]) == 2, cfg


class TestNormCommand:
    def test_certificate_printed_and_saved(self, matrix_file, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = cli_main(
            ["norm", "--matrix", matrix_file, "--p", "3", "--out", str(out)]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "operator norm" in text and "method" in text
        data = json.loads(out.read_text(encoding="utf-8"))
        rep = report_from_dict(data)
        assert rep.section("norm").status == "pass"
        rec = rep.section("norm").records[0]
        assert rec["space"] == "l3"
        assert rec["value"] > 0.0
        assert rec["method"] in ("exact", "fixed_point", "oracle")
        assert rec["residual"] <= 1e-8

    def test_c0_space_is_exact(self, matrix_file, tmp_path):
        out = tmp_path / "rep.json"
        assert (
            cli_main(["norm", "--matrix", matrix_file, "--p", "c0", "--out", str(out)])
            == 0
        )
        rec = report_from_dict(
            json.loads(out.read_text(encoding="utf-8"))
        ).section("norm").records[0]
        # row sums: |0.5| + |0.5i| = 1.0 and 0.25
        assert abs(rec["value"] - 1.0) < TOL
        assert rec["method"] == "exact"

    def test_pair_entries_parse(self, tmp_path):
        path = _write(tmp_path / "m.json", {"rows": [[[0.0, 1.0]]]})
        assert cli_main(["norm", "--matrix", path, "--p", "2"]) == 0


class TestSpectrumCommand:
    def test_eigenvalues_with_residuals(self, matrix_file, tmp_path):
        out = tmp_path / "rep.json"
        assert cli_main(["spectrum", "--matrix", matrix_file, "--out", str(out)]) == 0
        rep = report_from_dict(json.loads(out.read_text(encoding="utf-8")))
        sec = rep.section("spectrum")
        eigen = [r for r in sec.records if r.get("name") == "eigenpair_residual"]
        assert len(eigen) == 2
        assert all(r["ok"] for r in eigen)
        radius = [r for r in sec.records if r.get("name") == "spectral_radius"][0]
        assert abs(radius["value"] - 0.5) < TOL


class TestConstructCommand:
    @pytest.mark.parametrize(
        "kind",
        [
            "b-eta-delta",
            "coisometry-l1",
            "t1-coisometry",
            "s-a-omega",
            "commutant-witness",
        ],
    )
    def test_each_kind_passes(self, kind, tmp_path):
        out = tmp_path / f"{kind}.json"
        code = cli_main(
            ["construct", "--kind", kind, "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        rep = report_from_dict(json.loads(out.read_text(encoding="utf-8")))
        assert rep.section(kind).status == "pass"

    def test_unknown_kind(self):
        assert cli_main(["construct", "--kind", "mystery"]) == 2


class TestGameCommand:
    def test_nonsup_two_rounds(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code = cli_main(
            ["game", "--strategy", "nonsup", "--rounds", "2", "--seed", "5",
             "--out", str(out)]
        )
        assert code == 0
        assert "CERTIFIED" in capsys.readouterr().out
        rep = report_from_dict(json.loads(out.read_text(encoding="utf-8")))
        names = [s.name for s in rep.sections]
        assert "transcript" in names and "prefix_bounds" in names

    def test_eigenfree_toy(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code = cli_main(
            ["game", "--strategy", "eigenfree", "--rounds", "3", "--toy",
             "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        assert "NON-CERTIFIED" in capsys.readouterr().out
        rep = report_from_dict(json.loads(out.read_text(encoding="utf-8")))
        assert rep.section("eigen_screen").status == "pass"

    def test_eigenfree_honest_cap_is_config_error(self, capsys):
        code = cli_main(
            ["game", "--strategy", "eigenfree", "--rounds", "3", "--seed", "5"]
        )
        assert code == 2
        assert "--toy" in capsys.readouterr().err

    def test_params_file_override(self, tmp_path):
        params = _write(
            tmp_path / "p.json", {"toy": True, "toy_R_cap": 24, "toy_L_cap": 6}
        )
        code = cli_main(
            ["game", "--strategy", "eigenfree", "--rounds", "2", "--toy",
             "--params", params, "--seed", "1"]
        )
        assert code == 0

    def test_bad_params_field(self, tmp_path):
        cases = [
            {"no_such_field": 1},
            {"c": "x"},
            {"c": True},
            {"eta": float("nan")},
            {"C": float("inf")},
            {"a": [0.01]},
            {"alphas": 0.1},
            {"alphas": [0.1, "x"]},
            {"dim_cap": "5"},
            {"dim_cap": 5.0},
            {"toy_L_cap": True},
            {"toy": "yes"},
            {"eta": 0},  # C > 4/eta is undefined
            {"eta": -0.5},
            {"a": 1e-320},  # the net size L = ceil(pi / asin(tau/2)) is not finite
            {"eta": 1e308, "C": 1e308},  # C/eps overflows, so the chain length R is not finite
            {"c": 1e308},  # the next radius c * tau * eps exceeds eps/2: an illegal response
            {"c": 1e-320},  # the next radius is subnormal, too small for player I to shrink
        ]
        for i, data in enumerate(cases):
            params = _write(tmp_path / f"p{i}.json", data)
            code = cli_main(
                ["game", "--strategy", "eigenfree", "--rounds", "2", "--toy",
                 "--params", params]
            )
            assert code == 2, data

    def test_losing_params_fail_the_check(self, tmp_path):
        params = _write(tmp_path / "p.json", {"c": 0.5})
        code = cli_main(
            ["game", "--strategy", "eigenfree", "--rounds", "2", "--toy",
             "--params", params]
        )
        assert code == 1


class TestMcCommand:
    def test_suite_with_csv(self, tmp_path, capsys):
        cfg = _write(
            tmp_path / "cfg.json",
            [
                {"space": "l2", "dim": 10, "samples": 4, "seed": 11,
                 "experiment": "OrbitDecay"},
                {"space": "l2", "dim": 8, "samples": 2, "seed": 11,
                 "experiment": "ApSpectrumGrid"},
            ],
        )
        out = tmp_path / "rep.json"
        csv_path = tmp_path / "grid.csv"
        code = cli_main(
            ["mc", "--config", cfg, "--out", str(out), "--csv", str(csv_path)]
        )
        assert code == 0
        with open(csv_path, newline="", encoding="ascii") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "section" and "max_gain" in rows[0]
        assert len(rows) == 3  # header + two grid samples
        rep = report_from_dict(json.loads(out.read_text(encoding="utf-8")))
        assert rep.section("OrbitDecay").status == "pass"

    def test_single_object_config(self, tmp_path):
        cfg = _write(
            tmp_path / "cfg.json",
            {"space": "c0", "dim": 6, "samples": 3, "seed": 2,
             "experiment": "EigenStats"},
        )
        assert cli_main(["mc", "--config", cfg]) == 0

    def test_guarded_config_exits_one(self, tmp_path):
        # IsometryDefect refuses p = 2; the suite reports the failure
        # instead of aborting, and the exit code flags it.
        cfg = _write(
            tmp_path / "cfg.json",
            {"space": "l2", "dim": 6, "samples": 3, "seed": 2,
             "experiment": "IsometryDefect"},
        )
        assert cli_main(["mc", "--config", cfg]) == 1

    def test_unknown_key_exits_two_naming_it(self, tmp_path, capsys):
        cfg = _write(
            tmp_path / "cfg.json",
            [{"space": "l2", "dim": 3, "samples": 1, "seed": 1,
              "experiment": "OrbitDecay", "sample": 500}],
        )
        assert cli_main(["mc", "--config", cfg]) == 2
        assert "unknown config keys ['sample']" in capsys.readouterr().err


class TestVerifyAll:
    def test_subset_runs_and_reports(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = cli_main(
            ["verify-all", "--seed", "7", "--only", "2,8", "--out", str(out)]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "criterion 02" in text and "2/2" in text
        rep = report_from_dict(json.loads(out.read_text(encoding="utf-8")))
        assert [s.name for s in rep.sections] == [
            "02-kan_inequality",
            "08-flat_polynomials",
        ]
        assert rep.ok
