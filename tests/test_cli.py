"""End-to-end tests for the command-line front end (in-process, plus one subprocess)."""

import io
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from aporbit import cli, recurrence
from aporbit.cli import main
from aporbit.errors import MonotonicityError
from aporbit.families import APWitness
from aporbit.recurrence import RecurrenceWitness
from aporbit.spaces import FiniteVector


def run_cli(capsys, argv, stdin=None):
    if stdin is not None:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            code = main(argv)
        finally:
            sys.stdin = old
    else:
        code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv, stdin=None):
    code, out, _ = run_cli(capsys, argv, stdin=stdin)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# set analysis


class TestAnalyzeSet:
    def test_stdin_whitespace_format(self, capsys):
        code, report = run_json(capsys, ["analyze-set"], stdin="1 2 3 5 7 9\n")
        assert code == 0
        assert report["command"] == "analyze-set"
        assert report["longest_ap"] == {"initial": 1, "step": 2, "length": 5}
        assert report["size"] == 6

    def test_stdin_json_array(self, capsys):
        code, report = run_json(capsys, ["analyze-set"], stdin="[0, 2, 4, 6]")
        assert code == 0
        assert report["longest_ap"]["length"] == 4

    def test_csv_row(self, capsys):
        code, out, _ = run_cli(
            capsys, ["analyze-set", "--output", "csv"], stdin="1 2 3 5 7 9"
        )
        assert code == 0
        assert out == "initial,step,length\n1,2,5\n"

    def test_density_block(self, capsys):
        code, report = run_json(
            capsys, ["analyze-set", "--window", "10"], stdin=" ".join(map(str, range(0, 101, 2)))
        )
        assert code == 0
        dens = report["density"]
        assert dens["window"] == 10
        assert dens["banach_upper_proxy"] == "1/2"

    def test_explicit_empty_set(self, capsys):
        code, report = run_json(capsys, ["analyze-set", "--horizon", "5", "--set", "[]"])
        assert code == 0
        assert report["longest_ap"] is None

    def test_progression_outside_the_set_is_not_exit_0(self, capsys, monkeypatch):
        # the reported progression is checked term by term against the set
        monkeypatch.setattr(cli, "longest_ap", lambda hits: APWitness(1, 2, 3))
        code, report = run_json(capsys, ["analyze-set", "--set", "[1, 2, 3, 4]"])
        assert code == 1
        assert report["longest_ap"] == {"initial": 1, "step": 2, "length": 3}
        assert report["verified"] is False

    def test_empty_stdin_is_an_input_error(self, capsys):
        # refusing silently empty pipes beats analyzing a set nobody sent
        code, report = run_json(capsys, ["analyze-set", "--horizon", "5"], stdin="")
        assert code == 2
        assert report["verdict"] == "error"


# ---------------------------------------------------------------------------
# orbit / return-set


class TestOrbit:
    def test_norm_columns(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "orbit",
                "--operator",
                '{"kind": "backward", "weights": {"kind": "constant", "value": "2"}}',
                "--x",
                "e3",
                "--horizon",
                "4",
                "--output",
                "csv",
            ],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,l1,l2_squared,sup"
        assert lines[1] == "0,1/1,1/1,1/1"
        assert lines[2] == "1,2/1,4/1,2/1"
        assert lines[-1] == "4,0/1,0/1,0/1"

    def test_default_horizon(self, capsys):
        code, report = run_json(
            capsys, ["orbit", "--operator", '{"kind": "backward"}', "--x", "e0"]
        )
        assert code == 0
        assert len(report["points"]) == 21

    def test_exp_sqrt_needs_float_mode(self, capsys):
        argv = [
            "orbit",
            "--operator",
            '{"kind": "backward"}',
            "--scalars",
            "exp-sqrt",
            "--x",
            "e2",
            "--horizon",
            "3",
        ]
        code, _, err = run_cli(capsys, argv)
        assert code == 2
        assert "no exact representation" in err
        code2, report = run_json(capsys, argv + ["--mode", "float"])
        assert code2 == 0
        assert report["mode"] == "float"


class TestReturnSet:
    def test_annihilation_example(self, capsys):
        code, report = run_json(
            capsys,
            [
                "return-set",
                "--operator",
                '{"kind": "backward", "weights": {"kind": "constant", "value": "2"}}',
                "--x",
                "e5",
                "--ball",
                '{"center": [], "radius": "1/10"}',
                "--horizon",
                "12",
            ],
        )
        assert code == 0
        assert report["hits"] == list(range(6, 13))
        assert report["count"] == 7


# ---------------------------------------------------------------------------
# criterion grid / witnesses


class TestShiftCheck:
    def test_doubling_grid(self, capsys):
        code, report = run_json(
            capsys,
            [
                "shift-check",
                "--weights",
                '{"kind": "constant", "value": "2"}',
                "--epsilon",
                "1/100",
            ],
        )
        assert code == 0
        assert report["verdict"] == "witness"
        assert all(cell["q"] == 7 for cell in report["grid"])
        assert len(report["grid"]) == 12  # p in 0..3, m in 1..3

    def test_unit_grid_exhausts(self, capsys):
        code, report = run_json(
            capsys,
            ["shift-check", "--weights", '{"kind": "unit"}', "--epsilon", "1/2", "--q-max", "20"],
        )
        assert code == 1
        assert report["verdict"] == "exhausted"
        assert report["conclusive"] is False
        assert "refutation" in report["note"] or "inconclusive" in report["note"]

    def test_csv_empty_cells(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "shift-check",
                "--weights",
                '{"kind": "unit"}',
                "--epsilon",
                "1/2",
                "--q-max",
                "5",
                "--output",
                "csv",
            ],
        )
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "p,m,q"
        assert lines[1] == "0,1,"


def failed_witness(*args):
    """A witness whose re-verification missed the ball at its last return."""
    return RecurrenceWitness(
        q=3,
        x=FiniteVector.basis(0),
        m=1,
        verified_memberships=(True, False),
        distances=(Fraction(0), Fraction(1)),
    )


class TestMultirec:
    BASE = [
        "multirec",
        "--weights",
        '{"kind": "constant", "value": "2"}',
        "--ball",
        '{"center": "e0", "radius": "1/4"}',
    ]

    def test_witness_payload(self, capsys):
        code, report = run_json(capsys, self.BASE + ["--m", "2"])
        assert code == 0
        w = report["witness"]
        assert w["q"] == 3
        assert w["x"] == [[0, 1, 1], [3, 1, 8], [6, 1, 64]]
        assert w["distances"] == ["9/64", "1/8", "0/1"]
        assert report["conclusive"] is True

    def test_length_flag_equivalent_to_m(self, capsys):
        _, by_m = run_json(capsys, self.BASE + ["--m", "2"])
        _, by_len = run_json(capsys, self.BASE + ["--length", "3"])
        assert by_m["witness"] == by_len["witness"]

    def test_m_and_length_conflict(self, capsys):
        code, _, err = run_cli(capsys, self.BASE + ["--m", "2", "--length", "3"])
        assert code == 2
        assert "length" in err

    def test_unit_weights_inconclusive(self, capsys):
        code, report = run_json(
            capsys,
            [
                "multirec",
                "--weights",
                '{"kind": "unit"}',
                "--ball",
                '{"center": "e0", "radius": "1/4"}',
                "--m",
                "1",
                "--q-max",
                "30",
            ],
        )
        assert code == 1
        assert report["verdict"] == "exhausted"
        assert report["conclusive"] is False
        assert "witness" not in report
        assert "inconclusive" in report["note"]

    def test_unverified_witness_is_not_exit_0(self, capsys, monkeypatch):
        # a witness whose fresh walk missed the ball is reported, never as a success
        monkeypatch.setattr(cli, "multirec_witness", failed_witness)
        code, report = run_json(capsys, self.BASE + ["--m", "1"])
        assert code == 1
        assert report["verdict"] == "witness"
        assert report["verified"] is False


class TestUniversal:
    def test_dyadic_example(self, capsys):
        code, report = run_json(
            capsys,
            ["universal", "--scalars", "dyadic-sqrt", "--y", "e0", "--m", "2", "--k", "16"],
        )
        assert code == 0
        assert report["error"] == "1/4"
        assert report["ytilde"] == [[0, 1, 1], [16, 1, 16], [32, 1, 64]]

    def test_precondition_failure_is_invalid_input(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["universal", "--scalars", "one", "--y", '[[0,1,1],[5,1,1]]', "--m", "1", "--k", "5"],
        )
        assert code == 2
        assert "support" in err


# ---------------------------------------------------------------------------
# combinatorial commands


class TestCombinatorial:
    def test_szemeredi_csv(self, capsys):
        code, out, _ = run_cli(capsys, ["szemeredi", "--n", "5", "--output", "csv"])
        assert code == 0
        assert out == "n,k,r\n5,3,4\n"

    def test_szemeredi_budget_exceeded(self, capsys):
        code, report = run_json(capsys, ["szemeredi", "--n", "30"])
        assert code == 2
        assert report["verdict"] == "error"
        assert report["verified"] is False

    def test_vdw_counterexample(self, capsys):
        code, report = run_json(capsys, ["vdw", "--n", "8"])
        assert code == 0
        assert report["forced"] is False
        assert report["coloring"] == "11001100"

    def test_vdw_forced(self, capsys):
        code, report = run_json(capsys, ["vdw", "--n", "9"])
        assert code == 0
        assert report["forced"] is True
        assert report["coloring"] is None

    def test_gowers_csv_header_and_row(self, capsys):
        code, out, _ = run_cli(capsys, ["gowers", "--l", "11", "--output", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "l,m_l,f_at_m_l,bound_r3,k_of_n,vacuous_flag"
        cells = lines[1].split(",")
        assert cells[0] == "11" and cells[1] == "15"
        assert cells[3] == "" and cells[4] == ""  # below the bound's domain

    def test_gowers_range(self, capsys):
        code, report = run_json(capsys, ["gowers", "--l-min", "4", "--l-max", "8"])
        assert code == 0
        assert [row["l"] for row in report["rows"]] == [4, 5, 6, 7, 8]

    def test_gowers_l_and_range_conflict(self, capsys):
        code, _, _ = run_cli(capsys, ["gowers", "--l", "5", "--l-min", "4", "--l-max", "8"])
        assert code == 2

    def test_gowers_domain_floor(self, capsys):
        code, report = run_json(capsys, ["gowers", "--l", "3"])
        assert code == 2
        assert report["verdict"] == "error"

    def test_gowers_domain_cap(self, capsys):
        code, _ = run_json(capsys, ["gowers", "--l", str(2**49)])
        assert code == 0
        code, out, err = run_cli(capsys, ["gowers", "--l", str(2**49 + 1)])
        report = json.loads(out)
        assert code == 2
        assert set(report) == {"command", "mode", "verdict", "verified", "error"}
        assert report["verdict"] == "error"
        assert "2^49" in err


# ---------------------------------------------------------------------------
# pair / nested / joint-count commands


class TestSearchCommands:
    def test_pair_search_witness(self, capsys):
        code, report = run_json(
            capsys,
            [
                "pair-search",
                "--weights",
                '{"kind": "constant", "value": "2"}',
                "--u",
                '{"center": "e0", "radius": "1/2"}',
                "--v1",
                '{"center": [], "radius": "1/2"}',
                "--v2",
                '{"center": "e0", "radius": "1/2"}',
                "--m",
                "1",
            ],
        )
        assert code == 0
        assert report["witness"]["a"] == 2
        assert report["witness"]["q"] == 2

    def test_nested_stages(self, capsys):
        code, report = run_json(
            capsys,
            [
                "nested",
                "--weights",
                '{"kind": "constant", "value": "2"}',
                "--ball",
                '{"center": "e0", "radius": "1/2"}',
                "--stages",
                "2",
                "--q-max",
                "64",
            ],
        )
        assert code == 0
        qs = [s["q"] for s in report["stages"]]
        radii = [s["radius"] for s in report["stages"]]
        assert qs == [None, 4, 5]
        assert radii == ["1/2", "1/4", "1/8"]
        assert report["point"] == report["stages"][-1]["center"]

    def test_nested_unverified_stage_is_not_exit_0(self, capsys, monkeypatch):
        monkeypatch.setattr(recurrence, "multirec_witness", failed_witness)
        code, report = run_json(
            capsys,
            ["nested", "--weights", '{"kind": "constant", "value": "2"}',
             "--ball", '{"center": "e0", "radius": "1/2"}', "--stages", "1"],
        )
        assert code == 1
        assert report["verdict"] == "witness"
        assert report["verified"] is False

    def test_nested_failure_reports_stage(self, capsys):
        code, report = run_json(
            capsys,
            [
                "nested",
                "--weights",
                '{"kind": "unit"}',
                "--ball",
                '{"center": "e0", "radius": "1/2"}',
                "--stages",
                "1",
                "--q-max",
                "15",
            ],
        )
        assert code == 1
        assert report["verdict"] == "exhausted"
        assert report["failed_stage"] == 1
        assert len(report["stages"]) == 1

    def test_puig_count_universal_pattern(self, capsys):
        code, report = run_json(
            capsys,
            [
                "puig-count",
                "--scalars",
                "dyadic-sqrt",
                "--operator",
                '{"kind": "backward"}',
                "--x",
                "[[0, 1, 1], [16, 1, 16], [32, 1, 64]]",
                "--ball",
                '{"center": "e0", "radius": "1/2"}',
                "--q",
                "16",
                "--horizon",
                "40",
            ],
        )
        assert code == 0
        assert report["count"] == 3


# ---------------------------------------------------------------------------
# config handling


class TestConfig:
    def test_round_trip_is_byte_identical(self, capsys, tmp_path):
        argv = TestMultirec.BASE + ["--m", "2"]
        code, out1, _ = run_cli(capsys, argv)
        assert code == 0
        config = json.loads(out1)["config"]
        cfg_file = tmp_path / "multirec.json"
        cfg_file.write_text(json.dumps(config))
        code2, out2, _ = run_cli(capsys, ["multirec", "--config", str(cfg_file)])
        assert code2 == 0
        assert out1 == out2

    def test_flags_override_config_file(self, capsys, tmp_path):
        cfg_file = tmp_path / "sz.json"
        cfg_file.write_text(json.dumps({"n": 5, "k": 3}))
        code, report = run_json(
            capsys, ["szemeredi", "--config", str(cfg_file), "--n", "7"]
        )
        assert code == 0
        assert report["config"]["n"] == 7
        assert report["r"] == 4

    @pytest.mark.parametrize(
        "argv",
        [
            ["orbit", "--operator", '{"kind": "backward"}', "--x", "e3", "--horizon", "2"],
            ["return-set", "--operator", '{"kind": "backward"}', "--x", "e3",
             "--ball", '{"center": "e0", "radius": "4"}', "--horizon", "3"],
            ["universal", "--y", "e0", "--m", "1", "--k", "2"],
            ["puig-count", "--operator", '{"kind": "backward"}', "--x", "e3",
             "--ball", '{"center": "e0", "radius": "4"}', "--m", "1", "--q", "1",
             "--horizon", "3"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_scalars_flag_takes_the_json_form(self, capsys, tmp_path, argv):
        scalars = {"kind": "explicit", "values": ["2/1", "3/1", "1/2", "5/1"]}
        code, by_flag, _ = run_cli(capsys, argv + ["--scalars", json.dumps(scalars)])
        assert code == 0
        cfg_file = tmp_path / "scalars.json"
        cfg_file.write_text(json.dumps({"scalars": scalars}))
        code2, by_file, _ = run_cli(capsys, argv + ["--config", str(cfg_file)])
        assert code2 == 0
        assert by_flag == by_file
        assert json.loads(by_flag)["config"]["scalars"] == scalars
        # a kind name is still taken as it is
        code3, report = run_json(capsys, argv + ["--scalars", "one"])
        assert code3 == 0 and report["config"]["scalars"] == "one"

    def test_bounds_provenance(self, capsys):
        _, by_default = run_json(capsys, ["szemeredi", "--n", "5"])
        _, by_flag = run_json(capsys, ["szemeredi", "--n", "5", "--budget", "25"])
        assert by_default["bounds"]["budget"] == {"value": 25, "provenance": "default"}
        assert by_flag["bounds"]["budget"] == {"value": 25, "provenance": "config"}

    def test_float_config_rejected_with_guidance(self, capsys):
        code, report = run_json(
            capsys,
            TestMultirec.BASE[:3] + ["--ball", '{"center": "e0", "radius": 0.25}', "--m", "1"],
        )
        assert code == 2
        assert "num/den" in report["error"]

    def test_orbit_past_the_digit_limit_is_an_input_error(self, capsys):
        # the squared norm passes Python's 4300-digit text limit near n = 450,
        # and in float mode it overflows a double long before that
        op = (
            '{"kind":"power","exponent":10,"inner":{"kind":"backward",'
            '"weights":{"kind":"constant","value":"3/2"},"laterality":"bilateral"}}'
        )
        argv = ["orbit", "--operator", op, "--x", "e0", "--horizon", "910"]
        for extra, expected in (([], "digits"), (["--mode", "float"], "range of a double")):
            code, report = run_json(capsys, argv + extra)
            assert code == 2
            assert report["verdict"] == "error"
            assert expected in report["error"]

    def test_float_scalar_past_a_double_is_an_input_error(self, capsys):
        # e^sqrt(1200000) is past the largest double
        code, report = run_json(
            capsys,
            ["universal", "--mode", "float", "--scalars", "exp-sqrt", "--y", "e0",
             "--m", "1", "--k", "600000"],
        )
        assert code == 2
        assert set(report) == {"command", "mode", "verdict", "verified", "error"}
        assert "range of a double" in report["error"]

    def test_error_report_shape(self, capsys):
        code, report = run_json(capsys, ["gowers", "--l", "2"])
        assert code == 2
        assert set(report) == {"command", "mode", "verdict", "verified", "error"}
        assert report["verdict"] == "error"

    # a JSON integer past Python's 4300-digit limit for int() of text
    PAST_DIGIT_LIMIT = "[" + "1" * 5000 + "]"

    @pytest.mark.parametrize(
        "argv, stdin, prefix",
        [
            (["analyze-set", "--set", PAST_DIGIT_LIMIT], None, "$.set: flag is not valid JSON: "),
            (["sweep", "--command", "vdw", "--grid", '{"n": ' + PAST_DIGIT_LIMIT + "}"], None,
             "$.grid: not valid JSON: "),
            (["analyze-set"], PAST_DIGIT_LIMIT, "$.set: stdin is not a JSON array: "),
        ],
        ids=["flag", "grid", "stdin"],
    )
    def test_past_the_digit_limit_is_an_input_error(self, capsys, argv, stdin, prefix):
        code, out, err = run_cli(capsys, argv, stdin=stdin)
        report = json.loads(out)
        assert code == 2
        assert set(report) == {"command", "mode", "verdict", "verified", "error"}
        assert report["error"].startswith(prefix) and "4300" in report["error"]
        assert err == f"error: {report['error']}\n"

    @pytest.mark.parametrize(
        "content, words",
        [
            (b'{"set": ' + PAST_DIGIT_LIMIT.encode() + b"}", "4300"),
            (b'\xff\xfe{"set": [1]}', "utf-8"),
        ],
        ids=["digit-limit", "not-utf-8"],
    )
    def test_malformed_config_file_is_an_input_error(self, capsys, tmp_path, content, words):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_bytes(content)
        code, report = run_json(capsys, ["analyze-set", "--config", str(cfg_file)])
        assert code == 2
        assert report["error"].startswith("$: config file is not valid JSON: ")
        assert words in report["error"]

    def test_stdin_that_is_not_utf_8_is_an_input_error(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe 1 2"), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        code, report = run_json(capsys, ["analyze-set"])
        assert code == 2
        assert report["error"].startswith("$.set: stdin is not text: ")

    def test_crash_is_an_internal_error(self, capsys, monkeypatch):
        def crash(config, mode):
            raise RuntimeError("injected fault")

        monkeypatch.setitem(cli.RUNNERS, "vdw", crash)
        code, out, err = run_cli(capsys, ["vdw", "--n", "5"])
        report = json.loads(out)
        assert code == cli.INTERNAL == 3
        assert report == {
            "command": "vdw",
            "mode": "exact",
            "verdict": "error",
            "verified": False,
            "error": "internal error: RuntimeError: injected fault",
        }
        assert err.startswith("Traceback") and "in crash" in err
        assert err.endswith(f"error: {report['error']}\n")

    def test_monotonicity_report(self, capsys, monkeypatch):
        def refuse(ls):
            raise MonotonicityError("growth profile is not increasing")

        monkeypatch.setattr(cli, "gowers_table", refuse)
        code, out, err = run_cli(capsys, ["gowers", "--l", "11"])
        report = json.loads(out)
        assert code == 1
        assert set(report) == {"command", "conclusive", "error", "mode", "verdict", "verified"}
        assert report["verdict"] == "inconclusive"
        assert report["conclusive"] is False and report["verified"] is False
        assert err == ""


# ---------------------------------------------------------------------------
# sweeps


class TestSweep:
    def test_gowers_grid(self, capsys):
        code, report = run_json(
            capsys, ["sweep", "--command", "gowers", "--grid", '{"l": [11, 16]}']
        )
        assert code == 0
        assert len(report["runs"]) == 2
        assert [r["config"]["l"] for r in report["runs"]] == [11, 16]
        assert all(r["command"] == "gowers" for r in report["runs"])

    def test_csv_prefixes_grid_keys(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--command", "szemeredi", "--grid", '{"n": [4, 5]}', "--output", "csv"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,n,k,r"
        assert lines[1] == "4,4,3,3"
        assert lines[2] == "5,5,3,4"

    def test_config_file_is_the_base(self, capsys, tmp_path):
        base = {"weights": {"kind": "unit"}, "ball": {"center": "e0", "radius": "1/4"}, "m": 1}
        cfg_file = tmp_path / "base.json"
        cfg_file.write_text(json.dumps(base))
        code, report = run_json(
            capsys,
            ["sweep", "--command", "multirec", "--config", str(cfg_file),
             "--grid", '{"q_max": [1, 3]}'],
        )
        assert code == 1  # unit weights exhaust every run
        assert report["verified"] is False
        assert report["config"]["base"] == base
        assert [r["config"] for r in report["runs"]] == [
            {**base, "q_max": 1},
            {**base, "q_max": 3},
        ]

    def test_exit_code_is_worst_of_runs(self, capsys):
        code, report = run_json(
            capsys,
            [
                "sweep",
                "--command",
                "shift-check",
                "--grid",
                '{"weights": [{"kind": "constant", "value": "2"}, {"kind": "unit"}], "epsilon": ["1/2"], "q_max": [10]}',
            ],
        )
        assert code == 1  # the unit-weight run exhausts
        verdicts = [r["verdict"] for r in report["runs"]]
        assert verdicts == ["witness", "exhausted"]

    def test_empty_grid(self, capsys):
        code, report = run_json(capsys, ["sweep", "--command", "gowers", "--grid", "{}"])
        assert code == 0
        assert report["runs"] == []

    def test_limit_guard(self, capsys):
        code, report = run_json(
            capsys,
            [
                "sweep",
                "--command",
                "szemeredi",
                "--grid",
                '{"n": [1, 2, 3], "k": [3, 4, 5]}',
                "--limit",
                "4",
            ],
        )
        assert code == 2
        assert report["verdict"] == "error"

    def test_bad_grid_json(self, capsys):
        code, _, err = run_cli(capsys, ["sweep", "--command", "gowers", "--grid", "{nope"])
        assert code == 2
        assert "grid" in err


# ---------------------------------------------------------------------------
# the shared parser


class TestParser:
    CALLS = [
        TestMultirec.BASE + ["--m", "2"],
        ["szemeredi", "--n", "7", "--budget", "30", "--output", "csv"],
        TestMultirec.BASE + ["--length", "2", "--q-max", "40"],
        ["gowers", "--l", "11"],
        TestMultirec.BASE + ["--m", "2", "--length", "3"],
    ]

    @pytest.mark.parametrize(
        "argv, command, words",
        [
            (["szemeredi", "--bogus", "1"], "szemeredi", "unrecognized arguments"),
            (["szemeredi", "--n", "x"], "szemeredi", "invalid int value"),
            ([], None, "required"),
            (["bogus"], None, "invalid choice"),
        ],
        ids=["unknown-flag", "bad-int", "no-subcommand", "unknown-subcommand"],
    )
    def test_usage_error_is_an_error_report(self, capsys, argv, command, words):
        code, out, err = run_cli(capsys, argv)
        report = json.loads(out)
        assert code == 2
        assert report == {
            "command": command,
            "mode": None,
            "verdict": "error",
            "verified": False,
            "error": report["error"],
        }
        assert words in report["error"]
        assert err == f"error: {report['error']}\n"

    def test_help_exits_0(self, capsys):
        code, out, _ = run_cli(capsys, ["szemeredi", "--help"])
        assert code == 0
        assert out.startswith("usage: aporbit szemeredi")

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_reports_match_a_fresh_parser(self, capsys, monkeypatch):
        # no flag of one call may leak into the next through the shared parser
        shared = [run_cli(capsys, argv) for argv in self.CALLS]
        fresh = []
        for argv in self.CALLS:
            monkeypatch.setattr(cli, "_parser", None)
            fresh.append(run_cli(capsys, argv))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, 0, 0, 2]


# ---------------------------------------------------------------------------
# one real process, to cover the console entry point


class TestSubprocess:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "aporbit.cli", "szemeredi", "--n", "5", "--output", "csv"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "n,k,r\n5,3,4\n"

    def test_closed_stdout_exits_141_without_a_traceback(self):
        # the report is far larger than a pipe buffer, so the writer meets the closed end
        proc = subprocess.Popen(
            [sys.executable, "-m", "aporbit.cli", "gowers", "--l-min", "4", "--l-max", "2000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        assert proc.stdout.readline() == "{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == cli.BROKEN_PIPE == 141
        assert "Traceback" not in err
