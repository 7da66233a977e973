import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import threading
from fractions import Fraction

import pytest

import hfring
from hfring import algebra, cli, formats, order, scalars, suite
from hfring import piecewise as pw
from hfring.errors import EnvelopeError
from hfring.piecewise import Domain

from conftest import DATA_DIR

STEP = os.path.join(DATA_DIR, "step_pair.json")
OSC = os.path.join(DATA_DIR, "oscillation_pair.json")
# the child process runs the package the tests import, also when pytest
# found it through its own `pythonpath` setting rather than PYTHONPATH
SRC = os.path.dirname(os.path.dirname(hfring.__file__))
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
}


def run_cli(*args, expect: int = 0):
    result = subprocess.run(
        [sys.executable, "-m", "hfring.cli", *args],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert result.returncode == expect, result.stderr or result.stdout
    return result


@pytest.fixture
def suite_defs(tmp_path):
    """The first three members of the seed-8201 suite on (-1, 1), bound as
    a, b and c: piecewise-linear, but a product of two of them is not."""
    functions = suite.h_continuous_suite(8201, 3, Domain.of(-1, 1))
    body = {name: formats.hfunction_to_json(f) for name, f in zip("abc", functions)}
    path = tmp_path / "suite.json"
    path.write_text(formats.dumps_json({"functions": body}))
    return str(path)


def test_samples_flag_removed():
    run_cli("--samples", "5", "verify-ring", "--count", "2", expect=2)


class TestEval:
    def test_step_at_zero(self):
        out = run_cli("eval", STEP, "f", "0").stdout
        assert out.strip() == "0 0 1"

    def test_multiple_points(self):
        out = run_cli("eval", STEP, "f", "--", "-3", "5").stdout
        assert out.splitlines() == ["-3 0 0", "5 1 1"]

    def test_constant(self):
        out = run_cli("eval", STEP, "one", "17").stdout
        assert out.strip() == "17 1 1"

    def test_negative_fractions_without_separator(self):
        out = run_cli("eval", STEP, "f", "-1/2", "-3", "1/2").stdout
        assert out.splitlines() == ["-0.5 0 0", "-3 0 0", "0.5 1 1"]

    def test_zero_denominator_on_the_whole_line_exit_2(self, tmp_path):
        defs = tmp_path / "defs.json"
        defs.write_text(json.dumps({
            "functions": {"f": {
                "domain": ["-inf", "inf"],
                "pieces": [{"on": ["-inf", "inf"], "lower": "1/0"}],
                "points": [],
            }}
        }))
        result = run_cli("eval", str(defs), "f", "0", expect=2)
        assert "division by zero" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command", [["validate"], ["eval", "f", "1"]], ids=["validate", "eval"])
    def test_rational_denominator_vanishing_inside_a_piece_exit_2(self, tmp_path, command):
        # x*x/x is x in normal form; the check reads the division as written
        for lower, domain in [("1/((x-1)/x)", [0, 2]), ("x*x/x", [-1, 1])]:
            defs = tmp_path / "defs.json"
            defs.write_text(json.dumps({"functions": {"f": {
                "domain": domain, "pieces": [{"on": domain, "lower": lower}], "points": [],
            }}}))
            result = run_cli(command[0], str(defs), *command[1:], expect=2)
            assert "cannot load" in result.stderr
            assert "division by zero" in result.stderr

    def test_deeply_nested_piece(self, tmp_path):
        outputs = []
        for piece in ("x", "(" * 400 + "x" + ")" * 400):
            path = tmp_path / "defs.json"
            path.write_text(json.dumps({"functions": {"f": {
                "domain": [-1, 1], "pieces": [{"on": [-1, 1], "lower": piece}], "points": [],
            }}}))
            outputs.append(run_cli("eval", str(path), "f", "1/2").stdout)
        assert outputs == ["0.5 0.5 0.5\n"] * 2

    def test_piece_too_deep_for_the_walkers_exit_2(self, tmp_path):
        # one tree level per term; parsing is iterative, canonicalising is not
        path = tmp_path / "defs.json"
        path.write_text(json.dumps({"functions": {"f": {
            "domain": [-1, 1], "pieces": [{"on": [-1, 1], "lower": " + ".join(["x"] * 1100)}],
            "points": [],
        }}}))
        result = run_cli("eval", str(path), "f", "1/2", expect=2)
        assert "expression nested too deeply" in result.stderr
        assert "Traceback" not in result.stderr

    def test_zero_denominator_point_exit_2(self):
        result = run_cli("eval", STEP, "f", "1/0", expect=2)
        assert "not a number" in result.stderr
        assert "Traceback" not in result.stderr

    def test_unbound_name_exit_3(self):
        run_cli("eval", STEP, "missing", "0", expect=3)

    def test_bad_file_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        run_cli("eval", str(bad), "f", "0", expect=2)

    @pytest.mark.parametrize("defs", [
        {"functions": {"F": {"pieces": [{"on": [-1, 1], "lower": "x"}]}}},
        {"functions": {"F": {"domain": [-1, 1], "pieces": [{"on": [-1, 1]}]}}},
        {"functions": {"F": {"domain": [-1, 1], "pieces": [
            {"on": [-1, 1], "lower": "x", "envelopes": {"left": {"liminf": 0}}}]}}},
        {"functions": {"F": {"domain": [-1, 1], "pieces": [{"on": [-1, 1], "lower": 5}]}}},
        {"functions": []},
        {"functions": {"F": {"domain": ["abc", 1], "pieces": [{"on": [-1, 1], "lower": "x"}]}}},
        # str.isdigit accepts it, Fraction does not
        {"functions": {"F": {"domain": [-1, 1], "pieces": [
            {"on": [-1, 1], "lower": "x + \u00b2"}]}}},
    ], ids=["no-domain", "no-lower", "no-limsup", "numeric-lower", "functions-list",
            "bad-scalar", "superscript-digit"])
    def test_malformed_defs_exit_2(self, tmp_path, defs):
        path = tmp_path / "defs.json"
        path.write_text(json.dumps(defs))
        result = run_cli("eval", str(path), "F", "1/2", expect=2)
        assert "cannot load" in result.stderr
        assert "Traceback" not in result.stderr

    def test_domain_error_exit_4(self, tmp_path):
        defs = tmp_path / "defs.json"
        defs.write_text(json.dumps({
            "functions": {"f": {
                "domain": [-1, 1],
                "pieces": [{"on": [-1, 1], "lower": "x"}],
                "points": [],
            }}
        }))
        run_cli("eval", str(defs), "f", "5", expect=4)


class TestOp:
    def test_step_sum_is_zero_function(self, tmp_path):
        out_file = tmp_path / "result.json"
        run_cli("op", STEP, "f + g", "--check-all", "--depth", "32",
                "-o", str(out_file))
        data = json.loads(out_file.read_text())
        assert data["points"] == []
        assert len(data["pieces"]) == 1
        assert data["pieces"][0]["lower"] == "0"

    def test_identity_times_one(self, tmp_path):
        out_file = tmp_path / "result.json"
        run_cli("op", STEP, "f * one", "-o", str(out_file))
        data = json.loads(out_file.read_text())
        assert data["points"] == [{"x": 0, "value": [0, 1]}]

    def test_distributivity_identical_json(self, tmp_path):
        left = tmp_path / "left.json"
        right = tmp_path / "right.json"
        run_cli("op", STEP, "(f + g)*f", "-o", str(left))
        run_cli("op", STEP, "f*f + g*f", "-o", str(right))
        assert left.read_text() == right.read_text()

    def test_oscillation_sum_with_declaration(self, tmp_path):
        root2 = "1.4142135623730951"
        out_file = tmp_path / "osc.json"
        run_cli("--mode", "float", "op", OSC, "f + g",
                "--declare", "0", f"-{root2}", root2, "-o", str(out_file))
        data = json.loads(out_file.read_text())
        value = data["points"][0]["value"]
        assert value[0] == pytest.approx(-math.sqrt(2))
        assert value[1] == pytest.approx(math.sqrt(2))

    def test_def3_on_transcendental_exit_6(self):
        run_cli("--mode", "float", "op", OSC, "f + g", "--def", "3", expect=6)
        # --check-all skips def3 on such operands only when another route is asked for
        run_cli("--mode", "float", "op", OSC, "f + g", "--def", "3", "--check-all", expect=6)
        run_cli("--mode", "float", "op", OSC, "f + g", "--def", "1", "--check-all")

    def test_def_folds_the_whole_expression(self, suite_defs):
        # the second product's left operand b * c is quadratic, outside def3's subclass
        run_cli("op", suite_defs, "b * c * a", "--def", "3", expect=6)
        checked = run_cli("op", suite_defs, "b * c * a", "--check-all").stdout
        assert checked == run_cli("op", suite_defs, "b * c * a").stdout

    def test_def3_sums_every_node(self, suite_defs, tmp_path, monkeypatch):
        calls = []
        real = order.oplus_def3

        def counted(f, g, depth=4096):
            calls.append(depth)
            return real(f, g, depth=depth)

        monkeypatch.setattr(order, "oplus_def3", counted)
        argv = ["op", suite_defs, "a + b + c", "--def", "3", "--depth", "2048"]
        assert cli.main(argv + ["-o", str(tmp_path / "r.json")]) == 0
        assert calls == [2048, 2048]

    @pytest.mark.parametrize("depth, expr, expect", [
        (330, "f + g", 0),
        # each operation nests the result one level deeper
        (450, "f" + " + g" * 300, 2),
    ], ids=["deep-piece", "deep-result"])
    def test_operations_on_a_deep_piece(self, tmp_path, depth, expr, expect):
        path = tmp_path / "defs.json"
        path.write_text(json.dumps({"functions": {
            "f": {"domain": [0, 1], "points": [],
                  "pieces": [{"on": [0, 1], "lower": "sin(" * depth + "x" + ")" * depth}]},
            "g": {"domain": [0, 1], "pieces": [{"on": [0, 1], "lower": "x"}], "points": []},
        }}))
        result = run_cli("--mode", "float", "op", str(path), expr, expect=expect)
        if expect:
            assert "error: expression nested too deeply" in result.stderr
        assert "Traceback" not in result.stderr

    def test_deep_nesting_within_the_recursion_limit(self):
        nested = run_cli("op", STEP, "(" * 400 + "f" + ")" * 400)
        assert nested.stdout == run_cli("op", STEP, "f").stdout

    def test_long_expression_within_the_recursion_limit(self, tmp_path):
        # the parser builds a left-deep chain, one tree level per term
        out_file = tmp_path / "sum.json"
        run_cli("op", STEP, " + ".join(["f"] * 1100), "-o", str(out_file))
        assert run_cli("eval", str(out_file), "result", "1").stdout == "1 1100 1100\n"

    def test_check_all_exit_1_when_a_route_disagrees(self, monkeypatch, capsys):
        real = algebra.oplus_def2
        # a shift far below the float-mode tolerance still breaks literal equality
        for shift in (1, Fraction(1, 10**12)):
            def shifted(f, g, declared=None):
                report = real(f, g, declared)
                c = pw.constant_function(report.result.domain, shift)
                return dataclasses.replace(report, result=pw.pointwise_add(report.result, c))

            monkeypatch.setattr(algebra, "oplus_def2", shifted)
            assert cli.main(["op", STEP, "f + g", "--check-all"]) == 1
            assert "def2 deviates from def1" in capsys.readouterr().err

    def test_float_routes_agree_on_limits_within_the_tolerance(self, tmp_path):
        # the limits of f + g at 0.3 are 0.2 and 0.19999999999999998: the
        # completion route prunes the point, and so must the extension route
        defs = tmp_path / "fp.json"
        defs.write_text(json.dumps({"functions": {
            "f": {"domain": [-1, 1], "pieces": [{"on": [-1, 0.3], "lower": "x"},
                                                {"on": [0.3, 1], "lower": "x + 0.1"}],
                  "points": [{"x": 0.3, "value": [0.3, 0.4]}]},
            "g": {"domain": [-1, 1], "pieces": [{"on": [-1, 0.3], "lower": "0.2 - x"},
                                                {"on": [0.3, 1], "lower": "0.1 - x"}],
                  "points": [{"x": 0.3, "value": [-0.2, -0.1]}]}}}))
        out = run_cli("--mode", "float", "op", str(defs), "f + g", "--check-all").stdout
        result = json.loads(out)
        assert result["points"] == []
        assert [piece["lower"] for piece in result["pieces"]] == ["0.2"]

    def test_check_all_skips_def3_for_a_declared_envelope(self):
        declare = ["--declare", "0", "0", "0"]
        plain = run_cli("op", STEP, "f + g", *declare).stdout
        assert run_cli("op", STEP, "f + g", "--check-all", *declare).stdout == plain
        run_cli("op", STEP, "f + g", "--def", "3", *declare, expect=2)

    def test_op_output_feeds_eval(self, tmp_path):
        root2 = "1.4142135623730951"
        out_file = tmp_path / "osc_sum.json"
        run_cli("--mode", "float", "op", OSC, "f + g",
                "--declare", "0", f"-{root2}", root2, "-o", str(out_file))
        out = run_cli("--mode", "float", "eval", str(out_file), "result", "0").stdout
        assert out.strip() == f"0 -{root2} {root2}"

    def test_non_h_continuous_operand_exit_5(self, tmp_path):
        defs = tmp_path / "defs.json"
        defs.write_text(json.dumps({
            "functions": {"bad": {
                "domain": ["-inf", "inf"],
                "pieces": [
                    {"on": ["-inf", 0], "lower": "0"},
                    {"on": [0, "inf"], "lower": "1"},
                ],
                "points": [{"x": 0, "value": [0, 0.5]}],
            }}
        }))
        run_cli("op", str(defs), "bad + bad", expect=5)

    def test_unbound_operand_exit_3(self):
        run_cli("op", STEP, "f + h", expect=3)

    def test_engine_key_error_is_not_unbound_name(self, monkeypatch):
        def broken(f, g, declared=None):
            raise KeyError("f")

        monkeypatch.setattr(algebra, "oplus_def1", broken)
        with pytest.raises(KeyError):
            cli.main(["op", STEP, "f + g"])

    def test_syntax_error_exit_2(self):
        run_cli("op", STEP, "f + (g", expect=2)

    def test_output_validates(self, tmp_path):
        defs = tmp_path / "defs.json"
        defs.write_text(json.dumps({
            "functions": {"f": {
                "domain": [0, 1],
                "pieces": [{"on": [0, 1], "lower": "x"}],
                "points": [],
            }}
        }))
        out_file = tmp_path / "r.json"
        run_cli("op", str(defs), "f + f", "-o", str(out_file))
        run_cli("validate", str(out_file))


class TestVerifyRing:
    def test_small_suite_exit_0(self, tmp_path):
        out_file = tmp_path / "report.json"
        run_cli("verify-ring", "--count", "10", "-o", str(out_file))
        report = json.loads(out_file.read_text())
        assert report["all_passed"] is True
        assert report["axioms"]["distributive"]["cases"] == 10

    def test_mutant_fails_nonzero(self, tmp_path):
        out_file = tmp_path / "report.json"
        run_cli("verify-ring", "--count", "6", "--mutate", "skip-completion",
                "-o", str(out_file), expect=1)
        report = json.loads(out_file.read_text())
        assert report["axioms"]["additive_inverse"]["passed"] is False

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("--seed", "5", "verify-ring", "--count", "6", "-o", str(a))
        run_cli("--seed", "5", "verify-ring", "--count", "6", "-o", str(b))
        assert a.read_text() == b.read_text()


class TestSample:
    def test_step_rows(self, tmp_path):
        out_file = tmp_path / "grid.csv"
        run_cli("sample", STEP, "f", "--", "-1", "0.5", "5", str(out_file))
        assert out_file.read_text().splitlines() == [
            "x,lo,hi",
            "-1,0,0",
            "-0.5,0,0",
            "0,0,1",
            "0.5,1,1",
            "1,1,1",
        ]

    def test_negative_fraction_origin(self, tmp_path):
        out_file = tmp_path / "grid.csv"
        run_cli("sample", STEP, "f", "-7/8", "1/16", "29", str(out_file))
        rows = out_file.read_text().splitlines()
        assert len(rows) == 30
        assert rows[1] == "-0.875,0,0"
        assert rows[15] == "0,0,1"
        assert rows[-1] == "0.875,1,1"

    def test_single_row(self, tmp_path):
        out_file = tmp_path / "grid.csv"
        run_cli("sample", STEP, "f", "2", "1", "1", str(out_file))
        assert out_file.read_text().splitlines() == ["x,lo,hi", "2,1,1"]


class TestGridConverge:
    def test_errors_zero_for_flat_pieces(self):
        out = run_cli("grid-converge", STEP, "f + g",
                      "--h", "0.25", "0.125", "--x0", "-2", "--width", "4").stdout
        data = json.loads(out)
        assert [row["max_error"] for row in data["errors"]] == [0.0, 0.0]

    def test_unbound_operand_exit_3(self):
        run_cli("grid-converge", STEP, "f + h", "--h", "0.5", expect=3)

    def test_single_h(self):
        out = run_cli("grid-converge", STEP, "f", "--h", "0.5",
                      "--x0", "-2", "--width", "4").stdout
        assert len(json.loads(out)["errors"]) == 1


class TestCompareDefs:
    def test_step_pair_agrees(self, tmp_path):
        csv_path = tmp_path / "points.csv"
        out = run_cli("compare-defs", STEP, "f", "g", "--depth", "32",
                      "--out-csv", str(csv_path)).stdout
        data = json.loads(out)
        assert data["ops"]["plus"]["max_abs_deviation"] == 0.0
        assert data["ops"]["times"]["within_tol"] is True
        header = csv_path.read_text().splitlines()[0]
        assert header == "op,x,def3_lo,def3_hi,def1_lo,def1_hi"

    def test_repeated_ops_are_compared_once(self, tmp_path, capsys):
        csv_path = tmp_path / "points.csv"
        assert cli.main(["compare-defs", STEP, "f", "g", "--depth", "32",
                         "--ops", "times,plus,times,plus", "--out-csv", str(csv_path)]) == 0
        assert sorted(json.loads(capsys.readouterr().out)["ops"]) == ["plus", "times"]
        rows = csv_path.read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["times"] * 256 + ["plus"] * 256

    def test_unknown_op_is_refused_before_any_route_runs(self, tmp_path, monkeypatch, capsys):
        calls = []
        oplus_def3 = order.oplus_def3
        monkeypatch.setattr(order, "oplus_def3",
                            lambda *args, **kw: calls.append(1) or oplus_def3(*args, **kw))
        assert cli.main(["compare-defs", STEP, "f", "g", "--depth", "32", "--ops", "plus,bogus",
                         "--out-csv", str(tmp_path / "points.csv")]) == 2
        assert "unknown op 'bogus'" in capsys.readouterr().err
        assert calls == []

    def test_outside_the_piecewise_linear_subclass_exit_6(self, tmp_path):
        run_cli("--mode", "float", "compare-defs", OSC, "f", "g",
                "--out-csv", str(tmp_path / "points.csv"), expect=6)


class TestValidate:
    def test_step_defs_validate(self):
        out = run_cli("validate", STEP).stdout
        data = json.loads(out)
        assert all(entry["h_continuous"] for entry in data.values())

    def test_observed_values_reported(self, tmp_path):
        with open(STEP) as fp:
            data = json.load(fp)
        left, right = data["functions"]["f"]["pieces"]
        left["envelopes"] = {"right": {"liminf": 0, "limsup": "1/2"}}
        right["envelopes"] = {"left": {"liminf": 1, "limsup": 1}}
        defs = tmp_path / "defs.json"
        defs.write_text(json.dumps(data))
        out = run_cli("validate", str(defs), expect=1).stdout
        checks = {(c["x"], c["side"]): c for c in json.loads(out)["f"]["envelopes"]}
        assert checks[(0, "right")]["passed"] is False  # 1/2 is never approached
        assert checks[(0, "right")]["observed_min"] == 0
        assert checks[(0, "right")]["observed_max"] == 0
        assert checks[(0, "left")]["observed_min"] == 1
        assert checks[(0, "left")]["observed_max"] == 1

    @pytest.mark.parametrize("piece, extra", [
        (0, {"envelopes": {"left": {"liminf": 0, "limsup": 0}}}),
        (1, {"upper": "2", "upper_envelopes": {"right": {"liminf": 2, "limsup": 2}}}),
    ], ids=["envelopes-at-minus-inf", "upper-envelopes-at-inf"])
    def test_envelope_at_an_infinite_end_exit_2(self, tmp_path, piece, extra):
        # an infinite end is not a point of the domain, so it takes no envelope
        with open(STEP) as fp:
            data = json.load(fp)
        data["functions"]["f"]["pieces"][piece].update(extra)
        defs = tmp_path / "defs.json"
        defs.write_text(json.dumps(data))
        with pytest.raises(EnvelopeError, match="infinite"):
            formats.load_defs(str(defs))
        assert "infinite" in run_cli("validate", str(defs), expect=2).stderr

    def test_exact_declaration_passes_in_rational_mode(self, tmp_path):
        # the declared envelope is the exact limit 1/3, so the check's slack
        # must keep 1/3 exact: 1/3 - 0.0 is a float just below 1/3
        defs = tmp_path / "defs.json"
        defs.write_text(json.dumps({"functions": {"f": {
            "domain": [0, 1],
            "pieces": [
                {"on": [0, "1/2"], "lower": "1/3",
                 "envelopes": {"right": {"liminf": "1/3", "limsup": "1/3"}}},
                {"on": ["1/2", 1], "lower": "1/3"},
            ],
            "points": [{"x": "1/2", "value": "1/3"}],
        }}}))
        out = run_cli("validate", str(defs)).stdout
        (check,) = json.loads(out)["f"]["envelopes"]
        assert check["passed"] and check["message"] == "ok"

    def test_oscillation_validates_in_float_mode(self):
        out = run_cli("--mode", "float", "validate", OSC).stdout
        data = json.loads(out)
        assert data["f"]["h_continuous"] is True
        assert all(c["passed"] for c in data["f"]["envelopes"])
        assert all(-1 <= c["observed_min"] < c["observed_max"] <= 1
                   for c in data["f"]["envelopes"])


def _exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects a malformed int or float option
        return exc.code


@pytest.mark.parametrize("argv", [
    ["eval", STEP, "f", "1/0"],
    ["--mode", "float", "eval", STEP, "f", "1e400"],
    ["sample", STEP, "f", "0", "1/0", "3", "OUT"],
    ["sample", STEP, "f", "zero", "1", "3", "OUT"],
    ["verify-ring", "--count", "2", "--domain", "0", "1/0"],
    ["grid-converge", STEP, "f + g", "--h", "1/0"],
    ["grid-converge", STEP, "f + g", "--h", "1/2", "--x0", "-2", "--width", "four"],
    ["grid-converge", STEP, "f + g", "--h", "1/2", "--x0", "-2"],
    ["op", STEP, "f + g", "--declare", "0", "-1", "1/0"],
    ["compare-defs", STEP, "f", "g", "--tol", "1/0"],
    ["compare-defs", STEP, "f", "g", "--depth", "1/2"],
    ["--tol", "0", "eval", STEP, "f", "0"],
    ["--tol", "-1", "eval", STEP, "f", "0"],
    ["--mode", "float", "--tol", "nan", "eval", STEP, "f", "0"],
    ["--mode", "float", "--tol", "inf", "eval", STEP, "f", "0"],
    ["verify-ring", "--max-jumps", "-2"],
    ["verify-ring", "--count", "0"],
    ["op", STEP, "f + g", "--depth", "0"],
    ["compare-defs", STEP, "f", "g", "--depth", "0", "--out-csv", "OUT"],
    ["compare-defs", STEP, "f", "g", "--tol", "nan", "--out-csv", "OUT"],
    ["compare-defs", STEP, "f", "g", "--tol", "-1", "--out-csv", "OUT"],
    ["sample", STEP, "f", "0", "1/2", "0", "OUT"],
    ["compare-defs", STEP, "f", "g", "--ops", ",", "--out-csv", "OUT"],
    ["grid-converge", STEP, "f + g", "--h", "1/8", "0", "--x0", "-1", "--width", "2"],
    ["sample", STEP, "f", "0", "0", "3", "OUT"],
    ["sample", STEP, "f", "0", "-1/4", "3", "OUT"],
    ["verify-ring", "--count", "2", "--domain", "1", "-1"],
    ["verify-ring", "--count", "2", "--domain", "0", "0"],
    ["grid-converge", STEP, "f + g", "--h", "1/8", "--x0", "0", "--width", "-1"],
    ["grid-converge", STEP, "f + g", "--h", "1/8", "--x0", "0", "--width", "0"],
    ["grid-converge", STEP, "f + g", "--h", "1/8", "1/5", "--x0", "0", "--width", "1/4"],
], ids=["eval", "eval-float-range", "sample-h", "sample-x0", "verify-ring-domain",
        "grid-h", "grid-width", "grid-x0-alone", "op-declare", "compare-tol", "compare-depth",
        "tol-zero", "tol-negative", "tol-nan", "tol-inf", "max-jumps-negative", "count-zero",
        "op-depth-zero", "compare-depth-zero", "compare-tol-nan", "compare-tol-negative",
        "sample-n-zero", "compare-no-ops", "grid-h-zero", "sample-h-zero", "sample-h-negative",
        "domain-reversed", "domain-empty", "grid-width-negative", "grid-width-zero",
        "grid-two-nodes"])
def test_bad_number_exit_2(argv, tmp_path, capsys):
    argv = [str(tmp_path / "out.csv") if arg == "OUT" else arg for arg in argv]
    assert _exit_code(argv) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["op", STEP, "f + g", "-o", "OUT"],
    ["sample", STEP, "f", "0", "1", "3", "OUT"],
    ["compare-defs", STEP, "f", "g", "--depth", "32", "--out-csv", "OUT"],
], ids=["op", "sample", "compare-defs"])
def test_unwritable_output_exit_2(argv, tmp_path, capsys):
    out = tmp_path / "missing-dir" / "out"
    assert cli.main([str(out) if arg == "OUT" else arg for arg in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("lower, upper, argv, code, pattern", [
    ("x", None, ["eval", "DEFS", "f", "5"], 4, r"5 outside domain \(0, 2\)"),
    ("x", None, ["eval", "DEFS", "f", "--", "-1/3"], 4, r"-1/3 outside domain \(0, 2\)"),
    ("x", None, ["sample", "DEFS", "f", "--", "1/3", "1", "3", "OUT"], 4,
     r"grid node 7/3 outside domain \(0, 2\)"),
    ("1/((x-1)/x)", None, ["validate", "DEFS"], 2, r"vanishes inside \(0, 2\)"),
    ("1", "0", ["validate", "DEFS"], 2, r"lower bound above upper bound on piece \(0, 2\)"),
    # the point is one of the validator's samples, whichever it draws
    ("sqrt(x - 1)", None, ["validate", "DEFS"], 2,
     r"piece on \(0, 2\) not evaluable at -?\d+(\.\d+|/\d+)?\b"),
], ids=["eval", "eval-negative", "sample", "vanishing-denominator", "lower-above-upper",
        "not-evaluable"])
def test_messages_print_scalars_as_written(lower, upper, argv, code, pattern, tmp_path):
    piece = {"on": [0, 2], "lower": lower, **({"upper": upper} if upper else {})}
    defs = tmp_path / "defs.json"
    defs.write_text(json.dumps({"functions": {"f": {
        "domain": [0, 2], "pieces": [piece], "points": []}}}))
    paths = {"DEFS": str(defs), "OUT": str(tmp_path / "out.csv")}
    result = run_cli(*[paths.get(arg, arg) for arg in argv], expect=code)
    assert re.search(pattern, result.stderr)
    assert "Fraction(" not in result.stderr


@pytest.mark.parametrize("lower, upper", [("1/x", "x/(x*x)"), ("2*x", "(0*(1/x) + 2)*x")],
                         ids=["rational", "collapsed-operand"])
def test_bounds_written_differently_are_one_real_piece(lower, upper, tmp_path):
    # both bounds have one canonical form, so the piece is real-valued
    defs = tmp_path / "defs.json"
    defs.write_text(json.dumps({"functions": {"f": {
        "domain": [1, 2], "pieces": [{"on": [1, 2], "lower": lower, "upper": upper}],
        "points": []}}}))
    assert json.loads(run_cli("validate", str(defs)).stdout)["f"]["h_continuous"] is True
    run_cli("op", str(defs), "f + f")


@pytest.mark.parametrize("argv, code", [
    (["--mode", "float", "--tol", "1e-6", "--seed", "7", "validate", OSC], 0),
    (["--mode", "float", "--tol", "1e-6", "--seed", "7", "eval", STEP, "missing", "0"], 3),
], ids=["success", "error"])
def test_settings_last_for_one_command(argv, code, capsys):
    assert cli.main(argv) == code
    assert (scalars.get_mode(), scalars.get_tolerance(), scalars.get_seed()) == (
        scalars.RATIONAL, scalars.DEFAULT_TOLERANCE, scalars.DEFAULT_SEED)
    assert scalars.to_scalar("1/3") == Fraction(1, 3)


def test_command_in_a_worker_thread_leaves_the_caller_alone(monkeypatch, capsys):
    inside, leave = threading.Event(), threading.Event()
    validate, codes = cli.cmd_validate, []

    def held_validate(args):
        inside.set()
        leave.wait(30)
        return validate(args)

    monkeypatch.setattr(cli, "cmd_validate", held_validate)
    argv = ["--mode", "float", "--tol", "1e-6", "--seed", "7", "validate", OSC]
    thread = threading.Thread(target=lambda: codes.append(cli.main(argv)))
    thread.start()
    try:
        assert inside.wait(30)
        assert (scalars.get_mode(), scalars.get_tolerance(), scalars.get_seed()) == (
            scalars.RATIONAL, scalars.DEFAULT_TOLERANCE, scalars.DEFAULT_SEED)
        assert scalars.to_scalar("1/3") == Fraction(1, 3)
    finally:
        leave.set()
        thread.join(60)
    assert not thread.is_alive()
    assert codes == [0]


def test_parser_is_built_once_and_keeps_no_declarations(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "cmd_op", lambda args: seen.append(args.declare) or 0)
    for declare in (["0", "-1", "1"], ["1/2", "0", "0"], []):
        argv = ["op", STEP, "f + g"] + (["--declare", *declare] if declare else [])
        assert cli.main(argv) == 0
    assert seen == [[["0", "-1", "1"]], [["1/2", "0", "0"]], []]
    assert cli.build_parser.cache_info().currsize == 1


@pytest.mark.parametrize("argv, digest", [
    # every sampled value of the envelope checks, so any change to the order
    # of evaluation shows
    (["--mode", "float", "validate", OSC],
     "a364206f4af87d62cdcbd7ce8e1212501b5c8625cb87a8605b9513c60423fbdb"),
    (["verify-ring", "--count", "40"],
     "464d13747ed47783639c25edfc12221f3ae7cc79b497e9f5836c95b1d6608876"),
    (["op", STEP, "f * g", "--check-all"],
     "3118a81b2113c503081d4d5cb89bbae48effad0409a908351df1b2bceb0d0ef3"),
    (["op", STEP, "f + g", "--check-all"],
     "370efe11a1c91f6bacd88a7cb78f500a28b0349410b52dfebf83097fbececf69"),
    # the step pair's domain is unbounded, so the window is given
    (["grid-converge", STEP, "f * g", "--h", "1/8", "1/16", "1/32",
      "--x0", "-1", "--width", "2"],
     "ecb77e2f06ba10943f786d945bef48525fcb275af9b236c25b244aa037fd3813"),
    # the digest of the CSV written to OUT, not of stdout
    (["sample", STEP, "f", "--", "-7/8", "1/16", "29", "OUT"],
     "6c349436063a71c308a314669937c3a517af2834f767ed7dee59efd4ad939e3d"),
    # def3 at the default depth 4096: the per-point table; stdout names OUT
    (["compare-defs", STEP, "f", "g", "--out-csv", "OUT"],
     "39d0e70f2e45bc325323578baa83d4d55a419be6a289b048687c06347797fc9a"),
], ids=["float-validate", "verify-ring", "op-times", "op-plus", "grid-converge", "sample",
        "compare-defs"])
def test_reference_outputs(argv, digest, tmp_path):
    out_file = tmp_path / "out.csv"
    out = run_cli(*[str(out_file) if arg == "OUT" else arg for arg in argv]).stdout
    data = out_file.read_bytes() if "OUT" in argv else out.encode("utf-8")
    assert hashlib.sha256(data).hexdigest() == digest


def test_readme_library_block_runs():
    readme = os.path.join(os.path.dirname(DATA_DIR), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fp:
        blocks = re.findall(r"```python\n(.*?)```", fp.read(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
