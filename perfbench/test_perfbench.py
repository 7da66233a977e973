"""Smoke test of the benchmark at tiny input sizes.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from hfring import algebra, expr, formats, order, suite  # noqa: E402
from hfring.errors import ConvergenceError  # noqa: E402
from hfring.scalars import RATIONAL, get_mode  # noqa: E402
from tracer import Tracer  # noqa: E402


TINY = {"ring_axioms": 5, "order_limit": 3, "cli_io": 2}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_pass_checks_every_answer(name, tmp_path):
    workload = workloads.WORKLOADS[name](7, str(tmp_path), total=TINY[name])
    workload.prepare()
    tally = workloads.Tally()
    workload.run_pass(tally)
    assert tally.attempted > 0
    assert tally.unexpected == 0
    assert len(tally.latencies_ns) >= tally.attempted
    assert get_mode() == RATIONAL


def two_pieces(left, right, value, x="-1/2"):
    return formats.hfunction_from_json({
        "domain": [-1, 1],
        "pieces": [{"on": [-1, x], "lower": left}, {"on": [x, 1], "lower": right}],
        "points": [{"x": x, "value": value}],
    })


def test_def3_convergence_failure_is_counted_not_unexpected(tmp_path):
    workload = workloads.OrderLimit(7, str(tmp_path), total=1)
    workload.pairs = [(two_pieces("-5/2 + x", "5/2 + x", [-3, 2]),
                       two_pieces("-1 + x", "3/2", ["-3/2", "3/2"]))]
    tally = workloads.Tally()
    workload.run_pass(tally)
    assert tally.attempted == 2
    assert tally.failed == 1
    assert tally.unexpected == 0


def test_other_convergence_failures_are_unexpected(tmp_path, monkeypatch):
    def not_stabilizing(f, g, depth):
        raise ConvergenceError(f"zone has no matching shallower zones; "
                               f"{workloads.NOT_STABILIZING} at depth {depth}")

    workload = workloads.OrderLimit(7, str(tmp_path), total=1)
    # the operands jump at -1/2 and at 1/2, so they share no jump abscissa
    workload.pairs = [(two_pieces("-5/2 + x", "5/2 + x", [-3, 2]),
                       two_pieces("-1 + x", "3/2", ["-1/2", "3/2"], x="1/2"))]
    monkeypatch.setattr(order, "otimes_def3", not_stabilizing)
    tally = workloads.Tally()
    workload.run_pass(tally)
    assert (tally.failed, tally.unexpected) == (1, 1)

    workload.pairs = [(two_pieces("-5/2 + x", "5/2 + x", [-3, 2]),
                       two_pieces("-1 + x", "3/2", ["-3/2", "3/2"]))]
    monkeypatch.setattr(order, "oplus_def3", lambda f, g, depth: not_stabilizing(f, g, depth))
    tally = workloads.Tally()
    workload.run_pass(tally)
    assert (tally.failed, tally.unexpected) == (2, 1)


@pytest.mark.parametrize("continuous", (True, False))
def test_validate_defect_is_known_only_for_continuous_results(continuous, tmp_path):
    escape = {"x": "1/2", "side": "left", "provenance": "declared", "passed": False,
              "message": workloads.ENVELOPE_ESCAPE}
    path = tmp_path / "validate.json"
    path.write_text(json.dumps({"result": {
        "h_continuous": continuous, "s_continuous": True, "envelopes": [escape],
    }}))
    assert workloads.CliIO._only_envelope_escapes(str(path)) is continuous


def test_quotas_follow_the_suite():
    functions = suite.h_continuous_suite(0, 600, workloads.DOMAIN, workloads.MAX_JUMPS)
    for size in (1, 2, 3):
        counts = Counter(
            len({p.x for f in functions[i : i + size] for p in f.points})
            for i in range(0, len(functions), size)
        )
        shares = workloads.jump_count_shares(size)
        assert sum(shares.values()) == 1
        assert set(counts) <= set(shares)
        for jumps, share in shares.items():
            assert abs(counts[jumps] * size / len(functions) - share) < 0.05
    assert workloads.natural_quotas(1, 60) == {jumps: 12 for jumps in range(5)}
    assert workloads.natural_quotas(2, 50) == {
        0: 2, 1: 4, 2: 6, 3: 9, 4: 12, 5: 9, 6: 5, 7: 2, 8: 1}


def test_same_seed_same_inputs():
    def inputs(seed):
        groups = workloads.balanced_groups(seed, 2, 3)
        return [[formats.hfunction_to_json(f) for f in group] for group in groups]

    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)
    jumps = [len({p.x for f in group for p in f.points})
             for group in workloads.balanced_groups(3, 2, 3)]
    assert jumps == sorted(workloads.natural_quotas(2, 3))


def test_tracer_counts_and_restores(tmp_path):
    original, poly_coeffs = algebra.oplus_def1, expr.poly_coeffs
    tracer = Tracer()
    workload = workloads.RingAxioms(7, str(tmp_path), total=5)
    tracer.install()
    try:
        workload.run_pass(workloads.Tally())
    finally:
        tracer.remove()
    assert algebra.oplus_def1 is original
    assert expr.poly_coeffs is poly_coeffs
    metrics = tracer.metrics(1)
    assert metrics["algebra.oplus_def1.calls"] > 0
    assert metrics["expr.canonical.self_s"] > 0
    assert metrics["order.infconv_approx.calls"] == 0
    assert metrics["piecewise.func_equal.true_frac"] == 1


def test_poly_coeffs_counts_outermost_calls():
    tracer = Tracer()
    nested = expr.parse("(1 + x) * (2 - x) + 3 * x")
    tracer.install()
    try:
        assert expr.poly_coeffs(nested) == [2, 4, -1]
    finally:
        tracer.remove()
    assert tracer.metrics(1)["expr.poly_coeffs.calls"] == 1


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        bench = json.load(fp)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = list(Tracer().metrics(1)) + ["trace_overhead_frac"]
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: run.per_layer_unit(name) for name in per_layer
    }
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_io", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
