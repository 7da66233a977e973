"""The benchmark's workloads: inputs from a seed, one timed pass, answer checks.

Constructing a workload builds its inputs from the seed alone; that is the
work `setup_s` times in a fresh interpreter.  `prepare` computes the
reference answers the checks compare against, outside every timed region.
`run_pass` makes one pass over the fixed input set in a closed loop with one
caller: each operation starts after the previous one has returned.

All three workloads draw their operands from `suite.h_continuous_suite` on
(-1, 1) with max_jumps=4, in exact rational mode.  The cost of an operation
grows with the number of distinct jump abscissae among its operands, and
that number varies a lot between seeds, so `balanced_groups` keeps operand
groups in suite order until a quota per jump count is met.  The quotas are
the suite's own shares of each count, computed exactly by
`jump_count_shares`: the seed chooses the functions, the quotas fix the mix
of work at the suite's natural mix.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from fractions import Fraction
from math import ceil, comb, sqrt
from time import perf_counter_ns

from hfring import algebra, cli, formats, order, suite
from hfring import piecewise as pw
from hfring.errors import ConvergenceError
from hfring.piecewise import Domain
from hfring.scalars import RATIONAL, engine_mode, format_scalar

DOMAIN = Domain.of(-1, 1)
MAX_JUMPS = 4
JUMP_SLOTS = 15  # the suite's jump abscissae on (-1, 1): k/8 for |k| < 8
DEF3_DEPTH = 4096
DEF3_TOLERANCE = Fraction(1, 1000)  # criterion 5's pinned tolerance
NOT_STABILIZING = "structure is not stabilizing"


class Tally:
    """Latencies and outcomes of the operations of a run.

    A failed operation raised, exited with an unexpected code or returned a
    wrong answer.  `unexpected` counts the failures that are not one of the
    known defects described in `OrderLimit` and `CliIO`.
    """

    def __init__(self):
        self.latencies_ns = []
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0

    def outcome(self, ok: bool, count: int = 1, known_defect: bool = False) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            if not known_defect:
                self.unexpected += count


def jump_count_shares(size: int) -> dict:
    """Exact share of each count of distinct jump abscissae among `size`
    consecutive suite functions.  Each function draws randint(0, MAX_JUMPS)
    jumps without replacement from the JUMP_SLOTS abscissae."""
    shares = {0: Fraction(1)}
    for _ in range(size):
        grown = {}
        for seen, share in shares.items():
            for k in range(MAX_JUMPS + 1):
                draws = (MAX_JUMPS + 1) * comb(JUMP_SLOTS, k)
                for new in range(k + 1):
                    ways = comb(JUMP_SLOTS - seen, new) * comb(seen, k - new)
                    if ways:
                        grown[seen + new] = grown.get(seen + new, 0) + share * Fraction(ways, draws)
        shares = grown
    return dict(sorted(shares.items()))


def natural_quotas(size: int, total: int) -> dict:
    """`total` groups split over the jump counts in proportion to their share
    in the suite, by largest remainder.  A count whose share of `total`
    rounds to no group is left out."""
    exact = {jumps: total * share for jumps, share in jump_count_shares(size).items()}
    quotas = {jumps: int(x) for jumps, x in exact.items()}
    by_remainder = sorted(exact, key=lambda jumps: quotas[jumps] - exact[jumps])
    for jumps in by_remainder[: total - sum(quotas.values())]:
        quotas[jumps] += 1
    return {jumps: quota for jumps, quota in quotas.items() if quota}


def balanced_groups(seed: int, size: int, total: int) -> list:
    """`total` disjoint groups of `size` consecutive suite functions, with
    each count of distinct jump abscissae kept in its natural share
    (`natural_quotas`); returned interleaved by that count, so every stretch
    of a pass has the same mix."""
    quotas = natural_quotas(size, total)
    shares = jump_count_shares(size)
    # a pool in which every count is expected to occur its quota plus three
    # standard deviations plus one times, so that it rarely has to grow and
    # the cost of building it hardly depends on the seed
    groups = max(ceil((q + 3 * sqrt(q) + 1) / shares[j]) for j, q in quotas.items())
    pool = size * groups
    while True:
        functions = suite.h_continuous_suite(seed, pool, DOMAIN, MAX_JUMPS)
        kept = {jumps: [] for jumps in quotas}
        for start in range(0, pool - size + 1, size):
            group = functions[start : start + size]
            jumps = len({p.x for f in group for p in f.points})
            if jumps in kept and len(kept[jumps]) < quotas[jumps]:
                kept[jumps].append(group)
        if all(len(kept[jumps]) == quotas[jumps] for jumps in quotas):
            break
        pool *= 2  # the suite is a seeded stream: a longer pool extends it
    rounds = max(quotas.values())
    return [kept[j][i] for i in range(rounds) for j in quotas if i < quotas[j]]


def _share_a_jump(f, g) -> bool:
    return bool({p.x for p in f.points} & {p.x for p in g.points})


def _report_unexpected(what: str, detail: str) -> None:
    sys.stderr.write(f"failed: {what}: {detail}\n")


class RingAxioms:
    """`algebra.verify_ring` over the suite.  An operation is one axiom case.

    verify_ring does not expose its cases one by one, so the latencies are
    those of the ring operations it performs (route-1 sums and products),
    timed through its add_op/mul_op parameters, which receive the same
    operations verify_ring uses by default.
    """

    def __init__(self, seed: int, workdir: str, total: int = 60):
        self.functions = [f for (f,) in balanced_groups(seed, 1, total)]

    def prepare(self) -> None:
        pass

    def run_pass(self, tally: Tally) -> None:
        latencies = tally.latencies_ns

        def timed(operation):
            def call(a, b):
                start = perf_counter_ns()
                result = operation(a, b).result
                latencies.append(perf_counter_ns() - start)
                return result

            return call

        n = len(self.functions)
        try:
            report = algebra.verify_ring(
                self.functions, timed(algebra.oplus_def1), timed(algebra.otimes_def1)
            )
        except Exception as exc:
            _report_unexpected("verify_ring", repr(exc))
            tally.outcome(False, len(algebra.AXIOMS) * n)
            return
        for name in algebra.AXIOMS:
            axiom = report.axioms[name]
            ok = axiom.passed and axiom.cases == n
            if not ok:
                _report_unexpected(name, f"{axiom.cases} cases, {axiom.counterexample}")
            # verify_ring keeps only the first counterexample, so a failed
            # axiom counts all its cases as failed
            tally.outcome(ok, n)


class OrderLimit:
    """`order.oplus_def3` and `order.otimes_def3` at depth 4096 on disjoint
    pairs.  An operation is one def3 call; its answer is right when the
    deviation from route 1 is within criterion 5's 1e-3.

    Known defect, counted as failed and kept visible: when both operands
    jump at the same abscissa, `otimes_def3` can raise ConvergenceError
    ("structure is not stabilizing") at every depth, for example for the
    two-piece functions jumping at -1/2 with values [-3, 2] and [-3/2, 3/2].
    Such a failure does not make the run incorrect; any other failure does,
    this error too when the operands share no jump abscissa.
    """

    def __init__(self, seed: int, workdir: str, total: int = 50):
        # 100 operations make one pass: enough distinct pairs that the median
        # and p90 hardly depend on the seed, and ten samples above the p90
        self.pairs = balanced_groups(seed, 2, total)

    def prepare(self) -> None:
        pass

    def run_pass(self, tally: Tally) -> None:
        for f, g in self.pairs:
            for operation in (order.oplus_def3, order.otimes_def3):
                start = perf_counter_ns()
                known = False
                try:
                    deviation = operation(f, g, depth=DEF3_DEPTH).max_deviation
                except Exception as exc:
                    deviation, failure = None, repr(exc)
                    known = (
                        operation is order.otimes_def3
                        and isinstance(exc, ConvergenceError)
                        and NOT_STABILIZING in str(exc)
                        and _share_a_jump(f, g)
                    )
                tally.latencies_ns.append(perf_counter_ns() - start)
                ok = deviation is not None and deviation <= DEF3_TOLERANCE
                if not ok and not known:
                    _report_unexpected(
                        operation.__name__,
                        failure if deviation is None else f"deviation {float(deviation)}",
                    )
                tally.outcome(ok, known_defect=known)


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OSCILLATION_PAIR = os.path.join(ROOT, "tests", "data", "oscillation_pair.json")
SAMPLE_ARGS = ["-7/8", "1/16", "29"]
GRID_STEPS = ["1/8", "1/16", "1/32"]
EVAL_POINTS = 8
ENVELOPE_ESCAPE = "observed values escape the declared envelope"


class CliIO:
    """`hfring.cli.main(argv)` in-process on defs files written from the
    suite, one file per group of three operands a, b, c.  An operation is one
    CLI command; eight run per group.

    Known defect, counted as failed and kept visible: `op` writes its
    envelopes with provenance "evaluated", `hfunction_from_json` reads them
    back as declared, and `validate` then checks them with eps 0 and rejects
    the exact limit of every non-constant piece, so `validate` on `op`'s
    output exits 1 where 0 is right.  Such a failure does not make the run
    incorrect as long as every function of the file is H- and S-continuous
    and every failing check is such a declared envelope; any other failure
    does.

    Coordinates are passed after `--`: argparse reads an argument such as
    "-7/8" as an option.
    """

    def __init__(self, seed: int, workdir: str, total: int = 48):
        # one pass makes 48 validate calls, the slowest command; the p90 falls
        # among their fastest fifth, which fewer groups leave to a handful of calls
        self.groups = balanced_groups(seed, 3, total)
        rng = random.Random(f"{seed}|cli-eval")
        self.points = [
            sorted(Fraction(rng.randint(-15, 15), 16) for _ in range(EVAL_POINTS))
            for _ in self.groups
        ]
        self.files = []
        for i, operands in enumerate(self.groups):
            paths = {
                kind: os.path.join(workdir, f"g{i}_{kind}")
                for kind in ("defs.json", "op.json", "op2.json", "sample.csv",
                             "grid.json", "validate.json", "float_op.json",
                             "float_validate.json")
            }
            body = {
                name: formats.hfunction_to_json(f) for name, f in zip("abc", operands)
            }
            with open(paths["defs.json"], "w", encoding="utf-8") as fp:
                fp.write(formats.dumps_json({"functions": body}))
            self.files.append(paths)

    def prepare(self) -> None:
        self.round_trips = []
        self.expected_eval = []
        for operands, paths, points in zip(self.groups, self.files, self.points):
            loaded = formats.load_defs(paths["defs.json"])
            self.round_trips.append(
                all(pw.func_equal(loaded[name], f) for name, f in zip("abc", operands))
            )
            bindings = dict(zip("abc", operands))
            result = algebra.eval_expr(algebra.parse_operand_expr("a + b * c"), bindings)
            lines = []
            for x in points:
                value = result.eval_at(x)
                lines.append(" ".join(format_scalar(v) for v in (x, value.lo, value.hi)))
            self.expected_eval.append("\n".join(lines) + "\n")

    def run_pass(self, tally: Tally) -> None:
        # cli.main sets the process-wide engine mode; leave it as found
        with engine_mode(RATIONAL):
            for i in range(len(self.files)):
                self._group(tally, i)

    def _group(self, tally: Tally, i: int) -> None:
        paths = self.files[i]
        points = [format_scalar(x) for x in self.points[i]]
        code, _ = self._run(tally, ["op", paths["defs.json"], "a + b * c",
                                    "-o", paths["op.json"]])
        self._check(tally, i, "op", code == 0 and self.round_trips[i],
                    f"exit {code}, defs round trip {self.round_trips[i]}")
        code, _ = self._run(tally, ["op", paths["defs.json"], "a * b", "--def", "2",
                                    "-o", paths["op2.json"]])
        self._check(tally, i, "op --def 2", code == 0, f"exit {code}")
        code, out = self._run(tally, ["eval", paths["op.json"], "result", "--", *points])
        self._check(tally, i, "eval", code == 0 and out == self.expected_eval[i],
                    f"exit {code}, output {out!r}")
        code, _ = self._run(tally, ["sample", paths["op.json"], "result", "--",
                                    *SAMPLE_ARGS, paths["sample.csv"]])
        self._check(tally, i, "sample", code == 0, f"exit {code}")
        code, _ = self._run(tally, ["grid-converge", paths["defs.json"], "a + b",
                                    "--h", *GRID_STEPS, "-o", paths["grid.json"]])
        self._check(tally, i, "grid-converge", code == 0, f"exit {code}")
        code, _ = self._run(tally, ["validate", paths["op.json"],
                                    "-o", paths["validate.json"]])
        known = code == 1 and self._only_envelope_escapes(paths["validate.json"])
        self._check(tally, i, "validate", code == 0, f"exit {code}", known)
        code, _ = self._run(tally, ["--mode", "float", "op", OSCILLATION_PAIR,
                                    "f + g", "-o", paths["float_op.json"]])
        self._check(tally, i, "float op", code == 0, f"exit {code}")
        code, _ = self._run(tally, ["--mode", "float", "validate", OSCILLATION_PAIR,
                                    "-o", paths["float_validate.json"]])
        self._check(tally, i, "float validate", code == 0, f"exit {code}")

    @staticmethod
    def _run(tally: Tally, argv: list):
        """One CLI command: (exit code, captured stdout)."""
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter_ns()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the command line
                code = exc.code
            except Exception as exc:
                code = repr(exc)
        tally.latencies_ns.append(perf_counter_ns() - start)
        return code, out.getvalue()

    @staticmethod
    def _check(tally, group, command, ok, detail, known_defect=False) -> None:
        if not ok and not known_defect:
            _report_unexpected(f"group {group} {command}", detail)
        tally.outcome(ok, known_defect=known_defect)

    @staticmethod
    def _only_envelope_escapes(path: str) -> bool:
        with open(path, encoding="utf-8") as fp:
            payload = json.load(fp)
        if not all(e["h_continuous"] and e["s_continuous"] for e in payload.values()):
            return False
        failures = [
            check
            for entry in payload.values()
            for check in entry["envelopes"]
            if not check["passed"]
        ]
        return bool(failures) and all(
            check["provenance"] == pw.DECLARED and check["message"] == ENVELOPE_ESCAPE
            for check in failures
        )


WORKLOADS = {"ring_axioms": RingAxioms, "order_limit": OrderLimit, "cli_io": CliIO}
