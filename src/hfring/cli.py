"""Command-line interface.

Commands: eval, op, verify-ring, sample, grid-converge, compare-defs,
validate.  Input is the function-definition JSON documented in `formats`;
outputs are JSON reports and x,lo,hi CSV tables.  All randomness flows
from --seed, so identical invocations produce byte-identical output.

Exit codes: 0 success, 1 check failed (routes that disagree included) or
other engine error, 2 parse or usage error, 3 unbound name, 4 domain error,
5 operand not Hausdorff continuous, 6 order-limit route requested outside
the piecewise-linear subclass.
Engine errors, and the RecursionError of an expression nested too deeply,
map to codes through the one table `_EXIT_CODES`.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import re
import sys
from typing import Dict, List, Optional

from . import algebra, baire, formats, order, suite
from . import piecewise as pw
from .errors import (
    DomainError,
    EngineError,
    ExprSyntaxError,
    InternalConsistencyError,
    NotHausdorffContinuous,
    NotPiecewiseLinear,
    UnboundOperandError,
)
from .interval import distance as iv_distance
from .piecewise import Domain, HFunction
from .scalars import Scalar, format_scalar, set_mode, set_seed, to_scalar

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_PARSE = 2
EXIT_UNBOUND = 3
EXIT_DOMAIN = 4
EXIT_NOT_HCONT = 5
EXIT_NOT_PL = 6


class _UsageError(EngineError):
    """A command line the engine cannot act on: an unreadable defs file, a
    malformed number or an option combination that means nothing (exit 2)."""


# errors reaching `main`, mapped to exit codes; the first match wins
_EXIT_CODES = (
    (_UsageError, EXIT_PARSE),
    (ExprSyntaxError, EXIT_PARSE),
    (UnboundOperandError, EXIT_UNBOUND),
    (DomainError, EXIT_DOMAIN),
    (NotHausdorffContinuous, EXIT_NOT_HCONT),
    (NotPiecewiseLinear, EXIT_NOT_PL),
    (EngineError, EXIT_FAILED),
    (RecursionError, EXIT_PARSE),  # the expression walkers recurse once per tree level
)


# parse_args leaves the parser as it was (an `append` option copies its
# default list before appending to it), so one tree serves every call
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hfring",
        description="Interval-valued function ring: evaluation, ring "
        "operations by three routes, and verification suites.",
    )
    parser.add_argument("--mode", choices=("rational", "float"), default="rational")
    parser.add_argument("--tol", type=_at_least(float, 0, strict=True), default=1e-9,
                        help="float-mode comparison tolerance")
    parser.add_argument("--seed", type=int, default=8201,
                        help="seed for every deterministic sampling")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a function at points")
    p_eval.add_argument("defs")
    p_eval.add_argument("name")
    p_eval.add_argument("points", nargs="+")

    p_op = sub.add_parser("op", help="ring operation over an expression")
    p_op.add_argument("defs")
    p_op.add_argument("expr", help="expression over bound names with + and *")
    p_op.add_argument("--def", dest="definition", type=int, choices=(1, 2, 3), default=1)
    p_op.add_argument("--check-all", action="store_true",
                      help="run every applicable route and compare")
    p_op.add_argument("--depth", type=_at_least(int, 1), default=4096)
    p_op.add_argument("--declare", nargs=3, action="append", metavar=("X", "LIMINF", "LIMSUP"),
                      default=[], help="declared envelope for the pointwise result at X")
    p_op.add_argument("-o", "--output", default="-")

    p_ring = sub.add_parser("verify-ring", help="check the ring axioms on a random suite")
    p_ring.add_argument("--count", type=_at_least(int, 1), default=200)
    p_ring.add_argument("--max-jumps", type=_at_least(int, 0), default=4)
    p_ring.add_argument("--domain", nargs=2, default=("-1", "1"))
    p_ring.add_argument("--mutate", choices=("none", "skip-completion"), default="none",
                        help="test hook: deliberately break the operations")
    p_ring.add_argument("-o", "--output", default="-")

    p_sample = sub.add_parser("sample", help="uniform sampling to CSV")
    p_sample.add_argument("defs")
    p_sample.add_argument("name")
    p_sample.add_argument("x0")
    p_sample.add_argument("h")
    p_sample.add_argument("n", type=_at_least(int, 1))
    p_sample.add_argument("output")

    p_grid = sub.add_parser("grid-converge",
                            help="grid-engine error against the exact ring result")
    p_grid.add_argument("defs")
    p_grid.add_argument("expr")
    p_grid.add_argument("--h", dest="steps", nargs="+", required=True)
    p_grid.add_argument("--x0", default=None, help="first grid node (with --width)")
    p_grid.add_argument("--width", default=None, help="span of the grid (with --x0)")
    p_grid.add_argument("-o", "--output", default="-")

    p_cmp = sub.add_parser("compare-defs",
                           help="order-limit route against the completion route")
    p_cmp.add_argument("defs")
    p_cmp.add_argument("f")
    p_cmp.add_argument("g")
    p_cmp.add_argument("--depth", type=_at_least(int, 1), default=4096)
    p_cmp.add_argument("--tol", dest="cmp_tol", type=_at_least(float, 0), default=1e-3)
    p_cmp.add_argument("--ops", default="plus,times")
    p_cmp.add_argument("--out-csv", default="compare_defs_points.csv")
    p_cmp.add_argument("-o", "--output", default="-")

    p_val = sub.add_parser("validate",
                           help="Hausdorff continuity and envelope validation")
    p_val.add_argument("defs")
    p_val.add_argument("-o", "--output", default="-")
    for command in sub.choices.values():
        _accept_negative_fractions(command)
    return parser


def _at_least(kind: type, low, strict: bool = False):
    """An argparse type: a finite ``kind`` number at least ``low`` (above it
    if ``strict``).  argparse turns anything else into exit 2."""

    def read(text: str):
        value = kind(text)
        if not (low < value < math.inf if strict else low <= value < math.inf):
            raise argparse.ArgumentTypeError(
                f"expected a finite number {'above' if strict else 'at least'} {low}, got {text!r}")
        return value

    read.__name__ = kind.__name__  # argparse reports a ValueError as "invalid int value"
    return read


def _accept_negative_fractions(parser: argparse.ArgumentParser) -> None:
    """Read arguments such as ``-1/2`` as numbers, not as options.

    Before Python 3.13, argparse takes for a negative number only an
    integer or a decimal, and reads any other argument that starts with
    ``-`` as an unknown option.  No command has an option that starts with
    a digit, so ``-`` followed by a digit or by ``.digit`` is always a
    number, as Python 3.13 reads it.
    """
    parser._negative_number_matcher = re.compile(r"-\.?\d")


def _emit(text: str, target: str) -> None:
    if target == "-":
        sys.stdout.write(text)
    else:
        with open(target, "w", encoding="utf-8") as fp:
            fp.write(text)


def _load(path: str) -> Dict[str, HFunction]:
    try:
        return formats.load_defs(path)
    except (OSError, json.JSONDecodeError, EngineError) as exc:
        raise _UsageError(f"cannot load {path}: {exc}") from exc


def _number(text: str, what: str) -> Scalar:
    """Read a numeric argument (integer, decimal, or ``p/q``) in the current
    mode; a malformed number is a parse error (exit 2)."""
    try:
        return to_scalar(text)
    except EngineError as exc:
        raise _UsageError(f"bad {what} {text!r}: {exc}") from exc


def _positive(text: str, what: str) -> Scalar:
    """`_number`, and a usage error (exit 2) unless it is positive."""
    value = _number(text, what)
    if not value > 0:
        raise _UsageError(f"{what} must be positive, got {text!r}")
    return value


def _bound(bindings: Dict[str, HFunction], name: str) -> HFunction:
    if name not in bindings:
        raise UnboundOperandError(f"unbound name {name!r}")
    return bindings[name]


def _declared_map(declare_args) -> Optional[dict]:
    if not declare_args:
        return None
    return {
        _number(x, "--declare point"): (
            _number(a, "--declare liminf"), _number(b, "--declare limsup")
        )
        for x, a, b in declare_args
    }


def _route(n: int, args, declared) -> tuple:
    """Route n's (sum, product) as functions of two operands.  Each call
    looks the operation up on its module, so a wrapper put there later is
    the one called."""
    if n == 3:
        module, options = order, {"depth": args.depth}
    else:
        module, options = algebra, {"declared": declared}
    return tuple(
        lambda f, g, name=f"{op}_def{n}": getattr(module, name)(f, g, **options).result
        for op in ("oplus", "otimes")
    )


def _op_result(args, bindings: Dict[str, HFunction]) -> HFunction:
    """Fold the expression by the route asked for; with --check-all, also by
    every other route that applies, and compare the results at the root
    (`pw.func_equal`: literal equality in rational mode, --tol in float)."""
    tree = algebra.parse_operand_expr(args.expr)
    declared = _declared_map(args.declare)
    if declared and not (
        isinstance(tree, (algebra.TreePlus, algebra.TreeTimes))
        and all(isinstance(child, algebra.OperandRef) for child in (tree.left, tree.right))
    ):
        raise _UsageError("--declare applies to a single binary operation")
    results: Dict[int, HFunction] = {}
    for n in (1, 2, 3) if args.check_all else (args.definition,):
        # --check-all skips def3 where it does not apply, unless def3 was asked for
        asked = n == args.definition
        if n == 3 and declared:
            if asked:
                raise _UsageError("--declare is not meaningful for the order-limit route")
            continue
        try:
            results[n] = algebra.eval_expr(tree, bindings, *_route(n, args, declared))
        except NotPiecewiseLinear:
            if asked:
                raise
    first, *others = results
    for n in others:
        if not pw.func_equal(results[n], results[first]):
            deviation = float(order.max_deviation(results[n], results[first]))
            raise InternalConsistencyError(f"def{n} deviates from def{first} by {deviation}")
    result = results[args.definition]
    return pw.normalize(result) if isinstance(tree, algebra.OperandRef) else result


def cmd_eval(args) -> int:
    f = _bound(_load(args.defs), args.name)
    lines = []
    for text in args.points:
        x = _number(text, "point")
        value = f.eval_at(x)
        lines.append(
            f"{format_scalar(x)} {format_scalar(value.lo)} {format_scalar(value.hi)}"
        )
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_op(args) -> int:
    bindings = _load(args.defs)
    result = _op_result(args, bindings)
    _emit(formats.dumps_json(formats.hfunction_to_json(result)), args.output)
    return EXIT_OK


def cmd_verify_ring(args) -> int:
    lo, hi = (_number(end, "--domain end") for end in args.domain)
    if not lo < hi:
        raise _UsageError(f"--domain must satisfy lo < hi, got {' and '.join(args.domain)}")
    domain = Domain.of(lo, hi)
    functions = suite.h_continuous_suite(
        args.seed, args.count, domain, args.max_jumps
    )
    if args.mutate == "skip-completion":
        add_op = lambda a, b: pw.pointwise_add(a, b)
        mul_op = lambda a, b: pw.pointwise_mul(a, b)
        report = algebra.verify_ring(functions, add_op, mul_op)
    else:
        report = algebra.verify_ring(functions)
    _emit(formats.dumps_json(report.to_json()), args.output)
    return EXIT_OK if report.all_passed else EXIT_FAILED


def cmd_sample(args) -> int:
    f = _bound(_load(args.defs), args.name)
    grid = baire.grid_sample(f, _number(args.x0, "x0"), _positive(args.h, "h"), args.n)
    with open(args.output, "w", encoding="utf-8", newline="") as fp:
        formats.grid_to_csv(grid, fp)
    return EXIT_OK


def _grid_window(args, result: HFunction):
    if (args.x0 is None) != (args.width is None):
        raise _UsageError("--x0 and --width go together")
    if args.x0 is not None:
        return _number(args.x0, "--x0"), _positive(args.width, "--width")
    domain = result.domain
    if domain.lo is None or domain.hi is None:
        raise DomainError("grid-converge needs --x0/--width on unbounded domains")
    width = domain.hi - domain.lo
    return domain.lo + width / 16, width - width / 8


def cmd_grid_converge(args) -> int:
    bindings = _load(args.defs)
    tree = algebra.parse_operand_expr(args.expr)
    exact = algebra.eval_expr(tree, bindings)
    pointwise = algebra.eval_expr(tree, bindings, pw.pointwise_add, pw.pointwise_mul)
    steps = [_positive(h, "--h") for h in args.steps]
    x0, width = _grid_window(args, exact)
    nodes = [int(width / h) + 1 for h in steps]
    if min(nodes) < 3:
        raise _UsageError(f"the grid window of width {format_scalar(width)} "
                          "needs at least three nodes at every --h")
    # measurement points stay a fixed margin away from every jump of the
    # sampled data, so the one-cell smear never enters the error
    margin = 2 * max(steps)
    jumps = {p.x for p in exact.points} | {p.x for p in pointwise.points}
    rows = []
    for h, n in zip(steps, nodes):
        grid = baire.grid_sample(pointwise, x0, h, n)
        smoothed = baire.grid_fis(grid)
        worst = 0.0
        for i in range(1, len(smoothed.values) - 1):
            x = smoothed.x(i)
            if any(abs(x - j) <= margin for j in jumps):
                continue
            worst = max(worst, float(iv_distance(smoothed.values[i], exact.eval_at(x))))
        rows.append({"h": formats.scalar_to_json(h), "max_error": worst})
    _emit(formats.dumps_json({"expr": args.expr, "errors": rows}), args.output)
    return EXIT_OK


def cmd_compare_defs(args) -> int:
    bindings = _load(args.defs)
    f, g = _bound(bindings, args.f), _bound(bindings, args.g)
    ops = [o.strip() for o in args.ops.split(",") if o.strip()]
    if not ops:
        raise _UsageError("--ops names no operation (use plus,times)")
    report = {}
    csv_rows: List[List[str]] = [["op", "x", "def3_lo", "def3_hi", "def1_lo", "def1_hi"]]
    for op in ops:
        if op == "plus":
            d3 = order.oplus_def3(f, g, depth=args.depth)
        elif op == "times":
            d3 = order.otimes_def3(f, g, depth=args.depth)
        else:
            raise _UsageError(f"unknown op {op!r} (use plus,times)")
        reference = d3.witnesses["def1"]
        xs = pw.func_sample_points(reference, 256, tag="cmp")
        for x in xs:
            a = d3.result.eval_at(x)
            b = reference.eval_at(x)
            csv_rows.append(
                [op] + [format_scalar(v) for v in (x, a.lo, a.hi, b.lo, b.hi)]
            )
        report[op] = {
            "max_abs_deviation": float(d3.max_deviation),
            "within_tol": float(d3.max_deviation) <= args.cmp_tol,
        }
    with open(args.out_csv, "w", encoding="utf-8", newline="") as fp:
        csv.writer(fp).writerows(csv_rows)
    payload = {
        "depth": args.depth,
        "tol": args.cmp_tol,
        "ops": report,
        "per_point_table": args.out_csv,
    }
    _emit(formats.dumps_json(payload), args.output)
    ok = all(entry["within_tol"] for entry in report.values())
    return EXIT_OK if ok else EXIT_FAILED


def _json_or_null(value):
    return None if value is None else formats.scalar_to_json(value)


def cmd_validate(args) -> int:
    bindings = _load(args.defs)
    payload = {}
    all_ok = True
    for name, f in sorted(bindings.items()):
        checks = pw.validate_envelopes(f)
        entry = {
            "h_continuous": pw.is_H_continuous(f),
            "s_continuous": pw.is_S_continuous(f),
            "envelopes": [
                {
                    "x": formats.scalar_to_json(c.x),
                    "side": c.side,
                    "provenance": c.provenance,
                    "passed": c.passed,
                    "observed_min": _json_or_null(c.observed_min),
                    "observed_max": _json_or_null(c.observed_max),
                    "message": c.message,
                }
                for c in checks
            ],
        }
        if not entry["h_continuous"] or not all(c.passed for c in checks):
            all_ok = False
        payload[name] = entry
    _emit(formats.dumps_json(payload), args.output)
    return EXIT_OK if all_ok else EXIT_FAILED


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    set_mode(args.mode, args.tol)
    set_seed(args.seed)
    handlers = {
        "eval": cmd_eval,
        "op": cmd_op,
        "verify-ring": cmd_verify_ring,
        "sample": cmd_sample,
        "grid-converge": cmd_grid_converge,
        "compare-defs": cmd_compare_defs,
        "validate": cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except (EngineError, RecursionError) as exc:
        message = "expression nested too deeply" if isinstance(exc, RecursionError) else exc
        sys.stderr.write(f"error: {message}\n")
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
