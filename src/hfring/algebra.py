"""Ring operations on Hausdorff-continuous functions.

Two equivalent constructions are implemented: completing the pointwise
interval operation (route 1, computed once as F(I(S(.))), which F(S(I(.)))
equals there), and restricting the pointwise operation to the locus where
both operands are point-valued, then extending back (route 2).  The module
also evaluates whole +/x expressions over bound operands, by any pair of
operations (a route's ring operations or the pointwise ones), and checks the
commutative-ring axioms over seeded random suites.  Those expressions are
read by the one expression parser, `expr._parse`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from . import baire
from . import interval as iv
from . import piecewise as pw
from .errors import EngineError, NotHausdorffContinuous, UnboundOperandError
from .expr import _parse
from .piecewise import DenseSubsetSpec, HFunction
from .scalars import Scalar, format_scalar


# ---------------------------------------------------------------------------
# Expressions over function operands
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperandRef:
    name: str


@dataclass(frozen=True)
class TreePlus:
    left: "ExprTree"
    right: "ExprTree"


@dataclass(frozen=True)
class TreeTimes:
    left: "ExprTree"
    right: "ExprTree"


ExprTree = Union[OperandRef, TreePlus, TreeTimes]


def parse_operand_expr(text: str) -> ExprTree:
    """Parse an expression over named operands with + and * only, by the
    one expression parser (`expr._parse`): ``*`` binds tighter than ``+``,
    and both associate left."""
    return _parse(text, {"+": (1, TreePlus), "*": (2, TreeTimes)}, {}, (),
                  lambda kind, name, at: OperandRef(name) if kind == "name" else None)


def _postorder(tree: ExprTree) -> List[ExprTree]:
    """The nodes of ``tree``, each after its operands, the left one first.
    Iterative, since the parser's left-deep chains outgrow the recursion limit."""
    nodes, stack = [], [tree]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if not isinstance(node, OperandRef):
            stack += (node.left, node.right)
    return nodes[::-1]


def operand_names(tree: ExprTree) -> List[str]:
    """The names of the tree's leaves, each once, in first-seen order."""
    return list(dict.fromkeys(n.name for n in _postorder(tree) if isinstance(n, OperandRef)))


# ---------------------------------------------------------------------------
# The ring operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OpReport:
    """Result of a ring operation with its audit trail; ``witnesses`` and
    ``max_deviation`` are filled by the order-limit route (def3) only."""

    result: HFunction
    pointwise: HFunction
    definition: str
    witnesses: Dict[str, HFunction] = field(default_factory=dict)
    max_deviation: Optional[Scalar] = None


def _require_h_continuous(*fs: HFunction) -> None:
    for f in fs:
        if not pw.is_H_continuous(f):
            raise NotHausdorffContinuous(
                "operand is not Hausdorff continuous; complete it with fis first"
            )


def _apply_declared(s: HFunction, declared) -> HFunction:
    if not declared:
        return s
    for x, (liminf, limsup) in declared.items():
        s = pw.declare_envelope(s, x, liminf, limsup)
    return s


def _op_def1(f: HFunction, g: HFunction, pointwise_op, declared) -> OpReport:
    _require_h_continuous(f, g)
    s = _apply_declared(pointwise_op(f, g), declared)
    return OpReport(result=baire.fis(s), pointwise=s, definition="def1")


def oplus_def1(f: HFunction, g: HFunction, declared=None) -> OpReport:
    """Ring sum: the unique H-continuous function inside the pointwise sum,
    computed by completing the regularized pointwise sum."""
    return _op_def1(f, g, pw.pointwise_add, declared)


def otimes_def1(f: HFunction, g: HFunction, declared=None) -> OpReport:
    """Ring product, same construction over the pointwise product."""
    return _op_def1(f, g, pw.pointwise_mul, declared)


def _sum_def1(f: HFunction, g: HFunction) -> HFunction:
    return oplus_def1(f, g).result


def _product_def1(f: HFunction, g: HFunction) -> HFunction:
    return otimes_def1(f, g).result


def extend(phi: HFunction, spec: DenseSubsetSpec) -> HFunction:
    """Unique H-continuous extension of a function that is H-continuous off
    the excluded points: graph completion over the punctured dense set."""
    if not all(p.is_real for p in phi.pieces):
        raise NotHausdorffContinuous(
            "restriction has proper interval values on pieces"
        )
    for i, point in enumerate(phi.points):
        if spec.admits(point.x) and not iv.interval_eq(
            pw.completion_at(phi, i, False), point.value
        ):
            raise NotHausdorffContinuous(
                f"restriction is not Hausdorff continuous at {format_scalar(point.x)}"
            )
    return baire.graph_completion(phi, spec)


def _op_def2(f: HFunction, g: HFunction, pointwise_op, declared) -> OpReport:
    _require_h_continuous(f, g)
    s = _apply_declared(pointwise_op(f, g), declared)
    spec = pw.common_point_domain([f, g])
    result = extend(s, spec)
    return OpReport(result=result, pointwise=s, definition="def2")


def oplus_def2(f: HFunction, g: HFunction, declared=None) -> OpReport:
    """Ring sum via restriction to the common point-valued locus followed
    by the unique H-continuous extension."""
    return _op_def2(f, g, pw.pointwise_add, declared)


def otimes_def2(f: HFunction, g: HFunction, declared=None) -> OpReport:
    return _op_def2(f, g, pw.pointwise_mul, declared)


def additive_inverse(f: HFunction) -> HFunction:
    """Value-wise reflection [-upper, -lower]; the ring sum with it is the
    constant zero function."""
    _require_h_continuous(f)
    return pw.normalize(pw.pointwise_neg(f))


def eval_expr(
    tree: ExprTree,
    bindings: Dict[str, HFunction],
    add_op: Callable[[HFunction, HFunction], HFunction] = _sum_def1,
    mul_op: Callable[[HFunction, HFunction], HFunction] = _product_def1,
) -> HFunction:
    """Evaluate a +/x expression over bound operands by folding ``add_op``
    and ``mul_op`` over the tree, leaves first.

    The default operations are the route-1 ring operations, as in
    `verify_ring`; `pw.pointwise_add` and `pw.pointwise_mul` fold the
    pointwise interval operations instead (an S-continuous result).  A leaf
    is its bound function as given, and an operation's result is whatever
    the operation returns: every ring route ends in a completion that
    normalizes.
    """
    for name in operand_names(tree):
        if name not in bindings:
            raise UnboundOperandError(f"operand {name!r} is not bound")
    values: List[HFunction] = []
    for node in _postorder(tree):
        if isinstance(node, OperandRef):
            values.append(bindings[node.name])
        else:
            right = values.pop()
            op = add_op if isinstance(node, TreePlus) else mul_op
            values[-1] = op(values[-1], right)
    return values[0]


# ---------------------------------------------------------------------------
# Ring axiom verification
# ---------------------------------------------------------------------------


@dataclass
class AxiomResult:
    name: str
    passed: bool = True
    cases: int = 0
    counterexample: Optional[str] = None

    def record(self, ok: bool, description: str) -> None:
        self.cases += 1
        if not ok and self.passed:
            self.passed = False
            self.counterexample = description


@dataclass
class RingReport:
    axioms: Dict[str, AxiomResult]

    @property
    def all_passed(self) -> bool:
        return all(a.passed for a in self.axioms.values())

    def to_json(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "axioms": {
                name: {
                    "passed": a.passed,
                    "cases": a.cases,
                    "counterexample": a.counterexample,
                }
                for name, a in sorted(self.axioms.items())
            },
        }


AXIOMS = (
    "add_commutative",
    "mul_commutative",
    "add_associative",
    "mul_associative",
    "distributive",
    "additive_identity",
    "multiplicative_identity",
    "additive_inverse",
)


def verify_ring(
    functions: Sequence[HFunction],
    add_op: Callable[[HFunction, HFunction], HFunction] = _sum_def1,
    mul_op: Callable[[HFunction, HFunction], HFunction] = _product_def1,
) -> RingReport:
    """Check the commutative-ring axioms over a function suite.

    Pairs and triples are drawn deterministically from the suite.  The
    default operations are the route-1 ring operations; injecting others
    (e.g. the raw pointwise operations) is how the verification itself is
    smoke-tested."""
    suite = list(functions)
    if not suite:
        raise EngineError("empty suite")
    domain = suite[0].domain
    zero = pw.constant_function(domain, 0)
    one = pw.constant_function(domain, 1)
    report = RingReport({name: AxiomResult(name) for name in AXIOMS})
    n = len(suite)
    for i, f in enumerate(suite):
        g = suite[(7 * i + 1) % n]
        h = suite[(13 * i + 2) % n]
        label = f"suite[{i}] with suite[{(7 * i + 1) % n}], suite[{(13 * i + 2) % n}]"
        fg = add_op(f, g)
        report.axioms["add_commutative"].record(
            pw.func_equal(fg, add_op(g, f)), label
        )
        fg_m = mul_op(f, g)
        report.axioms["mul_commutative"].record(
            pw.func_equal(fg_m, mul_op(g, f)), label
        )
        report.axioms["add_associative"].record(
            pw.func_equal(add_op(fg, h), add_op(f, add_op(g, h))), label
        )
        report.axioms["mul_associative"].record(
            pw.func_equal(mul_op(fg_m, h), mul_op(f, mul_op(g, h))), label
        )
        report.axioms["distributive"].record(
            pw.func_equal(
                mul_op(fg, h), add_op(mul_op(f, h), mul_op(g, h))
            ),
            label,
        )
        report.axioms["additive_identity"].record(
            pw.func_equal(add_op(f, zero), pw.normalize(f)), label
        )
        report.axioms["multiplicative_identity"].record(
            pw.func_equal(mul_op(f, one), pw.normalize(f)), label
        )
        try:
            inverse = additive_inverse(f)
            inverse_ok = pw.func_equal(add_op(f, inverse), zero)
        except NotHausdorffContinuous:
            inverse_ok = False
        report.axioms["additive_inverse"].record(inverse_ok, label)
    return report
