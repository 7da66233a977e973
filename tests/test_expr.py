import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hfring import expr as ex
from hfring import piecewise as pw
from hfring import algebra, baire, scalars
from hfring.errors import ExprEvalError, ExprSyntaxError


_operand = algebra.parse_operand_expr
_SYNTAX_ERRORS = [
    (ex.parse, "2*x +", "unexpected token ''", 5),  # operand missing at the end
    (ex.parse, "2*foo(x)", "unknown name 'foo'", 2),  # unknown name
    (ex.parse, "sin 1", "expected '(', found '1'", 4),  # function without (
    (ex.parse, "sin(x", "expected ')', found ''", 5),  # unclosed argument list
    (ex.parse, "(x + 1", "expected ')', found ''", 6),  # unclosed (
    (ex.parse, "(x 1)", "expected ')', found '1'", 3),  # unclosed ( before a token
    (ex.parse, "x + 1)", "trailing input ')'", 5),  # stray )
    (ex.parse, "x * * 2", "unexpected token '*'", 4),  # unexpected token
    (ex.parse, "x 2", "trailing input '2'", 2),  # trailing input
    (ex.parse, "x + \u00b2", "unexpected character '\u00b2'", 4),  # a digit Fraction cannot read
    (_operand, "(f + g", "expected ')', found ''", 6),  # unclosed (
    (_operand, "(f g)", "expected ')', found 'g'", 3),  # unclosed ( before a token
    (_operand, "f)", "trailing input ')'", 1),  # stray )
    (_operand, "f + * g", "unexpected token '*'", 4),  # unexpected token
    (_operand, "f g", "trailing input 'g'", 2),  # trailing input
    (_operand, "f * 2", "unexpected token '2'", 4),  # a number
    (_operand, "-f", "unexpected token '-'", 0),  # unary -
    (_operand, "f - g", "trailing input '-'", 2),  # binary -
    (_operand, "sin(f)", "trailing input '('", 3),  # no functions: sin is an operand
]


class TestParsing:
    def test_oscillation_composition(self):
        tree = ex.parse("sin(1/x)")
        assert isinstance(tree, ex.Fun) and tree.name == "sin"
        assert tree.arg == ex.Div(ex.const(1), ex.X)

    def test_constant(self):
        assert ex.parse("0") == ex.const(0)

    def test_linear_flagged(self):
        tree = ex.parse("2*x+1")
        assert ex.is_linear(tree)
        assert ex.linear_coeffs(tree) == (Fraction(2), Fraction(1))

    def test_precedence(self):
        assert ex.parse("1+2*x") == ex.Add(ex.const(1), ex.Mul(ex.const(2), ex.X))
        assert ex.parse("1/2*x") == ex.Mul(ex.Div(ex.const(1), ex.const(2)), ex.X)

    def test_unary_minus(self):
        assert ex.parse("-x") == ex.Neg(ex.X)

    def test_syntax_error_carries_position(self):
        # one row per error branch of each grammar
        for parse, text, message, position in _SYNTAX_ERRORS:
            with pytest.raises(ExprSyntaxError) as err:
                parse(text)
            assert str(err.value) == f"{message} (at position {position})", text
            assert err.value.position == position, text

    @pytest.mark.parametrize("depth", [400, 5000])
    def test_nesting_depth_is_not_limited(self, depth):
        assert ex.parse("(" * depth + "-x" + ")" * depth) == ex.Neg(ex.X)
        tree = ex.parse("sin(" * depth + "x" + ")" * depth)
        for _ in range(depth):  # a walk, since == recurses once per level
            assert tree.name == "sin"
            tree = tree.arg
        assert tree == ex.X
        assert _operand("(" * depth + "f" + ")" * depth) == algebra.OperandRef("f")


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return ex.const(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))))
        return ex.X
    kind = rng.choice(("add", "sub", "mul", "div", "neg", "fun"))
    a = _random_tree(rng, depth - 1)
    b = _random_tree(rng, depth - 1)
    if kind == "add":
        return ex.Add(a, b)
    if kind == "sub":
        return ex.Sub(a, b)
    if kind == "mul":
        return ex.Mul(a, b)
    if kind == "div":
        return ex.Div(a, b)
    if kind == "neg":
        return ex.Neg(a)
    return ex.Fun(rng.choice(ex.FUNCTIONS), a)


class TestRoundTrip:
    def test_print_parse_round_trip(self):
        rng = random.Random(77)
        for _ in range(400):
            tree = ex.canonical(_random_tree(rng, 4))
            reparsed = ex.canonical(ex.parse(ex.to_text(tree)))
            assert reparsed == tree, ex.to_text(tree)


def _operand_text(tree, minimum=0):
    """``tree`` with the fewest parentheses: ``*`` binds tighter than ``+``,
    and a right operand of equal precedence is bracketed (left association)."""
    if isinstance(tree, algebra.OperandRef):
        return tree.name
    prec, op = (1, " + ") if isinstance(tree, algebra.TreePlus) else (2, "*")
    text = _operand_text(tree.left, prec) + op + _operand_text(tree.right, prec + 1)
    return f"({text})" if prec < minimum else text


_OPERAND_TREES = st.recursive(
    st.sampled_from(["a", "b", "f_1"]).map(algebra.OperandRef),
    lambda sub: st.builds(algebra.TreePlus, sub, sub) | st.builds(algebra.TreeTimes, sub, sub),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_OPERAND_TREES)
def test_operand_print_parse_round_trip(tree):
    assert algebra.parse_operand_expr(_operand_text(tree)) == tree


class TestPrintedCanonicalForms:
    @pytest.mark.parametrize("text, printed", [
        ("2*x*x", "2*(x*x)"),
        ("x*x - 1/3*x + 5", "5 + -1/3*x + x*x"),
        ("-x", "-1*x"),
        ("-(x*x)", "-1*(x*x)"),
        ("(x+1)/(x-2)", "(1 + x)/(-2 + x)"),
        ("sin(x*x+1)", "sin(1 + x*x)"),
        ("1/2 + x", "0.5 + x"),
    ])
    def test_printed_form(self, text, printed):
        assert ex.to_text(ex.canonical(ex.parse(text))) == printed


class TestPolyNode:
    def test_constructor_picks_the_node(self):
        assert ex.poly_expr([Fraction(3), Fraction(0)]) == ex.const(3)
        assert ex.poly_expr([Fraction(0), Fraction(1)]) is ex.X
        p = ex.poly_expr([Fraction(1), Fraction(0), Fraction(-2), Fraction(0)])
        assert p == ex.Poly((Fraction(1), Fraction(0), Fraction(-2)))

    def test_canonical_returns_poly_unchanged(self):
        p = ex.canonical(ex.parse("(x+1)*(x-1)"))
        assert isinstance(p, ex.Poly)
        assert ex.canonical(p) is p

    def test_analysis_reads_coefficients(self):
        p = ex.poly_expr([Fraction(5), Fraction(-1, 3)])
        assert ex.poly_coeffs(p) == [Fraction(5), Fraction(-1, 3)]
        assert ex.degree(p) == 1
        assert ex.linear_coeffs(p) == (Fraction(-1, 3), Fraction(5))
        assert ex.rational_coeffs(p) == ([Fraction(5), Fraction(-1, 3)], [Fraction(1)])

    def test_float_mode_evaluates_poly(self):
        p = ex.canonical(ex.parse("x*x - 1/3*x + 5"))
        with scalars.engine_mode(scalars.FLOAT):
            assert ex.evaluator(p)(3.0) == pytest.approx(13.0)


class TestEvaluation:
    def test_rational_exact(self):
        tree = ex.parse("(2*x+1)/(x-3)")
        assert ex.evaluator(tree)(Fraction(1)) == Fraction(3, -2)
        assert ex.evaluator(ex.canonical(tree))(Fraction(1)) == Fraction(3, -2)
        assert ex.evaluator(ex.canonical(ex.parse("2*x*x - x")))(Fraction(1, 2)) == 0

    def test_pole_raises(self):
        with pytest.raises(ExprEvalError):
            ex.evaluator(ex.parse("1/x"))(Fraction(0))

    def test_transcendental_needs_float_mode(self):
        with pytest.raises(ExprEvalError):
            ex.evaluator(ex.parse("sin(x)"))(Fraction(0))
        with scalars.engine_mode(scalars.FLOAT):
            assert abs(ex.evaluator(ex.parse("sin(x)"))(0.0)) < 1e-15

    def test_sqrt_domain_error(self):
        with scalars.engine_mode(scalars.FLOAT), pytest.raises(ExprEvalError):
            ex.evaluator(ex.parse("sqrt(x)"))(-1.0)


class TestAnalysis:
    def test_classify(self):
        assert ex.classify(ex.parse("2*x*x - 1")) == "polynomial"
        assert ex.classify(ex.parse("1/x")) == "rational"
        assert ex.classify(ex.parse("x/2")) == "polynomial"
        assert ex.classify(ex.parse("sin(1/x)")) == "transcendental"
        assert ex.classify(ex.canonical(ex.parse("2*x*x - 1"))) == "polynomial"

    def test_piece_kind_tag(self):
        from hfring import piecewise as pw

        p = pw.make_piece(pw.to_scalar(1), pw.to_scalar(2), ex.parse("1/x"))
        assert p.kind == "rational"
        q = pw.make_piece(pw.to_scalar(1), pw.to_scalar(2), ex.parse("x"),
                          ex.parse("x + 1"))
        assert q.kind == "polynomial"

    def test_poly_coeffs(self):
        assert ex.poly_coeffs(ex.parse("(x+1)*(x-1)")) == [Fraction(-1), Fraction(0), Fraction(1)]
        assert ex.poly_coeffs(ex.parse("1/x")) is None
        assert ex.poly_coeffs(ex.parse("(x*x)/2 - 1/x")) is None
        product = ex.canonical(ex.parse("(x+1)*(x-1)"))
        assert ex.poly_coeffs(ex.Mul(product, ex.X)) == [0, -1, 0, 1]

    def test_degree_and_linearity(self):
        assert ex.degree(ex.parse("5")) == 0
        assert ex.degree(ex.parse("x*x*x")) == 3
        assert ex.is_linear(ex.parse("3 - x"))
        assert not ex.is_linear(ex.parse("x*x"))
        assert ex.degree(ex.canonical(ex.parse("x*x*x"))) == 3

    def test_canonical_polynomial_equality(self):
        a = ex.parse("x + x")
        b = ex.parse("2*x")
        assert ex.canonical(a) == ex.canonical(b) == ex.poly_expr([0, 2])
        assert ex.exact_equal(ex.parse("x + -x"), ex.parse("0"))

    def test_rational_cross_multiplication_equality(self):
        assert ex.exact_equal(ex.parse("(x*x)/x"), ex.parse("x"))
        assert ex.exact_equal(ex.parse("1/(2*x)"), ex.parse("(1/2)/x"))
        assert not ex.exact_equal(ex.parse("1/x"), ex.parse("1/(x+1)"))
        # an operand collapsed by 0*e is a coefficient form like any other
        assert ex.exact_equal(ex.parse("sin(x) + (0*sin(x) + 2)*x"), ex.parse("sin(x) + 2*x"))

    def test_unequal_polynomials_skip_cross_multiplication(self, monkeypatch):
        def refuse(a, b):
            raise AssertionError("cross-multiplied two polynomials")

        monkeypatch.setattr(ex, "_pmul", refuse)
        assert not ex.exact_equal(ex.poly_expr([1, 2]), ex.poly_expr([1, 3]))
        assert not ex.exact_equal(ex.X, ex.poly_expr([0, 0, 1]))
        assert not ex.exact_equal(ex.const(2), ex.X)

    def test_equal_rational_functions_have_equal_canonical_nodes(self):
        # lowest terms with a monic denominator: one node per function
        for a, b in [("1/(2*x)", "(1/2)/x"), ("x/(x*x)", "1/x"),
                     ("(2*x + 2)/(4*x*x + 4*x)", "1/(2*x)"), ("1/((x-1)/x)", "x/(x-1)")]:
            ca, cb = ex.canonical(ex.parse(a)), ex.canonical(ex.parse(b))
            assert ca == cb and isinstance(ca, ex.Div), (a, b)
        assert ex.canonical(ex.parse("(x*x-1)/(x-1)")) == ex.poly_expr([1, 1])
        assert ex.canonical(ex.parse("2/(4*x + 2)")) == ex.Div(ex.const(Fraction(1, 2)),
                                                               ex.poly_expr([Fraction(1, 2), 1]))
        assert ex.canonical(ex.parse("1/x")) != ex.canonical(ex.poly_expr([0, 1, 1]))

    def test_count_poly_roots_inside(self):
        coeffs = ex.poly_coeffs(ex.parse("(x-1)*(x-1)*(x+2)"))
        assert ex.count_poly_roots_inside(coeffs, Fraction(-3), Fraction(2)) == 2
        assert ex.count_poly_roots_inside(coeffs, Fraction(0), Fraction(1)) == 0
        assert ex.count_poly_roots_inside(coeffs, Fraction(1), None) == 0
        assert ex.count_poly_roots_inside(coeffs, None, None) == 2

    def test_poly_nonnegative(self):
        def nonneg(text, lo, hi):
            return ex.poly_nonnegative(ex.poly_coeffs(ex.parse(text)), lo, hi)

        assert nonneg("x*x", Fraction(-1), Fraction(1))  # touches 0, no sign change
        assert not nonneg("x*x - 1/1000000000000", Fraction(-1), Fraction(1))
        assert not nonneg("-(x-1)*(x-1)", Fraction(0), Fraction(4))  # first probe is the root
        assert nonneg("(x-1)*(x-1)*(x+2)", Fraction(-2), None)  # root at the open end
        assert not nonneg("(x-1)*(x-1)*(x+2)", None, None)
        assert not nonneg("-1", None, None)
        assert nonneg("0", None, None)
        assert nonneg("(x*x + 1)*(x - 3)*(x - 3)*(x - 3)", 3.0, None)


def _reference_evaluate(e, x):
    """The tree-walking interpreter `evaluator` replaced: one recursive call
    per node and per point, reading the mode at every node."""
    mode = scalars.get_mode()
    if isinstance(e, ex.Const):
        return e.value if mode == scalars.RATIONAL else float(e.value)
    if isinstance(e, ex.Var):
        return x
    if isinstance(e, ex.Poly):
        coeffs = e.coeffs if mode == scalars.RATIONAL else [float(c) for c in e.coeffs]
        return ex.poly_eval(coeffs, x)
    if isinstance(e, ex.Neg):
        return -_reference_evaluate(e.arg, x)
    if isinstance(e, ex.Add):
        return _reference_evaluate(e.left, x) + _reference_evaluate(e.right, x)
    if isinstance(e, ex.Sub):
        return _reference_evaluate(e.left, x) - _reference_evaluate(e.right, x)
    if isinstance(e, ex.Mul):
        return _reference_evaluate(e.left, x) * _reference_evaluate(e.right, x)
    if isinstance(e, ex.Div):
        denom = _reference_evaluate(e.right, x)
        if denom == 0:
            raise ExprEvalError(f"division by zero in {ex.to_text(e)}")
        return _reference_evaluate(e.left, x) / denom
    if isinstance(e, ex.Fun):
        if mode == scalars.RATIONAL:
            raise ExprEvalError(
                f"{e.name} requires float mode (rational mode is for polynomial work)"
            )
        arg = _reference_evaluate(e.arg, x)
        try:
            if e.name == "sin":
                return math.sin(arg)
            if e.name == "cos":
                return math.cos(arg)
            return math.sqrt(arg)
        except ValueError as exc:
            raise ExprEvalError(f"{e.name} domain error at argument {arg!r}") from exc
    raise TypeError(f"not an expression: {e!r}")


def _reference_poly_coeffs(e):
    """`poly_coeffs` as its own recursive walk, before `canonical` shared one
    bottom-up step with it."""
    if isinstance(e, ex.Poly):
        return list(e.coeffs)
    if isinstance(e, ex.Const):
        return [e.value]
    if isinstance(e, ex.Var):
        return [Fraction(0), Fraction(1)]
    if isinstance(e, ex.Neg):
        inner = _reference_poly_coeffs(e.arg)
        return None if inner is None else [-c for c in inner]
    if isinstance(e, (ex.Add, ex.Sub, ex.Mul, ex.Div)):
        a = _reference_poly_coeffs(e.left)
        b = None if a is None else _reference_poly_coeffs(e.right)
        if b is None:
            return None
        if isinstance(e, ex.Add):
            return ex._padd(a, b)
        if isinstance(e, ex.Sub):
            return ex._padd(a, [-c for c in b])
        if isinstance(e, ex.Mul):
            return ex._pmul(a, b)
        if len(b) != 1 or b[0] == 0:
            return None
        return [c / b[0] for c in a]
    return None


def _reference_eval_finite(e, x):
    value = _reference_evaluate(e, x)
    if isinstance(value, float) and not math.isfinite(value):
        raise ExprEvalError(f"non-finite value of {ex.to_text(e)}")
    return value


def _outcome(fn, *args):
    """The value with its type (repr tells -0.0 from 0.0 and shows nan), or
    the exception type and message."""
    try:
        value = fn(*args)
    except Exception as exc:  # compared, not swallowed
        return ("raised", type(exc), str(exc))
    return ("value", type(value), repr(value))


_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=4)
_expr_leaves = st.one_of(
    _fractions.map(ex.Const),
    st.just(ex.X),
    st.lists(_fractions, min_size=2, max_size=4)
    .filter(lambda cs: cs[-1] != 0)
    .map(lambda cs: ex.Poly(tuple(cs))),
    # beyond the float range: the conversion raises when evaluated in float mode
    st.sampled_from([ex.Const(Fraction(10**400)), ex.Poly((Fraction(1), Fraction(10**400)))]),
)


def _trees_over(leaves):
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.tuples(st.sampled_from([ex.Add, ex.Sub, ex.Mul, ex.Div]), inner, inner)
            .map(lambda t: t[0](t[1], t[2])),
            inner.map(ex.Neg),
            st.tuples(st.sampled_from(ex.FUNCTIONS), inner).map(lambda t: ex.Fun(*t)),
        ),
        max_leaves=12,
    )


# canonical leaves: a raw Poly((0, 1)) is not the canonical X
_canonical_trees = _trees_over(_expr_leaves.map(
    lambda e: ex.poly_expr(e.coeffs) if isinstance(e, ex.Poly) else e
))
# with a leaf that is not an expression: TypeError when reached
_trees = _trees_over(st.one_of(_expr_leaves, st.just("junk")))
_float_points = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e300, -1e300, math.inf, -math.inf, math.nan]),
    st.floats(min_value=-20, max_value=20),
)


@settings(max_examples=400, deadline=None)
@given(tree=_trees, mode=st.sampled_from([scalars.RATIONAL, scalars.FLOAT]),
       data=st.data())
def test_evaluator_is_the_interpreter(tree, mode, data):
    points = _fractions if mode == scalars.RATIONAL else _float_points
    xs = data.draw(st.lists(points, min_size=1, max_size=4))
    with scalars.engine_mode(mode):
        compiled = ex.evaluator(tree)
        for x in xs:
            assert _outcome(compiled, x) == _outcome(_reference_eval_finite, tree, x)


@settings(max_examples=600, deadline=None)
@given(tree=_canonical_trees, xs=st.lists(_fractions, min_size=1, max_size=3))
# 0*sin(x) collapses to a constant operand, and x*x/x cancels to x
@example(tree=ex.parse("(0*sin(x) + 2)*x"), xs=[Fraction(1)])
@example(tree=ex.parse("x*x/x - 1/(2*x)"), xs=[Fraction(0), Fraction(1, 2)])
def test_canonical_is_a_normal_form(tree, xs):
    form = ex.canonical(tree)
    assert ex.canonical(form) == form
    assert ex.canonical(ex.parse(ex.to_text(form))) == form
    # in rational mode the normal form keeps the value wherever the tree has one
    for x in xs:
        value = _outcome(ex.evaluator(tree), x)
        if value[0] == "value":
            assert _outcome(ex.evaluator(form), x) == value
    expected = _reference_poly_coeffs(tree)
    if expected is not None:
        assert ex.poly_coeffs(tree) == expected


@pytest.mark.parametrize("text, expected", [
    ("sin(x) + 0", ex.Fun("sin", ex.X)),
    ("sin(x) - 0", ex.Fun("sin", ex.X)),
    # a non-polynomial operand that collapses to a constant leaves a constant
    ("0*sin(x) - 1", ex.const(-1)),
    ("-(0*sin(x) + 2)", ex.const(-2)),
])
def test_canonical_identities(text, expected):
    tree = ex.parse(text)
    assert ex.canonical(tree) == expected
    assert ex.poly_coeffs(tree) == (
        [expected.value] if isinstance(expected, ex.Const) else None
    )


def test_rational_coeffs_of_a_negation():
    assert ex.rational_coeffs(ex.parse("-(1/x)")) == ([Fraction(-1)], [Fraction(0), Fraction(1)])


def _count_compiles(monkeypatch):
    compiled = []
    evaluator = ex.evaluator

    def counted(e):
        compiled.append(e)
        return evaluator(e)

    monkeypatch.setattr(ex, "evaluator", counted)
    return compiled


class TestCompileOnce:
    def test_envelope_checks_compile_each_bound_once(self, oscillation_pair, monkeypatch):
        compiled = _count_compiles(monkeypatch)
        for f in oscillation_pair:
            compiled.clear()
            checks = pw.validate_envelopes(f)
            sampled = [c for c in checks if c.x is not None]
            # the declared envelopes at 0, one per side, 576 samples each
            assert len(sampled) == 2 and all(c.passed for c in sampled)
            assert len(compiled) == len(sampled)

    def test_piece_evaluators_are_compiled_once(self, oscillation_pair, monkeypatch):
        f, _ = oscillation_pair
        # loading validated f through its pieces' evaluators: start from
        # copies that have compiled nothing yet
        f = replace(f, pieces=tuple(replace(p) for p in f.pieces))
        compiled = _count_compiles(monkeypatch)
        first = baire.grid_sample(f, -0.5, 1 / 64, 64)
        assert len(compiled) == 2  # one per piece; the value at 0 is stored
        assert baire.grid_sample(f, -0.5, 1 / 64, 64) == first
        assert len(compiled) == 2

    def test_piece_evaluators_follow_the_mode(self, monkeypatch):
        piece = pw.make_piece(Fraction(-1), Fraction(1), ex.parse("x*x"))
        compiled = _count_compiles(monkeypatch)
        assert piece.eval(Fraction(1, 3)).lo == Fraction(1, 9)
        with scalars.engine_mode(scalars.FLOAT):
            value = piece.eval(1 / 3).lo
            assert isinstance(value, float) and value == pytest.approx(1 / 9)
        assert piece.eval(Fraction(1, 2)).lo == Fraction(1, 4)
        assert len(compiled) == 2

    def test_refine_compiles_each_bound_once(self, monkeypatch):
        f = pw.hfunction(
            pw.Domain.of(0, 2), [],
            [pw.make_piece(Fraction(0), Fraction(2), ex.parse("x*x"), ex.parse("x*x + 1"))],
            validate=False,
        )
        compiled = _count_compiles(monkeypatch)
        refined = pw.refine(f, [Fraction(k, 8) for k in range(1, 16)])
        assert len(refined.points) == 15
        assert len(compiled) == 2


def _padd_zero_seeded(a, b):
    """Reference: every slot starts at Fraction(0), as `_padd` did."""
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return ex._trim(out)


def _pmul_zero_seeded(a, b):
    """Reference: every slot starts at Fraction(0), as `_pmul` did."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return ex._trim(out)


def _typed(values):
    return [(type(v), v) for v in values]


def _typed_node(e):
    """An expression node with the type of every scalar it holds."""
    held = e.coeffs if isinstance(e, ex.Poly) else (e.value,) if isinstance(e, ex.Const) else ()
    return type(e), e, _typed(held)


_coefficient_lists = st.lists(_fractions, min_size=1, max_size=5)
_coefficient_forms = _coefficient_lists.map(ex.poly_expr)


@settings(max_examples=300, deadline=None)
@given(a=_coefficient_lists, b=_coefficient_lists,
       mode=st.sampled_from([scalars.RATIONAL, scalars.FLOAT]))
def test_coefficient_sums_and_products_need_no_zero(a, b, mode):
    with scalars.engine_mode(mode):
        assert _typed(ex._padd(a, b)) == _typed(_padd_zero_seeded(a, b))
        assert _typed(ex._pmul(a, b)) == _typed(_pmul_zero_seeded(a, b))


@settings(max_examples=300, deadline=None)
@given(a=_coefficient_forms, b=_coefficient_forms,
       mode=st.sampled_from([scalars.RATIONAL, scalars.FLOAT]))
def test_coefficient_form_add_and_mul_are_the_tree_route(a, b, mode):
    # both operands are Const, X or Poly: `add`/`mul` build the node from
    # the coefficients instead of canonicalising a new Add or Mul tree
    with scalars.engine_mode(mode):
        assert _typed_node(ex.add(a, b)) == _typed_node(ex.canonical(ex.Add(a, b)))
        assert _typed_node(ex.mul(a, b)) == _typed_node(ex.canonical(ex.Mul(a, b)))


_roots = st.lists(
    st.tuples(st.fractions(-3, 3, max_denominator=8), st.integers(1, 4)),
    max_size=4, unique_by=lambda root: root[0],
)
_ends = st.one_of(st.none(), st.fractions(-4, 4, max_denominator=8))


@settings(max_examples=150, deadline=None)
@given(scale=st.fractions(-5, 5, max_denominator=7).filter(lambda c: c != 0),
       roots=_roots, square=st.booleans(), lo=_ends, hi=_ends)
def test_poly_nonnegative_is_the_sign_at_every_probe(scale, roots, square, lo, hi):
    if lo is not None and hi is not None:
        assume(lo < hi)
    coeffs = [scale, 0, scale] if square else [scale]  # c*(x^2 + 1) or c
    for r, m in roots:
        for _ in range(m):
            coeffs = ex._pmul(coeffs, [-r, Fraction(1)])
    # distinct roots and ends are >= 1/64 apart, so the 10^-6 neighbours of
    # each root see the sign on both of its sides
    xs = [r + d for r, _ in roots for d in (Fraction(1, 10**6), Fraction(-1, 10**6))]
    anchors = [r for r, _ in roots] + [x for x in (lo, hi) if x is not None] + [Fraction(0)]
    a = lo if lo is not None else min(anchors) - 1
    b = hi if hi is not None else max(anchors) + 1
    xs += [a + (b - a) * Fraction(k, 2001) for k in range(1, 2001)]
    inside = [x for x in xs if (lo is None or x > lo) and (hi is None or x < hi)]
    expected = all(ex.poly_eval(coeffs, x) >= 0 for x in inside)
    assert ex.poly_nonnegative(coeffs, lo, hi) == expected
