import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hfring import expr as ex
from hfring import interval as iv
from hfring import piecewise as pw
from hfring import algebra, baire, formats, order, scalars, suite
from hfring.errors import (
    DomainError,
    EngineError,
    EnvelopeError,
    NumericRangeError,
    PieceError,
    RepresentationError,
)
from hfring.interval import Interval
from hfring.piecewise import Domain

from conftest import DATA_DIR, make_oscillation_pair, make_step_pair


def F(v):
    return pw.to_scalar(v)


class TestEvalAt:
    def test_step_values(self, step_pair):
        f, _ = step_pair
        assert f.eval_at(0) == Interval.of(0, 1)
        assert f.eval_at(-3) == Interval.of(0, 0)
        assert f.eval_at("1/2") == Interval.of(1, 1)

    def test_outside_domain(self):
        f = pw.constant_function(Domain.of(-1, 1), 5)
        with pytest.raises(DomainError):
            f.eval_at(2)

    def test_oscillation_point(self, oscillation_pair):
        f, _ = oscillation_pair
        v = f.eval_at(2 / math.pi)
        assert abs(v.lo - 1.0) < 1e-12 and v.is_point

    def test_pole_inside_piece_rejected(self):
        with pytest.raises(PieceError):
            pw.hfunction(
                Domain.of(-1, 1),
                [],
                [pw.make_piece(F(-1), F(1), ex.parse("1/x"))],
            )

    def test_lower_above_upper_rejected(self):
        for lower, upper in (("1", "0"), ("x*x + 1", "x")):
            with pytest.raises(PieceError):
                pw.hfunction(
                    Domain.of(0, 1),
                    [],
                    [pw.make_piece(F(0), F(1), ex.parse(lower), ex.parse(upper))],
                )

    def test_real_polynomial_pieces_are_not_sampled(self, monkeypatch):
        data = {
            "domain": [-1, "inf"],
            "pieces": [{"on": [-1, 0], "lower": "x*x - 3*x + 1/2"},
                       {"on": [0, "inf"], "lower": "2*x/4"}],
            "points": [{"x": 0, "value": [0, "1/2"]}],
        }

        def no_samples(*args, **kwargs):
            raise AssertionError("sampled")

        monkeypatch.setattr(pw, "_span_samples", no_samples)
        assert formats.hfunction_from_json(data).eval_at("-1/2") == Interval.of("9/4", "9/4")
        with scalars.engine_mode(scalars.FLOAT):
            with pytest.raises(AssertionError, match="sampled"):
                formats.hfunction_from_json(data)

    def test_lower_above_upper_between_samples_rejected(self):
        # upper - lower = x*x - 1/10^12 dips below 0 only on |x| < 10^-6
        with pytest.raises(PieceError, match="lower bound above upper bound"):
            pw.hfunction(Domain.of(-1, 1), [], [pw.make_piece(
                F(-1), F(1), ex.parse("0"), ex.parse("x*x - 1/1000000000000"))])

    def test_transcendental_piece_rejected_in_rational_mode(self):
        with pytest.raises(PieceError):
            pw.hfunction(
                Domain.of(0, 1), [], [pw.make_piece(F(0), F(1), ex.parse("sin(x)"))]
            )


def _scan_point_index(f, x):
    for i, p in enumerate(f.points):
        if scalars.scalar_eq(p.x, x):
            return i
    return None


def _scan_piece_at(f, x):
    for piece in f.pieces:
        if (piece.lo is None or piece.lo < x) and (piece.hi is None or x < piece.hi):
            return piece
    return None


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    mode=st.sampled_from(
        [(scalars.RATIONAL, None), (scalars.FLOAT, 1e-9), (scalars.FLOAT, 0.2)]
    ),
    near=st.lists(st.tuples(st.integers(0, 7), st.integers(-3, 3)), max_size=6),
    free=st.lists(st.fractions(-2, 2, max_denominator=64), max_size=6),
)
def test_lookup_matches_the_linear_scan(seed, mode, near, free):
    # a float tolerance of 0.2 puts several suite breakpoints (k/8) within
    # the tolerance of one query, where the first of them must be returned
    with scalars.engine_mode(*mode):
        f = suite.h_continuous_suite(seed, 1)[0]
        step = scalars.get_tolerance() / 2 if mode[0] == scalars.FLOAT else Fraction(1, 1024)
        xs = [F(x) for x in free] + list(f.breakpoints)
        if f.points:
            xs += [f.points[i % len(f.points)].x + k * step for i, k in near]
        for x in xs:
            assert f.point_index(x) == _scan_point_index(f, x)
            piece = _scan_piece_at(f, x)
            if piece is None:
                with pytest.raises(DomainError):
                    f.piece_at(x)
            else:
                assert f.piece_at(x) is piece


def _insert_breakpoint(f, x):
    """Reference: split the covering piece at one point, the way the engine
    inserted breakpoints one at a time before `refine`."""
    x = pw.to_scalar(x)
    if not f.domain.contains(x):
        raise DomainError(f"{x!r} outside domain")
    if _scan_point_index(f, x) is not None:
        return f
    points, pieces = [], []
    for i, piece in enumerate(f.pieces):
        if _scan_piece_at(f, x) is piece:
            v_lo = ex.evaluator(piece.lower.expr)(x)
            v_hi = v_lo if piece.is_real else ex.evaluator(piece.upper.expr)(x)
            env_lo = pw.EndEnvelope(v_lo, v_lo)
            env_hi = env_lo if piece.is_real else pw.EndEnvelope(v_hi, v_hi)
            lower, upper = piece.lower, piece.upper
            pieces += [
                pw.Piece(piece.lo, x, lower._replace(right=env_lo), upper._replace(right=env_hi)),
                pw.Piece(x, piece.hi, lower._replace(left=env_lo), upper._replace(left=env_hi)),
            ]
            points.append(pw.SpecialPoint(x, Interval(min(v_lo, v_hi), max(v_lo, v_hi))))
        else:
            pieces.append(piece)
        if i < len(f.points):
            points.append(f.points[i])
    return pw.HFunction(f.domain, tuple(points), tuple(pieces))


def _normalize_fixpoint(f):
    """Reference: merge the first removable point and rescan from the start
    until no point is removable."""
    points, pieces = list(f.points), list(f.pieces)
    changed = True
    while changed:
        changed = False
        for i, point in enumerate(points):
            left, right = pieces[i], pieces[i + 1]
            if pw._removable(point, left, right):
                pieces[i : i + 2] = [pw.Piece(
                    left.lo, right.hi,
                    left.lower._replace(right=right.lower.right),
                    left.upper._replace(right=right.upper.right),
                )]
                del points[i]
                changed = True
                break
    return pw.HFunction(f.domain, tuple(points), tuple(pieces))


MODES = [(scalars.RATIONAL, None), (scalars.FLOAT, 1e-9), (scalars.FLOAT, 0.2)]


def _refine_points(f, near, free, step):
    xs = [F(x) for x in free]
    if f.points:
        xs += [f.points[i % len(f.points)].x + k * step for i, k in near]
    return xs + [x + step / 3 for x in xs]


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    mode=st.sampled_from(MODES),
    near=st.lists(st.tuples(st.integers(0, 7), st.integers(-3, 3)), max_size=6),
    free=st.lists(st.fractions(-1, 1, max_denominator=64).filter(lambda x: -1 < x < 1),
                  max_size=6),
)
def test_refine_matches_per_point_insertion(seed, mode, near, free):
    # at a float tolerance of 0.2 many requested points fall within the
    # tolerance of an existing point or of one inserted just before
    with scalars.engine_mode(*mode):
        step = scalars.get_tolerance() / 2 if mode[0] == scalars.FLOAT else Fraction(1, 1024)
        f = suite.h_continuous_suite(seed, 1)[0]
        xs = [x for x in _refine_points(f, near, free, step) if f.domain.contains(x)]
        expected = f
        for x in sorted(xs):
            expected = _insert_breakpoint(expected, x)
        assert pw.refine(f, xs) == expected
        assert pw.refine(f, reversed(xs)) == expected


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    mode=st.sampled_from(MODES),
    free=st.lists(st.fractions(-1, 1, max_denominator=64).filter(lambda x: -1 < x < 1),
                  max_size=6),
)
def test_one_pass_normalize_matches_the_fixpoint(seed, mode, free):
    with scalars.engine_mode(*mode):
        f, g = suite.h_continuous_suite(seed, 2)
        refined = pw.refine(f, [F(x) for x in free])
        inputs = [refined, pw.pointwise_mul(refined, f),
                  pw.pointwise_add(refined, pw.pointwise_neg(f))]
        if mode[1] != 0.2:
            # at a tolerance above half the suite's breakpoint spacing (1/16)
            # `align` can merge two points of one function into one point
            # of the other, and then raises RepresentationError
            inputs += [pw.pointwise_add(f, g), pw.pointwise_mul(f, g)]
        for h in inputs:
            assert pw.normalize(h) == _normalize_fixpoint(h)
        assert pw.normalize(refined) == _normalize_fixpoint(f)


def _assert_real_pieces_share_a_record(f):
    for piece in f.pieces:
        if piece.is_real:
            assert piece.lower is piece.upper


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    mode=st.sampled_from(MODES[:2]),
    kind=st.sampled_from(["h", "s"]),
    free=st.lists(st.fractions(-1, 1, max_denominator=64).filter(lambda x: -1 < x < 1),
                  max_size=4),
)
def test_real_pieces_hold_one_bound_record(seed, mode, kind, free):
    with scalars.engine_mode(*mode):
        make = suite.h_continuous_suite if kind == "h" else suite.s_continuous_suite
        f, g = make(seed, 2)
        zero = pw.constant_function(f.domain, 0)
        outputs = [f, g, pw.refine(f, [F(x) for x in free]), pw.pointwise_neg(f),
                   pw.pointwise_add(f, g), pw.pointwise_mul(f, zero), baire.fis(f),
                   baire.fsi(f)]
        try:
            outputs.append(pw.pointwise_mul(f, g))
        except RepresentationError:
            pass  # the winning bound product changes inside a proper piece
        outputs += [pw.normalize(h) for h in outputs[2:]]
        if f.points:
            value = f.points[0].value
            outputs.append(pw.declare_envelope(f, f.points[0].x, value.lo, value.hi))
        for h in outputs:
            _assert_real_pieces_share_a_record(h)
        e = ex.parse("x + 1")
        piece = pw.make_piece(F(-1), F(1), e, ex.parse("1 + x"))
        assert piece.lower is piece.upper


def _chained(domain, xs):
    """HFunction with special points ``xs`` in the given order and constant
    pieces chained through them."""
    ends = [domain.lo, *xs, domain.hi]
    pieces = [pw.make_piece(a, b, ex.parse("0")) for a, b in zip(ends, ends[1:])]
    return pw.HFunction(domain, tuple(pw.SpecialPoint(x, Interval.of(0)) for x in xs),
                        tuple(pieces))


def test_points_at_or_beyond_a_domain_end_are_not_interior():
    dom = Domain.of(-1, 1)
    for xs in ([F(-1)], [F(-2), F(0)], [F(0), F(1)], [F(0), F(3)]):
        with pytest.raises(EngineError, match="interior to the domain"):
            _chained(dom, xs)


def test_interior_points_out_of_order_are_not_increasing():
    dom = Domain.of(-1, 1)
    for xs in ([F("1/2"), F("1/4")], [F(0), F(0)], [F("-1/2"), F("1/2"), F(0)]):
        with pytest.raises(EngineError, match="strictly increasing"):
            _chained(dom, xs)


def test_refine_rejects_points_outside_the_domain():
    f = suite.h_continuous_suite(3, 1)[0]
    outside = pw.DenseSubsetSpec.excluding(0, 1)
    with pytest.raises(DomainError):
        pw.refine(f, [F(0), F(2)])
    # the first point outside in sorted order is named, not the last one
    with pytest.raises(DomainError, match=r"^2 outside domain \(-1, 1\)$"):
        pw.refine(f, [F(3), F(0), F(2)])
    for operator in (baire.lower_baire, baire.upper_baire, baire.graph_completion,
                     algebra.extend):
        with pytest.raises(DomainError):
            operator(f, outside)


def _float_span_samples_reference(lo, hi, count, tag):
    """Float samples drawn through the exact rational, as before the float
    branch divided the integers directly."""
    a, b = pw._finite_window(lo, hi)
    rng = random.Random(f"{scalars.get_seed()}|{tag!r}")
    return [
        float(a) + float(b - a) * float(Fraction(rng.getrandbits(30) + 1, 2**30 + 2))
        for _ in range(count)
    ]


@settings(max_examples=150, deadline=None)
@given(
    ends=st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)).filter(lambda t: t[0] != t[1]),
    unbounded=st.sampled_from(["none", "lo", "hi", "both"]),
    tag=st.text(max_size=5),
)
def test_float_span_samples_are_bit_identical(ends, unbounded, tag):
    lo, hi = sorted(ends)
    lo = None if unbounded in ("lo", "both") else lo
    hi = None if unbounded in ("hi", "both") else hi
    with scalars.engine_mode(scalars.FLOAT):
        got = pw._span_samples(lo, hi, 40, tag)
        assert repr(got) == repr(_float_span_samples_reference(lo, hi, 40, tag))


class TestRationalLimit:
    def test_removable_singularities_cancel(self):
        assert pw.rational_limit_at(ex.parse("(x*x-1)/(x-1)"), F(1)) == 2
        double = ex.parse("(x-1)*(x-1)*(x+3)/((x-1)*(x-1)*(x+1))")
        assert pw.rational_limit_at(double, F(1)) == 2
        assert pw.rational_limit_at(ex.canonical(ex.parse("x*x - 3*x")), F(3)) == 0

    def test_pole_has_no_limit(self):
        assert pw.rational_limit_at(ex.parse("(x+1)/((x-1)*(x-1))"), F(1)) is None
        assert pw.rational_limit_at(ex.parse("sin(x)"), F(0)) is None

    def test_estimated_envelope_steps_within_half_the_piece(self, float_mode):
        # sin(1/x) has no limit at 0: the envelope is the hull of the samples
        # at 2**-k times half the piece's length, k = 17..48
        piece = pw.make_piece(0.0, 0.25, ex.parse("sin(1/x)"))
        samples = [math.sin(1 / (0.125 / 2**k)) for k in range(17, 49)]
        env = piece.lower.left
        assert env == pw.EndEnvelope(min(samples), max(samples), pw.ESTIMATED)

    def test_no_envelope_at_an_infinite_end(self, float_mode):
        # on (-inf, 0) the bound ranges over [-2, 0] far out; an infinite end
        # is not a point of the domain, so nothing is sampled there
        piece = pw.make_piece(None, 0.0, ex.parse("sin(x) + x/sqrt(x*x)"))
        assert piece.lower.left is None
        assert piece.lower.right.provenance == pw.ESTIMATED
        assert pw.make_piece(0.0, None, ex.parse("sqrt(x)/(1 + x)")).lower.right is None

    def test_no_envelope_at_an_infinite_end_in_rational_mode(self):
        piece = pw.make_piece(F(1), None, ex.parse("(2*x+1)/(x+3)"))
        assert piece.lower.left == pw.EndEnvelope(Fraction(3, 4), Fraction(3, 4))
        assert piece.lower.right is None

    def test_declared_data_at_an_infinite_end_rejected(self):
        with pytest.raises(EnvelopeError, match="infinite end"):
            pw.make_piece(None, F(0), ex.parse("0"), declared_left=(0, 0))
        with pytest.raises(EnvelopeError, match="infinite end"):
            pw.make_piece(F(0), None, ex.parse("0"), declared_right=(0, 0))
        with pytest.raises(EnvelopeError, match="infinite end"):
            pw.make_piece(F(0), None, ex.parse("0"), ex.parse("1"),
                          declared_upper=((1, 1), (1, 1)))
        # a finite end of the same piece takes declared data
        piece = pw.make_piece(F(0), None, ex.parse("0"), ex.parse("1"),
                              declared_upper=((1, 1), None))
        assert piece.upper.left.provenance == pw.DECLARED


def _rational_limit_reference(e, at):
    """Reference: the rational-function route `rational_limit_at` took for
    every expression before polynomials got their own path."""
    num, den = ex.rational_coeffs(e)
    a = Fraction(at) if not isinstance(at, float) else Fraction(str(at))
    while ex.poly_eval(den, a) == 0 and ex.poly_eval(num, a) == 0:
        if den == [Fraction(0)] or num == [Fraction(0)]:
            break
        num, _ = ex._poly_divmod(num, [-a, Fraction(1)])
        den, _ = ex._poly_divmod(den, [-a, Fraction(1)])
    dval = ex.poly_eval(den, a)
    if dval == 0:
        return None
    value = ex.poly_eval(num, a) / dval
    return value if scalars.get_mode() == scalars.RATIONAL else float(value)


_small_fractions = st.fractions(-9, 9, max_denominator=8)


@settings(max_examples=300, deadline=None)
@given(
    coeffs=st.lists(_small_fractions, min_size=1, max_size=5),
    mode=st.sampled_from([scalars.RATIONAL, scalars.FLOAT]),
    data=st.data(),
)
def test_polynomial_limit_is_the_rational_route(coeffs, mode, data):
    e = ex.poly_expr(coeffs)  # Const, X or Poly
    points = _small_fractions if mode == scalars.RATIONAL else st.floats(-9, 9)
    at = data.draw(points)
    with scalars.engine_mode(mode):
        limit, expected = pw.rational_limit_at(e, at), _rational_limit_reference(e, at)
    assert (type(limit), limit) == (type(expected), expected)


def _align_reference(f, g):
    """Reference: `align` as it was before the merge walk, each operand
    refined one point at a time (`_insert_breakpoint`, which
    `test_refine_matches_per_point_insertion` ties to `refine`)."""
    if not pw.domain_eq(f.domain, g.domain):
        raise EngineError("operands must share a domain")
    fa, ga = f, g
    for x in g.breakpoints:
        fa = _insert_breakpoint(fa, x)
    for x in f.breakpoints:
        ga = _insert_breakpoint(ga, x)
    xs, ys = [p.x for p in fa.points], [p.x for p in ga.points]
    if len(xs) == len(ys) and all(map(scalars.scalar_eq, xs, ys)):
        return fa, ga
    for a, b in ((xs, ys), (ys, xs)):
        for p, q in zip(a, a[1:]):
            if any(scalars.scalar_eq(p, r) and scalars.scalar_eq(q, r) for r in b):
                raise RepresentationError(
                    f"tolerance {scalars.get_tolerance()} merges the breakpoints {p!r} "
                    f"and {q!r} into one point; the operands cannot be aligned"
                )
    raise RepresentationError(
        f"tolerance {scalars.get_tolerance()} aligns the operands to different breakpoints"
    )


def _aligned_or_message(align, f, g):
    try:
        return align(f, g)
    except RepresentationError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    mode=st.sampled_from(MODES),
    near=st.lists(st.tuples(st.integers(0, 7), st.integers(-3, 3)), max_size=6),
    free=st.lists(st.fractions(-1, 1, max_denominator=64).filter(lambda x: -1 < x < 1),
                  max_size=6),
)
# at a tolerance of 0.2 this pair merges 5/8 and 7/8 of the first function
# into 3/4 of the second (`test_tolerance_merging_two_breakpoints_rejected`)
@example(seed=0, mode=MODES[2], near=[], free=[])
def test_align_is_per_point_refinement(seed, mode, near, free):
    with scalars.engine_mode(*mode):
        step = scalars.get_tolerance() / 2 if mode[0] == scalars.FLOAT else Fraction(1, 1024)
        f, g = suite.h_continuous_suite(seed, 2)
        # points of g at (k = 0), beside or between points of f
        g = pw.refine(g, [x for x in _refine_points(f, near, free, step)
                          if f.domain.contains(x)])
        for a, b in ((f, g), (g, f), (f, f)):
            aligned = _aligned_or_message(pw.align, a, b)
            assert aligned == _aligned_or_message(_align_reference, a, b)
            if mode[0] == scalars.RATIONAL:
                assert not isinstance(aligned, str)


def _pointwise_add_reference(f, g):
    """Reference: `pointwise_add` as it was before `walk`, on the functions
    the per-point `_align_reference` builds."""
    f, g = _align_reference(f, g)
    points = [
        pw.SpecialPoint(p.x, iv.add(p.value, q.value))
        for p, q in zip(f.points, g.points)
    ]
    pieces = []
    for a, b in zip(f.pieces, g.pieces):
        lower = pw._combine(a.lower, b.lower, operator.add, ex.add(a.lower.expr, b.lower.expr))
        upper = lower
        if not (a.is_real and b.is_real):
            upper = pw._combine(a.upper, b.upper, operator.add, ex.add(a.upper.expr, b.upper.expr))
        pieces.append(pw.Piece(a.lo, a.hi, lower, upper))
    return pw.HFunction(f.domain, tuple(points), tuple(pieces))


def _pointwise_mul_reference(f, g):
    """Reference: `pointwise_mul` as it was before `walk`,
    on `_align_reference`."""
    f, g = _align_reference(f, g)
    points = [
        pw.SpecialPoint(p.x, iv.mul(p.value, q.value))
        for p, q in zip(f.points, g.points)
    ]
    pieces = []
    for a, b in zip(f.pieces, g.pieces):
        if a.is_real and b.is_real:
            prod = pw._combine(a.lower, b.lower, operator.mul, ex.mul(a.lower.expr, b.lower.expr))
            pieces.append(pw.Piece(a.lo, a.hi, prod, prod))
        else:
            pieces.append(_mul_proper_pieces_reference(a, b))
    return pw.HFunction(f.domain, tuple(points), tuple(pieces))


def _mul_proper_pieces_reference(a, b):
    factors = [(p, q) for p in (a.lower, a.upper) for q in (b.lower, b.upper)]
    products = [ex.mul(p.expr, q.expr) for p, q in factors]
    tag = ("mulpick", str(a.lo), str(a.hi))

    def lowest(candidates):
        for k, low in enumerate(candidates):
            if all(other is low or pw.nonnegative_on(ex.Sub(other, low), a.lo, a.hi, tag, 0)
                   for other in candidates):
                return k
        return None

    low_idx = lowest(products)
    high_idx = lowest([ex.Neg(c) for c in products])
    if low_idx is None or high_idx is None:
        raise RepresentationError(
            f"product bounds change shape inside the proper interval piece "
            f"{scalars.format_span(a.lo, a.hi)}; insert a breakpoint where the winning "
            "product changes"
        )
    lower, upper = (pw._combine(*factors[k], operator.mul, products[k])
                    for k in (low_idx, high_idx))
    return pw.Piece(a.lo, a.hi, lower, lower if upper.expr == lower.expr else upper)


def _max_deviation_reference(f, g):
    """Reference: `order.max_deviation` as it was before `walk`,
    on `_align_reference`."""
    f, g = _align_reference(f, g)
    worst = scalars.to_scalar(0)
    for p, q in zip(f.points, g.points):
        worst = max(worst, iv.distance(p.value, q.value))
    per_piece = max(1, 1000 // len(f.pieces))
    for i, (a, b) in enumerate(zip(f.pieces, g.pieces)):
        for bound, ea, eb in (
            ("lower", a.lower.expr, b.lower.expr), ("upper", a.upper.expr, b.upper.expr)
        ):
            if ea != eb:
                d = order._bound_deviation(ea, eb, a.lo, a.hi, per_piece, ("dev", i, bound))
                worst = max(worst, d)
    return worst


def _func_leq_reference(f, g):
    """Reference: `order.func_leq` as it was before `walk`,
    on `_align_reference`."""
    f, g = _align_reference(f, g)
    for p, q in zip(f.points, g.points):
        if not iv.leq(p.value, q.value):
            return False
    for a, b in zip(f.pieces, g.pieces):
        for ea, eb in ((a.lower.expr, b.lower.expr), (a.upper.expr, b.upper.expr)):
            if not pw.nonnegative_on(
                ex.Sub(eb, ea), a.lo, a.hi, ("leq", str(a.lo), str(a.hi)),
                scalars.comparison_slack()
            ):
                return False
    return True


def _answer(operation, f, g):
    """What the operation gives, down to the types of the scalars, the
    provenance of every envelope and which pieces share one record; or the
    error it raises."""
    try:
        result = operation(f, g)
    except (RepresentationError, EngineError) as exc:
        return type(exc), str(exc)
    if isinstance(result, pw.HFunction):
        return repr(result), [p.lower is p.upper for p in result.pieces]
    return repr(result)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    mode=st.sampled_from(MODES[:2]),
    kind=st.sampled_from(["h", "s"]),
    near=st.lists(st.tuples(st.integers(0, 7), st.integers(-3, 3)), max_size=6),
    free=st.lists(st.fractions(-1, 1, max_denominator=64).filter(lambda x: -1 < x < 1),
                  max_size=6),
)
def test_walk_readers_match_the_aligned_references(seed, mode, kind, near, free):
    with scalars.engine_mode(*mode):
        step = scalars.get_tolerance() / 2 if mode[0] == scalars.FLOAT else Fraction(1, 1024)
        make = suite.h_continuous_suite if kind == "h" else suite.s_continuous_suite
        f, g = make(seed, 2)
        # points of g at (k = 0), beside or between points of f
        g = pw.refine(g, [x for x in _refine_points(f, near, free, step)
                          if f.domain.contains(x)])
        # f with every point value raised: f <= raised, and only the points
        # show that raised <= f fails
        raised = pw.HFunction(f.domain, tuple(
            pw.SpecialPoint(p.x, iv.add(p.value, Interval(step, step))) for p in f.points
        ), f.pieces)
        for operation, reference in ((pw.pointwise_add, _pointwise_add_reference),
                                     (pw.pointwise_mul, _pointwise_mul_reference),
                                     (order.max_deviation, _max_deviation_reference),
                                     (order.func_leq, _func_leq_reference)):
            for a, b in ((f, g), (g, f), (f, f), (f, raised), (raised, f)):
                assert _answer(operation, a, b) == _answer(reference, a, b)


class TestAlign:
    def test_union_of_special_points(self):
        dom = Domain.of(-2, 2)
        f = pw.hfunction(
            dom,
            [(F(0), Interval.of(0, 1))],
            [pw.make_piece(F(-2), F(0), ex.parse("0")),
             pw.make_piece(F(0), F(2), ex.parse("1"))],
        )
        g = pw.hfunction(
            dom,
            [(F(1), Interval.of(2, 3))],
            [pw.make_piece(F(-2), F(1), ex.parse("2")),
             pw.make_piece(F(1), F(2), ex.parse("3"))],
        )
        f2, g2 = pw.align(f, g)
        assert f2.breakpoints == g2.breakpoints == (F(0), F(1))
        assert f2.eval_at(1) == Interval.of(1, 1)

    def test_idempotent_when_aligned(self, step_pair):
        f, g = step_pair
        f2, g2 = pw.align(f, g)
        assert f2.breakpoints == f.breakpoints == (F(0),)
        assert g2.breakpoints == g.breakpoints

    def test_align_preserves_eval(self):
        rng = random.Random(31)
        gen = random.Random(32)
        for _ in range(20):
            f = suite.random_h_continuous(gen)
            g = suite.random_h_continuous(gen)
            f2, g2 = pw.align(f, g)
            for _ in range(50):
                x = Fraction(rng.randint(-990, 990), 1000)
                assert f.eval_at(x) == f2.eval_at(x)
                assert g.eval_at(x) == g2.eval_at(x)


    def test_tolerance_merging_two_breakpoints_rejected(self):
        # 3/4 lies within 0.2 of both 5/8 and 7/8, so refining f would drop
        # it while refining g drops both of f's points
        with scalars.engine_mode("float", 0.2):
            f, g = suite.h_continuous_suite(0, 2)
            assert f.breakpoints == (-0.875, 0, 0.625, 0.875)
            assert g.breakpoints == (-0.25, 0.75)
            message = r"tolerance 0\.2 merges the breakpoints 0\.625 and 0\.875"
            for operation in (pw.align, pw.pointwise_add, pw.pointwise_mul):
                with pytest.raises(RepresentationError, match=message):
                    operation(f, g)


class TestPointwiseOps:
    def test_step_sum_spike(self, step_pair):
        f, g = step_pair
        s = pw.pointwise_add(f, g)
        assert s.eval_at(0) == Interval.of(-1, 1)
        assert s.eval_at(-5) == Interval.of(0, 0)
        assert s.eval_at(5) == Interval.of(0, 0)

    def test_add_identity(self, step_pair):
        f, _ = step_pair
        zero = pw.constant_function(f.domain, 0)
        assert pw.func_equal(pw.pointwise_add(f, zero), f)

    def test_oscillation_sum_envelopes(self, oscillation_pair):
        f, g = oscillation_pair
        s = pw.pointwise_add(f, g)
        # default combination is the conservative interval sum of envelopes
        env = s.pieces[0].lower.right
        assert env.liminf == -2 and env.limsup == 2
        declared = pw.declare_envelope(s, 0.0, -math.sqrt(2), math.sqrt(2))
        assert declared.pieces[0].lower.right.limsup == pytest.approx(math.sqrt(2))

    def test_evaluated_envelopes_stay_exact(self):
        dom = Domain.of(-1, 1)
        f = pw.hfunction(
            dom,
            [(F(0), Interval.of(0, 1))],
            [pw.make_piece(F(-1), F(0), ex.parse("x")),
             pw.make_piece(F(0), F(1), ex.parse("1-x"))],
        )
        s = pw.pointwise_add(f, f)
        env = s.pieces[0].lower.right
        assert env.provenance == "evaluated"
        assert env.liminf == env.limsup == 0

    def test_neg_mirrors(self, step_pair):
        f, g = step_pair
        assert pw.func_equal(pw.pointwise_neg(f), g)

    def test_mul_proper_constant_pieces(self):
        dom = Domain.of(0, 1)
        a = pw.constant_function(dom, Interval.of(0, 1))
        b = pw.constant_function(dom, Interval.of(-2, 3))
        prod = pw.pointwise_mul(a, b)
        assert prod.eval_at("1/2") == Interval.of(-2, 3)

    def test_mul_inconsistent_winner_rejected(self):
        dom = Domain.of(-1, 1)
        a = pw.hfunction(
            dom, [], [pw.make_piece(F(-1), F(1), ex.parse("x"), ex.parse("x+1"))]
        )
        with pytest.raises(RepresentationError):
            pw.pointwise_mul(a, a)

    def test_mul_sees_a_winner_change_between_samples(self):
        # 0 * (x - 999999/1000000) and 1 * (x - 999999/1000000) trade places
        # a millionth before the piece end, so neither is lowest throughout
        dom = Domain.of(0, 1)
        a = pw.constant_function(dom, Interval.of(0, 1))
        b = pw.hfunction(dom, [], [
            pw.make_piece(F(0), F(1), ex.parse("x - 999999/1000000"), ex.parse("2"))])
        with pytest.raises(RepresentationError, match=r"piece \(0, 1\)"):
            pw.pointwise_mul(a, b)


def _combine_env_box(a, b, box_op):
    """Reference: the envelope calculus on boxes for every pair of
    envelopes, point limits included."""
    box = box_op(Interval(a.liminf, a.limsup), Interval(b.liminf, b.limsup))
    if a.is_exact_limit or b.is_exact_limit:
        rank = max(pw._PROV_RANK[a.provenance], pw._PROV_RANK[b.provenance])
        provenance = (pw.EVALUATED, pw.DECLARED, pw.ESTIMATED)[rank]
    else:
        provenance = pw.ESTIMATED
    return pw.EndEnvelope(box.lo, box.hi, provenance)


PROVENANCES = [pw.EVALUATED, pw.DECLARED, pw.ESTIMATED]


class TestCombineEnvelopes:
    @pytest.mark.parametrize("pa", PROVENANCES)
    @pytest.mark.parametrize("pb", PROVENANCES)
    @pytest.mark.parametrize("op, box_op", [(operator.add, iv.add), (operator.mul, iv.mul)],
                             ids=["add", "mul"])
    def test_point_limits_combine_as_the_box_does(self, pa, pb, op, box_op):
        a = pw.EndEnvelope(F("-3/4"), F("-3/4"), pa)
        b = pw.EndEnvelope(F(2), F(2), pb)
        assert pw._combine_env(a, b, op) == _combine_env_box(a, b, box_op)
        assert pw._combine_env(b, a, op) == _combine_env_box(b, a, box_op)

    def test_only_a_non_point_envelope_takes_the_box(self, monkeypatch):
        boxes = []
        def recording_mul(x, y):
            boxes.append((x, y))
            return iv.mul(x, y)
        monkeypatch.setitem(pw._BOX_OPS, operator.mul, recording_mul)
        wide = pw.EndEnvelope(F(-1), F(1), pw.DECLARED)
        three = pw.EndEnvelope(F(3), F(3))
        assert pw._combine_env(three, three, operator.mul) == pw.EndEnvelope(F(9), F(9))
        assert boxes == []
        assert pw._combine_env(wide, three, operator.mul) == pw.EndEnvelope(
            F(-3), F(3), pw.DECLARED
        )
        assert boxes == [(Interval.of(-1, 1), Interval.of(3, 3))]

    @pytest.mark.parametrize("op", [operator.add, operator.mul], ids=["add", "mul"])
    def test_float_overflow_raises(self, float_mode, op):
        big = pw.EndEnvelope(1.5e308, 1.5e308)
        with pytest.raises(NumericRangeError):
            pw._combine_env(big, big, op)


class TestSupport:
    def test_step_support(self, step_pair):
        f, _ = step_pair
        support = pw.interval_support(f)
        assert support.points == (F(0),) and not support.pieces

    def test_continuous_support_empty(self):
        f = pw.constant_function(Domain.of(-1, 1), 3)
        assert pw.interval_support(f).is_empty

    def test_proper_piece_reported(self):
        f = pw.constant_function(Domain.of(-1, 1), Interval.of(0, 1))
        support = pw.interval_support(f)
        assert support.pieces and not support.points

    def test_common_point_domain(self, step_pair):
        f, g = step_pair
        spec = pw.common_point_domain([f, g])
        assert spec.excluded == (F(0),)
        assert not spec.admits(F(0)) and spec.admits(F(1))

    def test_common_point_domain_union(self):
        dom = Domain.of(-2, 2)
        def jump_at(x0):
            return pw.hfunction(
                dom,
                [(F(x0), Interval.of(0, 1))],
                [pw.make_piece(F(-2), F(x0), ex.parse("0")),
                 pw.make_piece(F(x0), F(2), ex.parse("1"))],
            )
        spec = pw.common_point_domain([jump_at(0), jump_at(1)])
        assert spec.excluded == (F(0), F(1))

    def test_continuous_set_whole_domain(self):
        fs = [pw.constant_function(Domain.of(-1, 1), k) for k in range(3)]
        assert pw.common_point_domain(fs).is_whole

    def test_proper_piece_rejected(self):
        f = pw.constant_function(Domain.of(-1, 1), Interval.of(0, 1))
        with pytest.raises(RepresentationError):
            pw.common_point_domain([f])


class TestContinuityPredicates:
    def test_step_is_h_continuous(self, step_pair):
        f, g = step_pair
        assert pw.is_H_continuous(f) and pw.is_H_continuous(g)
        assert pw.is_S_continuous(f)

    def test_short_value_not_h_continuous(self):
        dom = Domain(None, None)
        f = pw.hfunction(
            dom,
            [(F(0), Interval.of(0, "1/2"))],
            [pw.make_piece(None, F(0), ex.parse("0")),
             pw.make_piece(F(0), None, ex.parse("1"))],
        )
        assert not pw.is_H_continuous(f)
        assert not pw.is_S_continuous(f)

    def test_oscillation_h_continuous(self, oscillation_pair):
        f, _ = oscillation_pair
        assert pw.is_H_continuous(f)

    def test_continuous_function_s_continuous(self):
        f = pw.constant_function(Domain.of(-1, 1), 7)
        assert pw.is_S_continuous(f) and pw.is_H_continuous(f)

    def test_h_implies_s_on_random_suite(self):
        for f in suite.h_continuous_suite(5, 40):
            assert pw.is_H_continuous(f)
            assert pw.is_S_continuous(f)

    def test_s_suite_is_s_continuous(self):
        for f in suite.s_continuous_suite(6, 40):
            assert pw.is_S_continuous(f)

    def test_verdict_follows_mode_and_tolerance(self, float_mode):
        # the point value is 1e-6 above its punctured completion [0, 1]
        f = pw.hfunction(
            Domain.of(-1, 1),
            [(0.0, Interval(0.0, 1.0 + 1e-6))],
            [pw.make_piece(-1.0, 0.0, ex.parse("0")),
             pw.make_piece(0.0, 1.0, ex.parse("1"))],
        )
        verdicts = []
        for tolerance in (1e-3, 1e-9, 1e-3):
            scalars.set_mode(scalars.FLOAT, tolerance)
            verdicts.append(pw.is_H_continuous(f))
        assert verdicts == [True, False, True]
        scalars.set_mode(scalars.RATIONAL)
        assert not pw.is_H_continuous(f)


class TestCompletionBounds:
    def test_with_and_without_point(self):
        f = pw.hfunction(
            Domain.of(-1, 1),
            [(F(0), Interval.of(-1, 2))],
            [pw.make_piece(F(-1), F(0), ex.parse("0")),
             pw.make_piece(F(0), F(1), ex.parse("1"))],
            validate=False,
        )
        assert pw.completion_bounds(f, 0, True) == (-1, 2)
        assert pw.completion_bounds(f, 0, False) == (0, 1)
        assert pw.completion_at(f, 0) == Interval.of(-1, 2)
        assert pw.punctured_completion_at(f, 0) == Interval.of(0, 1)


class TestIdentitySurrogate:
    def test_equal_off_special_points_implies_equal(self):
        # rebuild each suite function from its pieces only; the punctured
        # completion recovers every special value
        for f in suite.h_continuous_suite(7, 25):
            points = [
                (p.x, pw.punctured_completion_at(f, i))
                for i, p in enumerate(f.points)
            ]
            rebuilt = pw.hfunction(f.domain, points, f.pieces, validate=False)
            assert pw.func_equal(rebuilt, f)


class TestValidateEnvelopes:
    def test_oscillation_declared_passes(self, oscillation_pair):
        f, _ = oscillation_pair
        checks = pw.validate_envelopes(f)
        assert checks and all(c.passed for c in checks)

    def test_linear_evaluated_passes(self):
        dom = Domain.of(-1, 1)
        f = pw.hfunction(
            dom,
            [(F(0), Interval.of(0, 0))],
            [pw.make_piece(F(-1), F(0), ex.parse("2*x")),
             pw.make_piece(F(0), F(1), ex.parse("2*x"))],
        )
        checks = pw.validate_envelopes(f)
        assert all(c.passed for c in checks)  # evaluated data is skipped

    def test_wrong_declaration_fails(self, float_mode):
        dom = Domain(None, None)
        f = pw.hfunction(
            dom,
            [(0.0, Interval.of(0, 1))],
            [pw.make_piece(None, 0.0, ex.parse("sin(1/x)"), declared_right=(0, 1)),
             pw.make_piece(0.0, None, ex.parse("sin(1/x)"), declared_left=(-1, 1))],
            validate=False,
        )
        checks = pw.validate_envelopes(f)
        failing = [c for c in checks if not c.passed]
        assert failing and any(c.observed_min < -0.9 for c in failing)

    def test_pointwise_sum_checks_each_envelope_once(self, float_mode):
        # the sum's pieces are real, so each holds one bound record and each
        # end has one envelope to check
        loaded = formats.load_defs(f"{DATA_DIR}/oscillation_pair.json")
        s = pw.pointwise_add(loaded["f"], loaded["g"])
        checks = pw.validate_envelopes(s)
        assert [(c.x, c.side) for c in checks] == [(0.0, "right"), (0.0, "left")]


class TestNormalizeAndEquality:
    def test_removable_point_pruned(self):
        dom = Domain.of(-1, 1)
        f = pw.hfunction(
            dom,
            [(F(0), Interval.of(0, 0))],
            [pw.make_piece(F(-1), F(0), ex.parse("x*2")),
             pw.make_piece(F(0), F(1), ex.parse("2*x"))],
        )
        n = pw.normalize(f)
        assert not n.points and len(n.pieces) == 1

    def test_kink_retained(self):
        dom = Domain.of(-1, 1)
        f = pw.hfunction(
            dom,
            [(F(0), Interval.of(0, 0))],
            [pw.make_piece(F(-1), F(0), ex.parse("-x")),
             pw.make_piece(F(0), F(1), ex.parse("x"))],
        )
        n = pw.normalize(f)
        assert n.breakpoints == (F(0),)

    def test_equality_across_shapes(self):
        dom = Domain.of(-1, 1)
        a = pw.constant_function(dom, 1)
        b = pw.hfunction(
            dom,
            [(F(0), Interval.of(1, 1))],
            [pw.make_piece(F(-1), F(0), ex.parse("1")),
             pw.make_piece(F(0), F(1), ex.parse("x + 1 - x"))],
        )
        assert pw.func_equal(a, b)

    def test_inequality(self):
        dom = Domain.of(-1, 1)
        assert not pw.func_equal(
            pw.constant_function(dom, 1), pw.constant_function(dom, 2)
        )

    def test_float_mode_sampled_equality(self, float_mode):
        dom = Domain.of("0.1", 2)
        a = pw.hfunction(dom, [], [pw.make_piece(F("0.1"), F(2), ex.parse("sin(x)*2"))])
        b = pw.hfunction(dom, [], [pw.make_piece(F("0.1"), F(2), ex.parse("2*sin(x)"))])
        assert pw.func_equal(a, b)

    def test_real_pieces_compare_their_expressions_once(self, step_pair, monkeypatch):
        calls = []
        exact_equal = ex.exact_equal

        def counted(a, b):
            calls.append((a, b))
            return exact_equal(a, b)

        monkeypatch.setattr(ex, "exact_equal", counted)
        # func_equal: the step's points have width, so normalize compares
        # nothing, and each pair of real pieces takes one comparison
        f, _ = step_pair
        assert pw.func_equal(f, make_step_pair()[0])
        assert len(calls) == len(f.pieces)
        # a proper piece still compares both bounds
        calls.clear()
        band = pw.constant_function(Domain.of(-1, 1), Interval.of(0, 1))
        assert pw.func_equal(band, pw.constant_function(Domain.of(-1, 1), Interval.of(0, 1)))
        assert len(calls) == 2
        # normalize: one comparison per removable point between real pieces
        calls.clear()
        xs = [F("-1/2"), F(0), F("1/2")]
        ends = [F(-1), *xs, F(1)]
        g = pw.hfunction(
            Domain.of(-1, 1),
            [(x, Interval(2 * x, 2 * x)) for x in xs],
            [pw.make_piece(a, b, ex.parse("2*x")) for a, b in zip(ends, ends[1:])],
        )
        assert not pw.normalize(g).points
        assert len(calls) == len(xs)


def _fresh(x):
    """An equal scalar that is a different object."""
    copy = Fraction(x.numerator, x.denominator) if isinstance(x, Fraction) else float(repr(x))
    assert copy is not x and copy == x
    return copy


@settings(max_examples=200, deadline=None)
@given(mode=st.sampled_from(MODES), data=st.data())
def test_identity_decides_as_an_equal_copy_does(mode, data):
    values = (st.fractions(max_denominator=10**6) if mode[0] == scalars.RATIONAL
              else st.floats(allow_nan=False, allow_infinity=False))
    x, y = sorted((data.draw(values), data.draw(values)))
    with scalars.engine_mode(*mode):
        assert scalars.scalar_eq(x, x) == scalars.scalar_eq(x, _fresh(x))
        assert pw._bound_ne(x, x) == pw._bound_ne(x, _fresh(x))
        assert Interval(x, x).is_point == Interval(x, _fresh(x)).is_point
        assert pw.EndEnvelope(x, x).is_point == pw.EndEnvelope(x, _fresh(x)).is_point
        for box in (Interval(x, x), Interval(x, y)):
            copy = Interval(_fresh(box.lo), _fresh(box.hi))
            assert iv.interval_eq(box, box) == iv.interval_eq(box, copy)


class TestPieceContinuity:
    def test_modulus_of_continuity_linear(self):
        rng = random.Random(99)
        for f in suite.h_continuous_suite(11, 10):
            for piece in f.pieces:
                slope, _ = ex.linear_coeffs(piece.lower.expr)
                for _ in range(20):
                    x = piece.lo + (piece.hi - piece.lo) * Fraction(rng.randint(1, 63), 64)
                    y = piece.lo + (piece.hi - piece.lo) * Fraction(rng.randint(1, 63), 64)
                    value_at = ex.evaluator(piece.lower.expr)
                    dv = abs(value_at(x) - value_at(y))
                    assert dv <= abs(slope) * abs(x - y)


def test_rational_mode_decides_signs_without_samples(monkeypatch):
    sample = pw._span_samples

    def only_in_float_mode(*args, **kwargs):
        if scalars.get_mode() == scalars.RATIONAL:
            raise AssertionError("sampled in rational mode")
        return sample(*args, **kwargs)

    monkeypatch.setattr(pw, "_span_samples", only_in_float_mode)
    proper = formats.hfunction_from_json({
        "domain": [0, 1],
        "pieces": [{"on": [0, 1], "lower": "1/(x + 2)", "upper": "x*x + 1"}],
        "points": [],
    })
    assert proper.eval_at("1/2") == Interval.of("2/5", "5/4")
    functions = suite.s_continuous_suite(5, 60)
    for f, g in zip(functions, functions[1:]):
        try:
            pw.pointwise_mul(f, g)
        except RepresentationError:
            pass  # no single product wins across a proper piece
    functions = suite.h_continuous_suite(30, 41)
    products = [pw.pointwise_mul(f, g) for f, g in zip(functions, functions[1:])]
    for p, q in zip(products, products[1:]):
        order_of_pair = (order.func_leq(p, q), order.func_leq(q, p))
        assert order_of_pair != (True, True) or pw.func_equal(p, q)
    assert algebra.verify_ring(suite.h_continuous_suite(30, 10)).all_passed
