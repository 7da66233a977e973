import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hfring import baire, formats, order
from hfring import expr as ex
from hfring import interval as iv
from hfring import piecewise as pw
from hfring import scalars, suite
from hfring.errors import ConvergenceError, EngineError, NotPiecewiseLinear
from hfring.interval import Interval
from hfring.piecewise import Domain


def F(v):
    return pw.to_scalar(v)


class TestFuncLeq:
    def test_step_pair_order(self, step_pair):
        f, g = step_pair
        assert order.func_leq(g, f)
        assert not order.func_leq(f, g)

    def test_reflexive(self, step_pair):
        f, _ = step_pair
        assert order.func_leq(f, f)

    def test_constant_below_oscillation(self, oscillation_pair):
        f, _ = oscillation_pair
        low = pw.constant_function(f.domain, -2)
        assert order.func_leq(low, f)

    def test_partial_order_on_suite(self):
        functions = suite.h_continuous_suite(61, 12)
        for f in functions:
            assert order.func_leq(f, f)
        for f in functions:
            for g in functions:
                if order.func_leq(f, g) and order.func_leq(g, f):
                    assert pw.func_equal(f, g)
                for h in functions:
                    if order.func_leq(f, g) and order.func_leq(g, h):
                        assert order.func_leq(f, h)

    def test_unbounded_linear_pieces(self):
        dom = Domain(None, None)
        a = pw.hfunction(dom, [], [pw.make_piece(None, None, ex.parse("x"))])
        b = pw.hfunction(dom, [], [pw.make_piece(None, None, ex.parse("x + 1"))])
        c = pw.hfunction(dom, [], [pw.make_piece(None, None, ex.parse("2*x"))])
        assert order.func_leq(a, b)
        assert not order.func_leq(a, c)  # slopes differ on the whole line

    def test_a_shared_record_is_tested_once(self, monkeypatch):
        f = suite.h_continuous_suite(5, 2)[0]
        proper = pw.hfunction(Domain.of(-1, 1), [], [
            pw.make_piece(F(-1), F(1), ex.parse("x"), ex.parse("x + 1"))])
        test, calls = pw.nonnegative_on, []
        monkeypatch.setattr(pw, "nonnegative_on",
                            lambda *args: calls.append(args) or test(*args))
        # real pieces hold one record as both bounds: the lower pair
        # decides; a proper piece tests both pairs
        for h, expected in ((f, len(f.pieces)), (proper, 2)):
            calls.clear()
            assert order.func_leq(h, h)
            assert len(calls) == expected

    @staticmethod
    def _zero_and(text):
        dom = Domain.of(-1, 1)
        real = pw.hfunction(dom, [], [pw.make_piece(F(-1), F(1), ex.parse(text))])
        return pw.constant_function(dom, 0), real

    def test_a_dip_between_samples_is_seen(self):
        assert not order.func_leq(*self._zero_and("x*x - 1/1000000000000"))
        assert order.func_leq(*self._zero_and("x*x"))  # touches 0 without changing sign

    def test_float_slack_covers_a_dip_within_the_tolerance(self, float_mode):
        assert order.func_leq(*self._zero_and("x*x - 1/1000000000000"))
        assert not order.func_leq(*self._zero_and("x*x - 1/100000000"))


def _from_above(f, n):
    """The reflection of the inf-convolution: the upper bound regularized from above."""
    return pw.pointwise_neg(order.infconv_approx(pw.pointwise_neg(f), n))


class TestInfconv:
    def test_step_ramp_by_hand(self, step_pair):
        f, _ = step_pair
        m = order.infconv_approx(f, 2)
        assert m.eval_at(-1) == Interval.of(0, 0)
        assert m.eval_at("1/4") == Interval.of("1/2", "1/2")
        assert m.eval_at("1/2") == Interval.of(1, 1)
        assert m.eval_at(3) == Interval.of(1, 1)
        assert m.breakpoints == (F(0), F("1/2"))

    def test_lipschitz_function_fixed(self):
        dom = Domain.of(-1, 1)
        g = pw.hfunction(dom, [], [pw.make_piece(F(-1), F(1), ex.parse("2*x + 1"))])
        assert pw.func_equal(order.infconv_approx(g, 3), g)
        assert pw.func_equal(order.infconv_approx(g, 2), g)

    def test_monotone_in_n(self, step_pair):
        f, _ = step_pair
        m1 = order.infconv_approx(f, 1)
        m2 = order.infconv_approx(f, 2)
        assert order.func_leq(m1, m2)

    def test_below_and_lipschitz(self):
        rng = random.Random(62)
        for f in suite.h_continuous_suite(62, 8):
            n = rng.randint(1, 6)
            m = order.infconv_approx(f, n)
            lower = pw.hfunction(
                f.domain,
                [(p.x, Interval.point(p.value.lo)) for p in f.points],
                [pw.make_piece(p.lo, p.hi, p.lower.expr) for p in f.pieces],
                validate=False,
            )
            assert order.func_leq(m, lower)
            xs = pw.func_sample_points(m, 40, tag="lip")
            for a, b in zip(xs, xs[1:]):
                if a == b:
                    continue
                da = m.eval_at(a).lo
                db = m.eval_at(b).lo
                assert abs(da - db) <= n * abs(a - b)

    def test_from_above_dual(self, step_pair):
        f, _ = step_pair
        m = _from_above(f, 2)
        assert m.eval_at(-1) == Interval.of(0, 0)
        assert m.eval_at("-1/4") == Interval.of("1/2", "1/2")
        assert m.eval_at("1/4") == Interval.of(1, 1)
        upper = pw.hfunction(
            f.domain,
            [(p.x, Interval.point(p.value.hi)) for p in f.points],
            [pw.make_piece(p.lo, p.hi, p.upper.expr) for p in f.pieces],
            validate=False,
        )
        assert order.func_leq(upper, m)

    def test_requires_piecewise_linear(self, oscillation_pair):
        f, _ = oscillation_pair
        with pytest.raises(NotPiecewiseLinear):
            order.infconv_approx(f, 2)


class TestOrderLimit:
    def test_infconv_limit_recovers_step(self, step_pair):
        f, _ = step_pair
        result = order.order_limit_monotone(order.from_below_sequence(f), depth=16)
        assert pw.func_equal(result.limit, f)
        # the elements at depths 64 and 128 ramp up on (0, 1/64) and (0, 1/128)
        assert result.residual == Fraction(1, 64)

    def test_constant_sequence(self):
        f = pw.constant_function(Domain.of(-1, 1), 4)
        result = order.order_limit_monotone(lambda n: f, depth=8)
        assert pw.func_equal(result.limit, f)

    def test_drifting_constants_float_mode(self, float_mode):
        dom = Domain.of(-1, 1)
        result = order.order_limit_monotone(
            lambda n: pw.constant_function(dom, 1.0 - 2.0 ** (-n)), depth=40
        )
        assert pw.func_equal(result.limit, pw.constant_function(dom, 1.0))

    def test_drifting_constants_rational_mode_rejected(self):
        dom = Domain.of(-1, 1)
        with pytest.raises(ConvergenceError):
            order.order_limit_monotone(
                lambda n: pw.constant_function(dom, 1 - Fraction(1, 2**n)), depth=8
            )

    def test_wrong_tag_detected(self):
        # order_limit_monotone takes the sequence to be increasing; 1/n is not
        dom = Domain.of(-1, 1)
        with pytest.raises(EngineError, match="not increasing"):
            order.order_limit_monotone(
                lambda n: pw.constant_function(dom, Fraction(1, n)), depth=4
            )

    def test_decreasing_limit(self, step_pair):
        f, _ = step_pair
        result = order.order_limit_stabilized(
            lambda n: _from_above(f, n), depth=16
        )
        assert pw.func_equal(result.limit, f)

    def test_indices_start_at_one(self, step_pair):
        f, _ = step_pair
        with pytest.raises(EngineError, match="start at 1"):
            order.from_below_sequence(f)(0)


class TestDef3:
    def test_step_sum_exact(self, step_pair):
        f, g = step_pair
        report = order.oplus_def3(f, g, depth=32)
        assert pw.func_equal(report.result, pw.constant_function(f.domain, 0))
        assert report.max_deviation == 0

    def test_continuous_pair_is_plain_sum(self):
        dom = Domain.of(-1, 1)
        a = pw.hfunction(dom, [], [pw.make_piece(F(-1), F(1), ex.parse("x"))])
        b = pw.hfunction(dom, [], [pw.make_piece(F(-1), F(1), ex.parse("1 - 2*x"))])
        report = order.oplus_def3(a, b, depth=16)
        assert pw.func_equal(report.result, pw.pointwise_add(a, b))

    def test_product_matches_def1(self, step_pair):
        f, g = step_pair
        report = order.otimes_def3(f, g, depth=32)
        assert pw.func_equal(report.result, report.witnesses["def1"])
        assert report.max_deviation == 0

    def test_route_makes_no_monotone_checks(self, step_pair, monkeypatch):
        # the limit comes from stabilization alone; def1 is the check
        def refuse(*args, **kwargs):
            raise AssertionError("monotone contract checked")

        monkeypatch.setattr(order, "order_limit_monotone", refuse)
        monkeypatch.setattr(order, "func_leq", refuse)
        f, g = step_pair
        for op in (order.oplus_def3, order.otimes_def3):
            assert op(f, g, depth=32).max_deviation == 0

    def test_suite_pairs_match_def1(self):
        functions = suite.h_continuous_suite(63, 8)
        for i in range(0, 8, 2):
            f, g = functions[i], functions[i + 1]
            for op in (order.oplus_def3, order.otimes_def3):
                report = op(f, g, depth=64)
                assert report.max_deviation <= Fraction(1, 1000)

    def test_requires_piecewise_linear(self, oscillation_pair):
        f, g = oscillation_pair
        with pytest.raises(NotPiecewiseLinear):
            order.oplus_def3(f, g, depth=8)

    def test_rational_route_takes_no_samples(self, monkeypatch):
        functions = suite.h_continuous_suite(66, 8, Domain.of(-1, 1))

        def refuse(*args, **kwargs):
            raise AssertionError("sampled in rational mode")

        monkeypatch.setattr(pw, "_span_samples", refuse)
        for f, g in zip(functions[::2], functions[1::2]):
            for op in (order.oplus_def3, order.otimes_def3):
                assert op(f, g, depth=4096).max_deviation == 0

    def test_approximants_are_built_once(self, monkeypatch):
        built = []
        infconv = order.infconv_approx

        def counted(f, n):
            built.append(f)
            return infconv(f, n)

        monkeypatch.setattr(order, "infconv_approx", counted)
        f, g = suite.h_continuous_suite(71, 2, Domain.of(-1, 1))
        sums, products = order.oplus_def3(f, g), order.otimes_def3(f, g)
        assert len(built) == 8  # four depths for each operand, shared by both ops
        built.clear()
        assert pw.func_equal(order.oplus_def3(f, g).result, sums.result)
        assert pw.func_equal(order.otimes_def3(f, g).result, products.result)
        assert built == []
        fresh_f, fresh_g = suite.h_continuous_suite(71, 2, Domain.of(-1, 1))
        assert pw.func_equal(order.oplus_def3(fresh_f, fresh_g).result, sums.result)
        assert pw.func_equal(order.otimes_def3(fresh_f, fresh_g).result, products.result)
        h, fresh_h = (suite.h_continuous_suite(72, 1, Domain.of(-1, 1))[0] for _ in "ab")
        built.clear()
        square = order.otimes_def3(h, h).result
        assert len(built) == 4 and all(a is h for a in built)
        assert pw.func_equal(square, order.otimes_def3(fresh_h, fresh_h).result)

    def test_failing_operands_fail_again(self):
        # both operands jump at -1/2: the shared-jump product does not stabilize
        f, g = (formats.hfunction_from_json({
            "domain": [-1, 1],
            "pieces": [{"on": [-1, "-1/2"], "lower": left},
                       {"on": ["-1/2", 1], "lower": right}],
            "points": [{"x": "-1/2", "value": value}],
        }) for left, right, value in (("-5/2 + x", "5/2 + x", [-3, 2]),
                                      ("-1 + x", "3/2", ["-3/2", "3/2"])))
        errors = []
        for _ in range(2):
            with pytest.raises(ConvergenceError) as caught:
                order.otimes_def3(f, g)
            errors.append(str(caught.value))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("reverse", [False, True])
    def test_memo_follows_mode_and_tolerance(self, reverse):
        f = suite.h_continuous_suite(76, 1, Domain.of(-1, 1))[0]
        configs = [(scalars.RATIONAL, None), (scalars.FLOAT, 1e-9), (scalars.FLOAT, 0.2)]
        seen = set()
        for mode, tolerance in reversed(configs) if reverse else configs:
            with scalars.engine_mode(mode, tolerance):
                seq = order.from_below_sequence(f)
                for n in (1, 4096):
                    fresh = order.infconv_approx(f, n + order._regularizing_offset(f))
                    assert repr(seq(n)) == repr(fresh)
                    seen.add(repr(fresh))
        assert len(seen) == 6  # each setting gives its own approximants

    def test_suite_answers_are_pinned(self):
        # reprs of 50 reports: the result, its def1 witness and the deviation
        functions = suite.h_continuous_suite(1414, 26, Domain.of(-1, 1), max_jumps=4)
        parts = []
        for f, g in zip(functions, functions[1:]):
            for op in (order.oplus_def3, order.otimes_def3):
                try:
                    parts.append(repr(op(f, g, depth=4096)))
                except Exception as exc:
                    parts.append(repr(exc))
        digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
        assert digest == "20a475c9fad030274daa3a79da2a29e161ec5231aa182240a4443ed02c9aa7b9"

    def test_disjoint_jump_answers_are_pinned(self):
        # 40 reports over the first 20 neighbouring pairs that share no jump
        # abscissa, so a fix of the shared-jump product leaves them as they are
        functions = suite.h_continuous_suite(2121, 32, Domain.of(-1, 1), max_jumps=4)
        pairs = [(f, g) for f, g in zip(functions, functions[1:])
                 if not set(f.breakpoints) & set(g.breakpoints)][:20]
        assert len(pairs) == 20
        parts = [repr(op(f, g, depth=4096)) for f, g in pairs
                 for op in (order.oplus_def3, order.otimes_def3)]
        digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
        assert digest == "4b8eeb0f5fa3047a49a0048207037c3c72f09f71b57e1c0a9a52b8726386378b"

    def test_zone_messages_print_scalars_as_written(self):
        zone = [(F("3/8"), F("3/4"))]
        with pytest.raises(ConvergenceError) as caught:
            order._collapse_points(([], [], zone), 4)
        assert str(caught.value) == (
            "zone (0.375, 0.75) has no matching shallower zones; "
            "structure is not stabilizing at depth 4"
        )
        scans = ([(F(0), F(1))], [(F("1/4"), F("3/4"))], zone)
        with pytest.raises(ConvergenceError) as caught:
            order._collapse_points(scans, 4)
        assert str(caught.value) == "zone (0.375, 0.75) is not collapsing to a point at depth 4"



@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), depth=st.sampled_from([8, 64, 512, 4096]))
def test_from_below_sequences_increase(seed, depth):
    # the order the def3 sum relies on without checking it: each operand's
    # approximants, and their sums, increase on the leading elements and at
    # the working depth
    f, g = suite.h_continuous_suite(seed, 2)
    fs, gs = order.from_below_sequence(f), order.from_below_sequence(g)

    def sums(n):
        return pw.pointwise_add(fs(n), gs(n))

    for seq in (fs, gs, sums):
        for n in (1, 2, 3):
            assert order.func_leq(seq(n), seq(n + 1))
        assert order.func_leq(seq(depth), seq(2 * depth))


class TestMixture:
    def test_same_sequence_unchanged(self, step_pair):
        f, _ = step_pair
        seq = order.from_below_sequence(f)
        mixed = order.mixture(seq, seq)
        for n in (1, 2, 3, 4):
            assert pw.func_equal(mixed(n), seq((n + 1) // 2))

    def test_indexing_alternates(self):
        dom = Domain.of(-1, 1)
        mixed = order.mixture(
            lambda n: pw.constant_function(dom, n), lambda n: pw.constant_function(dom, -n)
        )
        assert mixed(1).eval_at(0) == Interval.of(1, 1)
        assert mixed(2).eval_at(0) == Interval.of(-1, -1)
        assert mixed(3).eval_at(0) == Interval.of(2, 2)
        assert mixed(4).eval_at(0) == Interval.of(-2, -2)

    def test_well_definedness_of_order_limit_ops(self, step_pair):
        # interleaving the n-ramp and 2n-ramp approximations changes the
        # approximating sequences but not the resulting operation
        f, g = step_pair
        fa, ga = order.from_below_sequence(f), order.from_below_sequence(g)

        def fb(n):
            return order.infconv_approx(f, 2 * n)

        def gb(n):
            return order.infconv_approx(g, 2 * n)

        base = order.def3_from_sequences(fa, ga, "plus", depth=32).limit
        mixed = order.def3_from_sequences(
            order.mixture(fa, fb), order.mixture(ga, gb), "plus", depth=32
        ).limit
        assert pw.func_equal(base, mixed)
        assert pw.func_equal(base, pw.constant_function(f.domain, 0))


def _one_piece(domain, text):
    return pw.hfunction(domain, [], [pw.make_piece(domain.lo, domain.hi, ex.parse(text))])


def _sampled_deviation(f, g, count=400):
    xs = pw.func_sample_points(f, count, tag="sampled-dev")
    xs += [p.x for p in f.points] + [p.x for p in g.points]
    return max(iv.distance(f.eval_at(x), g.eval_at(x)) for x in xs)


class TestMaxDeviation:
    def test_quadratic_sup_is_the_open_end_limit(self):
        dom = Domain.of(0, 1)
        assert order.max_deviation(_one_piece(dom, "0"), _one_piece(dom, "x*x")) == 1

    def test_real_pieces_are_measured_once(self, monkeypatch):
        calls = []
        measure = order._bound_deviation
        monkeypatch.setattr(order, "_bound_deviation",
                            lambda *args: calls.append(args[-1]) or measure(*args))
        dom = Domain.of(0, 1)
        assert order.max_deviation(_one_piece(dom, "x*x"), _one_piece(dom, "0")) == 1
        assert calls == [("dev", 0, "lower")]

    def test_quadratic_sup_at_the_vertex(self):
        dom = Domain.of(0, 1)
        dev = order.max_deviation(_one_piece(dom, "0"), _one_piece(dom, "x - x*x"))
        assert dev == Fraction(1, 4)

    def test_identical_functions_need_no_evaluation(self, monkeypatch):
        functions = suite.h_continuous_suite(64, 6)

        def refuse(e, x):
            raise AssertionError("evaluated an expression")

        monkeypatch.setattr(ex, "evaluator", lambda e: refuse(e, None))
        for f in functions:
            assert order.max_deviation(f, f) == 0

    def test_transcendental_piece_is_sampled(self, float_mode):
        dom = Domain.of(0, 1)
        dev = order.max_deviation(_one_piece(dom, "0"), _one_piece(dom, "sin(x)"))
        assert isinstance(dev, float) and math.isfinite(dev)
        assert 0.5 < dev < math.sin(1)

    def test_never_below_the_sampled_distance(self):
        functions = suite.h_continuous_suite(65, 12)
        for f, g in zip(functions, functions[1:]):
            for pair in ((f, g), (pw.pointwise_mul(f, g), pw.pointwise_add(f, g))):
                assert order.max_deviation(*pair) >= _sampled_deviation(*pair)


def _with_domain(f, domain):
    """f with its first and last pieces stretched to the ends of ``domain``."""
    ends = [domain.lo, *f.breakpoints, domain.hi]
    pieces = [pw.make_piece(u, w, p.lower.expr) for u, w, p in zip(ends, ends[1:], f.pieces)]
    return pw.hfunction(domain, [(p.x, p.value) for p in f.points], pieces, validate=False)


def _infconv_reference(f, n, x):
    """min over y of lower(y) + n|x - y| by brute force: every point's cone,
    and on every piece the candidates y = lo, hi (where finite) and x
    clipped to the piece."""
    values = [p.value.lo + n * abs(x - p.x) for p in f.points]
    for piece in f.pieces:
        a, b = ex.linear_coeffs(piece.lower.expr)
        clipped = x
        if piece.lo is not None:
            clipped = max(clipped, piece.lo)
        if piece.hi is not None:
            clipped = min(clipped, piece.hi)
        ys = [y for y in (piece.lo, piece.hi) if y is not None] + [clipped]
        values += [a * y + b + n * abs(x - y) for y in ys]
    return min(values)


_ENDS = {"bounded": (-1, 1), "left": (None, 1), "right": (-1, None), "both": (None, None)}


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    denominator=st.sampled_from([8, 3, 10]),
    ends=st.sampled_from(sorted(_ENDS)),
    n=st.sampled_from([1, 2, 3, 5, 4096]),
    from_above=st.booleans(),
    mode=st.sampled_from([(scalars.RATIONAL, None), (scalars.FLOAT, 1e-9)]),
    probes=st.lists(st.fractions(-4, 4, max_denominator=64), max_size=8),
)
def test_infconv_is_the_brute_force_minimum(seed, denominator, ends, n, from_above, mode,
                                            probes):
    with scalars.engine_mode(*mode):
        f = suite.random_h_continuous(random.Random(seed), abscissa_denominator=denominator)
        f = _with_domain(f, Domain.of(*_ENDS[ends]))
        # from above is the reflection of from below
        operand, sign = (pw.pointwise_neg(f), -1) if from_above else (f, 1)
        try:
            m = _from_above(f, n) if from_above else order.infconv_approx(f, n)
        except EngineError:
            first, _ = ex.linear_coeffs(operand.pieces[0].lower.expr)
            last, _ = ex.linear_coeffs(operand.pieces[-1].lower.expr)
            assert (first > n and f.domain.lo is None) or (last < -n and f.domain.hi is None)
            return
        # in float mode too, no two breakpoints are within the tolerance
        assert not any(map(scalars.scalar_eq, m.breakpoints, m.breakpoints[1:]))
        for x in list(m.breakpoints) + [F(x) for x in probes if f.domain.contains(F(x))]:
            expected = sign * _infconv_reference(operand, n, x)
            value, tol = m.eval_at(x), mode[1] or 0
            assert abs(value.lo - expected) <= tol and abs(value.hi - expected) <= tol


@pytest.mark.parametrize(
    "domain, text",
    [(Domain.of(None, 1), "3*x"), (Domain.of(-1, None), "-3*x")],
)
def test_infconv_rejects_a_steep_unbounded_piece(domain, text):
    with pytest.raises(EngineError, match="exceeds the regularization slope"):
        order.infconv_approx(_one_piece(domain, text), 2)


def test_infconv_accepts_a_steep_piece_falling_towards_its_finite_end():
    # slope -3 < -n on (-inf, 1): the cone falling to the knot at 1 lies below
    m = order.infconv_approx(_one_piece(Domain.of(None, 1), "-3*x"), 1)
    assert pw.func_equal(m, _one_piece(Domain.of(None, 1), "-2 - x"))


def test_infconv_float_mode_drops_a_flat_narrower_than_the_tolerance(float_mode):
    # the piece's line lies 1e-12 below the point where the two cones meet,
    # so the exact result is flat on a stretch 2e-12 wide around 1/2
    h = 0.5 - 1e-12
    f = pw.hfunction(
        Domain.of(-1, 2),
        [(F(0), Interval.of(0, h)), (F(1), Interval.of(0, h))],
        [pw.make_piece(F(-1), F(0), ex.parse("0")),
         pw.make_piece(F(0), F(1), ex.poly_expr([Fraction(h)])),
         pw.make_piece(F(1), F(2), ex.parse("0"))],
        validate=False,
    )
    m = order.infconv_approx(f, 1)
    assert m.breakpoints == (0, 0.5, 1)
    assert abs(m.eval_at(0.5).lo - h) <= 1e-9


def _flag_scan_zones(h_a, h_b):
    """The zone scan as a list of ("piece"|"point", i, agrees) flags and a
    loop over its runs: the reference for `order._stability_zones`."""
    a, b = pw.align(h_a, h_b)
    n = len(a.points)
    flags = []
    for i in range(n + 1):
        pa, pb = a.pieces[i], b.pieces[i]
        ok = pw.piece_expr_equal(
            pa.lower.expr, pb.lower.expr, pa.lo, pa.hi, tag=("stab-lo", i)
        ) and pw.piece_expr_equal(
            pa.upper.expr, pb.upper.expr, pa.lo, pa.hi, tag=("stab-hi", i)
        )
        flags.append(("piece", i, ok))
        if i < n:
            flags.append(("point", i, iv.interval_eq(a.points[i].value, b.points[i].value)))
    bounds = [a.domain.lo] + [p.x for p in a.points] + [a.domain.hi]
    zones = []
    j = 0
    while j < len(flags):
        if flags[j][2]:
            j += 1
            continue
        start = j
        while j < len(flags) and not flags[j][2]:
            j += 1
        kind_s, idx_s, _ = flags[start]
        _, idx_e, _ = flags[j - 1]
        left = bounds[idx_s] if kind_s == "piece" else bounds[idx_s + 1]
        zones.append((left, bounds[idx_e + 1]))
    return zones


def test_zone_walk_compares_a_shared_record_once(monkeypatch):
    f, g = suite.h_continuous_suite(11, 2)
    proper = pw.hfunction(Domain.of(-1, 1), [], [
        pw.make_piece(F(-1), F(1), ex.parse("x"), ex.parse("x + 1"))])
    compare, calls = pw.piece_expr_equal, []
    monkeypatch.setattr(pw, "piece_expr_equal",
                        lambda *args, **kw: calls.append(args) or compare(*args, **kw))
    # real pieces hold one record as both bounds: the lower expressions
    # decide; a proper piece whose lower expressions agree compares both
    for a, b, expected in ((f, g, None), (f, f, None), (proper, proper, 2)):
        calls.clear()
        order._stability_zones(a, b)
        assert len(calls) == (expected or len(pw.align(a, b)[0].pieces))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.sampled_from([1, 2, 3, 16]),
    combine=st.sampled_from([pw.pointwise_add, pw.pointwise_mul]),
    ends=st.sampled_from(sorted(_ENDS)),
    mode=st.sampled_from([(scalars.RATIONAL, None), (scalars.FLOAT, 1e-9)]),
)
def test_zone_walk_is_the_flag_scan(seed, n, combine, ends, mode):
    with scalars.engine_mode(*mode):
        f, g = (_with_domain(h, Domain.of(*_ENDS[ends]))
                for h in suite.h_continuous_suite(seed, 2))
        seq_f, seq_g = order.from_below_sequence(f), order.from_below_sequence(g)
        # a pointwise result and its completion differ only at points
        s = combine(f, g)
        pairs = [(f, g), (g, f), (f, f), (s, baire.fis(s))]
        pairs += [(seq(n), seq(2 * n)) for seq in (seq_f, seq_g)]
        pairs += [
            (combine(seq_f(k), seq_g(k)), combine(seq_f(2 * k), seq_g(2 * k)))
            for k in (n, 2 * n)
        ]
        for a, b in pairs:
            assert order._stability_zones(a, b) == _flag_scan_zones(a, b)
