import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hfring import algebra, baire, scalars
from hfring import expr as ex
from hfring import interval as iv
from hfring import piecewise as pw
from hfring import suite
from hfring.errors import NotHausdorffContinuous, UnboundOperandError
from hfring.interval import Interval
from hfring.piecewise import DenseSubsetSpec, Domain


def F(v):
    return pw.to_scalar(v)


class TestExtend:
    def test_step_sum_restriction(self, step_pair):
        f, g = step_pair
        s = pw.pointwise_add(f, g)
        result = algebra.extend(s, DenseSubsetSpec.excluding(0))
        assert pw.func_equal(result, pw.constant_function(s.domain, 0))

    def test_continuous_restriction_recovers(self):
        g = pw.constant_function(Domain.of(-1, 1), 3)
        assert pw.func_equal(algebra.extend(g, DenseSubsetSpec.excluding(0)), g)

    def test_oscillation_sum_with_declaration(self, oscillation_pair):
        f, g = oscillation_pair
        s = pw.pointwise_add(f, g)
        root2 = math.sqrt(2)
        s = pw.declare_envelope(s, 0.0, -root2, root2)
        result = algebra.extend(s, DenseSubsetSpec.excluding(0))
        v = result.eval_at(0.0)
        assert abs(v.lo + root2) < 1e-9 and abs(v.hi - root2) < 1e-9

    def test_extension_of_restriction_is_identity(self):
        rng = random.Random(41)
        for f in suite.h_continuous_suite(41, 25):
            extra = [F(f"{rng.randint(-15, 15)}/16") for _ in range(3)]
            spec = DenseSubsetSpec.excluding(*(list(f.breakpoints) + extra))
            assert pw.func_equal(algebra.extend(f, spec), f)

    def test_rejects_non_h_continuous_restriction(self, step_pair):
        f, g = step_pair
        s = pw.pointwise_add(f, g)  # spike at 0 not excluded
        with pytest.raises(NotHausdorffContinuous):
            algebra.extend(s, DenseSubsetSpec.excluding("1/2"))


class TestRingOps:
    def test_step_sum_def1_def2(self, step_pair):
        f, g = step_pair
        zero = pw.constant_function(f.domain, 0)
        r1 = algebra.oplus_def1(f, g)
        r2 = algebra.oplus_def2(f, g)
        assert pw.func_equal(r1.result, zero)
        assert pw.func_equal(r2.result, zero)
        assert r1.pointwise.eval_at(0) == Interval.of(-1, 1)
        assert pw.func_equal(r1.result, baire.fsi(r1.pointwise))

    @pytest.mark.parametrize("mode", [scalars.RATIONAL, scalars.FLOAT])
    def test_def1_is_both_completions(self, mode):
        # route 1 computes F(I(S(.))) only; F(S(I(.))) gives the same function
        with scalars.engine_mode(mode, 1e-9):
            functions = suite.h_continuous_suite(8201, 41)
            for f, g in zip(functions, functions[1:]):
                for op in (algebra.oplus_def1, algebra.otimes_def1):
                    report = op(f, g)
                    assert pw.func_equal(report.result, baire.fsi(report.pointwise))

    def test_step_product(self, step_pair):
        f, g = step_pair
        r = algebra.otimes_def1(f, g)
        assert r.result.eval_at(0) == Interval.of(-1, 0)
        assert r.result.eval_at(-2) == Interval.of(0, 0)
        assert r.result.eval_at(2) == Interval.of(-1, -1)

    def test_operands_must_be_h_continuous(self, step_pair):
        f, g = step_pair
        spike = pw.pointwise_add(f, g)
        with pytest.raises(NotHausdorffContinuous):
            algebra.oplus_def1(spike, f)

    def test_operand_continuity_is_decided_once(self, step_pair, monkeypatch):
        f, g = step_pair
        decided = []
        completion_at = pw.completion_at

        def counted(h, i, with_point=True):
            if not with_point:
                decided.append(h)
            return completion_at(h, i, with_point)

        monkeypatch.setattr(pw, "completion_at", counted)
        first = algebra.oplus_def1(f, g).result
        assert any(h is f for h in decided) and any(h is g for h in decided)
        decided.clear()
        assert pw.func_equal(algebra.oplus_def1(f, g).result, first)
        assert not any(h is f or h is g for h in decided)

    def test_continuous_operands_reduce_to_pointwise(self):
        dom = Domain.of(-1, 1)
        a = pw.hfunction(dom, [], [pw.make_piece(F(-1), F(1), ex.parse("2*x"))])
        b = pw.hfunction(dom, [], [pw.make_piece(F(-1), F(1), ex.parse("1 - x"))])
        r = algebra.oplus_def1(a, b)
        assert pw.func_equal(r.result, pw.pointwise_add(a, b))
        m = algebra.otimes_def1(a, b)
        assert pw.func_equal(m.result, pw.pointwise_mul(a, b))

    def test_def1_def2_agree_on_suite(self):
        functions = suite.h_continuous_suite(43, 30)
        for i, f in enumerate(functions):
            g = functions[(i * 7 + 1) % len(functions)]
            assert pw.func_equal(
                algebra.oplus_def1(f, g).result, algebra.oplus_def2(f, g).result
            )
            assert pw.func_equal(
                algebra.otimes_def1(f, g).result, algebra.otimes_def2(f, g).result
            )

    def test_inclusion_in_pointwise(self):
        functions = suite.h_continuous_suite(44, 12)
        for i, f in enumerate(functions):
            g = functions[(i * 5 + 2) % len(functions)]
            for report in (algebra.oplus_def1(f, g), algebra.otimes_def1(f, g)):
                xs = list(report.pointwise.breakpoints)
                xs += pw.func_sample_points(report.pointwise, 60, tag="incl")
                for x in xs:
                    assert iv.subset(
                        report.result.eval_at(x), report.pointwise.eval_at(x)
                    )

    def test_pointwise_results_s_continuous(self):
        functions = suite.h_continuous_suite(45, 20)
        for i, f in enumerate(functions):
            g = functions[(i * 3 + 1) % len(functions)]
            assert pw.is_S_continuous(pw.pointwise_add(f, g))
            assert pw.is_S_continuous(pw.pointwise_mul(f, g))


class TestAdditiveInverse:
    def test_step_inverse_is_reflection(self, step_pair):
        f, g = step_pair
        assert pw.func_equal(algebra.additive_inverse(f), g)

    def test_constant(self):
        f = pw.constant_function(Domain.of(-1, 1), 7)
        assert pw.func_equal(
            algebra.additive_inverse(f), pw.constant_function(f.domain, -7)
        )

    def test_symmetric_spike(self):
        dom = Domain.of(-1, 1)
        f = pw.hfunction(
            dom,
            [(F(0), Interval.of(-1, 1))],
            [pw.make_piece(F(-1), F(0), ex.parse("-1 + 0*x")),
             pw.make_piece(F(0), F(1), ex.parse("1"))],
        )
        inv = algebra.additive_inverse(f)
        assert inv.eval_at(0) == Interval.of(-1, 1)

    def test_sum_with_inverse_is_zero(self):
        for f in suite.h_continuous_suite(46, 20):
            r = algebra.oplus_def1(f, algebra.additive_inverse(f))
            assert pw.func_equal(r.result, pw.constant_function(f.domain, 0))
            assert iv.subset(Interval.of(0, 0), r.pointwise.eval_at(F("1/16")))


def _ring_fold_checked(text, bindings):
    """The ring fold of an expression, checked against the extension of its
    pointwise fold from the operands' common point-valued locus."""
    tree = algebra.parse_operand_expr(text)
    ring = algebra.eval_expr(tree, bindings)
    pointwise = algebra.eval_expr(tree, bindings, pw.pointwise_add, pw.pointwise_mul)
    used = [bindings[name] for name in algebra.operand_names(tree)]
    assert pw.func_equal(algebra.extend(pointwise, pw.common_point_domain(used)), ring)
    return ring


class TestExprEvaluation:
    def test_single_leaf(self, step_pair):
        f, _ = step_pair
        tree = algebra.parse_operand_expr("f")
        assert pw.func_equal(algebra.eval_expr(tree, {"f": f}), f)

    def test_unbound_leaf(self):
        tree = algebra.parse_operand_expr("nope")
        with pytest.raises(UnboundOperandError):
            algebra.eval_expr(tree, {})

    def test_associativity_with_extension_check(self):
        functions = suite.h_continuous_suite(47, 9)
        for i in range(0, 9, 3):
            bindings = {
                "a": functions[i], "b": functions[i + 1], "c": functions[i + 2]
            }
            left = _ring_fold_checked("(a + b) + c", bindings)
            right = _ring_fold_checked("a + (b + c)", bindings)
            assert pw.func_equal(left, right)

    def test_distributivity(self):
        functions = suite.h_continuous_suite(48, 9)
        for i in range(0, 9, 3):
            bindings = {
                "a": functions[i], "b": functions[i + 1], "c": functions[i + 2]
            }
            left = _ring_fold_checked("(a + b)*c", bindings)
            right = algebra.eval_expr(algebra.parse_operand_expr("a*c + b*c"), bindings)
            assert pw.func_equal(left, right)

    def test_fold_order_and_operand_names(self):
        # operations given as text show the fold: operands in place, left first
        tree = algebra.parse_operand_expr("b * (a + b) + c * a")
        assert algebra.operand_names(tree) == ["b", "a", "c"]
        add, mul = (lambda f, g: f"({f} + {g})"), (lambda f, g: f"{f}{g}")
        assert algebra.eval_expr(tree, dict(a="a", b="b", c="c"), add, mul) == "(b(a + b) + ca)"

    def test_pointwise_mode_s_continuous(self, step_pair):
        f, g = step_pair
        tree = algebra.parse_operand_expr("(f + g)*f")
        result = algebra.eval_expr(
            tree, {"f": f, "g": g}, pw.pointwise_add, pw.pointwise_mul
        )
        assert pw.is_S_continuous(result)
        assert not pw.is_H_continuous(result)


class TestNonPointwiseness:
    def test_oscillation_value_not_from_point_data(self, oscillation_pair):
        f, g = oscillation_pair
        root2 = math.sqrt(2)
        report = algebra.oplus_def1(f, g, declared={0.0: (-root2, root2)})
        ring_value = report.result.eval_at(0.0)
        pointwise_value = iv.add(f.eval_at(0.0), g.eval_at(0.0))
        assert pointwise_value == Interval.of(-2.0, 2.0)
        assert iv.subset(ring_value, pointwise_value)
        assert ring_value != pointwise_value  # strict inclusion


class TestVerifyRing:
    def test_small_suite_passes(self):
        report = algebra.verify_ring(suite.h_continuous_suite(49, 16))
        assert report.all_passed
        assert set(report.to_json()["axioms"]) == set(algebra.AXIOMS)

    def test_constants_trivially_pass(self):
        dom = Domain.of(-1, 1)
        report = algebra.verify_ring(
            [pw.constant_function(dom, k) for k in (-2, 0, 1, 3)]
        )
        assert report.all_passed

    def test_mutant_fails(self):
        report = algebra.verify_ring(
            suite.h_continuous_suite(50, 10),
            add_op=pw.pointwise_add,
            mul_op=pw.pointwise_mul,
        )
        assert not report.all_passed
        assert not report.axioms["additive_inverse"].passed
        assert not report.axioms["distributive"].passed
        assert report.axioms["additive_inverse"].counterexample


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6),
       intercept=st.integers(-20, 20), slope=st.integers(-20, 20))
def test_float_routes_agree_where_limits_agree_within_the_tolerance(seed, intercept, slope):
    # f + (h - f) at breakpoints on tenths: the limits of the sum at a jump
    # of f agree within the tolerance but not exactly, and both routes
    # prune the point as the exact sum h has none
    with scalars.engine_mode(scalars.FLOAT, 1e-9):
        f = suite.random_h_continuous(random.Random(seed), abscissa_denominator=10)
        coeffs = [Fraction(intercept, 10), Fraction(slope, 10)]
        h = pw.hfunction(f.domain, [], [pw.make_piece(f.domain.lo, f.domain.hi,
                                                      ex.poly_expr(coeffs))])
        g = algebra.oplus_def1(h, algebra.additive_inverse(f)).result
        def1 = algebra.oplus_def1(f, g).result
        def2 = algebra.oplus_def2(f, g).result
        assert pw.func_equal(def1, def2)
        assert pw.func_equal(def1, h) and pw.func_equal(def2, h)
