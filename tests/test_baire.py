import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from hfring import baire
from hfring import expr as ex
from hfring import interval as iv
from hfring import piecewise as pw
from hfring import scalars, suite
from hfring.baire import DenseSubsetSpec, GridFunction
from hfring.errors import DomainError, EngineError, EnvelopeError, RepresentationError
from hfring.interval import Interval
from hfring.piecewise import Domain

from conftest import make_oscillation_pair


def F(v):
    return pw.to_scalar(v)


class TestEnvelopeOperators:
    def test_lower_on_step(self, step_pair):
        f, _ = step_pair
        low = baire.lower_baire(f)
        assert low.eval_at(0) == Interval.of(0, 0)  # min(limit 0, limit 1, value 0)

    def test_lower_punctured(self, step_pair):
        f, _ = step_pair
        low = baire.lower_baire(f, DenseSubsetSpec.excluding(0))
        assert low.eval_at(0) == Interval.of(0, 0)

    def test_operators_fix_continuous(self):
        g = pw.constant_function(Domain.of(-1, 1), 5)
        assert pw.func_equal(baire.lower_baire(g), g)
        assert pw.func_equal(baire.upper_baire(g), g)
        assert pw.func_equal(baire.graph_completion(g), g)

    def test_upper_on_step(self, step_pair):
        f, _ = step_pair
        up = baire.upper_baire(f)
        assert up.eval_at(0) == Interval.of(1, 1)

    def test_upper_on_oscillation(self, oscillation_pair):
        f, _ = oscillation_pair
        up = baire.upper_baire(f)
        assert up.eval_at(0.0) == Interval.of(1.0, 1.0)

    def test_completion_of_punctured_sum(self, step_pair):
        f, g = step_pair
        s = pw.pointwise_add(f, g)
        completed = baire.graph_completion(s, DenseSubsetSpec.excluding(0))
        assert completed.eval_at(0) == Interval.of(0, 0)
        full = baire.graph_completion(s)
        assert full.eval_at(0) == Interval.of(-1, 1)

    def test_extra_excluded_point_harmless(self, step_pair):
        f, _ = step_pair
        spec = DenseSubsetSpec.excluding(0, "1/2")
        assert pw.func_equal(baire.graph_completion(f, spec), f)


class TestFisFsi:
    def test_spike_collapses(self, step_pair):
        f, g = step_pair
        s = pw.pointwise_add(f, g)
        zero = pw.constant_function(s.domain, 0)
        assert pw.func_equal(baire.fis(s), zero)
        assert pw.func_equal(baire.fsi(s), zero)

    def test_h_continuous_fixed(self, step_pair):
        f, _ = step_pair
        assert pw.func_equal(baire.fis(f), f)
        assert pw.func_equal(baire.fsi(f), f)

    def test_proper_constant_piece(self):
        f = pw.constant_function(Domain.of(-1, 1), Interval.of(0, 1))
        one = pw.constant_function(f.domain, 1)
        zero = pw.constant_function(f.domain, 0)
        assert pw.func_equal(baire.fis(f), one)
        assert pw.func_equal(baire.fsi(f), zero)

    def test_outputs_h_continuous_on_s_suite(self):
        for f in suite.s_continuous_suite(21, 60):
            assert pw.is_H_continuous(baire.fis(f))
            assert pw.is_H_continuous(baire.fsi(f))

    def test_outputs_included_in_s_continuous_input(self):
        for f in suite.s_continuous_suite(26, 30):
            for out in (baire.fis(f), baire.fsi(f)):
                xs = list(f.breakpoints) + pw.func_sample_points(f, 30, tag="sub")
                for x in xs:
                    assert iv.subset(out.eval_at(x), f.eval_at(x))

    def test_fis_fsi_agree_where_width_is_isolated(self):
        # uniqueness of the inner H-continuous function needs proper values
        # at isolated points only; on proper interval pieces the two routes
        # legitimately pick different selections
        rng = random.Random(22)
        for _ in range(40):
            f = suite.random_s_continuous(rng, proper_piece_chance=0.0)
            assert pw.func_equal(baire.fis(f), baire.fsi(f))


def _fis_reference(f):
    """F(I(S(f))) composed from the three operators."""
    return baire.graph_completion(baire.lower_baire(baire.upper_baire(f)))


def _fsi_reference(f):
    """F(S(I(f))) composed from the three operators."""
    return baire.graph_completion(baire.upper_baire(baire.lower_baire(f)))


def _envelopes(f):
    return [(p.lower.left, p.lower.right, p.upper.left, p.upper.right) for p in f.pieces]


def _assert_closed_form_matches(f):
    for closed, reference in ((baire.fis, _fis_reference), (baire.fsi, _fsi_reference)):
        got, want = closed(f), reference(f)
        assert pw.func_equal(got, want)
        assert _envelopes(got) == _envelopes(want)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    mode=st.sampled_from([(scalars.RATIONAL, None), (scalars.FLOAT, 1e-9)]),
    kind=st.sampled_from(["h", "s", "oscillation"]),
    combine=st.sampled_from(["none", "add", "mul"]),
)
def test_closed_form_is_the_composition(seed, mode, kind, combine):
    # the oscillating pair has declared envelopes and exists in float mode only
    assume(kind != "oscillation" or mode[0] == scalars.FLOAT)
    with scalars.engine_mode(*mode):
        if kind == "oscillation":
            f, g = make_oscillation_pair()
        else:
            make = suite.h_continuous_suite if kind == "h" else suite.s_continuous_suite
            f, g = make(seed, 2)
        try:
            if combine == "add":
                f = pw.pointwise_add(f, g)
            elif combine == "mul":
                f = pw.pointwise_mul(f, g)
        except RepresentationError:
            # a product of proper interval pieces whose winning bound
            # product changes inside a piece
            assume(False)
        _assert_closed_form_matches(f)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    mode=st.sampled_from([(scalars.RATIONAL, None), (scalars.FLOAT, 1e-9)]),
    kind=st.sampled_from(["h", "s"]),
    combine=st.sampled_from(["none", "add"]),
)
def test_closed_form_keeps_real_pieces(seed, mode, kind, combine):
    # a real piece keeps its own object, and with it its compiled
    # evaluators, wherever normalize merged nothing into it
    with scalars.engine_mode(*mode):
        make = suite.h_continuous_suite if kind == "h" else suite.s_continuous_suite
        f, g = make(seed, 2)
        if combine == "add":
            f = pw.pointwise_add(f, g)
        real = {(p.lo, p.hi): p for p in f.pieces if p.lower is p.upper}
        for completed in (baire.fis(f), baire.fsi(f)):
            kept = [q for q in completed.pieces if (q.lo, q.hi) in real]
            assert all(q is real[q.lo, q.hi] for q in kept)
            if len(completed.pieces) == len(f.pieces):
                assert len(kept) == len(real)


def test_closed_form_prunes_where_the_composition_does(float_mode):
    # both sides of the sum are 1 + x, but the evaluated limits at 1/10 are
    # 1.1 from the left and 1.0999999999999999 from the right: within the
    # tolerance, so the composition prunes the point at its inner stage
    x0 = 0.1
    def jump(left, right):
        el, er = ex.poly_expr(left), ex.poly_expr(right)
        vl, vr = ex.evaluator(el)(x0), ex.evaluator(er)(x0)
        return pw.hfunction(
            Domain.of(-1, 1), [(x0, Interval(min(vl, vr), max(vl, vr)))],
            [pw.make_piece(-1.0, x0, el), pw.make_piece(x0, 1.0, er)], validate=False,
        )
    s = pw.pointwise_add(jump([0.1, 0.1], [0.3, 0.1]), jump([0.9, 0.9], [0.7, 0.9]))
    assert s.pieces[0].upper.right != s.pieces[1].upper.left
    _assert_closed_form_matches(s)
    assert baire.fis(s).points == ()


def test_closed_form_needs_envelopes_at_breakpoints(step_pair):
    f, _ = step_pair
    left = f.pieces[0]
    bare = pw.HFunction(f.domain, f.points, (
        pw.Piece(left.lo, left.hi, left.lower._replace(right=None),
                 left.upper._replace(right=None)),
        f.pieces[1],
    ))
    for operator in (baire.fis, baire.fsi):
        with pytest.raises(EnvelopeError, match="missing envelope"):
            operator(bare)


class TestIsotonicity:
    def test_functional_argument(self):
        rng = random.Random(23)
        for _ in range(60):
            inner, outer = suite.random_inclusion_pair(rng)
            ci = baire.graph_completion(inner)
            co = baire.graph_completion(outer)
            for x in pw.func_sample_points(ci, 40, tag="iso"):
                assert iv.subset(ci.eval_at(x), co.eval_at(x))

    def test_dense_set_argument(self, step_pair):
        f, g = step_pair
        s = pw.pointwise_add(f, g)
        nested = [
            DenseSubsetSpec.excluding(0, "1/2", -3),
            DenseSubsetSpec.excluding(0, "1/2"),
            DenseSubsetSpec.excluding(0),
            DenseSubsetSpec.whole(),
        ]
        results = [baire.graph_completion(s, spec) for spec in nested]
        for smaller, larger in zip(results, results[1:]):
            for x in [F(0), F("1/2"), F(-3), F(2)]:
                assert iv.subset(smaller.eval_at(x), larger.eval_at(x))

    def test_idempotence(self):
        for f in suite.s_continuous_suite(24, 40):
            once = baire.graph_completion(f)
            twice = baire.graph_completion(once)
            assert pw.func_equal(once, twice)
            assert pw.is_S_continuous(once)


def _brute_stencil(vs, i, pick, key):
    """Oracle: a literal one-cell stencil over a list of intervals."""
    lo, hi = max(0, i - 1), min(len(vs), i + 2)
    return pick(key(v) for v in vs[lo:hi])


def _point(v):
    return Interval(v, v)  # not Interval.point, which coerces to the mode


def _brute_lower(vs):
    return [_point(_brute_stencil(vs, i, min, lambda v: v.lo)) for i in range(len(vs))]


def _brute_upper(vs):
    return [_point(_brute_stencil(vs, i, max, lambda v: v.hi)) for i in range(len(vs))]


def _brute_completion(vs):
    return [
        Interval(_brute_stencil(vs, i, min, lambda v: v.lo),
                 _brute_stencil(vs, i, max, lambda v: v.hi))
        for i in range(len(vs))
    ]


def _brute_fis(vs):
    return _brute_completion(_brute_lower(_brute_upper(vs)))


# zeros of both signs and of both types, so a stencil that picked another
# of several equal elements would show in the repr
_grid_scalars = st.one_of(
    st.sampled_from([0.0, -0.0, Fraction(0), Fraction(1, 2), 0.5]),
    st.integers(-3, 3).map(Fraction),
    st.floats(-3, 3),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_grid_scalars, _grid_scalars), min_size=3, max_size=12))
def test_grid_stencils_are_the_interval_stencils(pairs):
    vs = [Interval(min(a, b), max(a, b)) for a, b in pairs]
    g = GridFunction(F(0), F(1), tuple(vs))
    for operator, oracle in ((baire.grid_lower, _brute_lower), (baire.grid_upper, _brute_upper),
                             (baire.grid_completion, _brute_completion),
                             (baire.grid_fis, _brute_fis)):
        assert repr(operator(g).values) == repr(tuple(oracle(vs)))


class TestGrid:
    def test_sample_step(self, step_pair):
        f, _ = step_pair
        g = baire.grid_sample(f, -1, "1/2", 5)
        assert [(v.lo, v.hi) for v in g.values] == [
            (0, 0), (0, 0), (0, 1), (1, 1), (1, 1)
        ]

    def test_sample_constant(self):
        f = pw.constant_function(Domain.of(-2, 2), 5)
        g = baire.grid_sample(f, -1, "1/2", 3)
        assert all(v == Interval.of(5, 5) for v in g.values)

    def test_sample_outside_domain(self):
        f = pw.constant_function(Domain.of(-1, 1), 5)
        with pytest.raises(DomainError):
            baire.grid_sample(f, 0, 1, 3)

    def test_oscillation_width_at_zero(self, oscillation_pair):
        f, _ = oscillation_pair
        g = baire.grid_sample(f, -0.5, 0.5, 3)
        assert iv.width(g.values[1]) == 2

    def test_completion_of_step_samples(self):
        g = GridFunction(F(0), F(1), (Interval.of(0, 0), Interval.of(0, 1), Interval.of(1, 1)))
        mid = baire.grid_completion(g).values[1]
        assert mid == Interval.of(0, 1)

    def test_stencils_fix_constants(self):
        g = GridFunction(F(0), F(1), tuple(Interval.of(3, 3) for _ in range(6)))
        assert baire.grid_lower(g).values == g.values
        assert baire.grid_upper(g).values == g.values
        assert baire.grid_completion(g).values == g.values
        assert baire.grid_fis(g).values == g.values

    def test_fis_spike_against_brute_force(self):
        spike = [Interval.of(0, 0), Interval.of(0, 0), Interval.of(-1, 1),
                 Interval.of(0, 0), Interval.of(0, 0)]
        g = GridFunction(F(0), F(1), tuple(spike))
        assert list(baire.grid_fis(g).values) == _brute_fis(spike)
        # the upward spike smears by one cell through the completion
        assert baire.grid_fis(g).values[2] == Interval.of(0, 1)

    def test_fis_needs_three_nodes(self):
        g = GridFunction(F(0), F(1), (Interval.of(0, 0), Interval.of(1, 1)))
        with pytest.raises(EngineError):
            baire.grid_fis(g)


class TestGridConsistency:
    def test_error_halves_with_h(self):
        from hfring import algebra
        fs = suite.h_continuous_suite(25, 2)
        pointwise = pw.pointwise_add(fs[0], fs[1])
        exact = algebra.oplus_def1(fs[0], fs[1]).result
        jumps = {p.x for p in pointwise.points} | {p.x for p in exact.points}
        margin = 2 * F("1/16")
        errors = []
        for k in (4, 5, 6, 7, 8):
            h = F(f"1/{2 ** k}")
            x0, width = F("-7/8"), F("7/4")
            grid = baire.grid_fis(baire.grid_sample(pointwise, x0, h, int(width / h) + 1))
            worst = F(0)
            for i in range(1, len(grid.values) - 1):
                x = grid.x(i)
                if any(abs(x - j) <= margin for j in jumps):
                    continue
                worst = max(worst, iv.distance(grid.values[i], exact.eval_at(x)))
            errors.append(worst)
        assert all(e > 0 for e in errors)
        for a, b in zip(errors, errors[1:]):
            assert Fraction(2, 5) <= b / a <= Fraction(13, 20)
