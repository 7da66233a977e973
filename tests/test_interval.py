import random
import threading
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hfring import interval as iv
from hfring import scalars
from hfring.errors import EngineError, NumericRangeError
from hfring.interval import Interval


def I(lo, hi=None):
    return Interval.of(lo, hi)


class TestBasics:
    def test_inverted_interval_rejected(self):
        with pytest.raises(EngineError):
            I(2, 1)

    def test_point_embedding(self):
        assert I(3).is_point
        assert iv.width(I(4, 4)) == 0

    def test_add_examples(self):
        assert iv.add(I(0, 1), I(-1, 0)) == I(-1, 1)
        assert iv.add(I(3), I(4)) == I(7)
        assert iv.add(I(-2, 1), I(5, 9)) == I(3, 10)

    def test_mul_examples(self):
        assert iv.mul(I(1, 2), I(-3, 4)) == I(-6, 8)
        assert iv.mul(I(2), I(-5)) == I(-10)
        assert iv.mul(I(-1, 1), I(-1, 1)) == I(-1, 1)

    def test_neg_examples(self):
        assert iv.neg(I(0, 1)) == I(-1, 0)
        assert iv.neg(I(5)) == I(-5)
        assert iv.width(iv.neg(I(-2, 7))) == iv.width(I(-2, 7)) == 9
        assert iv.subset(I(0), iv.add(I(-2, 7), iv.neg(I(-2, 7))))

    def test_leq_examples(self):
        assert iv.leq(I(0, 1), I("0.5", 2))
        assert not iv.leq(I(0, 3), I(1, 2))
        assert iv.leq(I(-4, 9), I(-4, 9))

    def test_subset_examples(self):
        assert iv.subset(I("0.3"), I(0, 1))
        assert not iv.subset(I(-1, 1), I(0, 1))
        assert iv.subset(I(2, 5), I(2, 5))

    def test_width_modulus(self):
        assert iv.width(I(-1, 1)) == 2
        assert iv.modulus(I(-3, 2)) == 3
        assert iv.width(I(4)) == 0

    def test_float_overflow_reported(self):
        with scalars.engine_mode(scalars.FLOAT):
            big = I(1e308, 1e308)
            with pytest.raises(NumericRangeError):
                iv.add(big, big)
            with pytest.raises(NumericRangeError):
                iv.mul(big, big)

    @pytest.mark.parametrize("tolerance", [0, -1.0, float("nan"), float("inf")])
    def test_tolerance_must_be_finite_and_positive(self, tolerance):
        with pytest.raises(EngineError, match="finite and positive"):
            with scalars.engine_mode(scalars.FLOAT, tolerance, seed=5):
                pass
        # a refused call changes nothing
        assert (scalars.get_mode(), scalars.get_tolerance(), scalars.get_seed()) == (
            scalars.RATIONAL, scalars.DEFAULT_TOLERANCE, scalars.DEFAULT_SEED)

    def test_engine_mode_restores_the_seed(self):
        with scalars.engine_mode(seed=5):
            assert scalars.get_seed() == 5
        assert scalars.get_seed() == scalars.DEFAULT_SEED

    def test_settings_belong_to_one_thread(self):
        inside, leave = threading.Event(), threading.Event()

        def worker():
            with scalars.engine_mode(scalars.FLOAT):
                inside.set()
                leave.wait(30)

        thread = threading.Thread(target=worker)
        thread.start()
        try:
            assert inside.wait(30)
            assert scalars.to_scalar("1/3") == Fraction(1, 3)
        finally:
            leave.set()
            thread.join(30)
        assert not thread.is_alive()


def _rand_interval(rng):
    a = Fraction(rng.randint(-400, 400), rng.choice((1, 2, 4, 8)))
    b = Fraction(rng.randint(-400, 400), rng.choice((1, 2, 4, 8)))
    return Interval(min(a, b), max(a, b))


def _shrink(rng, a):
    w = iv.width(a)
    lo = a.lo + w * Fraction(rng.randint(0, 5), 10)
    hi = a.hi - w * Fraction(rng.randint(0, 5), 10)
    return Interval(min(lo, hi), max(lo, hi))


class TestRandomizedLaws:
    def test_inclusion_isotonicity_10k(self):
        rng = random.Random(1105)
        for _ in range(10_000):
            a_big, b_big = _rand_interval(rng), _rand_interval(rng)
            a, b = _shrink(rng, a_big), _shrink(rng, b_big)
            assert iv.subset(iv.add(a, b), iv.add(a_big, b_big))
            assert iv.subset(iv.mul(a, b), iv.mul(a_big, b_big))

    def test_commutative_associative(self):
        rng = random.Random(1106)
        for _ in range(2000):
            a, b, c = (_rand_interval(rng) for _ in range(3))
            assert iv.add(a, b) == iv.add(b, a)
            assert iv.mul(a, b) == iv.mul(b, a)
            assert iv.add(iv.add(a, b), c) == iv.add(a, iv.add(b, c))
            assert iv.mul(iv.mul(a, b), c) == iv.mul(a, iv.mul(b, c))

    def test_sub_distributivity_only(self):
        rng = random.Random(1107)
        strict = 0
        for _ in range(2000):
            a, b, c = (_rand_interval(rng) for _ in range(3))
            left = iv.mul(a, iv.add(b, c))
            right = iv.add(iv.mul(a, b), iv.mul(a, c))
            assert iv.subset(left, right)
            if left != right:
                strict += 1
        assert strict > 0  # genuinely sub-distributive, not distributive

    def test_point_intervals_agree_with_reals(self):
        rng = random.Random(1108)
        for _ in range(2000):
            x = Fraction(rng.randint(-100, 100), rng.choice((1, 3, 7)))
            y = Fraction(rng.randint(-100, 100), rng.choice((1, 3, 7)))
            assert iv.add(Interval.point(x), Interval.point(y)) == Interval.point(x + y)
            assert iv.mul(Interval.point(x), Interval.point(y)) == Interval.point(x * y)
            assert iv.neg(Interval.point(x)) == Interval.point(-x)
            assert iv.leq(Interval.point(x), Interval.point(y)) == (x <= y)

    def test_leq_partial_order(self):
        rng = random.Random(1109)
        ivs = [_rand_interval(rng) for _ in range(60)]
        for a in ivs:
            assert iv.leq(a, a)
        for a in ivs:
            for b in ivs:
                if iv.leq(a, b) and iv.leq(b, a):
                    assert a == b
                for c in ivs:
                    if iv.leq(a, b) and iv.leq(b, c):
                        assert iv.leq(a, c)


finite_fracs = st.fractions(
    min_value=-50, max_value=50, max_denominator=16
)


@given(finite_fracs, finite_fracs, finite_fracs, finite_fracs)
def test_hypothesis_outer_ops_are_ranges(alo, ahi, blo, bhi):
    a = Interval(min(alo, ahi), max(alo, ahi))
    b = Interval(min(blo, bhi), max(blo, bhi))
    total = iv.add(a, b)
    prod = iv.mul(a, b)
    for t in (Fraction(0), Fraction(1, 3), Fraction(1)):
        x = a.lo + (a.hi - a.lo) * t
        y = b.lo + (b.hi - b.lo) * t
        assert total.lo <= x + y <= total.hi
        assert prod.lo <= x * y <= prod.hi


def _add_checked(a, b):
    """Reference: the sum with each end checked before `Interval` checks it."""
    return Interval(scalars.check_finite(a.lo + b.lo), scalars.check_finite(a.hi + b.hi))


def _mul_checked(a, b):
    """Reference: the four products, each end checked before `Interval`."""
    products = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return Interval(scalars.check_finite(min(products)), scalars.check_finite(max(products)))


def _typed_outcome(fn, *args):
    """The ends with their types and reprs (-0.0 is not 0.0), or the error."""
    try:
        r = fn(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)
    return [(type(v), repr(v)) for v in (r.lo, r.hi)]


_float_ends = st.one_of(
    st.sampled_from([1e308, -1e308, 1e200, 0.0, -0.0, 1.5]),
    st.floats(-1e3, 1e3),
)


@given(mode=st.sampled_from([scalars.RATIONAL, scalars.FLOAT]), data=st.data())
def test_point_operands_take_one_sum_or_product(mode, data):
    ends = finite_fracs if mode == scalars.RATIONAL else _float_ends

    def operand():
        lo, hi = sorted(data.draw(st.lists(ends, min_size=2, max_size=2)))
        shape = data.draw(st.sampled_from(["point", "equal ends", "proper"]))
        if shape == "point":
            return Interval(lo, lo)  # one object at both ends
        if shape == "equal ends":
            return Interval(lo, lo * 1)  # equal ends, maybe two objects
        return Interval(lo, hi)

    with scalars.engine_mode(mode):
        a, b = operand(), operand()
        for fn, reference in ((iv.add, _add_checked), (iv.mul, _mul_checked)):
            # the ends, their types and a float overflow's NumericRangeError
            outcome = _typed_outcome(fn, a, b)
            assert outcome == _typed_outcome(reference, a, b)
            if a.lo is a.hi and b.lo is b.hi and isinstance(outcome, list):
                result = fn(a, b)
                assert result.lo is result.hi  # one sum or one product
