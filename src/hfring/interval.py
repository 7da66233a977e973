"""Closed bounded real intervals, the scalar value type of the engine.

Implements the outer (endpoint-based) addition and multiplication, which
are inclusion isotone, together with the componentwise partial order and
the containment relation.  Point intervals embed the reals, so on them the
operations agree with ordinary arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EngineError
from .scalars import (
    Scalar,
    check_finite,
    format_scalar,
    scalar_eq,
    to_scalar,
)


@dataclass(frozen=True)
class Interval:
    """Interval [lo, hi] with lo <= hi, both finite."""

    lo: Scalar
    hi: Scalar

    def __post_init__(self):
        check_finite(self.lo)
        check_finite(self.hi)
        if self.lo is not self.hi and self.lo > self.hi:
            raise EngineError(
                f"inverted interval [{format_scalar(self.lo)}, {format_scalar(self.hi)}]"
            )

    @staticmethod
    def of(lo, hi=None) -> "Interval":
        """Build an interval from raw numbers, coercing to the engine mode."""
        if hi is None:
            hi = lo
        return Interval(to_scalar(lo), to_scalar(hi))

    @staticmethod
    def point(value) -> "Interval":
        v = to_scalar(value)
        return Interval(v, v)

    @property
    def is_point(self) -> bool:
        return self.lo is self.hi or self.lo == self.hi

    def __repr__(self) -> str:
        return f"[{format_scalar(self.lo)}, {format_scalar(self.hi)}]"

    def __add__(self, other: "Interval") -> "Interval":
        return add(self, other)

    def __mul__(self, other: "Interval") -> "Interval":
        return mul(self, other)

    def __neg__(self) -> "Interval":
        return neg(self)


# A point whose ends are one object takes one sum or product.  `Interval`
# raises NumericRangeError for an end beyond the float range.
def add(a: Interval, b: Interval) -> Interval:
    lo = a.lo + b.lo
    return Interval(lo, lo if a.lo is a.hi and b.lo is b.hi else a.hi + b.hi)


def mul(a: Interval, b: Interval) -> Interval:
    first = a.lo * b.lo
    if a.lo is a.hi and b.lo is b.hi:
        return Interval(first, first)
    products = (first, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return Interval(min(products), max(products))


def neg(a: Interval) -> Interval:
    return Interval(-a.hi, -a.lo)


def leq(a: Interval, b: Interval) -> bool:
    """Componentwise partial order: a.lo <= b.lo and a.hi <= b.hi."""
    return a.lo <= b.lo and a.hi <= b.hi


def subset(a: Interval, b: Interval) -> bool:
    """Containment a(x) inside b(x), used by every inclusion check."""
    return b.lo <= a.lo and a.hi <= b.hi


def width(a: Interval) -> Scalar:
    return a.hi - a.lo


def modulus(a: Interval) -> Scalar:
    return max(abs(a.lo), abs(a.hi))


def hull(*values: Scalar) -> Interval:
    """Smallest interval containing the given scalars."""
    return Interval(min(values), max(values))


def interval_eq(a: Interval, b: Interval) -> bool:
    """Mode-aware equality (exact for rationals, tolerance for floats)."""
    return scalar_eq(a.lo, b.lo) and scalar_eq(a.hi, b.hi)


def distance(a: Interval, b: Interval) -> Scalar:
    """Endpointwise distance max(|lo-lo'|, |hi-hi'|)."""
    return max(abs(a.lo - b.lo), abs(a.hi - b.hi))
