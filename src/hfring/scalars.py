"""Engine configuration and scalar arithmetic.

Two scalar modes are supported, selected process-wide: exact rationals
(``fractions.Fraction``) for piecewise-linear and polynomial work, where
identities are checked with literal equality, and binary floats with a
comparison tolerance for transcendental pieces.  Modes are never mixed
inside one computation; callers switch with `set_mode` or the
`engine_mode` context manager.

Float mode performs no directed rounding: endpoints are computed with
ordinary nearest rounding, so results are set-theoretic values up to the
comparison tolerance, not rigorous enclosures.

No scalar is ever NaN or infinite: `to_scalar`, `check_finite` and the
checked evaluator reject non-finite values.  So an object always equals
itself, in both modes and under `scalar_eq`, and ``x > x`` is false.  The
equality tests of the engine (`scalar_eq` here, the point tests of
intervals and envelopes, the boundary checks of functions) therefore test
identity first: a breakpoint or a point value compared with the very
object it was built from is decided without arithmetic.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from fractions import Fraction
from typing import Iterator, Optional, Union

from .errors import EngineError, NumericRangeError

RATIONAL = "rational"
FLOAT = "float"

Scalar = Union[Fraction, float]

DEFAULT_TOLERANCE = 1e-9
DEFAULT_SEED = 8201

_mode = RATIONAL
_tolerance = DEFAULT_TOLERANCE
_seed = DEFAULT_SEED


def set_mode(mode: str, tolerance: Optional[float] = None) -> None:
    """Select the scalar mode ("rational" or "float") for the process."""
    global _mode, _tolerance
    if mode not in (RATIONAL, FLOAT):
        raise EngineError(f"unknown mode {mode!r}")
    if tolerance is not None and not 0 < tolerance < math.inf:
        raise EngineError(f"tolerance must be finite and positive, not {tolerance!r}")
    _mode = mode
    if tolerance is not None:
        _tolerance = tolerance


def get_mode() -> str:
    return _mode


def get_tolerance() -> float:
    return _tolerance


def comparison_slack() -> float:
    """Slack of an order comparison: the tolerance in float mode, and the
    integer 0 in rational mode, so that a rational compared against it
    stays exact."""
    return _tolerance if _mode == FLOAT else 0


def set_seed(seed: int) -> None:
    """Seed for every deterministic pseudo-random sampling in the engine."""
    global _seed
    _seed = int(seed)


def get_seed() -> int:
    return _seed


@contextmanager
def engine_mode(mode: str, tolerance: Optional[float] = None) -> Iterator[None]:
    """Temporarily switch scalar mode (used heavily by tests)."""
    global _mode, _tolerance
    saved = (_mode, _tolerance)
    try:
        set_mode(mode, tolerance)
        yield
    finally:
        _mode, _tolerance = saved


def to_scalar(value) -> Scalar:
    """Coerce a number (or numeric string) to the current mode's scalar.

    In rational mode float and decimal-string inputs are read with decimal
    semantics, so ``0.1`` becomes exactly 1/10.  Strings may also carry a
    fraction ``"p/q"``.  Non-finite values are rejected.
    """
    if isinstance(value, str):
        try:
            value = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise EngineError(f"not a number: {value!r}") from exc
    if _mode == RATIONAL:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, float):
            if not math.isfinite(value):
                raise EngineError("non-finite value has no rational scalar")
            return Fraction(str(value))
        raise EngineError(f"cannot coerce {value!r} to a rational scalar")
    try:
        result = float(value)
    except OverflowError as exc:  # a Fraction beyond the float range
        raise NumericRangeError("number beyond the float range") from exc
    if not math.isfinite(result):
        raise NumericRangeError(f"non-finite scalar {value!r}")
    return result


def is_finite(value: Scalar) -> bool:
    if isinstance(value, Fraction):
        return True
    return math.isfinite(value)


def check_finite(value: Scalar) -> Scalar:
    if not is_finite(value):
        raise NumericRangeError(f"numeric range exceeded: {value!r}")
    return value


def scalar_eq(a: Scalar, b: Scalar) -> bool:
    """Equality test: exact for rationals, within tolerance for floats."""
    if a is b:
        return True
    if _mode == RATIONAL:
        return a == b
    return abs(a - b) <= _tolerance


def format_scalar(a: Scalar) -> str:
    """Print a scalar for CLI/JSON output.

    Rational mode prints an exact decimal when the denominator allows it and
    ``p/q`` otherwise; float mode prints 17 significant digits so values
    round-trip.
    """
    if isinstance(a, Fraction):
        if a.denominator == 1:
            return str(a.numerator)
        decimal = _terminating_decimal(a)
        return decimal if decimal is not None else f"{a.numerator}/{a.denominator}"
    return "%.17g" % a


def format_span(lo: Optional[Scalar], hi: Optional[Scalar]) -> str:
    """An open span (lo, hi) for messages, its finite ends by
    `format_scalar`; None stands for an infinite end."""
    left = "-inf" if lo is None else format_scalar(lo)
    right = "inf" if hi is None else format_scalar(hi)
    return f"({left}, {right})"


def _terminating_decimal(a: Fraction) -> Optional[str]:
    den = a.denominator
    twos = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return None
    digits = max(twos, fives)
    scaled = abs(a.numerator) * 10**digits // a.denominator
    text = str(scaled).rjust(digits + 1, "0")
    whole, frac = text[:-digits], text[-digits:]
    sign = "-" if a.numerator < 0 else ""
    return f"{sign}{whole}.{frac}"
