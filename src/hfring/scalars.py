"""Engine configuration and scalar arithmetic.

Two scalar modes are supported: exact rationals (``fractions.Fraction``)
for piecewise-linear and polynomial work, where identities are checked
with literal equality, and binary floats with a comparison tolerance for
transcendental pieces.  Modes are never mixed inside one computation.

The mode, the float tolerance and the sampling seed form one frozen
`EngineConfig` in a `contextvars.ContextVar`, as `decimal` keeps its
context: each thread or asyncio task has its own, and a new thread starts
from the defaults.  `engine_mode` is the one way to change it.

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
from contextvars import ContextVar
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Union

from .errors import EngineError, NumericRangeError

RATIONAL = "rational"
FLOAT = "float"

Scalar = Union[Fraction, float]

DEFAULT_TOLERANCE = 1e-9
DEFAULT_SEED = 8201


class EngineConfig(NamedTuple):
    """The settings every answer depends on."""

    mode: str
    tolerance: float
    seed: int


_config: ContextVar[EngineConfig] = ContextVar(
    "hfring_engine_config", default=EngineConfig(RATIONAL, DEFAULT_TOLERANCE, DEFAULT_SEED))


def get_mode() -> str:
    return _config.get().mode


def get_tolerance() -> float:
    return _config.get().tolerance


def get_seed() -> int:
    """Seed for every deterministic pseudo-random sampling in the engine."""
    return _config.get().seed


def comparison_slack() -> float:
    """Slack of an order comparison: the tolerance in float mode, and the
    integer 0 in rational mode, so that a rational compared against it
    stays exact."""
    config = _config.get()
    return config.tolerance if config.mode == FLOAT else 0


@contextmanager
def engine_mode(mode: Optional[str] = None, tolerance: Optional[float] = None,
                seed: Optional[int] = None) -> Iterator[None]:
    """Run the block with the given settings (None keeps the current one),
    then restore the whole configuration, whichever way the block exits.
    Invalid settings raise EngineError before anything changes."""
    current = _config.get()
    if mode is not None and mode not in (RATIONAL, FLOAT):
        raise EngineError(f"unknown mode {mode!r}")
    if tolerance is not None and not 0 < tolerance < math.inf:
        raise EngineError(f"tolerance must be finite and positive, not {tolerance!r}")
    token = _config.set(EngineConfig(
        current.mode if mode is None else mode,
        current.tolerance if tolerance is None else tolerance,
        current.seed if seed is None else int(seed),
    ))
    try:
        yield
    finally:
        _config.reset(token)


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
    if _config.get().mode == RATIONAL:
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
    config = _config.get()
    if config.mode == RATIONAL:
        return a == b
    return abs(a - b) <= config.tolerance


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
