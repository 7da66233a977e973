"""Lower/upper envelope (Baire) operators and graph completion on the
piecewise representation, plus a discrete grid engine approximating them.

On a piece interior the operators reduce to the bound expressions, because
removing finitely many points never changes a one-sided limit of a
continuous piece.  All the work happens at breakpoints.  All five operators
are one pass, `_completed`: keep one bound (or both) on the pieces, and give
each breakpoint a pick of the kept pieces' `piecewise.completion_bounds`,
widened by the stored value when the point belongs to the dense set.
`lower_baire`, `upper_baire` and `graph_completion` pick the low end, the
high end and the interval.

`fis` and `fsi` compose three of these operators over the whole domain, in
that same pass with no point admitted.  Write u- and u+ for the upper
bound's envelopes on either side of a breakpoint.  S(f) there is the
largest of u-.limsup, u+.limsup and the upper end of the point value.  I of
that is the smallest of u-.liminf, u+.liminf and S(f)'s value; that value
is at least every limsup, hence never below the smaller liminf, so the
point value of f drops out.  F then widens the result up to the larger
limsup.  So F(I(S(f))) is the upper bound on every piece and the hull of u-
and u+ at every breakpoint; F(S(I(f))) is the same with the lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from . import piecewise as pw
from .errors import DomainError, EngineError
from .interval import Interval
from .piecewise import DenseSubsetSpec, HFunction, Piece, SpecialPoint
from .scalars import Scalar, format_scalar, format_span, to_scalar

__all__ = [
    "DenseSubsetSpec",
    "lower_baire",
    "upper_baire",
    "graph_completion",
    "fis",
    "fsi",
    "GridFunction",
    "grid_sample",
    "grid_lower",
    "grid_upper",
    "grid_completion",
    "grid_fis",
]


def _completed(
    g: HFunction,
    bound: Optional[str],
    admits: Callable[[Scalar], bool],
    pick: Callable[[Scalar, Scalar], Interval],
) -> HFunction:
    """The one pass of every envelope operator: keep ``bound`` ("lower",
    "upper", or None for both) on the pieces, and give each breakpoint
    ``pick(lo, hi)`` of the kept pieces' `completion_bounds`, widened by the
    point value where ``admits`` the point."""
    # a list, not tuple() over a generator: that tuple is built by resizing,
    # and such long-lived results raised peak memory on every ring pass
    pieces = [_bound_piece(p, bound) for p in g.pieces]
    points = []
    for i, point in enumerate(g.points):
        value = point.value if admits(point.x) else None
        lo, hi = pw.completion_bounds(pieces[i], pieces[i + 1], value)
        points.append(SpecialPoint(point.x, pick(lo, hi)))
    return pw.normalize(HFunction(g.domain, tuple(points), tuple(pieces)))


def _bound_piece(p: Piece, bound: Optional[str]) -> Piece:
    """The piece that keeps the ``bound`` record of p (both when None): p
    itself when it is real, so that it keeps its compiled evaluators."""
    if bound is None or p.lower is p.upper:
        return p
    record = p.lower if bound == "lower" else p.upper
    return Piece(p.lo, p.hi, record, record)


def lower_baire(f: HFunction, spec: Optional[DenseSubsetSpec] = None) -> HFunction:
    """Lower envelope operator over the cofinite dense set (default: the
    whole domain).  Real-valued output; equals the lower bound off
    breakpoints, and reads the lower bound's envelopes only."""
    spec = spec or DenseSubsetSpec.whole()
    return _completed(pw.refine(f, spec.excluded), "lower", spec.admits,
                      lambda lo, hi: Interval(lo, lo))


def upper_baire(f: HFunction, spec: Optional[DenseSubsetSpec] = None) -> HFunction:
    """Upper envelope operator, dual to `lower_baire`."""
    spec = spec or DenseSubsetSpec.whole()
    return _completed(pw.refine(f, spec.excluded), "upper", spec.admits,
                      lambda lo, hi: Interval(hi, hi))


def graph_completion(f: HFunction, spec: Optional[DenseSubsetSpec] = None) -> HFunction:
    """Pair the lower and upper operators into an interval-valued function.

    Raises EnvelopeError when inconsistent declared envelopes make the
    completed value inverted."""
    spec = spec or DenseSubsetSpec.whole()
    return _completed(pw.refine(f, spec.excluded), None, spec.admits, Interval)


def fis(f: HFunction) -> HFunction:
    """Graph completion of lower-of-upper, F(I(S(f))), over the whole domain.

    In closed form: the upper bound on every piece and, at each breakpoint,
    [min of the liminfs, max of the limsups] of the upper bound's envelopes
    on both sides.  The point value of f never enters: the minimum that I
    takes already lies below everything S puts at the point (see the module
    docstring).  Always Hausdorff continuous; fixes H-continuous inputs.
    Raises EnvelopeError when the upper bound lacks envelope data at a
    breakpoint."""
    return _completed(f, "upper", lambda x: False, Interval)


def fsi(f: HFunction) -> HFunction:
    """Graph completion of upper-of-lower, F(S(I(f))): the dual of `fis`,
    with the lower bound and its envelopes in place of the upper.  Here the
    maximum that S takes already lies above everything I puts at the point,
    so again the point value never enters."""
    return _completed(f, "lower", lambda x: False, Interval)


# ---------------------------------------------------------------------------
# Grid engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridFunction:
    """Uniform sampling: values[i] is the interval at x0 + i*h."""

    x0: Scalar
    h: Scalar
    values: Tuple[Interval, ...]

    def __post_init__(self):
        if not self.h > 0:
            raise EngineError("grid step must be positive")

    def x(self, i: int) -> Scalar:
        return self.x0 + i * self.h

    def __len__(self) -> int:
        return len(self.values)


def grid_sample(f: HFunction, x0, h, n: int) -> GridFunction:
    x0 = to_scalar(x0)
    h = to_scalar(h)
    if n < 1:
        raise EngineError("need at least one grid node")
    values = []
    for i in range(n):
        x = x0 + i * h
        if not f.domain.contains(x):
            raise DomainError(
                f"grid node {format_scalar(x)} outside domain "
                f"{format_span(f.domain.lo, f.domain.hi)}"
            )
        values.append(f.eval_at(x))
    return GridFunction(x0, h, tuple(values))


def _stencil(values: List[Scalar], pick) -> List[Scalar]:
    """``pick`` (min or max) over each node and its two neighbours, in
    grid order (one-sided at the ends)."""
    return [pick(values[max(0, i - 1):i + 2]) for i in range(len(values))]


def _grid(g: GridFunction, lows: List[Scalar], highs: List[Scalar]) -> GridFunction:
    return GridFunction(g.x0, g.h, tuple(Interval(a, b) for a, b in zip(lows, highs)))


def grid_lower(g: GridFunction) -> GridFunction:
    """One-cell min stencil over lower endpoints (one-sided at the ends)."""
    lows = _stencil([w.lo for w in g.values], min)
    return _grid(g, lows, lows)


def grid_upper(g: GridFunction) -> GridFunction:
    """One-cell max stencil over upper endpoints."""
    highs = _stencil([w.hi for w in g.values], max)
    return _grid(g, highs, highs)


def grid_completion(g: GridFunction) -> GridFunction:
    return _grid(g, _stencil([w.lo for w in g.values], min),
                 _stencil([w.hi for w in g.values], max))


def grid_fis(g: GridFunction) -> GridFunction:
    """Discrete counterpart of `fis`: completion of lower of upper."""
    if len(g.values) < 3:
        raise EngineError("grid_fis needs at least three nodes")
    lower_of_upper = _stencil(_stencil([w.hi for w in g.values], max), min)
    return _grid(g, _stencil(lower_of_upper, min), _stencil(lower_of_upper, max))
