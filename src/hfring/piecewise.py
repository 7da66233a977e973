"""Piecewise symbolic representation of interval-valued functions on an
open 1-D interval.

A function is held as finitely many *special points* carrying interval
values, with closed-form continuous pieces between them.  A piece holds its
lower and its upper bound as one `Bound` record each: the bound expression
and its one-sided limit envelope at each end, the liminf/limsup of the
expression as it approaches that end.  A real-valued piece has one bound,
so it holds one record as both.  Envelopes are what the lower/upper
envelope operators read at special points; they are computed as true
limits where evaluation allows, estimated by geometric sampling otherwise,
and may be overridden by declarations (subject to `validate_envelopes`).

Special points may carry width-0 values: a breakpoint whose value matches
both abutting limits is pruned by normalization when the neighbouring
expressions merge, which gives a canonical form and decidable equality.

Two functions are read together by `walk`: one merge of their breakpoint
tuples gives the union of their special points, each operand's value
there, and each operand's original piece over every span between them.  It
builds no piece and no function; the pointwise operations and the order
comparisons (`order.func_leq`, the stabilization scan, `max_deviation`)
read it, and `align` builds the two refined functions from the same merge.
"""

from __future__ import annotations

import operator
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from . import expr as ex
from . import interval as iv
from .errors import (
    DomainError,
    EngineError,
    EnvelopeError,
    ExprEvalError,
    PieceError,
    RepresentationError,
)
from .interval import Interval
from .scalars import (
    FLOAT,
    RATIONAL,
    Scalar,
    check_finite,
    comparison_slack,
    format_scalar,
    format_span,
    get_mode,
    get_seed,
    get_tolerance,
    scalar_eq,
    to_scalar,
)

EVALUATED = "evaluated"
DECLARED = "declared"
ESTIMATED = "estimated"
_PROV_RANK = {EVALUATED: 0, DECLARED: 1, ESTIMATED: 2}
_PROV_BY_RANK = (EVALUATED, DECLARED, ESTIMATED)

# Window half-width used when a sampled check meets an unbounded piece end.
_INF_WINDOW = 8


@dataclass(frozen=True)
class Domain:
    """Open interval (lo, hi); None stands for an infinite end."""

    lo: Optional[Scalar]
    hi: Optional[Scalar]

    def __post_init__(self):
        if self.lo is not None and self.hi is not None and not self.lo < self.hi:
            raise EngineError("domain must satisfy lo < hi")

    def contains(self, x: Scalar) -> bool:
        if self.lo is not None and not self.lo < x:
            return False
        if self.hi is not None and not x < self.hi:
            return False
        return True

    def __repr__(self) -> str:
        lo = "-inf" if self.lo is None else repr(self.lo)
        hi = "inf" if self.hi is None else repr(self.hi)
        return f"({lo}, {hi})"

    @staticmethod
    def of(lo, hi) -> "Domain":
        return Domain(
            None if lo is None else to_scalar(lo),
            None if hi is None else to_scalar(hi),
        )


def domain_eq(a: Domain, b: Domain) -> bool:
    for x, y in ((a.lo, b.lo), (a.hi, b.hi)):
        if (x is None) != (y is None):
            return False
        if x is not None and not scalar_eq(x, y):
            return False
    return True


@dataclass(frozen=True)
class EndEnvelope:
    """One-sided limiting range (liminf, limsup) of one bound expression."""

    liminf: Scalar
    limsup: Scalar
    provenance: str = EVALUATED

    def __post_init__(self):
        if self.liminf is not self.limsup and self.liminf > self.limsup:
            raise EnvelopeError(
                f"envelope liminf {format_scalar(self.liminf)} above limsup "
                f"{format_scalar(self.limsup)}"
            )
        if self.provenance not in _PROV_RANK:
            raise EngineError(f"unknown provenance {self.provenance!r}")

    @property
    def is_point(self) -> bool:
        return self.liminf is self.limsup or self.liminf == self.limsup

    @property
    def is_exact_limit(self) -> bool:
        """True when the data asserts an actual one-sided limit."""
        return self.is_point and _PROV_RANK[self.provenance] <= 1


class Bound(NamedTuple):
    """One bound of a piece: its expression and the (liminf, limsup) of that
    expression at the piece's left and right ends.  An infinite end, not a
    point of the domain, has none; a finite end lacks one only at a pole or
    where no sample near the end can be evaluated."""

    expr: ex.Expr
    left: Optional[EndEnvelope]
    right: Optional[EndEnvelope]


@dataclass(frozen=True)
class Piece:
    """Continuous piece on the open subinterval (lo, hi) between its lower
    and upper `Bound`.  A real-valued piece holds one record as both."""

    lo: Optional[Scalar]
    hi: Optional[Scalar]
    lower: Bound
    upper: Bound

    @property
    def is_real(self) -> bool:
        """The bound expressions are equal."""
        return self.lower is self.upper or self.lower.expr == self.upper.expr

    @property
    def bounds(self) -> Tuple[Bound, ...]:
        """The distinct bound records: one when the piece shares its record."""
        return (self.lower,) if self.lower is self.upper else (self.lower, self.upper)

    @property
    def kind(self) -> str:
        """Coarser of the two bounds' classes: polynomial, rational, or
        transcendental."""
        order = ("polynomial", "rational", "transcendental")
        return max((ex.classify(b.expr) for b in self.bounds), key=order.index)

    @cached_property
    def _evaluators(self) -> dict:
        """mode -> (lower, upper) evaluators, upper None on a real piece;
        filled by `bound_values` for each mode it runs in."""
        return {}

    def bound_values(self, x: Scalar) -> Tuple[Scalar, Scalar]:
        """(lower(x), upper(x)) as computed, through evaluators compiled once
        per piece and mode."""
        mode = get_mode()
        bounds = self._evaluators.get(mode)
        if bounds is None:
            bounds = self._evaluators[mode] = (
                ex.evaluator(self.lower.expr),
                None if self.is_real else ex.evaluator(self.upper.expr),
            )
        lower, upper = bounds
        lo = lower(x)
        return lo, (lo if upper is None else upper(x))

    def eval(self, x: Scalar) -> Interval:
        lo, hi = self.bound_values(x)
        if hi is lo:
            return Interval(lo, lo)
        # proper pieces may suffer tiny float inversions; order defensively
        return Interval(min(lo, hi), max(lo, hi))


@dataclass(frozen=True)
class SpecialPoint:
    x: Scalar
    value: Interval


@dataclass(frozen=True)
class HFunction:
    """Interval-valued function: sorted special points and covering pieces.

    len(pieces) == len(points) + 1 and consecutive boundaries agree; all
    special points are interior to the domain.

    The function is frozen, so `is_H_continuous` keeps its verdict on it,
    one per (mode, tolerance): each ring operation decides its operands
    once for the comparison in force.  `order.from_below_sequence` keeps
    the operand's inf-convolution approximants on it the same way, one per
    (mode, tolerance, n), so every def3 operation on the function shares
    them.
    """

    domain: Domain
    points: Tuple[SpecialPoint, ...]
    pieces: Tuple[Piece, ...]

    def __post_init__(self):
        if len(self.pieces) != len(self.points) + 1:
            raise EngineError("pieces must cover domain minus special points")
        bounds = [self.domain.lo, *(p.x for p in self.points), self.domain.hi]
        last = len(bounds) - 2
        for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
            if a is not None and b is not None and not a < b:
                if i == 0 or i == last:
                    raise EngineError("special points must be interior to the domain")
                raise EngineError("special points must be strictly increasing")
        for i, piece in enumerate(self.pieces):
            if _bound_ne(piece.lo, bounds[i]) or _bound_ne(piece.hi, bounds[i + 1]):
                raise EngineError("piece boundaries must chain through the points")

    @cached_property
    def breakpoints(self) -> Tuple[Scalar, ...]:
        return tuple(p.x for p in self.points)

    @cached_property
    def _h_continuous(self) -> dict:
        """(mode, tolerance) -> verdict of `is_H_continuous`."""
        return {}

    @cached_property
    def _approximants(self) -> dict:
        """(mode, tolerance, n) -> element n of `order.from_below_sequence`."""
        return {}

    def point_index(self, x: Scalar) -> Optional[int]:
        """Index of the first special point equal to x (`scalar_eq`)."""
        xs = self.breakpoints
        if get_mode() == FLOAT:
            # p - x is monotone in p even after rounding, so the points
            # within the tolerance follow the first one with p - x >= -tol
            i = bisect_left(xs, -get_tolerance(), key=lambda p: p - x)
        else:
            i = bisect_left(xs, x)
        if i < len(xs) and scalar_eq(xs[i], x):
            return i
        return None

    def piece_at(self, x: Scalar) -> Piece:
        piece = self.pieces[bisect_left(self.breakpoints, x)]
        if (piece.lo is None or piece.lo < x) and (piece.hi is None or x < piece.hi):
            return piece
        raise DomainError(f"{format_scalar(x)} not interior to any piece")

    def eval_at(self, x) -> Interval:
        x = to_scalar(x)
        if not self.domain.contains(x):
            raise DomainError(
                f"{format_scalar(x)} outside domain {format_span(self.domain.lo, self.domain.hi)}"
            )
        idx = self.point_index(x)
        if idx is not None:
            return self.points[idx].value
        return self.piece_at(x).eval(x)

    @property
    def is_piecewise_linear(self) -> bool:
        return all(ex.is_linear(b.expr) for p in self.pieces for b in p.bounds)


def _bound_ne(a: Optional[Scalar], b: Optional[Scalar]) -> bool:
    if a is b:
        return False
    return a is None or b is None or a != b


@dataclass(frozen=True)
class DenseSubsetSpec:
    """Cofinite dense subset of the domain: everything except ``excluded``."""

    excluded: Tuple[Scalar, ...] = ()

    @staticmethod
    def whole() -> "DenseSubsetSpec":
        return DenseSubsetSpec(())

    @staticmethod
    def excluding(*points) -> "DenseSubsetSpec":
        coerced = sorted(to_scalar(p) for p in points)
        deduped: List[Scalar] = []
        for p in coerced:
            if not deduped or p != deduped[-1]:
                deduped.append(p)
        return DenseSubsetSpec(tuple(deduped))

    @property
    def is_whole(self) -> bool:
        return not self.excluded

    def admits(self, x: Scalar) -> bool:
        return all(not scalar_eq(x, p) for p in self.excluded)


# ---------------------------------------------------------------------------
# Envelope computation
# ---------------------------------------------------------------------------


def rational_limit_at(e: ex.Expr, at: Scalar) -> Optional[Scalar]:
    """Exact one-sided limit of a rational expression at a finite point,
    cancelling removable singularities; None when the value diverges.  A
    polynomial in coefficient form takes one exact Horner pass, its value."""
    a = at if isinstance(at, Fraction) else Fraction(str(at) if isinstance(at, float) else at)
    if isinstance(e, ex._COEFF_FORMS):
        value = ex.poly_eval(ex.poly_coeffs(e), a)
        return value if get_mode() == RATIONAL else float(value)
    rc = ex.rational_coeffs(e)
    if rc is None:
        return None
    num, den = rc
    while ex.poly_eval(den, a) == 0 and ex.poly_eval(num, a) == 0:
        if den == [Fraction(0)] or num == [Fraction(0)]:
            break
        num, _ = ex._poly_divmod(num, [-a, Fraction(1)])
        den, _ = ex._poly_divmod(den, [-a, Fraction(1)])
    dval = ex.poly_eval(den, a)
    if dval == 0:
        return None
    value = ex.poly_eval(num, a) / dval
    return value if get_mode() == RATIONAL else float(value)


def one_sided_envelope(
    e: ex.Expr,
    lo: Optional[Scalar],
    hi: Optional[Scalar],
    side: str,
) -> Optional[EndEnvelope]:
    """Envelope of ``e`` approaching an end of the piece (lo, hi) from inside.

    ``side`` is "+" for the left end ``lo`` and "-" for the right end ``hi``.
    An exact limit gives an evaluated envelope; otherwise geometric sampling,
    stepping at most half the piece's length into it, gives an estimated
    one.  Returns None at an infinite end, at a pole, and where no sample
    can be evaluated.
    """
    at = lo if side == "+" else hi
    if at is None:
        return None
    limit = rational_limit_at(e, at)
    if limit is not None:
        return EndEnvelope(limit, limit, EVALUATED)
    if ex.rational_coeffs(e) is not None:
        return None  # genuine pole at the end
    value_at = ex.evaluator(e)
    try:
        value = value_at(at)
        return EndEnvelope(value, value, EVALUATED)
    except ExprEvalError:
        pass
    samples = _approach_samples(value_at, at, side, _reach(lo, hi))
    if not samples:
        return None
    return EndEnvelope(min(samples), max(samples), ESTIMATED)


_APPROACH_STEPS = 48  # halvings of the step towards the end


def _approach_samples(value_at: Callable[[Scalar], Scalar], at: Scalar, side: str, reach: Scalar):
    sign = -1 if side == "-" else 1
    base = min(to_scalar(1), reach / 2)
    out = []
    step = base
    for _ in range(_APPROACH_STEPS):
        step = step / 2
        try:
            out.append(value_at(at + sign * step))
        except ExprEvalError:
            continue
    skip = _APPROACH_STEPS // 3
    return out[skip:] if len(out) > skip else out


def _declared_env(data, at: Optional[Scalar]) -> Optional[EndEnvelope]:
    if data is None:
        return None
    if at is None:
        raise EnvelopeError("envelope declared at an infinite end of a piece")
    liminf, limsup, *provenance = data
    return EndEnvelope(to_scalar(liminf), to_scalar(limsup), *provenance or [DECLARED])


def make_piece(
    lo: Optional[Scalar],
    hi: Optional[Scalar],
    lower: ex.Expr,
    upper: Optional[ex.Expr] = None,
    declared_left=None,
    declared_right=None,
    declared_upper=None,
) -> Piece:
    """Build a piece, canonicalizing expressions and filling envelopes.

    ``declared_left``/``declared_right`` are optional (liminf, limsup)
    pairs, or (liminf, limsup, provenance) triples for data that keeps
    another provenance (estimated envelopes read back from a file).  They
    override the computed envelopes of both bounds, which is exact for
    real-valued pieces and a sound enclosure otherwise, unless
    ``declared_upper`` gives the upper bound's own (left, right) data; a
    None there leaves that end of the upper bound computed.  A piece whose
    bounds are equal holds one `Bound` record as both, so ``declared_upper``
    raises EnvelopeError there.  An infinite end takes no envelope, so data
    declared at one raises EnvelopeError too.
    """
    def bound(e: ex.Expr, left_declared, right_declared) -> Bound:
        return Bound(
            e,
            left_declared or one_sided_envelope(e, lo, hi, "+"),
            right_declared or one_sided_envelope(e, lo, hi, "-"),
        )

    declared = (_declared_env(declared_left, lo), _declared_env(declared_right, hi))
    lower_b = bound(ex.canonical(lower), *declared)
    upper_c = lower_b.expr if upper is None else ex.canonical(upper)
    if upper_c == lower_b.expr:
        if declared_upper is not None:
            raise EnvelopeError("upper envelopes declared for a piece whose bounds are equal")
        return Piece(lo, hi, lower_b, lower_b)
    if declared_upper is not None:
        declared = (_declared_env(declared_upper[0], lo), _declared_env(declared_upper[1], hi))
    return Piece(lo, hi, lower_b, bound(upper_c, *declared))


def _reach(lo: Optional[Scalar], hi: Optional[Scalar]) -> Scalar:
    if lo is None or hi is None:
        return to_scalar(2 * _INF_WINDOW)
    return hi - lo


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


def hfunction(
    domain: Domain,
    points: Sequence[Tuple[Scalar, Interval]],
    pieces: Sequence[Piece],
    validate: bool = True,
) -> HFunction:
    f = HFunction(
        domain,
        tuple(SpecialPoint(x, v) for x, v in points),
        tuple(pieces),
    )
    if validate:
        validate_function(f)
    return f


_PIECE_SAMPLES = 64  # samples per piece of a sampled check


def validate_function(f: HFunction) -> None:
    """Representation checks: no rational denominator vanishes inside a
    piece, lower <= upper pointwise (`nonnegative_on`), pieces evaluable and
    finite, interior envelopes present.  Evaluability is sampled in float
    mode, and in rational mode on transcendental pieces only: a rational
    piece whose denominators keep clear of 0 is finite everywhere."""
    for i, piece in enumerate(f.pieces):
        for bound in piece.bounds:
            for den in ex.div_denominators(bound.expr):
                rational = ex.rational_coeffs(den)
                if rational is not None and (
                    rational[0] == [0]
                    or ex.count_poly_roots_inside(rational[0], piece.lo, piece.hi)
                ):
                    raise PieceError(
                        f"division by zero: denominator {ex.to_text(den)} vanishes "
                        f"inside {format_span(piece.lo, piece.hi)}"
                    )
        if get_mode() == FLOAT or piece.kind == "transcendental":
            for x in _span_samples(piece.lo, piece.hi, _PIECE_SAMPLES, tag=("validate", i)):
                try:
                    piece.bound_values(x)
                except ExprEvalError as exc:
                    raise PieceError(
                        f"piece on {format_span(piece.lo, piece.hi)} not evaluable at "
                        f"{format_scalar(x)}: {exc}"
                    ) from exc
        if not piece.is_real and not nonnegative_on(
            ex.Sub(piece.upper.expr, piece.lower.expr), piece.lo, piece.hi,
            ("validate", i), comparison_slack(),
        ):
            raise PieceError(
                f"lower bound above upper bound on piece {format_span(piece.lo, piece.hi)}"
            )
        left_interior = i > 0
        right_interior = i < len(f.pieces) - 1
        for bound in piece.bounds:
            if (left_interior and bound.left is None) or (right_interior and bound.right is None):
                raise EnvelopeError("missing envelope at an interior special point")


def nonnegative_on(e: ex.Expr, lo: Optional[Scalar], hi: Optional[Scalar], tag, slack) -> bool:
    """e >= -slack on (lo, hi): exact for a rational e, as the sign of
    (num + slack*den)*den; at seeded samples drawn under ``tag`` for a
    transcendental e, which only float mode evaluates."""
    rational = ex.rational_coeffs(ex.Add(e, ex.const(slack)))
    if rational is not None:
        return ex.poly_nonnegative(ex._pmul(*rational), lo, hi)
    value = ex.evaluator(e)
    return all(value(x) >= -slack for x in _span_samples(lo, hi, _PIECE_SAMPLES, tag=tag))


def _span_samples(
    lo: Optional[Scalar], hi: Optional[Scalar], count: int, tag
) -> List[Scalar]:
    """Deterministic pseudo-random points strictly inside (lo, hi)."""
    a, b = _finite_window(lo, hi)
    rng = random.Random(f"{get_seed()}|{tag!r}")
    if get_mode() == RATIONAL:
        return [a + (b - a) * Fraction(rng.getrandbits(30) + 1, 2**30 + 2) for _ in range(count)]
    # int / int is the correctly rounded quotient, the same float that
    # float(Fraction(r + 1, 2**30 + 2)) gives, without a Fraction per sample
    start, width = float(a), float(b - a)
    return [start + width * ((rng.getrandbits(30) + 1) / (2**30 + 2)) for _ in range(count)]


def _finite_window(lo: Optional[Scalar], hi: Optional[Scalar]) -> Tuple[Scalar, Scalar]:
    w = to_scalar(_INF_WINDOW)
    if lo is None and hi is None:
        return -w, w
    if lo is None:
        return hi - 2 * w, hi
    if hi is None:
        return lo, lo + 2 * w
    return lo, hi


def constant_function(domain: Domain, value) -> HFunction:
    if not isinstance(value, Interval):
        value = Interval.point(value)
    piece = make_piece(domain.lo, domain.hi, ex.const(value.lo), ex.const(value.hi))
    return hfunction(domain, [], [piece], validate=False)


# ---------------------------------------------------------------------------
# Refinement and alignment
# ---------------------------------------------------------------------------


def refine(f: HFunction, xs: Iterable[Scalar]) -> HFunction:
    """Split the pieces of f at every x that is not yet a special point,
    storing the evaluated point value and envelopes there.  Takes any xs:
    they are coerced and sorted, then `_inserted` checks them and finds the
    pieces they split."""
    new = _inserted(f, sorted(to_scalar(x) for x in xs))
    return _built(f, *_refinement(f, new)) if new else f


def _inserted(f: HFunction, xs: Sequence[Scalar]) -> List[Tuple[int, Scalar]]:
    """(index of the piece x lies in, x) for each of the sorted scalars xs
    that refining f inserts, found by one merge walk over xs and the points
    of f.  An x that `scalar_eq` matches to a point (the one
    `HFunction.point_index` finds) or to the x inserted just before it is
    skipped: in float mode a point within the tolerance of a point of f is
    shared."""
    if xs and not (f.domain.contains(xs[0]) and f.domain.contains(xs[-1])):
        x = next(x for x in xs if not f.domain.contains(x))
        domain = format_span(f.domain.lo, f.domain.hi)
        raise DomainError(f"{format_scalar(x)} outside domain {domain}")
    known, i, tol = f.breakpoints, 0, comparison_slack()
    new: List[Tuple[int, Scalar]] = []
    for x in xs:
        while i < len(known) and (known[i] - x < -tol if tol else known[i] < x):
            i += 1
        if not (i < len(known) and scalar_eq(known[i], x) or new and scalar_eq(new[-1][1], x)):
            new.append((i, x))
    return new


# The (lower, upper) values of a piece at a point inserted into it; None at
# a special point of the function itself.
Cut = Optional[Tuple[Scalar, Scalar]]


def _refinement(f: HFunction, new: Sequence[Tuple[int, Scalar]]):
    """f refined at the insertions ``new`` (`_inserted`), unbuilt: its points
    as (x, value, cut) and its spans as (lo, hi, original covering piece).
    An inserted x takes the hull of its cut as its value."""
    points: List[Tuple[Scalar, Interval, Cut]] = []
    spans: List[Tuple[Optional[Scalar], Optional[Scalar], Piece]] = []
    j = 0
    for i, piece in enumerate(f.pieces):
        lo = piece.lo
        while j < len(new) and new[j][0] == i:
            x = new[j][1]
            j += 1
            cut = v_lo, v_hi = piece.bound_values(x)
            points.append((x, Interval(v_lo, v_lo) if v_hi is v_lo else iv.hull(v_lo, v_hi), cut))
            spans.append((lo, x, piece))
            lo = x
        spans.append((lo, piece.hi, piece))
        if i < len(f.points):
            point = f.points[i]
            points.append((point.x, point.value, None))
    return points, spans


def _built(f: HFunction, points, spans) -> HFunction:
    """A refinement of f (`_refinement`) as a function: an uncut piece is
    kept, a cut one holds the records `_cut_bounds` gives."""
    pieces = tuple(
        piece if bounds[0] is piece.lower else Piece(lo, hi, *bounds)
        for lo, hi, piece, bounds in _cut_spans(points, spans)
    )
    return HFunction(f.domain, tuple(SpecialPoint(x, v) for x, v, _ in points), pieces)


def _cut_spans(points, spans):
    """The spans of a refinement (`_refinement`) as (lo, hi, piece, its
    (lower, upper) records cut at the span's ends by `_cut_bounds`)."""
    edge = [None, *(cut for _, _, cut in points), None]
    for (lo, hi, piece), left, right in zip(spans, edge, edge[1:]):
        yield lo, hi, piece, _cut_bounds(piece, left, right)


def _cut_bounds(piece: Piece, left: Cut, right: Cut) -> Tuple[Bound, Bound]:
    """The piece's (lower, upper) records over a span whose ends are cut at
    ``left``/``right`` (None at the piece's own ends): at a cut end each
    record takes the evaluated envelope of its value there.  A real piece
    cut at either end holds one record as both; an uncut piece gives its own
    records."""
    if left is None and right is None:
        return piece.lower, piece.upper
    lower = _cut(piece.lower, left, right, 0)
    return lower, lower if piece.is_real else _cut(piece.upper, left, right, 1)


def _cut(bound: Bound, left: Cut, right: Cut, k: int) -> Bound:
    return Bound(
        bound.expr,
        bound.left if left is None else EndEnvelope(left[k], left[k], EVALUATED),
        bound.right if right is None else EndEnvelope(right[k], right[k], EVALUATED),
    )


def _merged(f: HFunction, g: HFunction):
    """The refinements (`_refinement`) of f and g, each at the other's
    points.  When the float tolerance would merge two neighbouring points of
    one function into one point of the other, they differ and
    RepresentationError is raised; in rational mode both hold the union."""
    if not domain_eq(f.domain, g.domain):
        raise EngineError("operands must share a domain")
    fr = _refinement(f, _inserted(f, g.breakpoints))
    gr = _refinement(g, _inserted(g, f.breakpoints))
    if get_mode() == RATIONAL:
        return fr, gr
    xs, ys = [x for x, _, _ in fr[0]], [y for y, _, _ in gr[0]]
    if len(xs) == len(ys) and all(map(scalar_eq, xs, ys)):
        return fr, gr
    for a, b in ((xs, ys), (ys, xs)):
        for p, q in zip(a, a[1:]):
            if any(scalar_eq(p, r) and scalar_eq(q, r) for r in b):
                raise RepresentationError(
                    f"tolerance {get_tolerance()} merges the breakpoints {p!r} and "
                    f"{q!r} into one point; the operands cannot be aligned"
                )
    raise RepresentationError(
        f"tolerance {get_tolerance()} aligns the operands to different breakpoints"
    )


class Walk(NamedTuple):
    """Two functions f and g over the union of their special points
    (`walk`): ``points`` as (x, value in f, value in g), ``spans`` as (lo,
    hi, f's covering piece, g's covering piece)."""

    points: List[Tuple[Scalar, Interval, Interval]]
    spans: List[Tuple[Optional[Scalar], Optional[Scalar], Piece, Piece]]


def walk(f: HFunction, g: HFunction) -> Walk:
    """f and g over the union of their special points, read without building
    a refined function.  The merge (`_merged`) pairs the points and the
    spans between them.  A value of one operand is evaluated only at the
    other's points; each span names the operands' original covering pieces,
    and its ends and the points are f's.  In float mode the tolerance rules
    and errors are `align`'s."""
    (f_points, f_spans), (g_points, g_spans) = _merged(f, g)
    return Walk(
        [(x, u, v) for (x, u, _), (_, v, _) in zip(f_points, g_points)],
        [(lo, hi, a, b) for (lo, hi, a), (_, _, b) in zip(f_spans, g_spans)],
    )


def _cut_walk(f: HFunction, g: HFunction):
    """`walk` with the records the pointwise operations combine: its points,
    and each span as (lo, hi, f's piece, f's records, g's piece, g's
    records), the records cut at the span's ends (`_cut_spans`) as `align`
    cuts them."""
    (f_points, f_spans), (g_points, g_spans) = _merged(f, g)
    points = [(x, u, v) for (x, u, _), (_, v, _) in zip(f_points, g_points)]
    spans = [
        (lo, hi, a, a_bounds, b, b_bounds)
        for (lo, hi, a, a_bounds), (_, _, b, b_bounds)
        in zip(_cut_spans(f_points, f_spans), _cut_spans(g_points, g_spans))
    ]
    return points, spans


def align(f: HFunction, g: HFunction) -> Tuple[HFunction, HFunction]:
    """Refine both functions to the union of their special points: the
    merge of `walk`, built.  In float mode a point within the tolerance of a
    point of the other function is not inserted.  When the tolerance would
    merge two neighbouring points of one function into one point of the
    other, the refinements differ and RepresentationError is raised; in
    rational mode both hold the union.  The ring operations read `walk`
    instead.
    """
    (f_points, f_spans), (g_points, g_spans) = _merged(f, g)
    return (
        _built(f, f_points, f_spans) if len(f_points) > len(f.points) else f,
        _built(g, g_points, g_spans) if len(g_points) > len(g.points) else g,
    )


# ---------------------------------------------------------------------------
# Pointwise operations
# ---------------------------------------------------------------------------


def _combine_env(
    a: Optional[EndEnvelope], b: Optional[EndEnvelope], op
) -> Optional[EndEnvelope]:
    """Envelope calculus for ``op`` (`operator.add` or `operator.mul`):
    point limits combine as scalars; a point limit shifts the other envelope
    exactly; anything else falls back to the conservative interval
    operation on the envelope boxes."""
    if a is None or b is None:
        return None
    rank = max(_PROV_RANK[a.provenance], _PROV_RANK[b.provenance])
    if a.is_point and b.is_point:
        # the box would be a point; two point estimates rank as estimated,
        # so the table alone gives the provenance
        v = check_finite(op(a.liminf, b.liminf))
        return EndEnvelope(v, v, _PROV_BY_RANK[rank])
    box = _BOX_OPS[op](Interval(a.liminf, a.limsup), Interval(b.liminf, b.limsup))
    provenance = _PROV_BY_RANK[rank] if a.is_exact_limit or b.is_exact_limit else ESTIMATED
    return EndEnvelope(box.lo, box.hi, provenance)


_BOX_OPS = {operator.add: iv.add, operator.mul: iv.mul}


def pointwise_add(f: HFunction, g: HFunction) -> HFunction:
    """Pointwise interval sum; generally S-continuous but not H-continuous.
    Read off `_cut_walk`: each result bound combines the operands' original
    records, cut at a foreign point as `align` would cut them."""
    points, spans = _cut_walk(f, g)
    pieces = []
    for lo, hi, a, (al, au), b, (bl, bu) in spans:
        lower = _combine(al, bl, operator.add, ex.add(al.expr, bl.expr))
        upper = lower
        if not (a.is_real and b.is_real):
            upper = _combine(au, bu, operator.add, ex.add(au.expr, bu.expr))
        pieces.append(Piece(lo, hi, lower, upper))
    points = tuple(SpecialPoint(x, iv.add(u, v)) for x, u, v in points)
    return HFunction(f.domain, points, tuple(pieces))


def _combine(a: Bound, b: Bound, op, expr: ex.Expr) -> Bound:
    """The bound ``op(a, b)`` whose expression is ``expr``."""
    return Bound(expr, _combine_env(a.left, b.left, op), _combine_env(a.right, b.right, op))


def pointwise_neg(f: HFunction) -> HFunction:
    points = [SpecialPoint(p.x, iv.neg(p.value)) for p in f.points]
    pieces = []
    for p in f.pieces:
        lower = _negate(p.upper)
        pieces.append(Piece(p.lo, p.hi, lower, lower if p.is_real else _negate(p.lower)))
    return HFunction(f.domain, tuple(points), tuple(pieces))


def _negate(bound: Bound) -> Bound:
    return Bound(ex.negate(bound.expr), _negate_env(bound.left), _negate_env(bound.right))


def _negate_env(e: Optional[EndEnvelope]) -> Optional[EndEnvelope]:
    if e is None:
        return None
    return EndEnvelope(-e.limsup, -e.liminf, e.provenance)


def pointwise_mul(f: HFunction, g: HFunction) -> HFunction:
    """Pointwise interval product.

    Real-valued pieces multiply symbolically.  For proper interval pieces
    the product bounds are min/max of the four bound products; the engine
    picks the product that stays lowest (highest) across the piece by
    `nonnegative_on`, exactly for rational bounds, and raises
    RepresentationError, naming the piece, when no single product wins
    across it: min/max shapes are outside the expression grammar.  Read
    off `_cut_walk`, as `pointwise_add` is.
    """
    points, spans = _cut_walk(f, g)
    pieces = []
    for lo, hi, a, a_bounds, b, b_bounds in spans:
        if a.is_real and b.is_real:
            p, q = a_bounds[0], b_bounds[0]
            prod = _combine(p, q, operator.mul, ex.mul(p.expr, q.expr))
            pieces.append(Piece(lo, hi, prod, prod))
        else:
            pieces.append(_mul_proper_pieces(lo, hi, a_bounds, b_bounds))
    points = tuple(SpecialPoint(x, iv.mul(u, v)) for x, u, v in points)
    return HFunction(f.domain, points, tuple(pieces))


def _mul_proper_pieces(
    lo: Optional[Scalar], hi: Optional[Scalar], a: Tuple[Bound, Bound], b: Tuple[Bound, Bound]
) -> Piece:
    """The product piece on (lo, hi) of the factors' (lower, upper) records."""
    factors = [(p, q) for p in a for q in b]
    products = [ex.mul(p.expr, q.expr) for p, q in factors]
    tag = ("mulpick", str(lo), str(hi))

    def lowest(candidates: List[ex.Expr]) -> Optional[int]:
        for k, low in enumerate(candidates):
            if all(other is low or nonnegative_on(ex.Sub(other, low), lo, hi, tag, 0)
                   for other in candidates):
                return k
        return None

    low_idx = lowest(products)
    high_idx = lowest([ex.Neg(c) for c in products])
    if low_idx is None or high_idx is None:
        raise RepresentationError(
            f"product bounds change shape inside the proper interval piece "
            f"{format_span(lo, hi)}; insert a breakpoint where the winning product changes"
        )

    lower, upper = (_combine(*factors[k], operator.mul, products[k]) for k in (low_idx, high_idx))
    return Piece(lo, hi, lower, lower if upper.expr == lower.expr else upper)


# ---------------------------------------------------------------------------
# Completion values, continuity predicates
# ---------------------------------------------------------------------------


def side_envelopes(f: HFunction, i: int) -> Tuple[EndEnvelope, EndEnvelope, EndEnvelope, EndEnvelope]:
    """(lower-left, lower-right, upper-left, upper-right) data at point i,
    where left means the envelope of the piece left of the point."""
    left = f.pieces[i]
    right = f.pieces[i + 1]
    slots = (left.lower.right, right.lower.left, left.upper.right, right.upper.left)
    if any(s is None for s in slots):
        raise EnvelopeError("missing envelope at an interior special point")
    return slots  # type: ignore[return-value]


def completion_bounds(f: HFunction, i: int, with_point: bool) -> Tuple[Scalar, Scalar]:
    """(min of the lower data, max of the upper data) at special point i:
    the abutting envelopes, and the point value itself when ``with_point``.
    `completion_at`, `punctured_completion_at` and the envelope operators
    (`baire.lower_baire`, `baire.upper_baire`) read their breakpoint values
    from here; `baire.fis` and `baire.fsi` read `side_envelopes` directly."""
    ll, lr, ul, ur = side_envelopes(f, i)
    lo = min(ll.liminf, lr.liminf)
    hi = max(ul.limsup, ur.limsup)
    if with_point:
        value = f.points[i].value
        lo, hi = min(lo, value.lo), max(hi, value.hi)
    return lo, hi


def punctured_completion_at(f: HFunction, i: int) -> Interval:
    """Graph-completion value at special point i computed from the abutting
    envelopes only (the point itself excluded from the dense set)."""
    lo, hi = completion_bounds(f, i, False)
    if lo > hi:
        raise EnvelopeError(
            f"completion inverted at {format_scalar(f.points[i].x)}: declared envelopes "
            "inconsistent"
        )
    return Interval(lo, hi)


def completion_at(f: HFunction, i: int) -> Interval:
    """Graph-completion value at special point i with the point included."""
    return Interval(*completion_bounds(f, i, True))


def is_S_continuous(f: HFunction) -> bool:
    """Fixed point of graph completion: every special-point value already
    equals its completion (pieces are continuous by representation)."""
    for i in range(len(f.points)):
        if not iv.interval_eq(completion_at(f, i), f.points[i].value):
            return False
    return True


def is_H_continuous(f: HFunction) -> bool:
    """Hausdorff continuity on this representation: pieces are point-valued
    and each special-point value equals its punctured completion.  Decided
    once per function, mode and tolerance."""
    key = (get_mode(), get_tolerance())
    verdict = f._h_continuous.get(key)
    if verdict is None:
        verdict = f._h_continuous[key] = _decide_h_continuous(f)
    return verdict


def _decide_h_continuous(f: HFunction) -> bool:
    if not all(p.is_real for p in f.pieces):
        return False
    for i in range(len(f.points)):
        try:
            target = punctured_completion_at(f, i)
        except EnvelopeError:
            return False
        if not iv.interval_eq(target, f.points[i].value):
            return False
    return True


@dataclass(frozen=True)
class Support:
    """Locations where the function takes proper interval values."""

    points: Tuple[Scalar, ...]
    pieces: Tuple[Tuple[Optional[Scalar], Optional[Scalar]], ...]

    @property
    def is_empty(self) -> bool:
        return not self.points and not self.pieces


def interval_support(f: HFunction) -> Support:
    pts = tuple(p.x for p in f.points if iv.width(p.value) > 0)
    spans = tuple((p.lo, p.hi) for p in f.pieces if not p.is_real)
    return Support(pts, spans)


def common_point_domain(fs: Iterable[HFunction]) -> DenseSubsetSpec:
    """Domain minus every location where some operand has positive width;
    cofinite (hence dense) because proper values sit at special points."""
    excluded: List[Scalar] = []
    for f in fs:
        support = interval_support(f)
        if support.pieces:
            raise RepresentationError(
                "an operand takes proper interval values on a whole piece; "
                "its point-valued locus is not cofinite"
            )
        excluded.extend(support.points)
    return DenseSubsetSpec.excluding(*excluded)


# ---------------------------------------------------------------------------
# Envelope declaration and validation
# ---------------------------------------------------------------------------


def declare_envelope(f: HFunction, x, liminf, limsup) -> HFunction:
    """Override the envelopes of both bounds on both sides of breakpoint x
    with one declared envelope."""
    x = to_scalar(x)
    idx = f.point_index(x)
    if idx is None:
        raise DomainError(f"{format_scalar(x)} is not a special point")
    env = EndEnvelope(to_scalar(liminf), to_scalar(limsup), DECLARED)
    pieces = list(f.pieces)
    pieces[idx] = _map_bounds(pieces[idx], lambda b: b._replace(right=env))
    pieces[idx + 1] = _map_bounds(pieces[idx + 1], lambda b: b._replace(left=env))
    return HFunction(f.domain, f.points, tuple(pieces))


def _map_bounds(piece: Piece, change: Callable[[Bound], Bound]) -> Piece:
    """``piece`` with ``change`` applied to each bound record, once to a
    shared one."""
    lower = change(piece.lower)
    upper = lower if piece.lower is piece.upper else change(piece.upper)
    return Piece(piece.lo, piece.hi, lower, upper)


@dataclass(frozen=True)
class EnvelopeCheck:
    x: Scalar
    side: str
    provenance: str
    passed: bool
    observed_min: Optional[Scalar]
    observed_max: Optional[Scalar]
    message: str


_ENVELOPE_SAMPLES_PER_DECADE = 64
_ENVELOPE_DECADES = 9
_ENVELOPE_APPROACH_TOL = 1e-3


def validate_envelopes(f: HFunction) -> List[EnvelopeCheck]:
    """Sample each declared/estimated envelope on a geometric sequence
    approaching its end, always a finite one (`Bound`):
    ``_ENVELOPE_SAMPLES_PER_DECADE`` points per decade over
    ``_ENVELOPE_DECADES`` decades.

    Flags values escaping [liminf - eps, limsup + eps] (soundness; eps is
    the tolerance in float mode, 0 in rational mode) and an observed range
    that fails to come within ``_ENVELOPE_APPROACH_TOL`` of the declared
    bounds (sharpness; necessarily a weaker, sampling-limited check).
    Report-only.
    """
    eps = comparison_slack()
    checks: List[EnvelopeCheck] = []
    for piece in f.pieces:
        for at, side in ((piece.lo, "+"), (piece.hi, "-")):
            for bound in piece.bounds:
                env = bound.left if side == "+" else bound.right
                if env is not None and env.provenance != EVALUATED:
                    checks.append(_check_envelope(bound.expr, at, side, env, piece, eps))
    return checks


def _check_envelope(bound, at, side, env, piece, eps) -> EnvelopeCheck:
    label = "left" if side == "+" else "right"
    reach = _reach(piece.lo, piece.hi)
    base = min(to_scalar(1), reach / 2)
    sign = to_scalar(1) if side == "+" else to_scalar(-1)
    ratio = 10 ** (-1.0 / _ENVELOPE_SAMPLES_PER_DECADE)
    value_at = ex.evaluator(bound)
    # a float offset is already a finite float scalar; rational mode reads
    # it with decimal semantics
    rational = get_mode() == RATIONAL
    observed: List[Scalar] = []
    offset = float(base)
    total = _ENVELOPE_SAMPLES_PER_DECADE * _ENVELOPE_DECADES
    for _ in range(total):
        offset *= ratio
        x = at + sign * (to_scalar(offset) if rational else offset)
        try:
            observed.append(value_at(x))
        except ExprEvalError:
            continue
    if not observed:
        return EnvelopeCheck(at, label, env.provenance, False, None, None,
                             "no evaluable samples near the end")
    lo, hi = min(observed), max(observed)
    if lo < env.liminf - eps or hi > env.limsup + eps:
        return EnvelopeCheck(
            at, label, env.provenance, False, lo, hi,
            "observed values escape the declared envelope",
        )
    scale = max(1.0, abs(float(env.liminf)), abs(float(env.limsup)))
    slack = _ENVELOPE_APPROACH_TOL * scale
    if float(env.limsup) - float(hi) > slack or float(lo) - float(env.liminf) > slack:
        return EnvelopeCheck(
            at, label, env.provenance, False, lo, hi,
            "observed range does not approach the declared envelope",
        )
    return EnvelopeCheck(at, label, env.provenance, True, lo, hi, "ok")


# ---------------------------------------------------------------------------
# Normalization and equality
# ---------------------------------------------------------------------------


def normalize(f: HFunction) -> HFunction:
    """Canonical form: prune width-0 special points whose value matches the
    evaluated limits on both sides and whose neighbouring pieces merge.

    Whether a point is pruned depends only on its value and the facing ends
    of its two pieces.  A merge keeps the outer ends of the pieces it joins
    and an expression equal to both, so it changes no other point's test,
    and one left-to-right pass reaches the fixpoint.
    """
    points: List[SpecialPoint] = []
    pieces = [f.pieces[0]]
    for point, right in zip(f.points, f.pieces[1:]):
        left = pieces[-1]
        if _removable(point, left, right):
            lower = left.lower._replace(right=right.lower.right)
            upper = lower if left.is_real else left.upper._replace(right=right.upper.right)
            pieces[-1] = Piece(left.lo, right.hi, lower, upper)
        else:
            points.append(point)
            pieces.append(right)
    if len(points) == len(f.points):
        return f
    return HFunction(f.domain, tuple(points), tuple(pieces))


def _removable(point: SpecialPoint, left: Piece, right: Piece) -> bool:
    if not point.value.is_point:
        return False
    v = point.value.lo
    envs = (left.lower.right, left.upper.right, right.lower.left, right.upper.left)
    if any(e is None or not e.is_exact_limit or e.provenance != EVALUATED
           or not scalar_eq(e.liminf, v) for e in envs):
        return False
    if not ex.exact_equal(left.lower.expr, right.lower.expr):
        return False
    return _shares_records(left, right) or ex.exact_equal(left.upper.expr, right.upper.expr)


def _shares_records(a: Piece, b: Piece) -> bool:
    """Both pieces hold one record as both bounds, so the upper expressions
    compare as the lower ones did."""
    return a.lower is a.upper and b.lower is b.upper


def piece_expr_equal(a: ex.Expr, b: ex.Expr, lo, hi, tag="eq") -> bool:
    """Decidable piece equality: exact (canonical/cross-multiplied) when
    possible, seeded sampling within tolerance in float mode."""
    if ex.exact_equal(a, b):
        return True
    if get_mode() == RATIONAL:
        return False
    tol = get_tolerance()
    value_a, value_b = ex.evaluator(a), ex.evaluator(b)
    for x in _span_samples(lo, hi, 128, tag=(tag, str(lo), str(hi))):
        try:
            va = value_a(x)
            vb = value_b(x)
        except ExprEvalError:
            return False
        if abs(va - vb) > tol:
            return False
    return True


def func_equal(f: HFunction, g: HFunction) -> bool:
    """Equality of normalized representations."""
    f, g = normalize(f), normalize(g)
    if not domain_eq(f.domain, g.domain):
        return False
    if len(f.points) != len(g.points):
        return False
    for p, q in zip(f.points, g.points):
        if not scalar_eq(p.x, q.x) or not iv.interval_eq(p.value, q.value):
            return False
    for a, b in zip(f.pieces, g.pieces):
        if not piece_expr_equal(a.lower.expr, b.lower.expr, a.lo, a.hi):
            return False
        if not _shares_records(a, b) and not piece_expr_equal(
            a.upper.expr, b.upper.expr, a.lo, a.hi
        ):
            return False
    return True


def func_sample_points(f: HFunction, count: int, tag="samples") -> List[Scalar]:
    """Deterministic sample points spread over the pieces of f."""
    per = max(1, count // max(1, len(f.pieces)))
    out: List[Scalar] = []
    for i, piece in enumerate(f.pieces):
        out.extend(_span_samples(piece.lo, piece.hi, per, tag=(tag, i)))
    return out[:count] if len(out) >= count else out
