"""Partial order (`func_leq`, decided exactly on rational pieces), order
convergence, and the order-limit construction of the ring operations.

Approximating sequences are realized by slope-n inf-convolution from
below: continuous piecewise-linear functions, increasing in n, that
regularize the lower bound.  For a piecewise-linear operand a forward and
a backward pass over the knots (special points and finite domain ends)
give the inf-convolution there, as in the 1-D distance transform of
Felzenszwalb and Huttenlocher; on each piece it is the lower envelope of
at most three lines.

A sequence is a plain callable n -> HFunction, n >= 1.  The def3 route
assumes no monotonicity and compares its limit with the completion route
instead.

Order limits are taken by *structure stabilization*: elements at depths
N, 2N, 4N and 8N are compared pairwise, each pair read in one merge of
its breakpoints (`piecewise.walk`) that builds neither; regions where
the representation has stopped changing supply the limit's pieces, while
the shrinking disagreement zones are extrapolated to their collapse
points (zone bounds of regularized piecewise-linear functions move along
p + c/(n-k) trajectories, whose limit three doubling samples determine
exactly) and the limit's values there are recovered by graph completion.
The elements and the limit's pieces are real-valued, so `baire.fis`
completes the limit of an increasing and of a decreasing sequence alike:
on such a function `fis` and `fsi` agree.  For inf-convolution sequences
of piecewise-linear functions the whole procedure is exact in rational
mode and takes no samples.  The reported residual is the width of the
widest disagreement zone between the two deepest elements (0 when they
agree everywhere); for inf-convolution sequences it shrinks like c/n.
Sequences whose piece expressions keep drifting (instead of their
breakpoints) stabilize only up to the float-mode tolerance and raise
ConvergenceError in rational mode.

`max_deviation`, the distance the def3 route reports from the completion
route, and `func_leq` read the two functions by `piecewise.walk` as well:
its points with both values, then each span with both covering pieces and
their cut records, of which the scan and these two read the pieces only.
Like the scan and `func_equal`, both compare each span's
`piecewise.bound_pairs`, so a span of two real pieces is measured once.
`max_deviation` is an exact supremum on every span where the bound
difference is constant, or a polynomial of degree <= 2 on a bounded span
(every span of a def3 operation on a bounded domain); it samples only the
other spans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from . import algebra, baire
from . import expr as ex
from . import interval as iv
from . import piecewise as pw
from .errors import (
    ConvergenceError,
    EngineError,
    NotHausdorffContinuous,
    NotPiecewiseLinear,
)
from .interval import Interval
from .piecewise import HFunction
from .scalars import (
    Scalar,
    comparison_slack,
    format_span,
    get_mode,
    get_tolerance,
    scalar_eq,
    to_scalar,
)


# ---------------------------------------------------------------------------
# Pointwise partial order
# ---------------------------------------------------------------------------


def func_leq(f: HFunction, g: HFunction) -> bool:
    """f <= g in the pointwise interval order: the special point values
    compare as intervals, and on every span of `piecewise.walk` each bound
    difference g - f of its `piecewise.bound_pairs` is
    >= -``comparison_slack()`` by `piecewise.nonnegative_on`, exactly where
    both bounds are rational.
    """
    points, spans = pw.walk(f, g)
    if not all(iv.leq(u, v) for _, u, v in points):
        return False
    return all(
        pw.nonnegative_on(ex.Sub(q.expr, p.expr), lo, hi, ("leq", str(lo), str(hi)),
                          comparison_slack())
        for lo, hi, a, _, b, _ in spans for p, q in pw.bound_pairs(a, b)
    )


# ---------------------------------------------------------------------------
# Function sequences: callables n -> HFunction, n >= 1
# ---------------------------------------------------------------------------


def mixture(
    seq_a: Callable[[int], HFunction], seq_b: Callable[[int], HFunction]
) -> Callable[[int], HFunction]:
    """Interleave two sequences: elements a1, b1, a2, b2, ...  Used by the
    well-definedness check: mixtures of sequences with a common limit keep
    that limit."""
    return lambda n: seq_a((n + 1) // 2) if n % 2 else seq_b(n // 2)


# ---------------------------------------------------------------------------
# Inf-convolution approximants (exact for piecewise-linear operands)
# ---------------------------------------------------------------------------


def infconv_approx(f: HFunction, n: int) -> HFunction:
    """Slope-n regularization from below: the n-Lipschitz inf-convolution of
    the lower bound.  Its reflection ``-infconv_approx(-f, n)`` regularizes
    the upper bound from above.

    Continuous piecewise-linear, monotone in n, converging to the bound off
    the special points.  Requires a piecewise-linear H-continuous operand.
    On each piece the result is the lowest of the cone rising from the left
    knot, the piece's own line and the cone falling to the right knot; the
    line is left out where a cone lies below it (slope >= n with a finite
    left end, or <= -n with a finite right end).
    """
    if not f.is_piecewise_linear:
        raise NotPiecewiseLinear("inf-convolution needs piecewise-linear operands")
    if not pw.is_H_continuous(f):
        raise NotHausdorffContinuous("inf-convolution operand must be H-continuous")
    slope = to_scalar(n)
    if not slope > 0:
        raise EngineError("regularization slope must be positive")
    lines = [ex.linear_coeffs(piece.lower.expr) for piece in f.pieces]
    # knot k lies between pieces k - 1 and k; knots 1 .. len(points) are the points
    ends = (f.domain.lo, *f.breakpoints, f.domain.hi)
    finite = [k for k, x in enumerate(ends) if x is not None]
    values: Dict[int, Scalar] = {}
    for k in finite:
        limits = [a * ends[k] + b for a, b in lines[max(k - 1, 0) : k + 1]]
        values[k] = min(limits + [p.value.lo for p in f.points[max(k - 1, 0) : k]])
    gaps = list(zip(finite, finite[1:]))
    rises = [slope * (ends[k] - ends[i]) for i, k in gaps]  # a cone's rise over each gap
    for (i, k), rise in zip(gaps, rises):
        values[k] = min(values[k], values[i] + rise)
    for (k, i), rise in zip(reversed(gaps), reversed(rises)):
        values[k] = min(values[k], values[i] + rise)
    points, pieces = [], []
    for j, (a, b) in enumerate(lines):
        u, w = ends[j], ends[j + 1]
        if (a > slope and u is None) or (a < -slope and w is None):
            raise EngineError(
                "piece slope exceeds the regularization slope on an "
                "unbounded piece; increase n"
            )
        cands = []  # (slope, intercept), slopes decreasing
        if u is not None:
            cands.append((slope, values[j] - slope * u))
        if (u is None or a < slope) and (w is None or a > -slope):
            cands.append((a, b))
        if w is not None:
            cands.append((-slope, values[j + 1] + slope * w))
        crossings = [_crossing(p, q) for p, q in zip(cands, cands[1:])]
        if len(crossings) == 2 and (not crossings[0] < crossings[1] or scalar_eq(*crossings)):
            del cands[1]  # the line never shows, or only within the tolerance
            crossings = [_crossing(*cands)]
        bounds = [u, *(_clip(x, u, w) for x in crossings), w]
        for (s, c), lo, hi in zip(cands, bounds, bounds[1:]):
            if lo is None or hi is None or lo < hi:
                if pieces:
                    v = s * lo + c
                    points.append((lo, Interval(v, v)))
                expr = ex.poly_expr([ex.exact(c), ex.exact(s)])
                pieces.append(pw.make_piece(lo, hi, expr))
    return pw.normalize(pw.hfunction(f.domain, points, pieces, validate=False))


def _crossing(p: Tuple[Scalar, Scalar], q: Tuple[Scalar, Scalar]) -> Scalar:
    """Abscissa where the lines (slope, intercept) p and q meet."""
    return (q[1] - p[1]) / (p[0] - q[0])


def _clip(x: Scalar, lo: Optional[Scalar], hi: Optional[Scalar]) -> Scalar:
    """x moved into [lo, hi]; float rounding can put a crossing outside or beside an end."""
    if lo is not None and (x < lo or scalar_eq(x, lo)):
        return lo
    if hi is not None and (hi < x or scalar_eq(x, hi)):
        return hi
    return x


# ---------------------------------------------------------------------------
# Order limits by structure stabilization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LimitResult:
    """The order limit and how it was found.  ``residual`` is the width of
    the widest zone where the elements at depths 4N and 8N still disagree:
    an exact scalar, 0 when they agree everywhere."""

    limit: HFunction
    residual: Scalar
    collapse_points: Tuple[Scalar, ...]


def _stability_zones(h_a: HFunction, h_b: HFunction):
    """Maximal spans where the two representations disagree.

    One pass over the spans and points of `piecewise.walk`, in domain
    order: a zone opens at the first disagreeing element and closes at the
    last one before an element that agrees.  Two pieces agree when each of
    their `piecewise.bound_pairs` does, as in `func_equal`.
    """
    points, spans = pw.walk(h_a, h_b)
    zones: List[Tuple[Optional[Scalar], Optional[Scalar]]] = []
    agreed = True
    for i, (lo, hi, pa, _, pb, _) in enumerate(spans):
        same_piece = all(
            pw.piece_expr_equal(p.expr, q.expr, lo, hi, tag=(tag, i))
            for tag, (p, q) in zip(("stab-lo", "stab-hi"), pw.bound_pairs(pa, pb))
        )
        elements = [(lo, hi, same_piece)]  # (left, right, agrees)
        if i < len(points):
            x, u, v = points[i]
            elements.append((x, x, iv.interval_eq(u, v)))
        for left, right, agrees in elements:
            if not agrees:
                start = left if agreed else zones.pop()[0]
                zones.append((start, right))
            agreed = agrees
    return zones


def _mobius_limit(y1: Scalar, y2: Scalar, y4: Scalar) -> Optional[Scalar]:
    """Exact limit of a sequence of the form p + c/(n - k), sampled at
    three doubling indices.  Breakpoints of regularized piecewise-linear
    functions move along exactly such trajectories, which is what makes the
    stabilization exact in rational mode."""
    if scalar_eq(y2, y4):
        return y4
    denominator = 2 * y1 - 3 * y2 + y4
    if denominator == 0:
        return None
    return (3 * y1 * y4 - y1 * y2 - 2 * y2 * y4) / denominator


def _containing_zone(zones, lo: Scalar, hi: Scalar):
    for (l, r) in zones:
        left_ok = l is None or l <= lo
        right_ok = r is None or hi <= r
        if left_ok and right_ok:
            return (l, r)
    return None


def _collapse_points(scans, depth: int) -> List[Tuple[Scalar, Tuple[Scalar, Scalar]]]:
    """Extrapolate each disagreement zone of the deepest scan to its
    collapse point, using the zone bounds observed at three scan depths."""
    z1, z2, z3 = scans
    out = []
    for (l3, r3) in z3:
        if l3 is None or r3 is None:
            raise ConvergenceError(
                "disagreement zone touches an infinite end; expressions are "
                "drifting instead of breakpoints (exact stabilization fails)"
            )
        zone2 = _containing_zone(z2, l3, r3)
        zone1 = zone2 and _containing_zone(z1, zone2[0], zone2[1])
        if zone2 is None or zone1 is None or None in zone2 + zone1:
            raise ConvergenceError(
                f"zone {format_span(l3, r3)} has no matching shallower zones; "
                f"structure is not stabilizing at depth {depth}"
            )
        if not (zone1[0] <= zone2[0] <= l3 and r3 <= zone2[1] <= zone1[1]):
            raise ConvergenceError("disagreement zones are not nested")
        p_left = _mobius_limit(zone1[0], zone2[0], l3)
        p_right = _mobius_limit(zone1[1], zone2[1], r3)
        if p_left is None or p_right is None or not scalar_eq(p_left, p_right):
            raise ConvergenceError(
                f"zone {format_span(l3, r3)} is not collapsing to a point at depth {depth}"
            )
        eps = comparison_slack()
        if not (l3 - eps <= p_left <= r3 + eps):
            raise ConvergenceError("extrapolated collapse point escapes its zone")
        out.append((min(max(p_left, l3), r3), (l3, r3)))
    # two zones flanking one stable breakpoint may collapse onto the same
    # point (a shrinking dip); merge them instead of rejecting
    merged: List[Tuple[Scalar, Tuple[Scalar, Scalar]]] = []
    for p, span in out:
        if merged and scalar_eq(merged[-1][0], p):
            prev_p, prev_span = merged[-1]
            merged[-1] = (prev_p, (min(prev_span[0], span[0]), max(prev_span[1], span[1])))
        else:
            merged.append((p, span))
    for (p1, _), (p2, _) in zip(merged, merged[1:]):
        if not p1 < p2:
            raise ConvergenceError("collapse points are not separated")
    return merged


def order_limit_stabilized(seq: Callable[[int], HFunction], depth: int) -> LimitResult:
    """Order limit of the sequence ``seq`` (a callable n -> HFunction) via
    structure stabilization plus graph completion.

    Asks ``seq`` once for each of the depths N, 2N, 4N and 8N.  Monotonicity
    is not used.  The completion is `baire.fis`: the elements, and so the
    limit's pieces, are real-valued, and on such a function `fis` and
    `fsi` both give the hull of the one-sided limits at each point, so an
    increasing and a decreasing sequence need the same completion.
    """
    e2 = seq(2 * depth)
    e4 = seq(4 * depth)
    e8 = seq(8 * depth)
    scans = (
        _stability_zones(seq(depth), e2),
        _stability_zones(e2, e4),
        _stability_zones(e4, e8),
    )
    if not scans[2]:
        return LimitResult(baire.fis(e8), to_scalar(0), ())
    if not scans[0] or not scans[1]:
        raise ConvergenceError("sequence oscillates: disagreement reappears at depth")
    collapses = _collapse_points(scans, depth)
    collapse_xs = [p for p, _ in collapses]
    spans = [span for _, span in collapses]
    kept = [
        point
        for point in e8.points
        if not any(l <= point.x <= r for (l, r) in spans)
        and not any(scalar_eq(point.x, p) for p in collapse_xs)
    ]
    break_list = sorted(
        [(p.x, p.value, False) for p in kept] + [(x, None, True) for x in collapse_xs],
        key=lambda t: t[0],
    )
    bounds: List[Optional[Scalar]] = (
        [e8.domain.lo] + [x for (x, _, _) in break_list] + [e8.domain.hi]
    )
    pieces = []
    for u, w in zip(bounds, bounds[1:]):
        probe = _stable_probe(u, w, spans)
        source = e8.piece_at(probe)
        pieces.append(pw.make_piece(u, w, source.lower.expr, source.upper.expr))
    points = []
    for i, (x, value, is_collapse) in enumerate(break_list):
        if not is_collapse:
            points.append((x, value))
            continue
        # placeholder: fis gives the same value for any point value inside
        # the hull of the abutting envelopes, and the left lower limit is one
        points.append((x, Interval.point(pieces[i].lower.right.liminf)))
    phi = pw.hfunction(e8.domain, points, pieces, validate=False)
    residual = max(r - l for l, r in scans[2])
    return LimitResult(baire.fis(phi), residual, tuple(collapse_xs))


def _stable_probe(u: Optional[Scalar], w: Optional[Scalar], spans) -> Scalar:
    core_lo, core_hi = u, w
    for (l, r) in spans:
        if core_lo is not None and l <= core_lo <= r:
            core_lo = r
        if core_hi is not None and l <= core_hi <= r:
            core_hi = l
    if core_lo is not None and core_hi is not None and not core_lo < core_hi:
        raise ConvergenceError(
            "disagreement zones cover a whole region; no stable evidence"
        )
    a, b = pw._finite_window(core_lo, core_hi)
    return a + (b - a) / 2


def order_limit_monotone(seq: Callable[[int], HFunction], depth: int = 64) -> LimitResult:
    """`order_limit_stabilized` of an increasing sequence ``seq`` (a callable
    n -> HFunction), after checking that element ``depth`` lies below
    element ``2 * depth``; raises EngineError when it does not."""
    if not func_leq(seq(depth), seq(2 * depth)):
        raise EngineError("sequence is not increasing at the working depth")
    return order_limit_stabilized(seq, depth)


# ---------------------------------------------------------------------------
# Ring operations via order limits
# ---------------------------------------------------------------------------


def _regularizing_offset(f: HFunction) -> int:
    worst = 0
    for piece in f.pieces:
        if piece.lo is None or piece.hi is None:
            slope, _ = ex.linear_coeffs(piece.lower.expr)
            worst = max(worst, int(math.floor(abs(slope))) + (0 if slope == 0 else 1))
    return worst


def from_below_sequence(f: HFunction) -> Callable[[int], HFunction]:
    """The increasing sequence n -> `infconv_approx(f, n + offset)`, n >= 1,
    as a callable; the offset clears the slopes of unbounded pieces.
    Element n is memoized on f by (mode, tolerance, n) for as long as f
    lives, so every def3 sum and product of f builds it once."""
    offset = _regularizing_offset(f)
    memo = f._approximants

    def element(n: int) -> HFunction:
        if n < 1:
            raise EngineError("sequence indices start at 1")
        key = (get_mode(), get_tolerance(), n)
        approximant = memo.get(key)
        if approximant is None:
            approximant = memo[key] = infconv_approx(f, n + offset)
        return approximant

    return element


def def3_from_sequences(
    seq_f: Callable[[int], HFunction],
    seq_g: Callable[[int], HFunction],
    op: str,
    depth: int,
) -> LimitResult:
    """Order limit of n -> f_n op g_n for user-supplied approximating
    sequences (callables n -> HFunction): the pointwise operation on the
    elements, stabilized and completed by `order_limit_stabilized`, which
    asks for each element once.  No monotonicity is assumed or checked;
    `_def3` compares the limit with the completion route instead."""
    if op not in ("plus", "times"):
        raise EngineError(f"unknown op {op!r}")
    combine = pw.pointwise_add if op == "plus" else pw.pointwise_mul
    return order_limit_stabilized(lambda n: combine(seq_f(n), seq_g(n)), depth)


def _def3(f: HFunction, g: HFunction, op: str, depth: int) -> algebra.OpReport:
    if not (f.is_piecewise_linear and g.is_piecewise_linear):
        raise NotPiecewiseLinear(
            "order-limit operations are defined on the piecewise-linear subclass"
        )
    if not (pw.is_H_continuous(f) and pw.is_H_continuous(g)):
        raise NotHausdorffContinuous("operands must be Hausdorff continuous")
    result = def3_from_sequences(from_below_sequence(f), from_below_sequence(g), op, depth)
    reference = (
        algebra.oplus_def1(f, g) if op == "plus" else algebra.otimes_def1(f, g)
    )
    deviation = max_deviation(result.limit, reference.result)
    return algebra.OpReport(
        result=result.limit,
        pointwise=reference.pointwise,
        definition="def3",
        witnesses={"def1": reference.result},
        max_deviation=deviation,
    )


def oplus_def3(f: HFunction, g: HFunction, depth: int = 4096) -> algebra.OpReport:
    """Ring sum as the order limit of sums of increasing continuous
    approximants."""
    return _def3(f, g, "plus", depth)


def otimes_def3(f: HFunction, g: HFunction, depth: int = 4096) -> algebra.OpReport:
    """Ring product as the completed pointwise limit of products of the
    approximants (numerical check; no monotonicity is assumed)."""
    return _def3(f, g, "times", depth)


def max_deviation(f: HFunction, g: HFunction) -> Scalar:
    """Supremum over the domain of the endpointwise distance between f and g.

    Both are read over the union of their special points by
    `piecewise.walk`; the values there are compared directly.  On each span
    between them each of the `piecewise.bound_pairs` contributes the
    sup of |difference|: 0 for identical expressions, |c| for a constant
    difference c, and for a polynomial difference of degree <= 2 on a
    bounded piece the largest |difference| at the two ends (one-sided
    limits) and at a vertex strictly inside.  Every other piece (degree >= 3,
    non-polynomial, or a non-constant difference on an unbounded piece)
    falls back to deterministic samples, 1000 spread over the pieces.
    """
    points, spans = pw.walk(f, g)
    worst = to_scalar(0)
    for _, u, v in points:
        worst = max(worst, iv.distance(u, v))
    per_piece = max(1, 1000 // len(spans))
    for i, (lo, hi, a, _, b, _) in enumerate(spans):
        for bound, (p, q) in zip(("lower", "upper"), pw.bound_pairs(a, b)):
            if p.expr != q.expr:
                d = _bound_deviation(p.expr, q.expr, lo, hi, per_piece, ("dev", i, bound))
                worst = max(worst, d)
    return worst


def _bound_deviation(ea, eb, lo, hi, samples: int, tag) -> Scalar:
    ca, cb = ex.poly_coeffs(ea), ex.poly_coeffs(eb)
    if ca is not None and cb is not None:
        d = ex._padd(ca, [-c for c in cb])
        if len(d) == 1:
            return to_scalar(abs(d[0]))
        if len(d) <= 3 and lo is not None and hi is not None:
            xs = [lo, hi]
            if len(d) == 3:
                vertex = -d[1] / (2 * d[2])
                if lo < vertex < hi:
                    xs.append(vertex)
            return to_scalar(max(abs(ex.poly_eval(d, x)) for x in xs))
    value_a, value_b = ex.evaluator(ea), ex.evaluator(eb)
    return max(abs(value_a(x) - value_b(x)) for x in pw._span_samples(lo, hi, samples, tag))
