"""Seeded random function suites for verification runs.

Piecewise-linear Hausdorff-continuous functions on a bounded open interval
with a few jumps at small-denominator rational abscissae (so that jump
locations collide across suite members, which is what makes the ring-axiom
checks bite), plus S-continuous relatives and inclusion pairs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Optional, Tuple

from . import expr as ex
from . import piecewise as pw
from .interval import Interval
from .piecewise import Domain, HFunction


def _rng(seed: int, salt: str = "") -> random.Random:
    return random.Random(f"{seed}|{salt}")


def random_h_continuous(
    rng: random.Random,
    domain: Domain = None,
    max_jumps: int = 4,
    abscissa_denominator: int = 8,
) -> HFunction:
    """Random piecewise-linear H-continuous function.

    Jump values are forced to the hull of the one-sided limits, which is
    exactly the Hausdorff-continuity condition at a jump.
    """
    if domain is None:
        domain = Domain.of(-1, 1)
    if domain.lo is None or domain.hi is None:
        raise ValueError("random suites need a bounded domain")
    lo = Fraction(str(float(domain.lo)))
    hi = Fraction(str(float(domain.hi)))
    k = rng.randint(0, max_jumps)
    slots = [
        Fraction(i, abscissa_denominator)
        for i in range(int(lo * abscissa_denominator) + 1, int(hi * abscissa_denominator))
    ]
    xs = [pw.to_scalar(x) for x in sorted(rng.sample(slots, min(k, len(slots))))]
    exprs = []
    for _ in range(len(xs) + 1):
        slope = Fraction(rng.randint(-3, 3))
        intercept = Fraction(rng.randint(-8, 8), rng.choice((1, 2, 4)))
        exprs.append(ex.poly_expr([intercept, slope]))
    bounds: List[Optional[Fraction]] = [domain.lo] + xs + [domain.hi]
    pieces = [
        pw.make_piece(u, w, e) for u, w, e in zip(bounds, bounds[1:], exprs)
    ]
    values_at = [ex.evaluator(e) for e in exprs]
    points = []
    for i, x in enumerate(xs):
        left = values_at[i](x)
        right = values_at[i + 1](x)
        points.append((x, Interval(min(left, right), max(left, right))))
    return pw.normalize(pw.hfunction(domain, points, pieces, validate=False))


def random_s_continuous(
    rng: random.Random,
    domain: Domain = None,
    max_jumps: int = 4,
    proper_piece_chance: float = 0.25,
) -> HFunction:
    """Random S-continuous function: an H-continuous core with some point
    values widened and, occasionally, a proper interval piece."""
    core = random_h_continuous(rng, domain, max_jumps)
    pieces = list(core.pieces)
    if pieces and rng.random() < proper_piece_chance:
        idx = rng.randrange(len(pieces))
        p = pieces[idx]
        pad_lo = Fraction(rng.randint(0, 4), 2)
        pad_hi = Fraction(rng.randint(0, 4), 2)
        if pad_lo or pad_hi:
            lower = ex.sub(p.lower.expr, ex.const(pad_lo))
            upper = ex.add(p.upper.expr, ex.const(pad_hi))
            pieces[idx] = pw.make_piece(p.lo, p.hi, lower, upper)
    f = pw.HFunction(core.domain, core.points, tuple(pieces))
    points = []
    for i, point in enumerate(f.points):
        base = pw.completion_at(f, i)
        stretch_lo = Fraction(rng.randint(0, 3), 2)
        stretch_hi = Fraction(rng.randint(0, 3), 2)
        points.append(
            pw.SpecialPoint(
                point.x, Interval(base.lo - stretch_lo, base.hi + stretch_hi)
            )
        )
    return pw.HFunction(f.domain, tuple(points), f.pieces)


def random_inclusion_pair(
    rng: random.Random, domain: Domain = None
) -> Tuple[HFunction, HFunction]:
    """(f, g) with f(x) contained in g(x) everywhere: g is S-continuous and
    f interpolates between its bounds with shrunken point values."""
    g = random_s_continuous(rng, domain)
    lam = Fraction(rng.randint(0, 8), 8)
    pieces = []
    for p in g.pieces:
        # lower + lam * (upper - lower), linear interpolation inside g
        low, high = p.lower.expr, p.upper.expr
        mix = ex.add(low, ex.mul(ex.const(lam), ex.sub(high, low)))
        pieces.append(pw.make_piece(p.lo, p.hi, mix))
    points = []
    for p in g.points:
        w = p.value.hi - p.value.lo
        a = p.value.lo + w * Fraction(rng.randint(0, 4), 8)
        b = p.value.hi - w * Fraction(rng.randint(0, 4), 8)
        points.append((p.x, Interval(min(a, b), max(a, b))))
    f = pw.hfunction(g.domain, points, pieces, validate=False)
    return f, g


def h_continuous_suite(
    seed: int,
    count: int,
    domain: Domain = None,
    max_jumps: int = 4,
    salt: str = "suite",
) -> List[HFunction]:
    rng = _rng(seed, salt)
    return [random_h_continuous(rng, domain, max_jumps) for _ in range(count)]


def s_continuous_suite(
    seed: int, count: int, domain: Domain = None, salt: str = "s-suite"
) -> List[HFunction]:
    rng = _rng(seed, salt)
    return [random_s_continuous(rng, domain) for _ in range(count)]
