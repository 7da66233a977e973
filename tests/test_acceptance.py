"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria 1, 3-8 run in
exact rational mode; criterion 2 runs in float mode with the 1e-9
comparison tolerance.  Every tolerance is pinned here.  The tests after
the criteria check the paper's claims route by route, without PASS lines.
"""

import math
import random
import statistics
import time
from fractions import Fraction

import pytest

from hfring import algebra, baire, order, suite
from hfring import expr as ex
from hfring import interval as iv
from hfring import piecewise as pw
from hfring.interval import Interval
from hfring.piecewise import DenseSubsetSpec, Domain

from conftest import make_oscillation_pair, make_step_pair

SEED = 8201


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number} [{name}]: {status}{suffix}")
    assert ok, f"criterion {number} {name}: {detail}"


def test_criterion_1_step_pair_reproduction():
    start = time.perf_counter()
    f, g = make_step_pair()
    zero = pw.constant_function(f.domain, 0)
    pointwise_ok = pw.pointwise_add(f, g).eval_at(0) == Interval.of(-1, 1)
    d1 = algebra.oplus_def1(f, g).result
    d2 = algebra.oplus_def2(f, g).result
    d3 = order.oplus_def3(f, g, depth=4096).result
    routes_ok = all(pw.func_equal(r, zero) for r in (d1, d2, d3))
    elapsed = time.perf_counter() - start
    report(
        1,
        "step pair: sum spike and zero ring sum",
        pointwise_ok and routes_ok and elapsed < 1.0,
        f"pointwise(0)=[-1,1]: {pointwise_ok}, all routes zero: {routes_ok}, "
        f"runtime {elapsed:.3f}s < 1s",
    )


def test_criterion_2_oscillation_reproduction(float_mode):
    f, g = make_oscillation_pair()
    root2 = math.sqrt(2.0)
    result = algebra.oplus_def1(f, g, declared={0.0: (-root2, root2)}).result
    at_zero = result.eval_at(0.0)
    zero_ok = abs(at_zero.lo + root2) <= 1e-9 and abs(at_zero.hi - root2) <= 1e-9

    # off the origin the ring sum is the combined wave; the identity is
    # sin(t) + cos(t) = sqrt(2)*sin(t + pi/4) = sqrt(2)*cos(t - pi/4)
    rng = random.Random(2024)
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform(1e-3, 10.0) * (1 if rng.random() < 0.5 else -1)
        expected = root2 * math.sin(1.0 / x + math.pi / 4.0)
        got = result.eval_at(x)
        worst = max(worst, abs(got.lo - expected), abs(got.hi - expected))
    wave_ok = worst <= 1e-9

    pointwise_at_zero = iv.add(f.eval_at(0.0), g.eval_at(0.0))
    box_ok = pointwise_at_zero == Interval.of(-2.0, 2.0)
    strict = iv.subset(at_zero, pointwise_at_zero) and (
        at_zero.lo > pointwise_at_zero.lo and at_zero.hi < pointwise_at_zero.hi
    )
    report(
        2,
        "oscillation pair: sqrt2 envelope and non-pointwise value",
        zero_ok and wave_ok and box_ok and strict,
        f"value at 0 within 1e-9: {zero_ok}, wave error {worst:.2e} <= 1e-9, "
        f"strict inclusion in [-2,2]: {strict}",
    )


@pytest.fixture(scope="module")
def ring_suite():
    return suite.h_continuous_suite(SEED, 200, Domain.of(-1, 1), max_jumps=4)


def test_criterion_3_ring_axioms_exact(ring_suite):
    start = time.perf_counter()
    result = algebra.verify_ring(ring_suite)
    elapsed = time.perf_counter() - start
    failures = [n for n, a in result.axioms.items() if not a.passed]
    report(
        3,
        "ring axioms exact on 200 random functions",
        result.all_passed and elapsed < 60.0,
        f"failures: {failures or 'none'}, runtime {elapsed:.1f}s < 60s",
    )


def test_criterion_4_definition_equivalence_1_2(ring_suite):
    bad = None
    for i, f in enumerate(ring_suite):
        g = ring_suite[(11 * i + 5) % len(ring_suite)]
        if not pw.func_equal(
            algebra.oplus_def1(f, g).result, algebra.oplus_def2(f, g).result
        ):
            bad = f"plus at pair {i}"
            break
        if not pw.func_equal(
            algebra.otimes_def1(f, g).result, algebra.otimes_def2(f, g).result
        ):
            bad = f"times at pair {i}"
            break
    report(
        4,
        "completion route equals extension route exactly",
        bad is None,
        bad or "200 pairs, both operations",
    )


def test_criterion_5_definition_equivalence_1_3(ring_suite):
    tol = Fraction(1, 1000)
    pairs = [(ring_suite[2 * i], ring_suite[2 * i + 1]) for i in range(50)]
    errors_4096 = []
    errors_8192 = []
    over_tol = 0
    for f, g in pairs:
        for op in (order.oplus_def3, order.otimes_def3):
            shallow = op(f, g, depth=4096).max_deviation
            deep = op(f, g, depth=8192).max_deviation
            errors_4096.append(Fraction(shallow))
            errors_8192.append(Fraction(deep))
            if shallow > tol:
                over_tol += 1
    med_4096 = statistics.median(errors_4096)
    med_8192 = statistics.median(errors_8192)
    halving_ok = med_8192 <= Fraction(3, 5) * med_4096
    report(
        5,
        "order-limit route matches completion route",
        over_tol == 0 and halving_ok,
        f"50 pairs, plus and times: max dev at depth 4096 "
        f"{float(max(errors_4096)):.2e} <= 1e-3, medians {float(med_4096):.2e} "
        f"-> {float(med_8192):.2e} (<= 0.6x)",
    )


def test_criterion_6_operator_theorems():
    s_functions = suite.s_continuous_suite(SEED, 200, Domain.of(-1, 1))
    h_ok = all(
        pw.is_H_continuous(baire.fis(f)) and pw.is_H_continuous(baire.fsi(f))
        for f in s_functions
    )

    rng = random.Random(SEED)
    sum_product_ok = True
    for _ in range(50):
        a = suite.random_s_continuous(rng, proper_piece_chance=0.0)
        b = suite.random_s_continuous(rng, proper_piece_chance=0.0)
        if not pw.is_S_continuous(pw.pointwise_add(a, b)):
            sum_product_ok = False
            break
        if not pw.is_S_continuous(pw.pointwise_mul(a, b)):
            sum_product_ok = False
            break

    # inclusion isotonicity in the functional argument: 10^4 pointwise checks
    checks = 0
    functional_ok = True
    pair_rng = random.Random(SEED + 1)
    while checks < 10_000 and functional_ok:
        inner, outer = suite.random_inclusion_pair(pair_rng)
        ci = baire.graph_completion(inner)
        co = baire.graph_completion(outer)
        xs = pw.func_sample_points(ci, 96, tag=("iso", checks))
        xs += [p.x for p in ci.points]
        for x in xs:
            if not iv.subset(ci.eval_at(x), co.eval_at(x)):
                functional_ok = False
                break
            checks += 1

    # isotonicity in the dense set: nested exclusions widen to the full set
    dense_ok = True
    f, g = make_step_pair()
    spike = pw.pointwise_add(f, g)
    nested = [
        DenseSubsetSpec.excluding(0, "1/2", "-1/4"),
        DenseSubsetSpec.excluding(0, "1/2"),
        DenseSubsetSpec.excluding(0),
        DenseSubsetSpec.whole(),
    ]
    completions = [baire.graph_completion(spike, spec) for spec in nested]
    probe_xs = [pw.to_scalar(v) for v in (0, "1/2", "-1/4", "1/8", 2)]
    for smaller, larger in zip(completions, completions[1:]):
        for x in probe_xs:
            if not iv.subset(smaller.eval_at(x), larger.eval_at(x)):
                dense_ok = False

    idempotent_ok = True
    for h in s_functions[:100]:
        once = baire.graph_completion(h)
        if not (pw.is_S_continuous(once)
                and pw.func_equal(baire.graph_completion(once), once)):
            idempotent_ok = False
            break

    report(
        6,
        "operator theorems: regularization, S-continuity, isotonicity, idempotence",
        h_ok and sum_product_ok and functional_ok and dense_ok and idempotent_ok,
        f"fis/fsi H-continuous on 200 inputs: {h_ok}, sums/products "
        f"S-continuous: {sum_product_ok}, {checks} inclusion checks: "
        f"{functional_ok}, nested dense sets: {dense_ok}, idempotent: {idempotent_ok}",
    )


def test_criterion_7_extension_theorem(ring_suite):
    rng = random.Random(SEED + 2)
    bad = None
    for i, f in enumerate(ring_suite):
        extra_count = rng.randint(0, 3)
        extras = [
            Fraction(rng.randint(-15, 15), 16) for _ in range(extra_count)
        ]
        spec = DenseSubsetSpec.excluding(*(list(f.breakpoints) + extras))
        if not pw.func_equal(algebra.extend(f, spec), f):
            bad = f"function {i} with exclusions {spec.excluded}"
            break
    report(
        7,
        "extension of a cofinite restriction is the identity",
        bad is None,
        bad or "200 functions, up to 3 extra deleted points each",
    )


def test_criterion_8_grid_convergence(ring_suite):
    margin = 2 * Fraction(1, 16)
    x0, width = Fraction(-7, 8), Fraction(7, 4)
    medians = []
    for k in range(20):
        f = ring_suite[2 * k]
        g = ring_suite[2 * k + 1]
        if k % 2 == 0:
            pointwise = pw.pointwise_add(f, g)
            exact = algebra.oplus_def1(f, g).result
        else:
            pointwise = pw.pointwise_mul(f, g)
            exact = algebra.otimes_def1(f, g).result
        jumps = {p.x for p in pointwise.points} | {p.x for p in exact.points}
        errors = []
        for power in range(4, 11):
            h = Fraction(1, 2**power)
            grid = baire.grid_fis(
                baire.grid_sample(pointwise, x0, h, int(width / h) + 1)
            )
            worst = Fraction(0)
            for i in range(1, len(grid.values) - 1):
                x = grid.x(i)
                if any(abs(x - j) <= margin for j in jumps):
                    continue
                worst = max(worst, iv.distance(grid.values[i], exact.eval_at(x)))
            errors.append(worst)
        ratios = [
            Fraction(b, 1) / a for a, b in zip(errors, errors[1:]) if a > 0
        ]
        if ratios:
            medians.append(statistics.median(ratios))
    overall = statistics.median(medians)
    ok = Fraction(2, 5) <= overall <= Fraction(13, 20) and len(medians) >= 15
    report(
        8,
        "grid engine error halves with the step",
        ok,
        f"median halving ratio {float(overall):.3f} in [0.4, 0.65] over "
        f"{len(medians)} expressions",
    )


# The paper's claims route by route: the ring axioms and the extension of
# the operations of C(Omega), under the extension and order-limit routes too.


def test_ring_axioms_under_the_extension_route(ring_suite):
    result = algebra.verify_ring(
        ring_suite[:60],
        add_op=lambda a, b: algebra.oplus_def2(a, b).result,
        mul_op=lambda a, b: algebra.otimes_def2(a, b).result,
    )
    assert result.all_passed, [n for n, a in result.axioms.items() if not a.passed]


def test_additive_axioms_under_the_order_limit_route(ring_suite):
    # products leave the piecewise-linear subclass, on which alone the route
    # is defined: of the product axioms only commutativity is checkable
    functions = ring_suite[:20]
    zero = pw.constant_function(functions[0].domain, 0)

    def add(a, b):
        return order.oplus_def3(a, b).result

    def mul(a, b):
        return order.otimes_def3(a, b).result

    n = len(functions)
    for i, f in enumerate(functions):
        g, h = functions[(7 * i + 1) % n], functions[(13 * i + 2) % n]
        fg = add(f, g)
        assert pw.func_equal(fg, add(g, f)), i
        assert pw.func_equal(add(fg, h), add(f, add(g, h))), i
        assert pw.func_equal(add(f, zero), pw.normalize(f)), i
        assert pw.func_equal(add(f, algebra.additive_inverse(f)), zero), i
        assert pw.func_equal(mul(f, g), mul(g, f)), i


def test_operations_extend_the_continuous_ones(ring_suite):
    # lines, and continuous functions with kinks: slope-3 approximants
    functions = suite.h_continuous_suite(SEED, 20, Domain.of(-1, 1), max_jumps=0)
    functions += [order.infconv_approx(f, 3) for f in ring_suite[:20]]
    one = pw.constant_function(functions[0].domain, 1)
    routes = [
        (algebra.oplus_def1, algebra.otimes_def1),
        (algebra.oplus_def2, algebra.otimes_def2),
        (order.oplus_def3, order.otimes_def3),
    ]
    for f, g in zip(functions, functions[1:]):
        for add, mul in routes:
            assert pw.func_equal(add(f, g).result, pw.pointwise_add(f, g))
            assert pw.func_equal(mul(f, g).result, pw.pointwise_mul(f, g))
            assert pw.func_equal(mul(f, one).result, pw.normalize(f))
