import math
import sys
from itertools import combinations

import numpy as np
import pytest

from dinet.approximation import greedy_general, optimal_general
from dinet.bounds import (
    AlphaEstimate,
    bound_witness_alpha,
    coefficient_table,
    degree_gap_coefficient,
    empirical_alpha,
    geometric_budget_maximum,
    greedy_bound_coefficient,
    network_empirical_alpha,
)
from dinet.errors import ValidationError
from dinet.estimation import ZERO_GAIN_EPS, DIEvaluator, LinearNetworkModel, build_cache
from dinet.simulate import generate_ar_network

from _oracles import lp_budget_maximum, sample_budget_feasible

ALPHA_GRID = (0.5, 1.0, 1.3, 1.7, 2.5, 4.0)


def geometric_sum(alpha, k):
    return float(k) if alpha == 1.0 else (alpha**k - 1.0) / (alpha - 1.0)


def max_ratio(increments):
    # same conventions as the library: a gain within ZERO_GAIN_EPS eps
    # nats of zero is 0, 0/0 -> 1, x/0 -> inf for x > 0
    floor = ZERO_GAIN_EPS * sys.float_info.epsilon
    increments = [0.0 if abs(g) <= floor else g for g in increments]
    out = []
    for prev, nxt in zip(increments, increments[1:]):
        if prev == 0.0:
            out.append(1.0 if nxt == 0.0 else math.inf)
        else:
            out.append(nxt / prev)
    return max(out)


def gains_by_depth_evaluator(m, gains):
    # increment depends only on how many picks precede it
    def fn(target, add, cond):
        return gains[len(cond)]

    return DIEvaluator(fn, m)


def random_stable_model(rng, m, radius=0.85):
    c = rng.standard_normal((m, m))
    rho = float(np.max(np.abs(np.linalg.eigvals(c))))
    if rho > 0:
        c *= radius / rho
    return LinearNetworkModel(c, rng.uniform(0.2, 1.5, size=m))


def test_greedy_bound_closed_forms():
    for k in range(1, 9):
        got = greedy_bound_coefficient(1.0, k, k)
        assert abs(got - 0.6321) < 1e-4
        assert got == 1.0 - math.exp(-1.0)
    assert abs(greedy_bound_coefficient(2.0, 2, 2) - (1.0 - math.exp(-2.0 / 3.0))) < 1e-12
    for alpha in ALPHA_GRID:
        for k in (1, 3, 5):
            for length in (1, 2, 7):
                want = 1.0 - math.exp(-length / geometric_sum(alpha, k))
                assert abs(greedy_bound_coefficient(alpha, k, length) - want) < 1e-12
    # long greedy runs push the guarantee to 1
    assert abs(greedy_bound_coefficient(1.0, 3, 10_000) - 1.0) < 1e-12
    # an unbounded measured alpha asserts nothing
    assert greedy_bound_coefficient(math.inf, 3, 2) == 0.0


def test_greedy_bound_validation():
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValidationError):
            greedy_bound_coefficient(bad, 2, 2)
    for bad_k, bad_l in ((0, 1), (1, 0), (-2, 1), (1, -2)):
        with pytest.raises(ValidationError):
            greedy_bound_coefficient(1.0, bad_k, bad_l)
    with pytest.raises(ValidationError):
        greedy_bound_coefficient(1.0, 2.0, 2)
    with pytest.raises(ValidationError):
        greedy_bound_coefficient(1.0, True, 1)


def test_degree_gap_closed_forms():
    for alpha in (0.5, 1.0, 2.0, 9.0):
        for k in (1, 2, 5):
            assert degree_gap_coefficient(alpha, k, k) == 1.0
    assert abs(degree_gap_coefficient(2.0, 4, 2) - 0.2) < 1e-12
    assert degree_gap_coefficient(1.0, 4, 2) == 0.5
    # continuity across the removable singularity at alpha == 1
    assert abs(degree_gap_coefficient(1.0 + 1e-9, 4, 2) - 0.5) < 1e-6
    assert degree_gap_coefficient(math.inf, 3, 3) == 1.0
    assert degree_gap_coefficient(math.inf, 3, 2) == 0.0
    with pytest.raises(ValidationError):
        degree_gap_coefficient(2.0, 2, 3)
    with pytest.raises(ValidationError):
        degree_gap_coefficient(0.0, 2, 2)
    with pytest.raises(ValidationError):
        degree_gap_coefficient(math.nan, 2, 2)


def test_coefficient_monotonicity_grids():
    alphas = ALPHA_GRID
    # greedy guarantee: strictly better with more picks, worse with curvature or K
    for alpha in alphas:
        for k in range(1, 7):
            row = [greedy_bound_coefficient(alpha, k, length) for length in range(1, 7)]
            assert all(a < b for a, b in zip(row, row[1:]))
            assert all(0.0 < v < 1.0 for v in row)
    for k in range(1, 7):
        for length in range(1, 7):
            col = [greedy_bound_coefficient(a, k, length) for a in alphas]
            assert all(a >= b for a, b in zip(col, col[1:]))
            if k >= 2:
                assert all(a > b for a, b in zip(col, col[1:]))
    for alpha in alphas:
        for length in range(1, 7):
            col = [greedy_bound_coefficient(alpha, k, length) for k in range(length, 7)]
            assert all(a > b for a, b in zip(col, col[1:]))
    # degree gap: more retained degrees keep more of the score
    for alpha in alphas:
        for k in range(2, 7):
            row = [degree_gap_coefficient(alpha, k, length) for length in range(1, k + 1)]
            assert all(a < b for a, b in zip(row, row[1:]))
            assert all(0.0 < v <= 1.0 for v in row)
            assert row[-1] == 1.0


def test_coefficient_table_rows():
    alphas = (1.3, 1.7, 2.5)
    rows = coefficient_table("greedy", alphas, 4, 2)
    assert rows == [(a, 4, 2, greedy_bound_coefficient(a, 4, 2)) for a in alphas]
    rows = coefficient_table("degree-gap", alphas, 4, 2)
    assert rows == [(a, 4, 2, degree_gap_coefficient(a, 4, 2)) for a in alphas]
    with pytest.raises(ValidationError):
        coefficient_table("optimal", alphas, 4, 2)


def test_budget_maximum_examples():
    assert abs(geometric_budget_maximum(2.0, 4, 2, 3.0) - 15.0) < 1e-12
    # L == K pins the whole chain inside the budget
    assert geometric_budget_maximum(1.5, 3, 3, 2.5) == 2.5
    for bad in (1.0, 0.5, 0.0, -2.0, math.inf, math.nan):
        with pytest.raises(ValidationError):
            geometric_budget_maximum(bad, 4, 2, 3.0)
    with pytest.raises(ValidationError):
        geometric_budget_maximum(2.0, 2, 3, 1.0)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValidationError):
            geometric_budget_maximum(2.0, 4, 2, bad)


def test_budget_maximum_matches_lp():
    rng = np.random.default_rng(20260816)
    for _ in range(100):
        alpha = float(rng.uniform(1.0 + 1e-6, 3.0))
        k = int(rng.integers(2, 7))
        length = int(rng.integers(1, k + 1))
        budget = float(rng.uniform(0.5, 5.0))
        got = geometric_budget_maximum(alpha, k, length, budget)
        want = lp_budget_maximum(alpha, k, length, budget)
        assert math.isclose(got, want, rel_tol=1e-6, abs_tol=1e-6)


def test_budget_maximum_dominates_feasible_points():
    rng = np.random.default_rng(7)
    for alpha, k, length, budget in ((1.3, 5, 2, 1.0), (2.0, 4, 1, 3.0), (2.5, 6, 6, 0.7)):
        top = geometric_budget_maximum(alpha, k, length, budget)
        for _ in range(200):
            assert sample_budget_feasible(alpha, k, length, budget, rng) <= top + 1e-9


def test_alpha_ratio_conventions():
    # plain decaying gains: alpha is the largest consecutive ratio, below 1
    ev = gains_by_depth_evaluator(4, (0.4, 0.2, 0.1))
    est = empirical_alpha(ev, 4, (1, 2, 3))
    assert est.alpha == 0.5
    assert not est.unbounded
    assert est.witness_target == 4
    assert est.witness_path == (1, 2, 3)
    assert est.witness_increments == (0.4, 0.2, 0.1)
    # zero after zero reads as ratio 1
    ev = gains_by_depth_evaluator(4, (0.3, 0.0, 0.0))
    est = empirical_alpha(ev, 4, (1, 2, 3))
    assert est.alpha == 1.0
    assert not est.unbounded
    # a positive gain after a zero gain is unbounded, flagged not thrown
    ev = gains_by_depth_evaluator(3, (0.0, 0.5))
    est = empirical_alpha(ev, 3, (1, 2))
    assert est.unbounded
    assert math.isinf(est.alpha)
    assert greedy_bound_coefficient(est.alpha, 2, 2) == 0.0
    assert AlphaEstimate(math.inf, 1, (2,), (0.0, 0.5)).unbounded


def test_gains_within_the_floor_read_as_zero():
    floor = ZERO_GAIN_EPS * sys.float_info.epsilon
    # two noise gains: 0/0 reads as 1, not as their ratio of 1000
    ev = gains_by_depth_evaluator(4, (0.3, 1e-20, 1e-17))
    est = empirical_alpha(ev, 4, (1, 2, 3))
    assert est.alpha == 1.0
    assert est.floored == 2
    assert est.witness_increments == (0.3, 1e-20, 1e-17)
    # the floor is inclusive, symmetric about zero, and counts no exact zero
    ev = gains_by_depth_evaluator(4, (0.3, -floor, 0.0))
    assert empirical_alpha(ev, 4, (1, 2, 3)).floored == 1
    # a gain just above the floor is a gain: after a zero it is unbounded
    ev = gains_by_depth_evaluator(3, (floor, math.nextafter(floor, 1.0)))
    est = empirical_alpha(ev, 3, (1, 2))
    assert est.unbounded
    assert est.floored == 1
    # nothing floored, nothing counted
    est = empirical_alpha(gains_by_depth_evaluator(4, (0.4, 0.2, 0.1)), 4, (1, 2, 3))
    assert est.floored == 0


def test_guarantee_demo_trial_6_gets_a_finite_alpha():
    # demos/guarantee_tables.py trial 6: target 3's witness chain is two
    # noise gains, 7.06e-38 and 7.04e-35, whose ratio read 998.14
    m, K = 6, 2
    exact = DIEvaluator.from_model(generate_ar_network(m, seed=106))
    optimal = optimal_general(build_cache(exact, m, K), K)
    greedy = greedy_general(exact, K)
    est = bound_witness_alpha(exact, optimal.assignment, greedy.orders)
    assert math.isfinite(est.alpha) and est.alpha < 10
    assert est.floored > 0
    assert greedy_bound_coefficient(est.alpha, K, K) <= greedy.score / optimal.score


def test_floored_witness_coefficient_never_exceeds_the_realized_ratio():
    # exact models with missing parents, where the chains past a node's
    # true parents hold rounding noise of exact zeros
    floored = 0
    for m, K in ((6, 2), (8, 2), (8, 3)):
        for s in range(60):
            model = generate_ar_network(m, np.random.default_rng([s, m, K, 5]))
            exact = DIEvaluator.from_model(model)
            optimal = optimal_general(build_cache(exact, m, K), K)
            greedy = greedy_general(exact, K)
            est = bound_witness_alpha(exact, optimal.assignment, greedy.orders)
            assert not est.unbounded
            coefficient = greedy_bound_coefficient(est.alpha, K, K)
            assert coefficient <= greedy.score / optimal.score
            floored += est.floored > 0
    # the floor is exercised, not bypassed
    assert floored >= 50


def test_empirical_alpha_validation():
    ev = gains_by_depth_evaluator(4, (0.4, 0.2, 0.1))
    with pytest.raises(ValidationError):
        empirical_alpha(ev, 4, ())
    with pytest.raises(ValidationError):
        empirical_alpha(ev, 4, (1,))
    with pytest.raises(ValidationError):
        empirical_alpha(ev, 4, (1, 1))
    with pytest.raises(ValidationError):
        empirical_alpha(ev, 4, (1, 4))
    with pytest.raises(ValidationError):
        empirical_alpha(ev, 4, (0, 2))
    with pytest.raises(ValidationError):
        empirical_alpha(ev, 4, (2, 5))
    with pytest.raises(ValidationError):
        empirical_alpha(ev, 5, (1, 2))


def test_two_driver_alpha_anchor():
    # unit-weight drivers 1, 2 -> 3: second greedy gain beats the first
    c = np.zeros((3, 3))
    c[0, 2] = 1.0
    c[1, 2] = 1.0
    model = LinearNetworkModel(c, np.ones(3))
    ev = DIEvaluator.from_model(model)
    est = empirical_alpha(ev, 3, (1, 2))
    assert abs(est.alpha - 1.7095112913514543) < 1e-12
    assert abs(est.alpha - math.log(2.0) / math.log(1.5)) < 1e-12
    assert est.witness_target == 3
    assert est.witness_path == (1, 2)
    assert abs(est.witness_increments[0] - 0.5 * math.log(1.5)) < 1e-12
    assert abs(est.witness_increments[1] - 0.5 * math.log(2.0)) < 1e-12
    # deterministic: a fresh evaluator reproduces the estimate exactly
    again = empirical_alpha(DIEvaluator.from_model(model), 3, (1, 2))
    assert again == est


def test_network_alpha_is_max_over_targets():
    rng = np.random.default_rng(11)
    for _ in range(10):
        m = int(rng.integers(3, 6))
        model = random_stable_model(rng, m)
        ev = DIEvaluator.from_model(model)
        per_target = [
            empirical_alpha(ev, t, tuple(j for j in range(1, m + 1) if j != t))
            for t in range(1, m + 1)
        ]
        net = network_empirical_alpha(ev)
        assert net.alpha == max(e.alpha for e in per_target)
        assert net.witness_increments == per_target[net.witness_target - 1].witness_increments
    with pytest.raises(ValidationError):
        network_empirical_alpha(gains_by_depth_evaluator(2, (0.4, 0.2)))


def test_witness_attains_and_bounds_its_chain():
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(20):
        model = random_stable_model(rng, int(rng.integers(3, 6)))
        ev = DIEvaluator.from_model(model)
        est = network_empirical_alpha(ev)
        if len(est.witness_increments) < 2 or est.unbounded:
            continue
        checked += 1
        assert est.alpha == max_ratio(est.witness_increments)
        for prev, nxt in zip(est.witness_increments, est.witness_increments[1:]):
            assert nxt <= est.alpha * prev + 1e-15
    assert checked >= 10


def test_bound_witness_validation_and_fallback():
    ev = gains_by_depth_evaluator(3, (0.4, 0.2))
    good = optimal_general(build_cache(ev, 3, 1), 1)
    with pytest.raises(ValidationError):
        bound_witness_alpha(ev, good.assignment, ((2,), (1,)))
    wrong_m = optimal_general(build_cache(gains_by_depth_evaluator(4, (0.4, 0.2)), 4, 1), 1)
    with pytest.raises(ValidationError):
        bound_witness_alpha(ev, wrong_m.assignment, ((2,), (1,), (1,)))
    # singleton optimal sets never yield a ratio; the estimate asserts nothing
    est = bound_witness_alpha(ev, good.assignment, ((2,), (1,), (1,)))
    assert est == AlphaEstimate(1.0, 0, (), ())


@pytest.mark.parametrize("last", [99, 1, "repeat", True], ids=str)
def test_bound_witness_rejects_malformed_greedy_orders(last):
    # every pick is checked, also the last one, which no chain prefix holds
    ev = DIEvaluator.from_model(generate_ar_network(4, np.random.default_rng(3)))
    optimal = optimal_general(build_cache(ev, 4, 2), 2).assignment
    orders = [list(order) for order in greedy_general(ev, 2).orders]
    assert bound_witness_alpha(ev, optimal, orders).alpha > 0
    orders[0][-1] = orders[0][0] if last == "repeat" else last
    with pytest.raises(ValidationError, match="target 1: greedy order"):
        bound_witness_alpha(ev, optimal, orders)


def test_greedy_guarantee_never_violated():
    # the guarantee must hold on every trial when alpha is measured on the
    # same chains the proof telescopes over
    rng = np.random.default_rng(20260815)
    trials = 0
    nontrivial = 0
    while trials < 120:
        m = int(rng.integers(3, 7))
        big = int(rng.integers(1, 3))
        small = int(rng.integers(1, big + 1))
        model = random_stable_model(rng, m)
        ev = DIEvaluator.from_model(model)
        optimal = optimal_general(build_cache(ev, m, big), big)
        greedy = greedy_general(ev, small)
        est = bound_witness_alpha(ev, optimal.assignment, greedy.orders)
        assert est.alpha > 0.0
        coeff = greedy_bound_coefficient(est.alpha, big, small)
        assert greedy.score + 1e-9 >= coeff * optimal.score
        if coeff * optimal.score > 0.0:
            nontrivial += 1
        trials += 1
    assert nontrivial >= 100


def test_degree_gap_guarantee_never_violated():
    # the best smaller set keeps at least the guaranteed fraction when the
    # ratio is measured along the optimal set's own greedy ordering
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(40):
        m = int(rng.integers(4, 7))
        model = random_stable_model(rng, m)
        ev = DIEvaluator.from_model(model)
        big, small = 2, 1
        for i in range(1, m + 1):
            others = [j for j in range(1, m + 1) if j != i]
            best_big = max(ev.set_value(i, c) for c in combinations(others, big))
            best_small = max(ev.set_value(i, c) for c in combinations(others, small))
            opt_members = max(
                combinations(others, big), key=lambda c: ev.set_value(i, c)
            )
            est = empirical_alpha(ev, i, opt_members)
            if est.alpha <= 0.0:
                continue
            coeff = degree_gap_coefficient(est.alpha, big, small)
            assert best_small + 1e-9 >= coeff * best_big
            checked += 1
    assert checked >= 100
