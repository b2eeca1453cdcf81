import math
from itertools import combinations

import numpy as np
import pytest
from scipy.linalg import solve_discrete_lyapunov

from dinet import estimation
from dinet.approximation import (
    greedy_connected,
    greedy_general,
    optimal_connected,
    optimal_general,
)
from dinet.errors import (
    EstimationError,
    NonStationaryModelError,
    PanelFormatError,
    ValidationError,
)
from dinet.estimation import (
    DIEvaluator,
    EstimatorConfig,
    LinearNetworkModel,
    TimeSeriesPanel,
    build_cache,
    estimate_di,
    exact_di_gaussian,
    read_panel_csv,
    stationary_covariance,
    write_panel_csv,
)
from dinet.simulate import generate_ar_network, simulate_panel
from dinet.topr import top_r_connected, top_r_general

from _oracles import lstsq_di, naive_discrete_di, unique_count_di

HALF_LOG_3_2 = 0.5 * math.log(1.5)
HALF_LOG_2 = 0.5 * math.log(2.0)
DISCRETE = EstimatorConfig(estimator="discrete")


def in_one_batch(ev, target, additions, conditioning=()):
    """Several additions under one conditioning set, asked in one kernel batch.

    The way :func:`build_cache` and the greedy searches ask: every value
    not yet memoized goes to the kernel at once.
    """
    cond = tuple(sorted(conditioning))
    return ev._fill([(target, tuple(sorted(add)), cond) for add in additions])


def two_drivers_model():
    # processes 1 and 2 independently drive 3 with unit weights and noise
    c = np.zeros((3, 3))
    c[0, 2] = 1.0
    c[1, 2] = 1.0
    return LinearNetworkModel(c, np.ones(3))


def random_stable_model(rng, m, radius=0.9):
    c = rng.standard_normal((m, m))
    rho = float(np.max(np.abs(np.linalg.eigvals(c))))
    if rho > 0:
        c *= radius / rho
    return LinearNetworkModel(c, rng.uniform(0.2, 1.5, size=m))


def test_panel_validation():
    with pytest.raises(ValidationError):
        TimeSeriesPanel(np.zeros(5))
    with pytest.raises(ValidationError):
        TimeSeriesPanel(np.zeros((2, 1)))
    bad = np.zeros((2, 4))
    bad[1, 2] = np.nan
    with pytest.raises(ValidationError):
        TimeSeriesPanel(bad)
    with pytest.raises(ValidationError):
        TimeSeriesPanel([[0.5, 1.0], [0.0, 1.0]], kind="discrete")
    with pytest.raises(ValidationError):
        TimeSeriesPanel([[-1, 0], [0, 1]], kind="discrete")
    with pytest.raises(ValidationError):
        TimeSeriesPanel([[0, 3], [0, 1]], kind="discrete", alphabet_size=2)
    with pytest.raises(ValidationError):
        TimeSeriesPanel(np.zeros((2, 3)), kind="fuzzy")


def test_panel_accessors_and_alphabet_inference():
    p = TimeSeriesPanel([[0, 1, 2], [2, 0, 1]], kind="discrete")
    assert p.m == 2 and p.n == 3
    assert p.alphabet_size == 3
    assert list(p.row(2)) == [2, 0, 1]
    with pytest.raises(ValidationError):
        p.row(3)
    assert not p.data.flags.writeable
    r = TimeSeriesPanel(np.ones((2, 3)))
    assert r.alphabet_size is None


def test_estimator_config_validation():
    with pytest.raises(ValidationError):
        EstimatorConfig(markov_order=0)
    with pytest.raises(ValidationError):
        EstimatorConfig(estimator="kernel")


def test_model_validation_and_accessors():
    with pytest.raises(ValidationError):
        LinearNetworkModel(np.zeros((2, 3)), np.ones(2))
    with pytest.raises(ValidationError):
        LinearNetworkModel(np.zeros((2, 2)), np.ones(3))
    with pytest.raises(ValidationError):
        LinearNetworkModel(np.zeros((2, 2)), np.array([1.0, 0.0]))
    with pytest.raises(ValidationError, match="noise variances must be finite and positive"):
        LinearNetworkModel(np.zeros((2, 2)), np.array([1.0, np.inf]))
    bad = np.zeros((2, 2))
    bad[0, 1] = np.inf
    with pytest.raises(ValidationError):
        LinearNetworkModel(bad, np.ones(2))

    c = np.array([[0.5, 0.8, 0.0], [0.0, 0.0, 0.3], [0.0, 0.9, 0.0]])
    model = LinearNetworkModel(c, np.ones(3))
    assert model.m == 3
    # coefficients[j-1, i-1] is the weight of edge j -> i, and the
    # diagonal never counts as a parent
    assert model.true_parent_set(1) == ()
    assert model.true_parent_set(2) == (1, 3)
    assert model.true_parent_set(3) == (2,)
    # dynamics act row-on-state: a unit impulse on j lands on its children
    x = model.dynamics_matrix() @ np.array([1.0, 0.0, 0.0])
    assert np.allclose(x, [0.5, 0.8, 0.0])


def test_stationary_covariance_matches_lyapunov_solver():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = int(rng.integers(1, 6))
        model = random_stable_model(rng, m)
        sigma = stationary_covariance(model)
        a = model.dynamics_matrix()
        expected = solve_discrete_lyapunov(a, np.diag(model.noise_variances))
        assert np.allclose(sigma, expected, atol=1e-9)


@pytest.mark.parametrize(
    "seed, radius",
    [((10, 2), 0.9999), ((0, 1), 0.9999), ((0, 1), 0.999), ((0, 1), 0.99999)],
)
def test_stationary_covariance_near_unit_radius(seed, radius):
    # an absolute stopping rule never settled on these: entries reach 1e3-1e5
    model = generate_ar_network(16, np.random.default_rng(list(seed)), spectral_target=radius)
    sigma = stationary_covariance(model)
    a = model.dynamics_matrix()
    q = np.diag(model.noise_variances)
    expected = solve_discrete_lyapunov(a, q)
    scale = float(np.max(np.abs(expected)))
    assert np.max(np.abs(sigma - expected)) <= 1e-8 * scale
    assert np.max(np.abs(a @ sigma @ a.T + q - sigma)) <= 1e-13 * scale
    assert np.array_equal(sigma, sigma.T)


def test_stationary_covariance_rejects_unstable_model():
    model = LinearNetworkModel(np.eye(2), np.ones(2))
    with pytest.raises(NonStationaryModelError) as err:
        stationary_covariance(model)
    assert "spectral radius" in str(err.value)


def test_exact_two_driver_values():
    model = two_drivers_model()
    assert exact_di_gaussian(model, 3, (1,)) == pytest.approx(HALF_LOG_3_2, abs=1e-12)
    assert exact_di_gaussian(model, 3, (1,), (2,)) == pytest.approx(
        HALF_LOG_2, abs=1e-12
    )
    # symmetric roles: process 2 gives the same pair
    assert exact_di_gaussian(model, 3, (2,)) == pytest.approx(HALF_LOG_3_2, abs=1e-12)
    # non-parents carry nothing
    assert exact_di_gaussian(model, 1, (2,)) == pytest.approx(0.0, abs=1e-12)
    assert exact_di_gaussian(model, 3, ()) == 0.0


def test_exact_values_nonnegative_and_monotone():
    rng = np.random.default_rng(11)
    for _ in range(10):
        model = random_stable_model(rng, 5)
        for target in range(1, 6):
            others = [j for j in range(1, 6) if j != target]
            for size in (1, 2, 3):
                for members in combinations(others, size):
                    v = exact_di_gaussian(model, target, members)
                    assert v >= -1e-12
                    for sub in combinations(members, size - 1):
                        assert v >= exact_di_gaussian(model, target, sub) - 1e-10


def test_exact_chain_rule_telescopes():
    rng = np.random.default_rng(13)
    for _ in range(10):
        model = random_stable_model(rng, 5)
        target = int(rng.integers(1, 6))
        others = [j for j in range(1, 6) if j != target]
        rng.shuffle(others)
        members = others[:3]
        increments = [
            exact_di_gaussian(model, target, (j,), tuple(members[:k]))
            for k, j in enumerate(members)
        ]
        total = exact_di_gaussian(model, target, tuple(members))
        assert sum(increments) == pytest.approx(total, abs=1e-10)


def test_query_validation():
    model = two_drivers_model()
    with pytest.raises(ValidationError):
        exact_di_gaussian(model, 3, (3,))
    with pytest.raises(ValidationError):
        exact_di_gaussian(model, 3, (1,), (1,))
    with pytest.raises(ValidationError):
        exact_di_gaussian(model, 3, (1, 1))
    with pytest.raises(ValidationError):
        exact_di_gaussian(model, 0, (1,))
    with pytest.raises(ValidationError):
        exact_di_gaussian(model, 3, (4,))


def test_gaussian_estimator_consistency_on_two_driver_model():
    model = two_drivers_model()
    panel = simulate_panel(model, 40_000, seed=5)
    est_pair = estimate_di(panel, 3, (1,))
    est_cond = estimate_di(panel, 3, (1,), (2,))
    assert est_pair == pytest.approx(HALF_LOG_3_2, abs=0.02)
    assert est_cond == pytest.approx(HALF_LOG_2, abs=0.02)


def test_gaussian_estimator_near_zero_for_independent_noise():
    rng = np.random.default_rng(3)
    panel = TimeSeriesPanel(rng.standard_normal((3, 20_000)))
    assert estimate_di(panel, 1, (2,)) < 0.005
    assert estimate_di(panel, 1, (2,), (3,)) < 0.005


def test_gaussian_estimator_chain_rule_is_exact_in_sample():
    # all designs share the same rows, so residual ratios telescope
    rng = np.random.default_rng(17)
    panel = TimeSeriesPanel(rng.standard_normal((4, 300)))
    for order in (1, 2):
        config = EstimatorConfig(markov_order=order)
        members = (1, 3, 4)
        increments = [
            estimate_di(panel, 2, (j,), members[:k], config)
            for k, j in enumerate(members)
        ]
        total = estimate_di(panel, 2, members, (), config)
        assert sum(increments) == pytest.approx(total, abs=1e-9)


def test_gaussian_estimator_empty_addition_is_zero():
    rng = np.random.default_rng(19)
    panel = TimeSeriesPanel(rng.standard_normal((2, 50)))
    assert estimate_di(panel, 1, ()) == 0.0


def test_gaussian_estimator_insufficient_samples():
    rng = np.random.default_rng(23)
    panel = TimeSeriesPanel(rng.standard_normal((2, 3)))
    with pytest.raises(EstimationError) as err:
        estimate_di(panel, 1, (2,), (), EstimatorConfig(markov_order=3))
    assert "insufficient samples" in str(err.value)
    # enough steps but more regressors than rows
    small = TimeSeriesPanel(rng.standard_normal((4, 4)))
    with pytest.raises(EstimationError) as err:
        estimate_di(small, 1, (2, 3, 4))
    assert "insufficient samples" in str(err.value)


def test_gaussian_estimator_drops_a_dependent_column():
    # x1 and x2 are one series, so x2's lag adds nothing beside x1's
    rng = np.random.default_rng(29)
    x = rng.standard_normal(80)
    data = np.vstack([x, x, rng.standard_normal(80)])
    panel = TimeSeriesPanel(data)
    value = estimate_di(panel, 3, (1, 2))
    assert value == estimate_di(panel, 3, (1,))
    assert value == pytest.approx(lstsq_di(data, 3, (1, 2), (), 1), rel=1e-9)


def test_a_cache_with_a_duplicated_process_finishes():
    rng = np.random.default_rng(29)
    x = rng.standard_normal(80)
    panel = TimeSeriesPanel(np.vstack([rng.standard_normal(80), x, x]))
    cache = build_cache(DIEvaluator.from_panel(panel), 3, 1)
    # x3 repeats x2, the target's own lag, so it adds nothing to target 2
    assert cache.get(2, (3,)) == 0.0
    assert cache.get(1, (2,)) == cache.get(1, (3,))
    assert estimate_di(panel, 1, (2,), (3,)) == 0.0
    with pytest.raises(EstimationError) as err:
        estimate_di(TimeSeriesPanel(rng.standard_normal((2, 3))), 1, (2,))
    assert "insufficient samples" in str(err.value)
    assert "target 1, addition [2]" in str(err.value)


def test_a_zero_process_adds_nothing_to_any_set():
    # a zero row makes the stacked factorization fail outright; every set
    # is then worth its value without that process, and the zero target
    # nothing at all
    rng = np.random.default_rng(30)
    data = rng.standard_normal((4, 60))
    data[2] = 0.0
    panel = TimeSeriesPanel(data)
    cache = build_cache(DIEvaluator.from_panel(panel), 4, 2)
    single = DIEvaluator.from_panel(panel)
    for target, members, value in cache.items():
        rest = tuple(j for j in members if j != 3)
        want = 0.0 if target == 3 else single.increment(target, rest)
        assert value == want, (target, members)


def _collinear_panel(kind):
    """An m=6 panel whose process 5 is zero, twice process 2, or process 2
    plus 1e-13 noise."""
    data = np.array(
        simulate_panel(generate_ar_network(6, np.random.default_rng(3)), 500, 1).data
    )
    data[4] = {
        "zero": 0.0,
        "twice": 2.0 * data[1],
        "noisy copy": data[1] + 1e-13 * np.random.default_rng(5).standard_normal(500),
    }[kind]
    return data


@pytest.mark.parametrize("kind", ["zero", "twice", "noisy copy"])
def test_collinear_panels_get_the_lstsq_values_and_every_search_finishes(kind):
    data = _collinear_panel(kind)
    ev = DIEvaluator.from_panel(TimeSeriesPanel(data))
    caches = {K: build_cache(ev, 6, K) for K in (1, 2)}
    for cache in caches.values():
        for target, members, value in cache.items():
            want = lstsq_di(data, target, members, (), 1)
            assert value == pytest.approx(want, rel=1e-9, abs=1e-12), (target, members)
    # process 5's lag adds nothing beside process 2's
    assert caches[2].get(1, (2, 5)) == caches[1].get(1, (2,)) > 0.0
    optimal_general(caches[2], 2)
    optimal_connected(caches[1], 1)
    greedy_general(ev, 2)
    greedy_connected(ev, 2)
    assert len(top_r_general(caches[2], 2, 10)) == 10
    assert len(top_r_connected(caches[1], 1, 10)) == 10


def _spy_on_fallback(monkeypatch):
    """Record every query that reaches the per-query fallback."""
    reached = []
    fallback = estimation._dependent_ratio

    def spy(block, r, d, query):
        reached.append(query)
        return fallback(block, r, d, query)

    monkeypatch.setattr(estimation, "_dependent_ratio", spy)
    return reached


@pytest.mark.parametrize("batched", [False, True])
def test_near_collinear_regressors_fail_the_pivot_check(monkeypatch, batched):
    # x2 = x1 + 1e-7 noise factors, but its pivot falls below
    # SINGULAR_PIVOT times its scale, so its column drops out
    reached = _spy_on_fallback(monkeypatch)
    rng = np.random.default_rng(5)
    x1 = rng.standard_normal(200)
    data = np.vstack([x1, x1 + 1e-7 * rng.standard_normal(200),
                      rng.standard_normal((2, 200))])
    panel = TimeSeriesPanel(data)
    ev = DIEvaluator.from_panel(panel)
    if batched:
        values = in_one_batch(ev, 3, [(4,), (2,)], (1,))
        assert values == [DIEvaluator.from_panel(panel).increment(3, (4,), (1,)), 0.0]
        assert values[0] > 0.0
    else:
        assert ev.increment(3, (2,), (1,)) == 0.0
    assert reached[-1] == (3, (2,), (1,))


@pytest.mark.parametrize("m, K", [(8, 2), (6, 1), (6, 3), (7, 3)])
def test_only_blocks_that_fail_alone_take_the_fallback(monkeypatch, m, K):
    # process m copies process 1, so a block holding both lags fails;
    # the other blocks of its batch keep their own factor's bits
    reached = _spy_on_fallback(monkeypatch)
    data = np.array(
        simulate_panel(generate_ar_network(m, np.random.default_rng(7)), 500, 1).data
    )
    data[m - 1] = data[0]
    panel = TimeSeriesPanel(data)
    cache = build_cache(DIEvaluator.from_panel(panel), m, K)
    batched = list(reached)
    alone = []
    for target, members, value in cache.items():
        del reached[:]
        assert value == DIEvaluator.from_panel(panel).set_value(target, members)
        alone += reached
        want = lstsq_di(data, target, members, (), 1)
        assert value == pytest.approx(want, rel=1e-9, abs=1e-12), (target, members)
    assert sorted(batched) == sorted(alone)
    # targets 1 and m with a set holding the other, and each other
    # target's sets holding both
    both = (m - 2) * math.comb(m - 3, K - 2) if K >= 2 else 0
    assert len(batched) == 2 * math.comb(m - 2, K - 1) + both < len(cache.items())


def test_a_stack_that_factors_is_not_split(monkeypatch):
    # process 5 is process 2 plus 1e-7 noise: every stack factors, and
    # only the blocks holding both lags fail the pivot check, so they
    # alone take the fallback and no stack is split
    def stack_sizes(data):
        sizes = []
        split = estimation._stack_ratios

        def spy(blocks, *rest):
            sizes.append(len(blocks))
            return split(blocks, *rest)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(estimation, "_stack_ratios", spy)
            cache = build_cache(DIEvaluator.from_panel(TimeSeriesPanel(data)), 6, 2)
        return sizes, cache

    rng = np.random.default_rng(5)
    data = np.array(simulate_panel(generate_ar_network(6, rng), 500, 1).data)
    clean, _ = stack_sizes(data)
    data[4] = data[1] + 1e-7 * rng.standard_normal(500)
    reached = _spy_on_fallback(monkeypatch)
    sizes, cache = stack_sizes(data)
    assert sizes == clean
    assert sorted(reached) == sorted(
        (target, members, ())
        for target, members, _ in cache.items()
        if {2, 5} <= {target, *members}
    )
    for target, members, value in cache.items():
        assert value == DIEvaluator.from_panel(TimeSeriesPanel(data)).set_value(
            target, members
        )
        if (target, members, ()) not in reached:
            want = lstsq_di(data, target, members, (), 1)
            assert value == pytest.approx(want, rel=1e-9), (target, members)


def _deterministic_target_panel():
    # x3[t] = x1[t-1] exactly, so the lag of x1 leaves target 3 no residual
    rng = np.random.default_rng(5)
    data = rng.standard_normal((4, 200))
    data[2, 1:] = data[0, :-1]
    return TimeSeriesPanel(data)


@pytest.mark.parametrize("batched", [False, True])
def test_zero_residual_is_zero_when_the_reduced_fit_has_none(monkeypatch, batched):
    reached = _spy_on_fallback(monkeypatch)
    ev = DIEvaluator.from_panel(_deterministic_target_panel())
    if batched:
        assert in_one_batch(ev, 3, [(4,), (2,)], (1,)) == [0.0, 0.0]
    else:
        assert ev.increment(3, (2,), (1,)) == 0.0
    assert (3, (2,), (1,)) in reached


@pytest.mark.parametrize("batched", [False, True])
def test_zero_residual_after_the_addition_names_the_query(monkeypatch, batched):
    reached = _spy_on_fallback(monkeypatch)
    ev = DIEvaluator.from_panel(_deterministic_target_panel())
    with pytest.raises(EstimationError) as err:
        if batched:
            in_one_batch(ev, 3, [(2,), (1,)], ())
        else:
            ev.increment(3, (1,), ())
    assert str(err.value).startswith("zero residual variance")
    assert str(err.value).endswith("(target 3, addition [1], conditioning [])")
    assert reached[-1] == (3, (1,), ())


def test_build_cache_rejects_a_non_finite_value():
    def fn(target, add, cond):
        return math.nan if (target, add) == (2, (1, 4)) else 0.5

    with pytest.raises(ValidationError, match=r"target 2: parent set \[1, 4\] has value nan"):
        build_cache(DIEvaluator(fn, 4), 4, 2)


def test_gaussian_estimator_deterministic_coupling_is_extreme():
    # process 2 copies process 1 exactly one step later: depending on solver
    # rounding the full fit is either detected as a zero residual or reported
    # as an enormous value; both communicate determinism
    rng = np.random.default_rng(31)
    x = rng.standard_normal(200)
    y = np.concatenate([[0.0], x[:-1]])
    panel = TimeSeriesPanel(np.vstack([x, y]))
    try:
        value = estimate_di(panel, 2, (1,))
        assert value > 3.0
    except EstimationError as err:
        assert "zero residual" in str(err.value)


def test_discrete_estimator_matches_naive_counting_oracle():
    rng = np.random.default_rng(37)
    for _ in range(30):
        m = int(rng.integers(2, 4))
        alphabet = int(rng.integers(2, 4))
        n = int(rng.integers(40, 160))
        order = int(rng.integers(1, 3))
        data = rng.integers(0, alphabet, size=(m, n))
        panel = TimeSeriesPanel(data, kind="discrete", alphabet_size=alphabet)
        target = int(rng.integers(1, m + 1))
        others = [j for j in range(1, m + 1) if j != target]
        rng.shuffle(others)
        n_add = int(rng.integers(1, len(others) + 1))
        addition = tuple(sorted(others[:n_add]))
        conditioning = tuple(sorted(others[n_add:]))
        got = estimate_di(
            panel, target, addition, conditioning, EstimatorConfig(
                markov_order=order, estimator="discrete"
            )
        )
        want = naive_discrete_di(data, alphabet, target, addition, conditioning, order)
        assert got == pytest.approx(want, abs=1e-12)


def test_discrete_estimator_binary_copy_channel():
    rng = np.random.default_rng(41)
    x = rng.integers(0, 2, size=20_000)
    y = np.concatenate([[0], x[:-1]])
    panel = TimeSeriesPanel(np.vstack([x, y]), kind="discrete")
    config = EstimatorConfig(estimator="discrete")
    assert estimate_di(panel, 2, (1,), (), config) == pytest.approx(
        math.log(2.0), abs=0.01
    )
    # reverse direction carries nothing
    assert estimate_di(panel, 1, (2,), (), config) < 0.01


def test_discrete_estimator_independent_symbols_near_zero():
    rng = np.random.default_rng(43)
    data = rng.integers(0, 2, size=(2, 20_000))
    panel = TimeSeriesPanel(data, kind="discrete")
    assert estimate_di(panel, 1, (2,), (), DISCRETE) < 0.005


def test_discrete_estimator_state_space_cap(monkeypatch):
    monkeypatch.setattr(estimation, "MAX_CELLS", 100)
    rng = np.random.default_rng(47)
    data = rng.integers(0, 4, size=(3, 100))
    panel = TimeSeriesPanel(data, kind="discrete")
    config = EstimatorConfig(markov_order=2, estimator="discrete")
    with pytest.raises(EstimationError) as err:
        estimate_di(panel, 1, (2,), (3,), config)
    assert "state space too large" in str(err.value)


@pytest.mark.parametrize("K", [1, 2])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("alphabet", [2, 3])
def test_a_query_of_exactly_max_cells_runs_and_one_more_is_named(
    monkeypatch, alphabet, order, K
):
    # a K-set query over target 1 alone has alphabet**(order * (K + 1) + 1)
    # cells; at a cap of exactly that it runs, one short it names the
    # group's first query
    rng = np.random.default_rng(47)
    data = rng.integers(0, alphabet, size=(4, 200))
    panel = TimeSeriesPanel(data, kind="discrete")
    config = EstimatorConfig(markov_order=order, estimator="discrete")
    cells = alphabet ** (order * (K + 1) + 1)
    monkeypatch.setattr(estimation, "MAX_CELLS", cells)
    cache = build_cache(DIEvaluator.from_panel(panel, config), 4, K)
    for target, members, value in cache.items():
        assert value == unique_count_di(data, alphabet, target, members, (), order)
    monkeypatch.setattr(estimation, "MAX_CELLS", cells - 1)
    with pytest.raises(EstimationError) as err:
        build_cache(DIEvaluator.from_panel(panel, config), 4, K)
    assert str(err.value) == (
        f"state space too large: {cells} cells exceed cap {cells - 1} "
        f"(target 1, addition {list(range(2, K + 2))}, conditioning [])"
    )


def test_discrete_cache_errors_name_the_query(monkeypatch):
    monkeypatch.setattr(estimation, "MAX_CELLS", 100)
    rng = np.random.default_rng(47)
    panel = TimeSeriesPanel(rng.integers(0, 4, size=(3, 100)), kind="discrete")
    config = EstimatorConfig(markov_order=2, estimator="discrete")
    ev = DIEvaluator.from_panel(panel, config)
    with pytest.raises(EstimationError) as err:
        build_cache(ev, 3, 1)
    assert str(err.value) == (
        "state space too large: 1024 cells exceed cap 100 "
        "(target 1, addition [2], conditioning [])"
    )
    short = TimeSeriesPanel([[0, 1], [1, 0]], kind="discrete")
    ev = DIEvaluator.from_panel(short, EstimatorConfig(markov_order=2, estimator="discrete"))
    assert ev.increment(1, ()) == 0.0
    with pytest.raises(EstimationError) as err:
        ev.increment(2, (1,))
    assert str(err.value) == (
        "insufficient samples: need more than 2 steps, have 2 "
        "(target 2, addition [1], conditioning [])"
    )


def test_discrete_estimator_requires_discrete_panel():
    panel = TimeSeriesPanel(np.random.default_rng(0).standard_normal((2, 30)))
    with pytest.raises(ValidationError):
        estimate_di(panel, 1, (2,), (), DISCRETE)


def test_estimate_di_dispatches_on_config():
    rng = np.random.default_rng(53)
    data = rng.standard_normal((2, 120))
    real = TimeSeriesPanel(data)
    gaussian = estimate_di(real, 1, (2,), (), EstimatorConfig())
    assert estimate_di(real, 1, (2,)) == gaussian
    assert gaussian == pytest.approx(lstsq_di(data, 1, (2,), (), 1), rel=1e-9)
    symbols = rng.integers(0, 2, size=(2, 120))
    disc = TimeSeriesPanel(symbols, kind="discrete")
    assert estimate_di(disc, 1, (2,), (), DISCRETE) == unique_count_di(
        symbols, 2, 1, (2,), (), 1
    )


def test_evaluator_memoizes_and_matches_direct_calls():
    model = two_drivers_model()
    ev = DIEvaluator.from_model(model)
    v1 = ev.increment(3, (1,), (2,))
    assert ev.calls == 1
    assert ev.increment(3, (1,), (2,)) == v1
    assert ev.calls == 1
    assert v1 == exact_di_gaussian(model, 3, (1,), (2,))
    assert ev.set_value(3, (1, 2)) == exact_di_gaussian(model, 3, (1, 2))
    # member order inside a query does not create new cache entries
    ev.increment(3, (2, 1))
    calls = ev.calls
    ev.increment(3, (1, 2))
    assert ev.calls == calls


def test_evaluator_from_panel_matches_estimator():
    rng = np.random.default_rng(59)
    panel = TimeSeriesPanel(rng.standard_normal((3, 200)))
    ev = DIEvaluator.from_panel(panel)
    assert ev.set_value(1, (2, 3)) == estimate_di(panel, 1, (2, 3))
    with pytest.raises(ValidationError):
        DIEvaluator(lambda t, a, c: 0.0, 0)


def test_build_cache_complete_and_deterministic():
    model = two_drivers_model()
    ev = DIEvaluator.from_model(model)
    cache = build_cache(ev, 3, 1)
    assert len(cache) == 6
    assert cache.get(3, (1,)) == pytest.approx(HALF_LOG_3_2, abs=1e-12)
    again = build_cache(DIEvaluator.from_model(model), 3, 1)
    assert cache.items() == again.items()
    with pytest.raises(ValidationError):
        build_cache(ev, 4, 1)


def test_panel_csv_round_trip(tmp_path):
    rng = np.random.default_rng(61)
    panel = TimeSeriesPanel(rng.standard_normal((3, 40)))
    path = tmp_path / "panel.csv"
    write_panel_csv(panel, str(path))
    back = read_panel_csv(str(path))
    assert back.m == 3 and back.n == 40
    assert np.allclose(back.data, panel.data, atol=1e-10)
    # discrete round trip is exact
    dpanel = TimeSeriesPanel(rng.integers(0, 3, size=(2, 25)), kind="discrete")
    dpath = tmp_path / "disc.csv"
    write_panel_csv(dpanel, str(dpath))
    dback = read_panel_csv(str(dpath), kind="discrete")
    assert dback.alphabet_size == 3
    assert np.array_equal(dback.data, dpanel.data)


def test_panel_csv_headerless_and_header_forms(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    p = read_panel_csv(str(path))
    assert p.m == 2 and p.n == 2
    withheader = tmp_path / "head.csv"
    withheader.write_text("x1,x2\n1.0,2.0\n3.0,4.0\n")
    q = read_panel_csv(str(withheader))
    assert np.array_equal(p.data, q.data)


def test_panel_csv_errors_name_the_row(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,x2\n1.0,2.0\n1.0,oops\n")
    with pytest.raises(PanelFormatError) as err:
        read_panel_csv(str(bad))
    assert "row 3" in str(err.value)

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1.0,2.0\n1.0,2.0,3.0\n")
    with pytest.raises(PanelFormatError) as err:
        read_panel_csv(str(ragged))
    assert "row 2" in str(err.value) and "columns" in str(err.value)

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(PanelFormatError):
        read_panel_csv(str(empty))

    frac = tmp_path / "frac.csv"
    frac.write_text("0,1\n0.5,1\n")
    with pytest.raises(PanelFormatError):
        read_panel_csv(str(frac), kind="discrete")
