"""Property tests of the Gaussian DI kernel against per-query oracles.

Hypothesis draws seeds, sizes and query roles; the panels and models
themselves come from numpy's generator, so every example is a well-posed
least squares or projection problem rather than a degenerate float
pattern.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dinet.estimation import (
    DIEvaluator,
    EstimatorConfig,
    LinearNetworkModel,
    TimeSeriesPanel,
    build_cache,
    estimate_di_gaussian,
    exact_di_gaussian,
)

from _oracles import lstsq_di, lyapunov_exact_di

# lstsq itself carries relative errors near 1e-13 on these panels (and
# far larger on small increments), so the bounds leave a wide margin
REL, ABS = 1e-9, 1e-12

SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def panel_queries(draw):
    """A random real panel, a Markov order and one (target, add, cond) query."""
    seed = draw(st.integers(0, 2**32 - 1))
    m = draw(st.integers(2, 5))
    order = draw(st.integers(1, 2))
    n = draw(st.integers(30, 200))
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((m, n))
    # a little lagged coupling so values are not all near zero
    for i in range(1, m):
        data[i, 1:] += 0.6 * data[i - 1, :-1]
    target = draw(st.integers(1, m))
    others = [j for j in range(1, m + 1) if j != target]
    # each other process is in the addition, the conditioning set, or neither
    roles = draw(st.lists(st.sampled_from("acn"), min_size=m - 1, max_size=m - 1))
    addition = tuple(j for j, role in zip(others, roles) if role == "a")
    conditioning = tuple(j for j, role in zip(others, roles) if role == "c")
    return data, order, target, addition, conditioning


@st.composite
def stable_models(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    m = draw(st.integers(2, 5))
    radius = draw(st.sampled_from([0.3, 0.9, 0.99]))
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((m, m))
    c *= radius / float(np.max(np.abs(np.linalg.eigvals(c))))
    return LinearNetworkModel(c, rng.uniform(0.2, 1.5, size=m))


@SETTINGS
@given(panel_queries())
def test_kernel_matches_per_query_lstsq(query):
    data, order, target, addition, conditioning = query
    panel = TimeSeriesPanel(data)
    config = EstimatorConfig(markov_order=order)
    want = lstsq_di(data, target, addition, conditioning, order)
    got = estimate_di_gaussian(panel, target, addition, conditioning, config)
    assert got == pytest.approx(want, rel=REL, abs=ABS)
    ev = DIEvaluator.from_panel(panel, config)
    assert ev.increment(target, addition, conditioning) == got


@SETTINGS
@given(stable_models(), st.data())
def test_kernel_matches_lyapunov_projection(model, data):
    m = model.m
    target = data.draw(st.integers(1, m))
    others = [j for j in range(1, m + 1) if j != target]
    roles = data.draw(st.lists(st.sampled_from("acn"), min_size=m - 1, max_size=m - 1))
    addition = tuple(j for j, role in zip(others, roles) if role == "a")
    conditioning = tuple(j for j, role in zip(others, roles) if role == "c")
    want = lyapunov_exact_di(
        model.coefficients, model.noise_variances, target, addition, conditioning
    )
    got = exact_di_gaussian(model, target, addition, conditioning)
    assert got == pytest.approx(want, rel=1e-7, abs=1e-10)


@SETTINGS
@given(panel_queries(), st.integers(0, 4))
def test_panel_cache_equals_single_queries_bitwise(query, K):
    data, order, *_ = query
    m = data.shape[0]
    K = min(K, m - 1)
    panel = TimeSeriesPanel(data)
    config = EstimatorConfig(markov_order=order)
    cache = build_cache(DIEvaluator.from_panel(panel, config), m, K)
    fresh = DIEvaluator.from_panel(panel, config)
    for target, members, value in cache.items():
        assert value == fresh.set_value(target, members)


@SETTINGS
@given(stable_models(), st.integers(0, 4))
def test_model_cache_equals_single_queries_bitwise(model, K):
    K = min(K, model.m - 1)
    cache = build_cache(DIEvaluator.from_model(model), model.m, K)
    fresh = DIEvaluator.from_model(model)
    for target, members, value in cache.items():
        assert value == fresh.set_value(target, members)


@SETTINGS
@given(panel_queries(), st.randoms(use_true_random=False))
def test_chain_rule_telescopes(query, rnd):
    data, order, target, addition, conditioning = query
    members = list(addition + conditioning)
    rnd.shuffle(members)
    ev = DIEvaluator.from_panel(TimeSeriesPanel(data), EstimatorConfig(markov_order=order))
    increments = [
        ev.increment(target, (j,), members[:k]) for k, j in enumerate(members)
    ]
    total = ev.set_value(target, members)
    assert sum(increments) == pytest.approx(total, rel=1e-9, abs=1e-12)


def test_cache_fills_the_memo_once():
    rng = np.random.default_rng(5)
    panel = TimeSeriesPanel(rng.standard_normal((4, 120)))
    ev = DIEvaluator.from_panel(panel)
    cache = build_cache(ev, 4, 2)
    assert ev.calls == len(cache) == 4 * 3
    for target, members, value in cache.items():
        assert ev.set_value(target, members) == value
    # repeated queries and a second build read the memo
    build_cache(ev, 4, 2)
    assert ev.calls == 4 * 3
