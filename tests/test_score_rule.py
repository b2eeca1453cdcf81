"""Every score is ``math.fsum`` of its node values, bit for bit.

``fsum`` is correctly rounded, so a score has the same bits for any
order of its terms and on every Python version.  Each search, ranking
and scoring function is checked against ``fsum`` of the values of the
sets it chose, before and after the values are shuffled.  The sources
are exact linear models and caches of uniform, tie-rich and
mixed-magnitude values, the last ones some of them negative.
"""

import math
from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dinet.approximation import (
    greedy_connected,
    greedy_general,
    optimal_connected,
    optimal_general,
)
from dinet.estimation import DIEvaluator, build_cache
from dinet.simulate import _exact_scores, generate_ar_network
from dinet.structures import DirectedInfoCache, ParentAssignment
from dinet.topr import _class_size, top_r_connected, top_r_general, top_r_greedy

from test_approximation import evaluator_from_cache
from test_topr_properties import _mixed_magnitude_value


def _value(kind: str, rng: np.random.Generator) -> float:
    if kind == "tie-rich":
        return float(rng.choice([0.0, 0.25, 0.5]))
    if kind == "uniform":
        return float(rng.random())
    return _mixed_magnitude_value(rng)


def _source(kind: str, m: int, K: int, rng: np.random.Generator):
    """A cache of every set of size 1 .. K and an evaluator that agrees with it."""
    if kind == "model":
        evaluator = DIEvaluator.from_model(generate_ar_network(m, rng))
        cache = DirectedInfoCache(m, K)
        for k in range(1, K + 1):
            for i, members, value in build_cache(evaluator, m, k).items():
                cache.put(i, members, value)
        return cache, evaluator
    cache = DirectedInfoCache(m, K)
    for i in range(1, m + 1):
        others = [j for j in range(1, m + 1) if j != i]
        for k in range(1, K + 1):
            for members in combinations(others, k):
                cache.put(i, members, _value(kind, rng))
    return cache, evaluator_from_cache(cache, K)


def _assert_fsum(score: float, values, rng: np.random.Generator) -> None:
    values = list(values)
    assert score.hex() == math.fsum(values).hex()
    rng.shuffle(values)
    assert score.hex() == math.fsum(values).hex()


def _node_values(value_of, assignment: ParentAssignment) -> list[float]:
    return [
        value_of(ps.target, ps.members) if ps.size else 0.0 for ps in assignment.parents
    ]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(3, 5),
    K=st.integers(1, 2),
    kind=st.sampled_from(["model", "uniform", "tie-rich", "mixed magnitudes"]),
)
def test_every_score_is_the_fsum_of_its_node_values(seed, m, K, kind):
    rng = np.random.default_rng(seed)
    cache, evaluator = _source(kind, m, K, rng)
    cached = cache.get

    def from_cache(results):
        for sol in results:
            _assert_fsum(sol.score, _node_values(cached, sol.assignment), rng)

    def from_evaluator(results):
        for sol in results:
            _assert_fsum(sol.score, _node_values(evaluator.set_value, sol.assignment), rng)

    for degrees in (K, [int(k) for k in rng.integers(1, K + 1, size=m)]):
        from_cache([optimal_general(cache, degrees)])
    # some nodes keep the empty set, worth 0.0 without a cache lookup
    from_cache([optimal_general(cache, [int(k) for k in rng.integers(0, K + 1, size=m)])])
    r = min(_class_size(m, K), 60)
    from_cache(top_r_general(cache, K, r))
    for root_has_parents in (False, True):
        from_cache([optimal_connected(cache, K, root_has_parents)])
        from_cache(top_r_connected(cache, K, r, root_has_parents))
        from_evaluator([greedy_connected(evaluator, K, root_has_parents)])
        from_evaluator(
            top_r_greedy(evaluator, K, r, connected=True, root_has_parents=root_has_parents)
        )
    from_evaluator(top_r_greedy(evaluator, K, r))

    # greedy_general sums the chain rule increments of every node at once
    greedy = greedy_general(evaluator, K)
    gains = [
        evaluator.increment(i, (j,), order[:n])
        for i, order in enumerate(greedy.orders, 1)
        for n, j in enumerate(order)
    ]
    _assert_fsum(greedy.score, gains, rng)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(3, 6))
def test_exact_assignment_scores_are_fsums(seed, m):
    rng = np.random.default_rng(seed)
    model = generate_ar_network(m, rng)
    exact = DIEvaluator.from_model(model)
    for K in (1, 2):
        r = min(_class_size(m, K), 10)
        ranked = [sol.assignment for sol in top_r_general(build_cache(exact, m, K), K, r)]
        for assignment, score in zip(ranked, _exact_scores(ranked, exact)):
            _assert_fsum(score, _node_values(exact.set_value, assignment), rng)
