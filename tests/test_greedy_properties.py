"""Property tests of the greedy searches against a one-query-per-candidate oracle.

Every greedy search in the package picks through one batched kernel.
The oracle in ``_oracles.py`` asks ``DIEvaluator.increment`` once per
candidate and keeps the first maximum in ascending index.  It runs on
its own evaluator built from the same source, so the package's batched
values are compared bit for bit with single queries.  Sources are exact
linear models and tie-rich caches, where equal increments are the rule.
The unconstrained greedy ranking is compared with a heap whose entries
carry every node's depth-first state, stepped one query at a time.
"""

import math
import sys
from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dinet.approximation import greedy_connected, greedy_general
from dinet.bounds import bound_witness_alpha, network_empirical_alpha
from dinet.estimation import ZERO_GAIN_EPS, DIEvaluator
from dinet.simulate import generate_ar_network
from dinet.structures import DirectedInfoCache, ParentAssignment
from dinet.topr import top_r_greedy

from _oracles import greedy_state_ranking, slow_greedy_order
from test_approximation import evaluator_from_cache


@st.composite
def sources(draw):
    """A factory of fresh, equal evaluators and a greedy length L."""
    seed = draw(st.integers(0, 2**32 - 1))
    m = draw(st.integers(3, 5))
    L = draw(st.integers(1, m - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        model = generate_ar_network(m, rng)
        return (lambda: DIEvaluator.from_model(model)), L
    # every set size, so a whole-pool ordering stays on cached sets
    cache = DirectedInfoCache(m, m - 1)
    for i in range(1, m + 1):
        others = [j for j in range(1, m + 1) if j != i]
        for k in range(1, m):
            for members in combinations(others, k):
                cache.put(i, members, float(rng.choice([0.0, 0.25, 0.5])))
    return (lambda: evaluator_from_cache(cache, m - 1)), L


def _others(m, i, *excluded):
    return [j for j in range(1, m + 1) if j not in (i, *excluded)]


@settings(max_examples=150, deadline=None)
@given(sources())
def test_greedy_general_orders_match_the_oracle(source):
    make, L = source
    oracle = make()
    m = oracle.m
    chains = [
        slow_greedy_order(oracle, i, _others(m, i), (), L) for i in range(1, m + 1)
    ]
    got = greedy_general(make(), L)
    assert got.orders == tuple(picks for picks, _ in chains)
    score = math.fsum(gain for _, gains in chains for gain in gains)
    assert got.score.hex() == score.hex()


@settings(max_examples=150, deadline=None)
@given(sources(), st.booleans())
def test_greedy_connected_edge_sets_match_the_oracle(source, root_has_parents):
    make, L = source
    oracle = make()
    m = oracle.m

    def grown(i, seed):
        pool = _others(m, i, *seed)
        picks, _ = slow_greedy_order(oracle, i, pool, seed, L - len(seed))
        return tuple(sorted(seed + picks))

    got = greedy_connected(make(), L, root_has_parents)
    for i in range(1, m + 1):
        for j in _others(m, i):
            value = oracle.set_value(i, grown(i, (j,)))
            assert got.weights.weight(j, i) == value
    parents = {child: parent for parent, child in got.tree}
    for i in range(1, m + 1):
        if i == got.root:
            want = grown(i, ()) if root_has_parents else ()
        else:
            want = grown(i, (parents[i],))
        assert got.assignment.members_of(i) == want


def _max_ratio(gains):
    # a gain within ZERO_GAIN_EPS eps nats of zero reads as 0
    floor = ZERO_GAIN_EPS * sys.float_info.epsilon
    gains = [0.0 if abs(g) <= floor else g for g in gains]
    ratios = [
        (1.0 if b == 0.0 else math.inf) if a == 0.0 else b / a
        for a, b in zip(gains, gains[1:])
    ]
    return max(ratios)


@settings(max_examples=150, deadline=None)
@given(sources())
def test_network_alpha_witness_matches_the_oracle(source):
    make, _ = source
    oracle = make()
    m = oracle.m
    chains = {i: slow_greedy_order(oracle, i, _others(m, i)) for i in range(1, m + 1)}
    # the first target attaining the largest ratio is the witness
    target = max(range(1, m + 1), key=lambda i: _max_ratio(chains[i][1]))
    got = network_empirical_alpha(make())
    assert got.witness_target == target
    assert got.witness_path == chains[target][0]
    assert got.witness_increments == tuple(chains[target][1])
    assert got.alpha == _max_ratio(chains[target][1])


@settings(max_examples=150, deadline=None)
@given(sources(), st.data())
def test_bound_witness_alpha_matches_the_oracle(source, data):
    make, L = source
    oracle = make()
    m = oracle.m
    K = data.draw(st.integers(1, m - 1), label="K")
    optimal = ParentAssignment.from_lists(
        [
            data.draw(st.sampled_from(list(combinations(_others(m, i), K))))
            for i in range(1, m + 1)
        ]
    )
    orders = greedy_general(make(), L).orders
    # every (node, prefix length) chain in order; the first strictly
    # largest ratio is the witness
    best = (-math.inf, 0, (), ())
    for i in range(1, m + 1):
        for l in range(len(orders[i - 1])):
            prefix = orders[i - 1][:l]
            pool = set(optimal.members_of(i)) - set(prefix)
            if len(pool) < 2:
                continue
            picks, gains = slow_greedy_order(oracle, i, pool, prefix)
            if _max_ratio(gains) > best[0]:
                best = (_max_ratio(gains), i, prefix + picks, tuple(gains))
    got = bound_witness_alpha(make(), optimal, orders)
    if best[1] == 0:
        best = (1.0, 0, (), ())
    witness = (got.witness_target, got.witness_path, got.witness_increments)
    assert (got.alpha, *witness) == best


@settings(max_examples=60, deadline=None)
@given(sources(), st.data())
def test_greedy_general_ranking_matches_the_state_heap(source, data):
    make, L = source
    oracle = make()
    m = oracle.m
    L = min(L, 3)
    r = data.draw(st.integers(1, math.comb(m - 1, L) ** m), label="r")
    want = [(key, score.hex()) for key, score in greedy_state_ranking(oracle, L, r)]
    got = top_r_greedy(make(), L, r)
    assert [(s.assignment.canonical_key(), s.score.hex()) for s in got] == want
