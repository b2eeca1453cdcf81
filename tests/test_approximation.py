import numpy as np
import pytest

from dinet.approximation import (
    ConnectedApproximation,
    GreedyApproximation,
    greedy_connected,
    greedy_general,
    optimal_connected,
    optimal_general,
)
from dinet.errors import ValidationError
from dinet.estimation import DIEvaluator, EstimatorConfig, TimeSeriesPanel

from _oracles import (
    cache_score,
    exhaustive_connected,
    exhaustive_optimal_general,
    random_cache,
    spans,
    unique_count_di,
)


def evaluator_from_cache(cache, K):
    """Exact-on-cached-sets evaluator: increments by set value differences.

    Only meaningful for queries whose union stays within cached sizes; the
    greedy searches under test never leave that envelope for L <= K.
    """
    store = {}
    for target, members, value in cache.items():
        store[(target, members)] = value

    def fn(target, add, cond):
        whole = tuple(sorted(set(add) | set(cond)))
        base = tuple(sorted(cond))
        hi = store[(target, whole)] if whole else 0.0
        lo = store[(target, base)] if base else 0.0
        return hi - lo

    return DIEvaluator(fn, cache.m)


def test_optimal_general_matches_exhaustive_search():
    rng = np.random.default_rng(211)
    for trial in range(50):
        m = int(rng.integers(2, 6))
        K = int(rng.integers(1, min(3, m)))
        cache = random_cache(m, K, rng, tie_rich=bool(trial % 2))
        got = optimal_general(cache, K)
        want_assignment, want_score = exhaustive_optimal_general(cache, K)
        assert got.score == pytest.approx(want_score, abs=1e-12)
        # the tie rule is part of the contract: smallest set indices win
        assert got.assignment == want_assignment
        assert cache_score(cache, got.assignment) == pytest.approx(
            got.score, abs=1e-12
        )


def test_optimal_general_per_node_degrees():
    rng = np.random.default_rng(223)
    cache = random_cache(4, 2, rng)
    for target, members, value in random_cache(4, 1, rng).items():
        cache.put(target, members, value)
    got = optimal_general(cache, [1, 2, 1, 2])
    assert got.assignment.members_of(1) is not None
    assert len(got.assignment.members_of(1)) == 1
    assert len(got.assignment.members_of(2)) == 2
    # score is the sum of each node's chosen entry
    assert cache_score(cache, got.assignment) == pytest.approx(got.score, abs=1e-12)


def test_optimal_general_zero_degree():
    rng = np.random.default_rng(227)
    cache = random_cache(3, 1, rng)
    got = optimal_general(cache, 0)
    assert got.score == 0.0
    assert all(got.assignment.members_of(i) == () for i in (1, 2, 3))


def test_degree_validation():
    rng = np.random.default_rng(229)
    cache = random_cache(3, 1, rng)
    ev = evaluator_from_cache(cache, 1)
    with pytest.raises(ValidationError):
        optimal_general(cache, 3)
    with pytest.raises(ValidationError):
        optimal_general(cache, [1, 1])
    with pytest.raises(ValidationError):
        optimal_connected(cache, 0)
    with pytest.raises(ValidationError):
        optimal_connected(cache, 3)
    with pytest.raises(ValidationError):
        greedy_general(ev, -1)
    with pytest.raises(ValidationError):
        greedy_connected(ev, 3)


def test_greedy_length_one_equals_optimal_degree_one():
    rng = np.random.default_rng(233)
    for trial in range(30):
        m = int(rng.integers(2, 6))
        cache = random_cache(m, 1, rng, tie_rich=bool(trial % 2))
        ev = evaluator_from_cache(cache, 1)
        greedy = greedy_general(ev, 1)
        optimal = optimal_general(cache, 1)
        assert greedy.score == pytest.approx(optimal.score, abs=1e-12)
        assert greedy.assignment == optimal.assignment


def test_greedy_general_structure_and_score():
    rng = np.random.default_rng(239)
    cache = random_cache(5, 3, rng)
    for K in (1, 2):
        for target, members, value in random_cache(5, K, rng).items():
            cache.put(target, members, value)
    ev = evaluator_from_cache(cache, 3)
    got = greedy_general(ev, 2)
    assert isinstance(got, GreedyApproximation)
    assert len(got.orders) == 5
    for i in range(1, 6):
        order = got.orders[i - 1]
        assert tuple(sorted(order)) == got.assignment.members_of(i)
        assert len(order) == 2
    # greedy score telescopes to the sum of chosen set values
    assert got.score == pytest.approx(
        sum(ev.set_value(i, got.assignment.members_of(i)) for i in range(1, 6)),
        abs=1e-10,
    )


def test_greedy_tie_goes_to_smaller_index():
    def fn(target, add, cond):
        return 1.0  # every single increment looks identical

    ev = DIEvaluator(fn, 4)
    got = greedy_general(ev, 2)
    for i in range(1, 5):
        expected = tuple(j for j in range(1, 5) if j != i)[:2]
        assert got.orders[i - 1] == expected


def test_optimal_connected_arc_weights_against_direct_scan():
    # arc j -> i weighs i's best set containing j, and a tree edge's child
    # takes the first such set in index order
    rng = np.random.default_rng(241)
    from itertools import combinations

    for trial in range(20):
        m = int(rng.integers(3, 6))
        K = int(rng.integers(1, 3))
        if K >= m - 1:
            K = m - 2 if m > 2 else 1
        K = max(K, 1)
        cache = random_cache(m, K, rng, tie_rich=bool(trial % 2))
        got = optimal_connected(cache, K)
        tree = dict((child, parent) for parent, child in got.tree)
        for i in range(1, m + 1):
            others = [j for j in range(1, m + 1) if j != i]
            for j in others:
                candidates = [
                    (members, cache.get(i, members))
                    for members in combinations(others, K)
                    if j in members
                ]
                best_v = max(v for _, v in candidates)
                first = next(ms for ms, v in candidates if v == best_v)
                assert got.weights.weight(j, i) == best_v
                if tree.get(i) == j:
                    assert got.assignment.members_of(i) == first


def test_optimal_connected_matches_exhaustive_search():
    rng = np.random.default_rng(251)
    for trial in range(50):
        m = int(rng.integers(3, 6))
        K = int(rng.integers(1, min(3, m - 1)))
        cache = random_cache(m, K, rng, tie_rich=bool(trial % 2))
        got = optimal_connected(cache, K)
        ranked = exhaustive_connected(cache, K)
        assert got.score == pytest.approx(ranked[0][1], abs=1e-12)
        # structural guarantees
        assert isinstance(got, ConnectedApproximation)
        assert got.assignment.members_of(got.root) == ()
        assert spans(got.assignment, got.root)
        for i in range(1, m + 1):
            if i != got.root:
                assert len(got.assignment.members_of(i)) == K
        # tree edges are consistent with the assignment
        for parent, child in got.tree:
            assert parent in got.assignment.members_of(child)
        assert cache_score(cache, got.assignment) == pytest.approx(
            got.score, abs=1e-12
        )


def test_optimal_connected_rooted_variant():
    # the root's best set weighs its dummy arc, so one solve maximizes
    # tree plus root value: the optimum of the class where every node,
    # the root included, carries exactly K parents
    rng = np.random.default_rng(257)
    for trial in range(20):
        m = int(rng.integers(3, 6))
        K = int(rng.integers(1, min(3, m - 1)))
        cache = random_cache(m, K, rng, tie_rich=bool(trial % 2))
        got = optimal_connected(cache, K, root_has_parents=True)
        ranked = exhaustive_connected(cache, K, root_has_parents=True)
        assert got.score == ranked[0][1]
        assert cache_score(cache, got.assignment) == got.score
        assert got.assignment.uniform_degree() == K
        assert spans(got.assignment, got.root)
        for parent, child in got.tree:
            assert parent in got.assignment.members_of(child)


def test_greedy_connected_structure():
    rng = np.random.default_rng(263)
    for trial in range(20):
        m = int(rng.integers(3, 6))
        L = int(rng.integers(1, min(3, m - 1)))
        cache = random_cache(m, L, rng)
        for k in range(1, L):
            for target, members, value in random_cache(m, k, rng).items():
                cache.put(target, members, value)
        ev = evaluator_from_cache(cache, L)
        got = greedy_connected(ev, L)
        assert got.assignment.members_of(got.root) == ()
        assert spans(got.assignment, got.root)
        for parent, child in got.tree:
            # the tree edge's parent is pinned into the child's set
            assert parent in got.assignment.members_of(child)
            assert len(got.assignment.members_of(child)) == L
        # never better than the exact constrained optimum
        exact = optimal_connected(cache, L)
        assert got.score <= exact.score + 1e-9


def test_greedy_connected_rooted_variant():
    rng = np.random.default_rng(269)
    cache = random_cache(4, 2, rng)
    for target, members, value in random_cache(4, 1, rng).items():
        cache.put(target, members, value)
    ev = evaluator_from_cache(cache, 2)
    got = greedy_connected(ev, 2, root_has_parents=True)
    assert got.assignment.uniform_degree() == 2
    assert spans(got.assignment, got.root)


def test_greedy_on_discrete_data_matches_per_query_counting():
    # batched plug-in scans through increments pick the same structures,
    # to the bit, as one np.unique query per candidate
    rng = np.random.default_rng(271)
    m, n, order = 5, 400, 2
    data = rng.integers(0, 2, size=(m, n))
    for i in range(1, m):
        copy = rng.random(n - 1) < 0.7
        data[i, 1:] = np.where(copy, data[i - 1, :-1], data[i, 1:])
    panel = TimeSeriesPanel(data, kind="discrete", alphabet_size=2)
    config = EstimatorConfig(markov_order=order, estimator="discrete")

    def counted(target, add, cond):
        return unique_count_di(data, 2, target, add, cond, order)

    for L in (1, 2, 3):
        batched = DIEvaluator.from_panel(panel, config)
        plain = DIEvaluator(counted, m)
        got, want = greedy_general(batched, L), greedy_general(plain, L)
        assert (got.assignment, got.score, got.orders) == (
            want.assignment, want.score, want.orders
        )
        for rooted in (False, True):
            got = greedy_connected(batched, L, root_has_parents=rooted)
            want = greedy_connected(plain, L, root_has_parents=rooted)
            assert (got.assignment, got.score, got.root, got.tree) == (
                want.assignment, want.score, want.root, want.tree
            )


def test_connected_searches_are_deterministic_under_ties():
    rng = np.random.default_rng(271)
    for _ in range(10):
        cache = random_cache(4, 2, rng, tie_rich=True)
        a = optimal_connected(cache, 2)
        b = optimal_connected(cache, 2)
        assert a.assignment == b.assignment and a.root == b.root
        # exhaustive oracle agrees on the winning assignment under the
        # shared (score desc, canonical key asc) tie rule
        ranked = exhaustive_connected(cache, 2)
        assert a.score == pytest.approx(ranked[0][1], abs=1e-12)


def test_general_beats_connected_on_same_cache():
    rng = np.random.default_rng(277)
    for _ in range(20):
        m = int(rng.integers(3, 6))
        K = int(rng.integers(1, min(3, m - 1)))
        cache = random_cache(m, K, rng)
        general = optimal_general(cache, K)
        connected = optimal_connected(cache, K)
        assert connected.score <= general.score + 1e-12
