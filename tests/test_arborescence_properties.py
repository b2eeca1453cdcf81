"""Property tests of the one-solve free-root arborescence.

Hypothesis draws small integer weight tables, where exact ties are the
rule, with random masks of allowed edges and, in half the cases, integer
root weights.  One reference is the per-root loop in ``_oracles.py``: one
fixed-root solve per node, the strictly best total (tree plus root
weight) winning, so ties go to the smallest root.  The other is the
contraction there that rebuilds every arc at each level, which the
incremental solver must match in root, parents, their order and the
bits of the total, on integer tables and on real ones up to m=40.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dinet.approximation import greedy_connected, greedy_general, optimal_connected
from dinet.arborescence import EdgeWeights, max_weight_arborescence
from dinet.errors import InfeasibleArborescenceError

from _oracles import (
    contraction_arborescence,
    exhaustive_connected,
    per_root_arborescence,
    random_cache,
)
from test_approximation import evaluator_from_cache


@st.composite
def tie_rich_tables(draw, most=8):
    """An m x m integer weight table (m <= ``most``), a random allowed mask
    and either no root weights or one integer per node."""
    m = draw(st.integers(1, most))
    lo = draw(st.integers(-1, 0))
    hi = draw(st.integers(1, 2))
    w = draw(st.lists(st.integers(lo, hi), min_size=m * m, max_size=m * m))
    mask = draw(st.lists(st.booleans(), min_size=m * m, max_size=m * m))
    root_weights = draw(
        st.none() | st.lists(st.integers(lo, hi).map(float), min_size=m, max_size=m)
    )
    return (
        np.array(w, dtype=float).reshape(m, m),
        np.array(mask, dtype=bool).reshape(m, m),
        root_weights,
    )


@settings(max_examples=300, deadline=None)
@given(tie_rich_tables())
def test_free_root_solve_matches_per_root_oracle(table):
    w, mask, root_weights = table
    weights = EdgeWeights(w, mask)
    try:
        want = per_root_arborescence(weights, root_weights)
    except InfeasibleArborescenceError:
        with pytest.raises(InfeasibleArborescenceError):
            max_weight_arborescence(weights, root_weights=root_weights)
        return
    got = max_weight_arborescence(weights, root_weights=root_weights)
    assert got.root == want.root
    assert got.parent == want.parent
    assert got.total_weight == want.total_weight


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(3, 5),
    K=st.integers(1, 2),
)
def test_rooted_variants_maximize_tree_plus_root_value(seed, m, K):
    rng = np.random.default_rng(seed)
    caches = [random_cache(m, k, rng, tie_rich=True) for k in range(1, K + 1)]
    cache = caches[-1]
    for smaller in caches[:-1]:
        for target, members, value in smaller.items():
            cache.put(target, members, value)
    rooted = optimal_connected(cache, K, root_has_parents=True)
    assert rooted.score == exhaustive_connected(cache, K, root_has_parents=True)[0][1]
    # each root weighs its own greedy set, which greedy_general also picks
    ev = evaluator_from_cache(cache, K)
    greedy = greedy_connected(ev, K, root_has_parents=True)
    sets = greedy_general(ev, K).assignment
    bonus = [ev.set_value(i, sets.members_of(i)) for i in range(1, m + 1)]
    want = per_root_arborescence(greedy.weights, bonus)
    assert (greedy.root, greedy.tree) == (want.root, tuple(want.edges()))
    assert greedy.assignment.members_of(greedy.root) == sets.members_of(greedy.root)


def _same_solve(weights, root=None, root_weights=None):
    """Assert the solver gives the reference contraction's answer, bit for bit."""
    try:
        want, contractions = contraction_arborescence(weights, root, root_weights)
    except InfeasibleArborescenceError:
        with pytest.raises(InfeasibleArborescenceError):
            max_weight_arborescence(weights, root, root_weights)
        return None
    got = max_weight_arborescence(weights, root, root_weights)
    assert got.root == want.root
    assert list(got.parent.items()) == list(want.parent.items())
    assert got.total_weight.hex() == want.total_weight.hex()
    return contractions


@settings(max_examples=300, deadline=None)
@given(tie_rich_tables(most=12), st.data())
def test_incremental_contraction_matches_the_rebuilding_one(table, data):
    w, mask, root_weights = table
    weights = EdgeWeights(w, mask)
    if data.draw(st.booleans(), label="fixed root"):
        _same_solve(weights, data.draw(st.integers(1, weights.m), label="root"))
    else:
        _same_solve(weights, root_weights=root_weights)


@pytest.mark.parametrize("m", [2, 5, 13, 27, 40])
@pytest.mark.parametrize("density", [0.3, 1.0])
def test_incremental_contraction_matches_on_real_tables(m, density):
    rng = np.random.default_rng([m, int(10 * density)])
    for _ in range(3):
        weights = EdgeWeights(rng.standard_normal((m, m)), rng.random((m, m)) < density)
        _same_solve(weights, root_weights=rng.standard_normal(m).tolist())
        _same_solve(weights)
        _same_solve(weights, int(rng.integers(1, m + 1)))


def test_incremental_contraction_matches_over_many_levels():
    # arcs weigh less the higher the bit where their nodes' indices
    # differ, so pairs contract first, then pairs of super nodes, ...
    m = 32
    ix = np.arange(m)
    level = np.frexp((ix[:, None] ^ ix[None, :]).astype(float))[1]
    w = 10.0 ** -level.astype(float) + 1e-3 * np.random.default_rng(3).random((m, m))
    weights = EdgeWeights(w)
    assert _same_solve(weights) == m - 1
    assert _same_solve(weights, 17) >= m // 2
