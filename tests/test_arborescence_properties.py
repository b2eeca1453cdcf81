"""Property tests of the one-solve free-root arborescence.

Hypothesis draws small integer weight tables, where exact ties are the
rule, with random masks of allowed edges and, in half the cases, integer
root weights.  The reference is the per-root loop in ``_oracles.py``: one
fixed-root solve per node, the strictly best total (tree plus root
weight) winning, so ties go to the smallest root.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dinet.approximation import greedy_connected, greedy_general, optimal_connected
from dinet.arborescence import EdgeWeights, max_weight_arborescence
from dinet.errors import InfeasibleArborescenceError

from _oracles import exhaustive_connected, per_root_arborescence, random_cache
from test_approximation import evaluator_from_cache


@st.composite
def tie_rich_tables(draw):
    """An m x m integer weight table (m <= 8), a random allowed mask and
    either no root weights or one integer per node."""
    m = draw(st.integers(1, 8))
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
