"""Property tests of the one-solve free-root arborescence.

Hypothesis draws small integer weight tables, where exact ties are the
rule, with random masks of allowed edges.  The reference is the per-root
loop in ``_oracles.py``: one fixed-root solve per node, the strictly best
total winning, so ties go to the smallest root.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dinet.approximation import greedy_connected, optimal_connected
from dinet.arborescence import EdgeWeights, max_weight_arborescence
from dinet.errors import InfeasibleArborescenceError

from _oracles import per_root_arborescence, random_cache
from test_approximation import evaluator_from_cache


@st.composite
def tie_rich_tables(draw):
    """An m x m integer weight table (m <= 8) and a random allowed mask."""
    m = draw(st.integers(1, 8))
    lo = draw(st.integers(-1, 0))
    hi = draw(st.integers(1, 2))
    w = draw(st.lists(st.integers(lo, hi), min_size=m * m, max_size=m * m))
    mask = draw(st.lists(st.booleans(), min_size=m * m, max_size=m * m))
    return (
        np.array(w, dtype=float).reshape(m, m),
        np.array(mask, dtype=bool).reshape(m, m),
    )


@settings(max_examples=300, deadline=None)
@given(tie_rich_tables())
def test_free_root_solve_matches_per_root_oracle(table):
    weights = EdgeWeights(*table)
    try:
        want = per_root_arborescence(weights)
    except InfeasibleArborescenceError:
        with pytest.raises(InfeasibleArborescenceError):
            max_weight_arborescence(weights)
        return
    got = max_weight_arborescence(weights)
    assert got.root == want.root
    assert got.parent == want.parent
    assert got.total_weight == want.total_weight


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(3, 6),
    K=st.integers(1, 2),
)
def test_rooted_variants_keep_the_free_root_tree(seed, m, K):
    rng = np.random.default_rng(seed)
    caches = [random_cache(m, k, rng, tie_rich=True) for k in range(1, K + 1)]
    cache = caches[-1]
    for smaller in caches[:-1]:
        for target, members, value in smaller.items():
            cache.put(target, members, value)
    ev = evaluator_from_cache(cache, K)
    for search, source in ((optimal_connected, cache), (greedy_connected, ev)):
        rooted = search(source, K, root_has_parents=True)
        tree = max_weight_arborescence(rooted.weights)
        assert rooted.root == tree.root
        assert rooted.tree == tuple(tree.edges())
        plain = search(source, K)
        assert (plain.root, plain.tree) == (rooted.root, rooted.tree)
