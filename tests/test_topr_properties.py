"""Property tests of the exact tree-constrained ranking.

Hypothesis draws tie-rich caches, where equal scores are the rule, and
compares :func:`top_r_connected` with the exhaustive sort in
``_oracles.py`` in both root modes, for every ``r`` up to the class size.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dinet.topr import top_r_connected

from _oracles import exhaustive_connected, random_cache


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(3, 5),
    K=st.integers(1, 2),
    root_has_parents=st.booleans(),
)
def test_top_r_connected_matches_the_exhaustive_sort(
    data, seed, m, K, root_has_parents
):
    cache = random_cache(m, K, np.random.default_rng(seed), tie_rich=True)
    ranked = exhaustive_connected(cache, K, root_has_parents)
    r = data.draw(st.integers(1, len(ranked)), label="r")
    got = top_r_connected(cache, K, r, root_has_parents=root_has_parents)
    assert [(sol.assignment, sol.score) for sol in got] == ranked[:r]
