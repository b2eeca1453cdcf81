"""Property test of the optimal searches' first-maximum rule against an oracle.

``optimal_general`` takes each node's first maximum over its cache row,
and ``optimal_connected`` weighs arc ``j -> i`` by the first maximum
among ``i``'s sets that hold ``j``; ``np.argmax`` supplies the first
maximum.  On tie-rich caches, signed zeros and values that differ below
rounding included, every node set and every arc weight must equal the
enumerating oracle ``_oracles.first_max_entries`` bit for bit, in both
root modes, and the scores must equal the exhaustive searches' (as
numbers: the sign of a zero sum may differ) wherever the class is small
enough to enumerate.
"""

import math
from itertools import combinations
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from dinet.approximation import optimal_connected, optimal_general
from dinet.structures import DirectedInfoCache

from _oracles import exhaustive_connected, exhaustive_optimal_general, first_max_entries

# equal values, signed zeros and values that differ below rounding
TIE_VALUES = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1e-17, 2e-17])
# the most assignments of one size the exhaustive searches enumerate
EXHAUSTIVE_CAP = 1100


def bits(value):
    """A float's hex with its sign, so that -0.0 and 0.0 differ."""
    return value.hex()


@st.composite
def tie_rich_caches(draw):
    """(m, K, cache): every size-K value of every target drawn from ``TIE_VALUES``."""
    m = draw(st.integers(3, 6))
    K = draw(st.integers(1, m - 1))
    cache = DirectedInfoCache(m, K)
    for target in range(1, m + 1):
        others = [j for j in range(1, m + 1) if j != target]
        for members in combinations(others, K):
            cache.put(target, members, draw(TIE_VALUES))
    return m, K, cache


@settings(max_examples=150, deadline=None)
@given(tie_rich_caches())
def test_optimal_searches_take_the_first_maximum(drawn):
    m, K, cache = drawn
    best, arcs = first_max_entries(cache, K)
    small = comb(m - 1, K) ** m <= EXHAUSTIVE_CAP

    general = optimal_general(cache, K)
    assert general.assignment.canonical_key() == tuple(ms for ms, _ in best)
    assert bits(general.score) == bits(math.fsum(v for _, v in best))
    if small:
        # a tie that exists only after rounding may pick other sets there
        assert general.score == exhaustive_optimal_general(cache, K)[1]

    for root_has_parents in (False, True):
        got = optimal_connected(cache, K, root_has_parents)
        # every arc is allowed and weighs the oracle's set for it
        assert [(j, i, bits(w)) for j, i, w in got.weights.arcs()] == [
            (j, i, bits(arcs[(i, j)][1])) for j in range(1, m + 1)
            for i in range(1, m + 1) if i != j
        ]
        parent = {child: source for source, child in got.tree}
        for i in range(1, m + 1):
            if i == got.root:
                want = best[i - 1][0] if root_has_parents else ()
            else:
                want = arcs[(i, parent[i])][0]
            assert got.assignment.members_of(i) == want
        if small:
            assert got.score == exhaustive_connected(cache, K, root_has_parents)[0][1]
