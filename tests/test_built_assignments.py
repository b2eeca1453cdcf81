"""Every structure a search or ranking builds equals its checked construction.

Searches and rankings build their results from candidate lists with an
unchecked constructor, since every set in those lists was checked or
generated in sorted form already.  Each returned assignment must still
be the one :meth:`ParentAssignment.from_lists` makes from its canonical
key: equal, and with an equal hash.
"""

from math import comb

import numpy as np
import pytest

from dinet.approximation import (
    greedy_connected,
    greedy_general,
    optimal_connected,
    optimal_general,
)
from dinet.structures import DirectedInfoCache, ParentAssignment
from dinet.topr import top_r_connected, top_r_general, top_r_greedy

from _oracles import random_cache
from test_approximation import evaluator_from_cache


def every_size_cache(m, rng, tie_rich):
    """A ``random_cache`` of every set size 1..m-1, so greedy chains stay cached."""
    cache = DirectedInfoCache(m, m - 1)
    for k in range(1, m):
        for target, members, value in random_cache(m, k, rng, tie_rich).items():
            cache.put(target, members, value)
    return cache


def built(cache, K, r):
    """(name, assignment) for every structure each search and ranking returns."""
    ev = evaluator_from_cache(cache, cache.K)
    out = [("optimal_general", optimal_general(cache, K).assignment),
           ("greedy_general", greedy_general(ev, K).assignment)]
    for rooted in (False, True):
        out += [(f"optimal_connected {rooted}", optimal_connected(cache, K, rooted).assignment),
                (f"greedy_connected {rooted}", greedy_connected(ev, K, rooted).assignment)]
        out += [(f"top_r_connected {rooted}", s.assignment)
                for s in top_r_connected(cache, K, r, rooted)]
        out += [(f"top_r_greedy connected {rooted}", s.assignment)
                for s in top_r_greedy(ev, K, r, connected=True, root_has_parents=rooted)]
    out += [("top_r_general", s.assignment) for s in top_r_general(cache, K, r)]
    out += [("top_r_greedy", s.assignment) for s in top_r_greedy(ev, K, r)]
    return out


@pytest.mark.parametrize("tie_rich", [False, True])
def test_built_assignments_equal_their_checked_construction(tie_rich):
    rng = np.random.default_rng(23 + tie_rich)
    for _ in range(6):
        m = int(rng.integers(3, 6))
        cache = every_size_cache(m, rng, tie_rich)
        for K in range(1, m):
            for name, a in built(cache, K, min(12, comb(m - 1, K) ** m)):
                checked = ParentAssignment.from_lists(a.canonical_key())
                assert a == checked, name
                assert hash(a) == hash(checked), name
                assert a.canonical_key() == checked.canonical_key(), name
