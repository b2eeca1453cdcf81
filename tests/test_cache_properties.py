"""Property tests of the dense directed information cache against a dict oracle.

The cache stores one float64 row per (target, set size) in parent set
index order, with a filled mask.  ``_oracles.DictCache`` is the plain
dict keyed by (target, sorted members) that the rows replace: the two
must agree on every read, on ``len``, on ``items`` across mixed set
sizes, and byte for byte on JSON.  A candidate list is one stable
argsort of a row; it must order sets exactly as a stable reverse sort of
the values in rank order does.  The cache keeps each row's list for the
two optimal searches, and the rankings sort their own: no search may
change a kept list, no ranking may keep one, a search on a shared cache
must give what it gives on a fresh copy, and a write to a row must reach
the next search.
"""

import json
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dinet.approximation import _Candidates, optimal_connected, optimal_general
from dinet.errors import UncachedParentSetError
from dinet.structures import DirectedInfoCache, _set_rank
from dinet.topr import _class_size, top_r_connected, top_r_general

from _oracles import DictCache, best_first_positions

# signed zeros, values at the ends of the float range and a 16-digit repr
EDGE_VALUES = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324, 1 / 3]
# equal values, signed zeros and values that differ below rounding
TIE_VALUES = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1e-17, 2e-17])
VALUES = TIE_VALUES | st.floats(-1e3, 1e3, allow_nan=False)


def others(m, target):
    return [j for j in range(1, m + 1) if j != target]


def every_set(m, target):
    """Every set for ``target``, of every size, in rank order within a size."""
    pool = others(m, target)
    return [ms for k in range(m) for ms in combinations(pool, k)]


def bits(value):
    """A float's value with its sign, so that -0.0 and 0.0 differ."""
    return (value, math.copysign(1.0, value))


def same_read(read, oracle_read):
    """Both calls return the same bits, or both raise the same uncached error."""
    try:
        expected = oracle_read()
    except UncachedParentSetError as exc:
        with pytest.raises(UncachedParentSetError) as got:
            read()
        assert str(got.value) == str(exc)
        return
    assert bits(read()) == bits(expected)


@st.composite
def puts(draw):
    """(m, K, puts): shuffled sets of every size, the empty set too, with overwrites."""
    m = draw(st.integers(1, 6))
    K = draw(st.integers(0, m - 1))
    out = []
    for _ in range(draw(st.integers(0, 40))):
        target = draw(st.integers(1, m))
        pool = others(m, target)
        members = draw(st.lists(st.sampled_from(pool), unique=True) if pool else st.just([]))
        out.append((target, members, draw(VALUES)))
    if out and draw(st.booleans()):
        target, members, _ = draw(st.sampled_from(out))
        out.append((target, members[::-1], draw(VALUES)))
    return m, K, out


@settings(max_examples=200, deadline=None)
@given(puts())
def test_cache_matches_the_dict_oracle(drawn):
    m, K, entries = drawn
    cache, oracle = DirectedInfoCache(m, K), DictCache(m, K)
    for target, members, value in entries:
        cache.put(target, members, value)
        oracle.put(target, members, value)
    assert len(cache) == len(oracle)
    assert [(t, ms, bits(v)) for t, ms, v in cache.items()] == [
        (t, ms, bits(v)) for t, ms, v in oracle.items()
    ]
    text = cache.to_json()
    assert text == oracle.to_json()
    assert DirectedInfoCache.from_json(text).to_json() == text
    for target in range(1, m + 1):
        for members in every_set(m, target):
            shuffled = members[::-1]
            assert ((target, shuffled) in cache) == ((target, members) in oracle)
            same_read(
                lambda: cache.get(target, shuffled), lambda: oracle.get(target, members)
            )


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6), st.integers(0, 3), st.sampled_from([0.0, 0.3, 1.0]),
       st.integers(0, 2**32 - 1))
def test_json_writer_matches_the_indenting_encoder(m, K, fill, seed):
    """``to_json`` writes exactly what ``json.dumps(..., indent=2)`` would."""
    K = min(K, m - 1)
    rng = np.random.default_rng(seed)
    cache = DirectedInfoCache(m, K)
    for target in range(1, m + 1):
        # empty sets and sizes around K, each set stored with probability fill
        for members in every_set(m, target):
            if len(members) <= K + 1 and rng.random() < fill:
                value = (EDGE_VALUES[rng.integers(len(EDGE_VALUES))] if rng.random() < 0.5
                         else float(rng.standard_normal() * 10.0 ** rng.integers(-20, 20)))
                cache.put(target, members, value)
    assert cache.to_json() == json.dumps(cache.to_json_dict(), indent=2) + "\n"


@st.composite
def rows(draw):
    """(m, K, values per target): tie-rich rows, some with one gap."""
    m = draw(st.integers(2, 7))
    K = draw(st.integers(0, m - 1))
    filled = {}
    for target in range(1, m + 1):
        sets = list(combinations(others(m, target), K))
        values = draw(st.lists(TIE_VALUES, min_size=len(sets), max_size=len(sets)))
        gap = draw(st.none() | st.integers(0, len(sets) - 1)) if K else None
        filled[target] = [
            (ms, v) for p, (ms, v) in enumerate(zip(sets, values)) if p != gap
        ]
    return m, K, filled


@settings(max_examples=200, deadline=None)
@given(rows())
def test_exact_candidates_match_a_stable_reverse_sort(drawn):
    m, K, filled = drawn
    cache, oracle = DirectedInfoCache(m, K), DictCache(m, K)
    for target, entries in filled.items():
        for ms, v in entries:
            cache.put(target, ms, v)
            oracle.put(target, ms, v)
    for target in range(1, m + 1):
        sets = list(combinations(others(m, target), K))
        try:
            values = [oracle.get(target, ms) if ms else 0.0 for ms in sets]
        except UncachedParentSetError as exc:
            with pytest.raises(UncachedParentSetError) as got:
                _Candidates.exact(cache, target, K)
            assert str(got.value) == str(exc)
            continue
        ranks = best_first_positions(values)
        lst = _Candidates.exact(cache, target, K)
        assert lst.ranks == ranks
        assert lst.members == [sets[p] for p in ranks]
        assert [bits(v) for v in lst.values] == [bits(values[p]) for p in ranks]
        assert all(type(v) is float for v in lst.values)
        assert all(type(p) is int for p in lst.ranks)


KEEPING = ("optimal_general", "optimal_connected", "optimal_connected_root_parents")


def searches(m, K):
    """Every search and ranking that reads a cache's exact lists, by name.

    The names in ``KEEPING`` keep their lists on the cache; the rankings
    sort their own.
    """
    return {
        "optimal_general": lambda cache: optimal_general(cache, K),
        "optimal_connected": lambda cache: optimal_connected(cache, K),
        "optimal_connected_root_parents": lambda cache: optimal_connected(cache, K, True),
        "top_r_general": lambda cache: top_r_general(cache, K, min(6, _class_size(m, K))),
        "top_r_connected": lambda cache: top_r_connected(
            cache, K, min(6, _class_size(m, K, True))
        ),
        "top_r_connected_root_parents": lambda cache: top_r_connected(
            cache, K, min(6, _class_size(m, K)), True
        ),
    }


def outcome(result):
    """Every field of a search result, its floats by their bits."""
    results = result if isinstance(result, tuple) else (result,)
    out = []
    for sol in results:
        fields = [sol.assignment.canonical_key(), bits(sol.score)]
        if hasattr(sol, "tree"):
            fields += [sol.root, sol.tree, [(a, b, bits(w)) for a, b, w in sol.weights.arcs()]]
        out.append(fields)
    return out


def snapshot(cache):
    """Copies of every kept list's members, values (by bits) and ranks."""
    return {
        key: (list(lst.members), [bits(v) for v in lst.values], list(lst.ranks))
        for key, lst in cache._lists.items()
    }


@st.composite
def full_caches(draw):
    """A cache holding every size-K value, tie-rich, and an order of searches."""
    m = draw(st.integers(3, 5))
    K = draw(st.integers(1, m - 1))
    cache = DirectedInfoCache(m, K)
    for target in range(1, m + 1):
        for ms in combinations(others(m, target), K):
            cache.put(target, ms, draw(VALUES))
    order = draw(st.permutations(sorted(searches(m, K))))
    return m, K, cache, order


@settings(max_examples=60, deadline=None)
@given(full_caches())
def test_searches_on_a_shared_cache_match_a_fresh_copy_and_keep_its_lists(drawn):
    m, K, cache, order = drawn
    run = searches(m, K)
    kept = None
    for name in order:
        fresh = DirectedInfoCache.from_json(cache.to_json())
        assert outcome(run[name](cache)) == outcome(run[name](fresh)), name
        if kept is None and name in KEEPING:
            kept = snapshot(cache)
            lists = dict(cache._lists)
            assert sorted(kept) == [(target, K) for target in range(1, m + 1)]
        elif kept is None:
            assert cache._lists == {}, name
    # every search read the lists the first keeping one built, and no
    # search or ranking changed them
    assert snapshot(cache) == kept
    assert all(cache._lists[key] is lst for key, lst in lists.items())


@pytest.mark.parametrize("write", ["put", "_put_row"])
def test_a_write_to_a_row_reaches_the_next_search(write):
    m, K, target = 5, 2, 3
    rng = np.random.default_rng(17)
    cache = DirectedInfoCache(m, K)
    for i in range(1, m + 1):
        for ms in combinations(others(m, i), K):
            cache.put(i, ms, float(rng.uniform(0.1, 1.0)))
    run = searches(m, K)
    for search in run.values():
        search(cache)
    lists = dict(cache._lists)
    # lift the target's worst set above its best, so every search changes
    worst = lists[(target, K)].members[-1]
    lifted = lists[(target, K)].values[0] + 1.0
    if write == "put":
        cache.put(target, worst[::-1], lifted)
    else:
        row = cache._row(target, K).tolist()
        row[_set_rank(m, target, worst)] = lifted
        cache._put_row(target, K, row)
    # the written row's list is dropped; every other row keeps its own
    assert (target, K) not in cache._lists
    assert all(cache._lists[key] is lst for key, lst in lists.items() if key != (target, K))
    best = optimal_general(cache, K)
    assert best.assignment.members_of(target) == worst
    assert cache._lists[(target, K)].entry() == (worst, lifted)
    assert top_r_general(cache, K, 3)[0].assignment.members_of(target) == worst
    for root_has_parents in (False, True):
        # each arc into the target from the lifted set now weighs that set
        got = optimal_connected(cache, K, root_has_parents)
        assert all(got.weights.weight(j, target) == lifted for j in worst)
    # and each search gives what it gives on a fresh copy of the new values
    fresh = DirectedInfoCache.from_json(cache.to_json())
    for name, search in run.items():
        assert outcome(search(cache)) == outcome(search(fresh)), name
