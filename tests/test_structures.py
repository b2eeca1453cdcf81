import json
import tracemalloc
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dinet.structures
from dinet.approximation import optimal_general
from dinet.errors import UncachedParentSetError, ValidationError
from dinet.estimation import DIEvaluator, build_cache
from dinet.structures import (
    MAX_CACHE_VALUES,
    DirectedInfoCache,
    ParentAssignment,
    ParentSet,
    ScoredApproximation,
    _all_parent_sets,
    _has_spanning_tree,
    approximation_index,
    assignment_from_index,
    parent_set_from_index,
    parent_set_index,
)

from _oracles import spans


def test_parent_set_canonicalizes_members():
    ps = ParentSet(3, (5, 1, 4))
    assert ps.members == (1, 4, 5)
    assert ps.size == 3
    assert list(ps) == [1, 4, 5]
    assert 4 in ps and 3 not in ps


def test_parent_set_rejects_bad_members():
    with pytest.raises(ValidationError):
        ParentSet(2, (2,))  # self loop
    with pytest.raises(ValidationError):
        ParentSet(2, (1, 1))  # duplicate
    with pytest.raises(ValidationError):
        ParentSet(2, (0,))


def test_assignment_basicaccessors():
    a = ParentAssignment.from_lists([(2, 3), (1,), ()])
    assert a.m == 3
    assert a.members_of(1) == (2, 3)
    assert a.members_of(3) == ()
    assert a.uniform_degree() is None
    assert a.root() == 3
    assert a.edges() == [(1, 2), (2, 1), (3, 1)]
    with pytest.raises(ValidationError):
        a.members_of(4)


def test_assignment_uniform_degree_and_root():
    a = ParentAssignment.from_lists([(2,), (1,), (1,)])
    assert a.uniform_degree() == 1
    assert a.root() is None  # no empty set
    b = ParentAssignment.from_lists([(), (), (1,)])
    assert b.root() is None  # two empty sets is ambiguous


def test_assignment_rejects_out_of_range_parents():
    with pytest.raises(ValidationError):
        ParentAssignment.from_lists([(2,), (3,)])  # 3 > m=2
    with pytest.raises(ValidationError):
        ParentAssignment.from_lists([(1,), (1,)])  # self loop at node 1
    with pytest.raises(ValidationError, match=r"parents\[0\]"):
        ParentAssignment.from_lists([1, [1]])  # node 1's entry is not a set


def test_assignment_canonical_key_orders_assignments():
    a = ParentAssignment.from_lists([(2,), (1,)])
    b = ParentAssignment.from_lists([(2,), (3,), (1,)])
    assert a.canonical_key() == ((2,), (1,))
    assert a.canonical_key() != b.canonical_key()


def test_assignment_json_round_trip():
    a = ParentAssignment.from_lists([(2, 3), (1, 3), (1, 2)])
    obj = json.loads(json.dumps(a.to_json_dict()))
    assert obj["m"] == 3 and obj["K"] == 2
    back = ParentAssignment.from_lists(obj["parents"])
    assert back == a
    # connected shape: root has no parents, K reports the non-root degree
    c = ParentAssignment.from_lists([(), (1,), (1,)])
    assert c.to_json_dict()["K"] == 1
    assert ParentAssignment.from_lists(c.to_json_dict()["parents"]) == c


def test_assignment_dot_output_is_deterministic():
    a = ParentAssignment.from_lists([(), (1,), (2,)])
    dot = a.to_dot(root=1)
    assert dot == a.to_dot(root=1)
    assert "doublecircle" in dot
    assert "x1 -> x2" in dot and "x2 -> x3" in dot
    assert "digraph" in dot


def test_scored_approximation_holds_fields():
    a = ParentAssignment.from_lists([(2,), (1,)])
    s = ScoredApproximation(a, 1.5)
    assert s.assignment == a and s.score == 1.5


def test_cache_put_get_and_missing_key():
    cache = DirectedInfoCache(3, 1)
    cache.put(1, (2,), 0.5)
    assert cache.get(1, (2,)) == 0.5
    assert (1, (2,)) in cache
    assert (1, (3,)) not in cache
    with pytest.raises(UncachedParentSetError) as err:
        cache.get(1, (3,))
    assert "target 1" in str(err.value) and "[3]" in str(err.value)


def test_cache_validates_entries():
    cache = DirectedInfoCache(3, 1)
    with pytest.raises(ValidationError):
        cache.put(1, (1,), 0.1)  # self loop
    with pytest.raises(ValidationError):
        cache.put(4, (2,), 0.1)  # bad target
    with pytest.raises(ValidationError):
        cache.put(1, (5,), 0.1)  # bad parent
    # the store itself is size flexible; cache builders decide what goes in
    cache.put(1, (2, 3), 0.1)
    assert cache.get(1, (2, 3)) == 0.1


def test_cache_json_round_trip_and_sorted_items():
    cache = DirectedInfoCache(3, 1)
    for target in (3, 1, 2):
        for j in range(1, 4):
            if j != target:
                cache.put(target, (j,), target + 0.1 * j)
    back = DirectedInfoCache.from_json(cache.to_json())
    assert back.m == 3 and back.K == 1
    assert back.items() == cache.items()
    items = cache.items()
    assert items == sorted(items, key=lambda row: (row[0], row[1]))
    assert len(cache) == 6


def test_cache_size_cap_fails_before_allocating():
    # m=40 with sets of size 5 is 40 * C(39, 5) = 23,030,280 values; size 4 fits
    assert 40 * comb(39, 4) <= MAX_CACHE_VALUES < 40 * comb(39, 5) == 23_030_280
    ev = DIEvaluator(lambda *query: 0.0, 40)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=r"m=40 .* size 5 holds 23,030,280 values"):
            build_cache(ev, 40, 5)
        with pytest.raises(ValidationError, match=r"m=40 .* size 5 holds 23,030,280 values"):
            DirectedInfoCache(40, 1).put(1, (2, 3, 4, 5, 6), 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert ev.calls == 0  # nothing computed before the check


def test_cache_size_cap_is_inclusive(monkeypatch):
    monkeypatch.setattr(dinet.structures, "MAX_CACHE_VALUES", 40 * 39)
    ev = DIEvaluator(lambda *query: 0.5, 40)
    cache = build_cache(ev, 40, 1)  # exactly at the cap
    assert len(cache) == 40 * 39 and cache.get(40, (1,)) == 0.5
    with pytest.raises(ValidationError, match="size 2 holds 29,640 values"):
        cache.put(1, (2, 3), 0.5)
    assert len(cache) == 40 * 39


def test_a_score_sums_and_skips_empty_sets():
    cache = DirectedInfoCache(3, 1)
    cache.put(2, (1,), 0.25)
    cache.put(2, (3,), 0.0)
    cache.put(3, (1,), 0.0)
    cache.put(3, (2,), 0.5)
    # node 1 keeps the empty set, which needs no cache entry
    got = optimal_general(cache, [0, 1, 1])
    assert got.assignment == ParentAssignment.from_lists([(), (1,), (2,)])
    assert got.score == 0.75


@st.composite
def member_tuples(draw):
    """(m, members): node i's parents ``members[i - 1]``, some draws with no empty set.

    A graph in which every node has a parent contains a cycle, so the
    check must try roots that do have parents.
    """
    m = draw(st.integers(2, 6))
    least = draw(st.sampled_from([0, 1]))
    members = tuple(
        tuple(sorted(draw(st.lists(
            st.sampled_from([j for j in range(1, m + 1) if j != i]),
            min_size=least, max_size=m - 1, unique=True,
        ))))
        for i in range(1, m + 1)
    )
    return m, members


@settings(max_examples=300, deadline=None)
@given(member_tuples())
def test_spanning_check_agrees_with_the_oracle(drawn):
    _, members = drawn
    assert _has_spanning_tree(members) == spans(ParentAssignment.from_lists(members))


def test_parent_set_index_bijection_exhaustive():
    for m in range(2, 9):
        for K in range(0, min(4, m)):
            for target in range(1, m + 1):
                others = [j for j in range(1, m + 1) if j != target]
                expected = list(combinations(others, K))
                for rank, members in enumerate(expected):
                    assert parent_set_index(m, target, members) == rank
                    assert parent_set_from_index(m, target, K, rank) == members
                # index order coincides with lexicographic member order
                assert expected == sorted(expected)
                assert list(_all_parent_sets(m, target, K)) == expected


def test_parent_set_index_rejects_bad_input():
    with pytest.raises(ValidationError):
        parent_set_index(3, 1, (1,))  # contains target
    with pytest.raises(ValidationError):
        parent_set_from_index(3, 1, 1, 2)  # only 2 sets exist


def test_approximation_index_bijection_exhaustive():
    for m in range(2, 5):
        for K in range(1, min(3, m)):
            per_node = comb(m - 1, K)
            space = per_node**m
            seen = set()
            per_node_sets = [
                list(combinations([j for j in range(1, m + 1) if j != i], K))
                for i in range(1, m + 1)
            ]
            import itertools

            for combo in itertools.product(*per_node_sets):
                a = ParentAssignment.from_lists(combo)
                idx = approximation_index(a)
                assert 1 <= idx <= space
                assert idx not in seen
                seen.add(idx)
                assert assignment_from_index(m, K, idx) == a
            assert len(seen) == space


@st.composite
def uniform_assignments(draw):
    """An m <= 7 assignment whose nodes all have K parents, 0 <= K < m."""
    m = draw(st.integers(2, 7))
    K = draw(st.integers(0, m - 1))
    lists = [
        draw(st.lists(st.sampled_from([j for j in range(1, m + 1) if j != i]),
                      min_size=K, max_size=K, unique=True))
        for i in range(1, m + 1)
    ]
    return m, K, ParentAssignment.from_lists(lists)


@settings(max_examples=200, deadline=None)
@given(uniform_assignments())
def test_approximation_index_round_trip(drawn):
    m, K, a = drawn
    assert assignment_from_index(m, K, approximation_index(a)) == a


@settings(max_examples=200, deadline=None)
@given(uniform_assignments(), st.data())
def test_parent_set_index_is_the_enumeration_position(drawn, data):
    # every ranking's tie key rests on this: a candidate's rank is where
    # _all_parent_sets puts it
    m, K, a = drawn
    target = data.draw(st.integers(1, m), label="target")
    members = a.members_of(target)
    assert parent_set_index(m, target, members) == list(
        _all_parent_sets(m, target, K)
    ).index(members)


def test_approximation_index_requires_uniform_degree():
    a = ParentAssignment.from_lists([(2, 3), (1,), (1,)])
    with pytest.raises(ValidationError):
        approximation_index(a)
