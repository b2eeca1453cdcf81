"""Property test of the one parent-set rule at every public entry that takes a set.

A set for a target is valid when its members are integers (never bools)
in ``1..m``, none repeated and none the target.  Each malformed set must
raise ``ValidationError`` (never ``TypeError``) at every entry, and a
valid set, in any order, must reach every entry as the same sorted key.
"""

import sys
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dinet.bounds import bound_witness_alpha
from dinet.errors import ValidationError
from dinet.estimation import (
    ZERO_GAIN_EPS,
    DIEvaluator,
    EstimatorConfig,
    TimeSeriesPanel,
    estimate_di,
    exact_di_gaussian,
)
from dinet.simulate import generate_ar_network, simulate_panel
from dinet.structures import (
    DirectedInfoCache,
    ParentAssignment,
    _all_parent_sets,
    parent_set_index,
)

from _oracles import slow_greedy_order

FAULTS = ("repeat", "target", "zero", "above m", "bool", "numpy int", "str", "not iterable")


@cache
def sources(m):
    """A model, a real panel and a binary panel with m processes."""
    model = generate_ar_network(m, np.random.default_rng(m))
    discrete = np.random.default_rng(m).integers(0, 2, size=(m, 60))
    return model, simulate_panel(model, 60, m), TimeSeriesPanel(discrete, "discrete")


@st.composite
def cases(draw):
    """(m, target, members, fault): a shuffled set, malformed unless fault is None."""
    m = draw(st.integers(3, 5))
    target = draw(st.integers(1, m))
    others = [j for j in range(1, m + 1) if j != target]
    valid = draw(st.lists(st.sampled_from(others), min_size=1, max_size=m - 1, unique=True))
    fault = draw(st.sampled_from((None, *FAULTS)))
    # the bad member may equal a valid one, as True equals 1
    value = draw(st.sampled_from(valid))
    bad = {
        "repeat": value, "target": target, "zero": 0, "above m": m + 1,
        "bool": True, "numpy int": np.int64(value), "str": str(value),
    }.get(fault)
    if fault == "not iterable":
        return m, target, value, fault
    members = valid if fault is None else [*valid, bad]
    return m, target, draw(st.permutations(members)), fault


@cache
def full_store(m):
    """A cache holding every set of every size for every target, worth its rank + 1."""
    store = DirectedInfoCache(m, 1)
    for target in range(1, m + 1):
        for k in range(m):
            for rank, members in enumerate(_all_parent_sets(m, target, k)):
                store.put(target, members, rank + 1.0)
    return store


def entries(m, target, members):
    """Each public entry that takes a set, fed ``members`` for ``target``."""
    model, panel, discrete = sources(m)
    ev = DIEvaluator.from_model(model)
    lists = [()] * m
    lists[target - 1] = members
    orders = [()] * m
    orders[target - 1] = members
    empty = ParentAssignment.from_lists([()] * m)
    # one pick, never the target: the chain orders the optimal set ``members``
    pick = [()] * m
    pick[target - 1] = (target % m + 1,)
    discrete_config = EstimatorConfig(estimator="discrete")
    return {
        "ParentAssignment.from_lists": lambda: ParentAssignment.from_lists(lists),
        "DirectedInfoCache.put": lambda: DirectedInfoCache(m, 1).put(target, members, 0.5),
        "DirectedInfoCache.get": lambda: full_store(m).get(target, members),
        "DirectedInfoCache.__contains__": lambda: (target, members) in full_store(m),
        "parent_set_index": lambda: parent_set_index(m, target, members),
        "DIEvaluator.increment": lambda: ev.increment(target, members),
        "DIEvaluator.increment conditioning": lambda: ev.increment(target, (), members),
        "DIEvaluator.set_value": lambda: ev.set_value(target, members),
        "estimate_di": lambda: estimate_di(panel, target, members),
        "estimate_di discrete": lambda: estimate_di(
            discrete, target, members, (), discrete_config
        ),
        "exact_di_gaussian": lambda: exact_di_gaussian(model, target, members),
        "bound_witness_alpha optimal": lambda: bound_witness_alpha(
            ev, ParentAssignment.from_lists(lists), pick
        ),
        "bound_witness_alpha": lambda: bound_witness_alpha(ev, empty, orders),
    }


@settings(max_examples=120, deadline=None)
@given(cases())
def test_every_set_entry_applies_one_rule(case):
    m, target, members, fault = case
    key = tuple(sorted(members)) if fault is None else None
    for name, call in entries(m, target, members).items():
        if fault is not None:
            with pytest.raises(ValidationError):
                call()
            continue
        result = call()
        if name == "ParentAssignment.from_lists":
            assert result.members_of(target) == key
        elif name == "parent_set_index":
            assert result == list(_all_parent_sets(m, target, len(key))).index(key)
        elif name == "bound_witness_alpha optimal":
            # a set of fewer than two members yields no ratio, and so does a
            # chain of zero gains, whose every step is 0/0
            _, gains = slow_greedy_order(DIEvaluator.from_model(sources(m)[0]), target, key)
            stalled = all(abs(gain) <= ZERO_GAIN_EPS * sys.float_info.epsilon for gain in gains)
            want = key if len(key) > 1 and not stalled else ()
            assert tuple(sorted(result.witness_path)) == want
        elif name == "DirectedInfoCache.get":
            assert result == parent_set_index(m, target, key) + 1.0
        elif name == "DirectedInfoCache.__contains__":
            assert result is True
    # the evaluator memoizes one sorted key: the sorted set computes nothing new
    if fault is None:
        model, _, _ = sources(m)
        ev = DIEvaluator.from_model(model)
        value = ev.increment(target, members)
        assert ev.set_value(target, key) == value == exact_di_gaussian(model, target, key)
        assert [ev.increment(target, key), ev.increment(target, members)] == [value, value]
        assert ev.calls == 1
        store = DirectedInfoCache(m, 1)
        store.put(target, members, value)
        assert store.items() == [(target, key, value)]
