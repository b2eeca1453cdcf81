"""Every public entry that takes a set size K or L, or a count (r, a
study's m, n and trials, a simulated panel's n and burn-in, the draw
limit of a random network, and the process count m of an evaluator, a
cache, ``build_cache`` and a random network), takes an ``int`` that is
not a ``bool`` and raises ValidationError for anything else, before any
list is built or any value is computed."""

from functools import cache

import numpy as np
import pytest

from dinet.approximation import (
    greedy_connected,
    greedy_general,
    optimal_connected,
    optimal_general,
)
from dinet.bounds import (
    coefficient_table,
    degree_gap_coefficient,
    geometric_budget_maximum,
    greedy_bound_coefficient,
)
from dinet.errors import ValidationError
from dinet.estimation import DIEvaluator, build_cache
from dinet.simulate import ExperimentConfig, generate_ar_network, simulate_panel
from dinet.structures import (
    DirectedInfoCache,
    all_parent_sets,
    assignment_from_index,
    parent_set_from_index,
)
from dinet.topr import get_new_solutions, top_r_connected, top_r_general, top_r_greedy

M = 5


@cache
def network():
    return generate_ar_network(M, np.random.default_rng([13, 5]))


@cache
def inputs():
    ev = DIEvaluator.from_model(network())
    cache_ = build_cache(ev, M, 2)
    return ev, cache_, optimal_general(cache_, 2).assignment


SIZE_ENTRIES = {
    "DirectedInfoCache": lambda v: DirectedInfoCache(M, v),
    "build_cache": lambda v: build_cache(inputs()[0], M, v),
    "optimal_general": lambda v: optimal_general(inputs()[1], v),
    "optimal_general vector": lambda v: optimal_general(inputs()[1], [v, 2, 2, 2, 2]),
    "greedy_general": lambda v: greedy_general(inputs()[0], v),
    "greedy_general vector": lambda v: greedy_general(inputs()[0], (2, 2, v, 2, 2)),
    "optimal_connected": lambda v: optimal_connected(inputs()[1], v),
    "greedy_connected": lambda v: greedy_connected(inputs()[0], v, True),
    "top_r_general": lambda v: top_r_general(inputs()[1], v, 3),
    "get_new_solutions": lambda v: get_new_solutions(inputs()[1], v, inputs()[2]),
    "top_r_connected": lambda v: top_r_connected(inputs()[1], v, 3),
    "top_r_greedy": lambda v: top_r_greedy(inputs()[0], v, 3),
    "top_r_greedy connected": lambda v: top_r_greedy(inputs()[0], v, 3, True),
    "ExperimentConfig K": lambda v: ExperimentConfig(M, v),
    "ExperimentConfig L": lambda v: ExperimentConfig(M, 2, L=v),
    "all_parent_sets": lambda v: all_parent_sets(M, 1, v),
    "parent_set_from_index": lambda v: parent_set_from_index(M, 1, v, 0),
    "assignment_from_index": lambda v: assignment_from_index(M, v, 1),
    "greedy_bound_coefficient": lambda v: greedy_bound_coefficient(1.5, v, 2),
    "degree_gap_coefficient": lambda v: degree_gap_coefficient(1.5, 3, v),
    "geometric_budget_maximum": lambda v: geometric_budget_maximum(1.5, v, 1, 1.0),
    "coefficient_table": lambda v: coefficient_table("greedy", [1.5], 2, v),
}
COUNT_ENTRIES = {
    "top_r_general r": lambda v: top_r_general(inputs()[1], 2, v),
    "top_r_connected r": lambda v: top_r_connected(inputs()[1], 2, v),
    "top_r_connected root_has_parents r": lambda v: top_r_connected(inputs()[1], 2, v, True),
    "top_r_greedy r": lambda v: top_r_greedy(inputs()[0], 2, v),
    "top_r_greedy connected r": lambda v: top_r_greedy(inputs()[0], 2, v, True),
    "ExperimentConfig r": lambda v: ExperimentConfig(M, 2, r=v),
    "ExperimentConfig m": lambda v: ExperimentConfig(v, 1),
    "ExperimentConfig n": lambda v: ExperimentConfig(M, 2, n=v),
    "ExperimentConfig trials": lambda v: ExperimentConfig(M, 2, trials=v),
    "generate_ar_network max_attempts": lambda v: generate_ar_network(M, 1, max_attempts=v),
    "simulate_panel n": lambda v: simulate_panel(network(), v, 0),
    "simulate_panel burn_in": lambda v: simulate_panel(network(), 50, 0, burn_in=v),
}
PROCESS_COUNT_ENTRIES = {
    "DIEvaluator": lambda v: DIEvaluator(lambda *query: 0.0, v),
    "DirectedInfoCache": lambda v: DirectedInfoCache(v, 0),
    "build_cache": lambda v: build_cache(inputs()[0], v, 2),
    "generate_ar_network": lambda v: generate_ar_network(v, 1),
}
BAD = [1.5, True, "2", np.int64(2)]
# a non-integer r never equals an emitted count, so without the check a
# ranking runs until its class is exhausted
BAD_COUNTS = [*BAD, 2.5]


@pytest.mark.parametrize(
    "entry, value",
    [(name, v) for name in SIZE_ENTRIES for v in BAD]
    + [(name, v) for name in COUNT_ENTRIES for v in BAD_COUNTS],
)
def test_sizes_and_counts_are_plain_integers(entry, value):
    call = {**SIZE_ENTRIES, **COUNT_ENTRIES}[entry]
    with pytest.raises(ValidationError, match="must be .*integer"):
        call(value)


def test_a_size_vector_is_a_list_or_tuple_of_integers():
    _, cache_, _ = inputs()
    with pytest.raises(ValidationError, match="must be an integer"):
        optimal_general(cache_, "11111")
    with pytest.raises(ValidationError, match="must be an integer"):
        optimal_general(cache_, [1.9, 1, 1, 1, 1])
    with pytest.raises(ValidationError, match="one entry per process"):
        optimal_general(cache_, [2, 2])


@pytest.mark.parametrize("value", [*BAD_COUNTS, 4.0], ids=repr)
@pytest.mark.parametrize("entry", PROCESS_COUNT_ENTRIES)
def test_a_process_count_is_a_plain_integer(entry, value):
    # a whole float or a bool fails here, before any list or value is built
    with pytest.raises(ValidationError, match="m must be an integer"):
        PROCESS_COUNT_ENTRIES[entry](value)
