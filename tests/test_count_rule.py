"""One integer rule, ``structures._check_int``, at every public entry.

A set size K or L; a count (r, a study's m, n, trials and seed, a
simulated panel's n, an estimator's Markov order, a discrete panel's
alphabet size); a process count m (of an evaluator, a cache,
``build_cache``, a random network, ``all_parent_sets``,
``parent_set_from_index`` and ``assignment_from_index``); and an index
(the target of ``all_parent_sets`` and ``parent_set_from_index``, a set
rank, an approximation index) each take an ``int`` that is not a
``bool`` and in range, and raise ValidationError for anything else,
before any list is built or any value is computed.

Beside it, ``structures._check_real`` is the one type rule for a real
value (a random network's parameters, a guarantee's alpha and budget, a
cache value, a root weight), and a seed is refused with ValidationError
whenever numpy refuses it.  A real panel takes no alphabet size.

The package's fixed limits (the plug-in cell cap, a random network's
draws, a simulated panel's burn-in, the CSV header row) are constants,
and no entry takes them as an argument."""

import os
import reprlib
import tempfile
from functools import cache

import numpy as np
import pytest

from dinet.approximation import (
    greedy_connected,
    greedy_general,
    optimal_connected,
    optimal_general,
)
from dinet.arborescence import EdgeWeights, max_weight_arborescence
from dinet.bounds import (
    coefficient_table,
    degree_gap_coefficient,
    geometric_budget_maximum,
    greedy_bound_coefficient,
)
from dinet.errors import ValidationError
from dinet.estimation import (
    DIEvaluator,
    EstimatorConfig,
    TimeSeriesPanel,
    build_cache,
    write_panel_csv,
)
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
    "simulate_panel n": lambda v: simulate_panel(network(), v, 0),
    "ExperimentConfig seed": lambda v: ExperimentConfig(M, 2, seed=v),
    "EstimatorConfig markov_order": lambda v: EstimatorConfig(markov_order=v),
    "TimeSeriesPanel alphabet_size": lambda v: TimeSeriesPanel(
        [[0, 1], [1, 0]], kind="discrete", alphabet_size=v
    ),
}
INDEX_ENTRIES = {
    "all_parent_sets target": lambda v: all_parent_sets(M, v, 2),
    "parent_set_from_index target": lambda v: parent_set_from_index(M, v, 2, 0),
    "parent_set_from_index rank": lambda v: parent_set_from_index(M, 1, 2, v),
    "assignment_from_index index": lambda v: assignment_from_index(M, 2, v),
}
PROCESS_COUNT_ENTRIES = {
    "DIEvaluator": lambda v: DIEvaluator(lambda *query: 0.0, v),
    "DirectedInfoCache": lambda v: DirectedInfoCache(v, 0),
    "build_cache": lambda v: build_cache(inputs()[0], v, 2),
    "generate_ar_network": lambda v: generate_ar_network(v, 1),
    "all_parent_sets": lambda v: all_parent_sets(v, 1, 2),
    "parent_set_from_index": lambda v: parent_set_from_index(v, 1, 2, 0),
    "assignment_from_index": lambda v: assignment_from_index(v, 2, 1),
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


@pytest.mark.parametrize("value", BAD_COUNTS, ids=repr)
@pytest.mark.parametrize("entry", INDEX_ENTRIES)
def test_a_target_rank_or_index_is_a_plain_integer(entry, value):
    with pytest.raises(ValidationError, match="must be an integer"):
        INDEX_ENTRIES[entry](value)


OUT_OF_RANGE = {
    "all_parent_sets target": (lambda: all_parent_sets(5, 9, 2), "target 9 out of range 1..5"),
    "parent_set_from_index target": (
        lambda: parent_set_from_index(5, 9, 2, 0), "target 9 out of range 1..5"
    ),
    "parent_set_from_index rank": (
        lambda: parent_set_from_index(4, 1, 2, 3), "rank 3 out of range 0..2"
    ),
    "ExperimentConfig seed": (lambda: ExperimentConfig(3, 1, seed=-1), "seed must be >= 0, got -1"),
    "TimeSeriesPanel alphabet_size": (
        lambda: TimeSeriesPanel([[0, 0], [0, 0]], kind="discrete", alphabet_size=0),
        "alphabet_size must be >= 1, got 0",
    ),
    "EstimatorConfig markov_order": (
        lambda: EstimatorConfig(markov_order=0), "markov_order must be >= 1, got 0"
    ),
    "DIEvaluator m": (lambda: DIEvaluator(lambda *query: 0.0, 0), "m must be >= 1, got 0"),
    "greedy_bound_coefficient K": (
        lambda: greedy_bound_coefficient(1.5, 0, 2), "K must be >= 1, got 0"
    ),
    "top_r_general r": (lambda: top_r_general(inputs()[1], 2, 0), "r 0 out of range 1..7776"),
    "top_r_general K": (lambda: top_r_general(inputs()[1], -1, 3), "K -1 out of range 0..4"),
    "build_cache K": (lambda: build_cache(inputs()[0], M, 5), "K 5 out of range 0..4"),
    "optimal_connected K": (lambda: optimal_connected(inputs()[1], 0), "K 0 out of range 1..4"),
    "top_r_connected K": (lambda: top_r_connected(inputs()[1], 0, 3), "K 0 out of range 1..4"),
    "greedy_connected L": (lambda: greedy_connected(inputs()[0], 0), "L 0 out of range 1..4"),
    "top_r_greedy L": (lambda: top_r_greedy(inputs()[0], 0, 3), "L 0 out of range 1..4"),
    "ExperimentConfig K": (lambda: ExperimentConfig(4, 0), "K 0 out of range 1..3"),
    "ExperimentConfig L": (lambda: ExperimentConfig(4, 1, L=0), "L 0 out of range 1..3"),
}


def _write_csv(**kwargs):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "panel.csv")
        write_panel_csv(TimeSeriesPanel(np.zeros((2, 3))), path, **kwargs)


FIXED_LIMITS = {
    "generate_ar_network max_attempts": lambda: generate_ar_network(M, 1, max_attempts=5),
    "simulate_panel burn_in": lambda: simulate_panel(network(), 50, 0, burn_in=0),
    "EstimatorConfig state_space_cap": lambda: EstimatorConfig(state_space_cap=100),
    "write_panel_csv header": lambda: _write_csv(header=False),
}


@pytest.mark.parametrize("entry", FIXED_LIMITS)
def test_a_fixed_limit_is_not_an_argument(entry):
    name = entry.split()[-1]
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
        FIXED_LIMITS[entry]()


@pytest.mark.parametrize("entry", OUT_OF_RANGE)
def test_an_integer_out_of_range_names_the_value_and_the_range(entry):
    call, message = OUT_OF_RANGE[entry]
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message


# each entry returns the array its seed drew
SEED_ENTRIES = {
    "generate_ar_network seed": lambda v: generate_ar_network(M, v).coefficients,
    "simulate_panel seed": lambda v: simulate_panel(network(), 50, v).data,
}
BAD_SEEDS = [-1, [1, -2], "a", 1.5]


@pytest.mark.parametrize("value", BAD_SEEDS, ids=repr)
@pytest.mark.parametrize("entry", SEED_ENTRIES)
def test_a_seed_numpy_refuses_raises_validation_error(entry, value):
    with pytest.raises(ValidationError, match=r"^seed .* is not a valid seed"):
        SEED_ENTRIES[entry](value)


@pytest.mark.parametrize("entry", SEED_ENTRIES)
def test_generators_seed_sequences_ints_and_int_sequences_seed_alike(entry):
    draws = [
        SEED_ENTRIES[entry](seed)
        for seed in (
            np.random.default_rng([3, 4]),
            np.random.SeedSequence([3, 4]),
            [3, 4],
        )
    ]
    assert all(np.array_equal(draws[0], draw) for draw in draws)
    assert not np.array_equal(SEED_ENTRIES[entry](7), draws[0])


REAL_ENTRIES = {
    "ExperimentConfig edge_probability": lambda v: ExperimentConfig(3, 1, edge_probability=v),
    "ExperimentConfig spectral_target": lambda v: ExperimentConfig(3, 1, spectral_target=v),
    "ExperimentConfig noise_variance": lambda v: ExperimentConfig(3, 1, noise_variance=v),
    "generate_ar_network edge_probability": lambda v: generate_ar_network(
        M, 1, edge_probability=v
    ),
    "greedy_bound_coefficient alpha": lambda v: greedy_bound_coefficient(v, 2, 2),
    "degree_gap_coefficient alpha": lambda v: degree_gap_coefficient(v, 2, 2),
    "coefficient_table alpha": lambda v: coefficient_table("degree-gap", [1.5, v], 2, 2),
    "geometric_budget_maximum alpha": lambda v: geometric_budget_maximum(v, 2, 1, 1.0),
    "geometric_budget_maximum budget": lambda v: geometric_budget_maximum(1.5, 2, 1, v),
    "DirectedInfoCache.put": lambda v: DirectedInfoCache(3, 1).put(1, (2,), v),
    "max_weight_arborescence root_weights": lambda v: max_weight_arborescence(
        EdgeWeights(np.ones((3, 3))), None, [v, 0.0, 0.0]
    ),
}
# each string and bool is in range once read as a number; 10**400 is a
# real number, but float() of it overflows
BAD_REALS = ["0.5", "1", True, None, 10**400]


@pytest.mark.parametrize("value", BAD_REALS, ids=reprlib.repr)
@pytest.mark.parametrize("entry", REAL_ENTRIES)
def test_a_real_value_is_a_number_that_is_not_a_bool(entry, value):
    with pytest.raises(ValidationError, match="must be a real number"):
        REAL_ENTRIES[entry](value)


def test_numpy_reals_pass_as_their_floats():
    assert greedy_bound_coefficient(np.float32(2.0), 2, 2) == greedy_bound_coefficient(2.0, 2, 2)
    assert geometric_budget_maximum(np.float64(1.5), 2, 1, np.int64(2)) == (
        geometric_budget_maximum(1.5, 2, 1, 2.0)
    )
    cache_ = DirectedInfoCache(3, 1)
    cache_.put(1, (2,), np.float32(0.5))
    assert cache_.get(1, (2,)) == 0.5
    ExperimentConfig(3, 1, edge_probability=np.float64(0.5), noise_variance=np.int64(1))


def test_a_real_panel_refuses_an_alphabet_size():
    with pytest.raises(ValidationError, match="real panel takes no alphabet_size"):
        TimeSeriesPanel(np.zeros((2, 3)), alphabet_size=2.5)
    with pytest.raises(ValidationError, match="real panel takes no alphabet_size"):
        TimeSeriesPanel(np.zeros((2, 3)), kind="real", alphabet_size=2)
    assert TimeSeriesPanel(np.zeros((2, 3))).alphabet_size is None
