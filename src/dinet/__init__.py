"""Directed information network approximation.

Estimate directed information between discrete-time stochastic processes
and select bounded in-degree network structures: exact per-node search,
tree-constrained (connected) search via maximum-weight arborescences,
greedy selection with near-optimality guarantees, and ranked enumeration
of the r best structures.  A simulation harness reproduces the selection
studies on random stable AR(1) networks.
"""

from .arborescence import (
    Arborescence,
    EdgeWeights,
    max_weight_arborescence,
)
from .approximation import (
    ConnectedApproximation,
    GreedyApproximation,
    greedy_connected,
    greedy_general,
    optimal_connected,
    optimal_general,
)
from .bounds import (
    AlphaEstimate,
    bound_witness_alpha,
    coefficient_table,
    degree_gap_coefficient,
    geometric_budget_maximum,
    greedy_bound_coefficient,
    network_empirical_alpha,
)
from .errors import (
    DinetError,
    EstimationError,
    InfeasibleArborescenceError,
    NonStationaryModelError,
    PanelFormatError,
    UncachedParentSetError,
    ValidationError,
)
from .estimation import (
    DIEvaluator,
    EstimatorConfig,
    LinearNetworkModel,
    TimeSeriesPanel,
    build_cache,
    estimate_di,
    exact_di_gaussian,
    read_panel_csv,
    stationary_covariance,
    write_panel_csv,
)
from .simulate import (
    ExperimentConfig,
    ExperimentResult,
    TrialReport,
    generate_ar_network,
    ratio_greedy_optimal,
    ratio_to_true,
    run_experiment,
    simulate_panel,
    true_parent_assignment,
    write_experiment_csv,
)
from .structures import (
    DirectedInfoCache,
    ParentAssignment,
    ParentSet,
    ScoredApproximation,
    approximation_index,
    assignment_from_index,
    parent_set_from_index,
    parent_set_index,
)
from .topr import (
    top_r_connected,
    top_r_general,
    top_r_greedy,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaEstimate",
    "Arborescence",
    "ConnectedApproximation",
    "DIEvaluator",
    "DinetError",
    "DirectedInfoCache",
    "EdgeWeights",
    "EstimationError",
    "EstimatorConfig",
    "ExperimentConfig",
    "ExperimentResult",
    "GreedyApproximation",
    "InfeasibleArborescenceError",
    "LinearNetworkModel",
    "NonStationaryModelError",
    "PanelFormatError",
    "ParentAssignment",
    "ParentSet",
    "ScoredApproximation",
    "TimeSeriesPanel",
    "TrialReport",
    "UncachedParentSetError",
    "ValidationError",
    "approximation_index",
    "assignment_from_index",
    "bound_witness_alpha",
    "build_cache",
    "coefficient_table",
    "degree_gap_coefficient",
    "estimate_di",
    "exact_di_gaussian",
    "generate_ar_network",
    "geometric_budget_maximum",
    "greedy_bound_coefficient",
    "greedy_connected",
    "greedy_general",
    "max_weight_arborescence",
    "network_empirical_alpha",
    "optimal_connected",
    "optimal_general",
    "parent_set_from_index",
    "parent_set_index",
    "ratio_greedy_optimal",
    "ratio_to_true",
    "read_panel_csv",
    "run_experiment",
    "simulate_panel",
    "stationary_covariance",
    "top_r_connected",
    "top_r_general",
    "top_r_greedy",
    "true_parent_assignment",
    "write_experiment_csv",
    "write_panel_csv",
]
