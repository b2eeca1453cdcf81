"""Per-layer figures from traced passes.

A layer not exercised by a workload reads 0.
"""

from __future__ import annotations

import statistics

from spans import LAYERS, layer_of

FREE = "arborescence.max_weight_arborescence.free_root"
FIXED = "arborescence.max_weight_arborescence.fixed_root"
SPANNING = "structures.contains_spanning_arborescence"

# metric name -> unit, in report order
UNITS = {
    "estimation.build_cache_s": "s",
    "estimation.fit_us": "us",
    "estimation.fits": "count",
    "estimation.queries": "count",
    "estimation.memo_hit_ratio": "ratio",
    "estimation.plugin_build_cache_s": "s",
    "estimation.covariance_s": "s",
    "approximation.optimal_general_s": "s",
    "approximation.optimal_connected_s": "s",
    "approximation.greedy_general_s": "s",
    "approximation.greedy_connected_s": "s",
    "arborescence.solves": "count",
    "arborescence.solve_s": "s",
    "arborescence.free_root_s": "s",
    "arborescence.solves_per_ranked": "solves/structure",
    "topr.general_s": "s",
    "topr.connected_s": "s",
    "topr.greedy_connected_s": "s",
    "topr.greedy_general_s": "s",
    "topr.lattice_points_per_ranked": "points/structure",
    "structures.approximation_index_calls": "count",
    "structures.approximation_index_s": "s",
    "structures.spanning_check_s": "s",
    "bounds.network_alpha_s": "s",
    "bounds.witness_alpha_s": "s",
    "simulate.panel_s": "s",
    "simulate.network_s": "s",
    "cli.csv_write_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(record: dict) -> dict[str, float]:
    """Figures of one traced pass from its record (see ``worker.py``)."""
    d, emitted = record["delta"], record["emitted"]
    inc, cnt = d["inclusive"], d["count"]

    def op_figure(kind: str, op: str, span: str) -> float:
        return record["deltas"].get(op, {}).get(kind, {}).get(span, 0)

    plugin = op_figure("inclusive", "plugin_build_cache", "estimation.build_cache")
    fits, queries = d["fits"], cnt.get("estimation.DIEvaluator.increment", 0)
    greedy_tree_solves = sum(
        op_figure("count", "top_r_greedy_connected", span) for span in (FREE, FIXED)
    )
    connected_ops = [op for op in emitted if op.startswith("top_r_connected")]
    out = {
        "estimation.build_cache_s": inc.get("estimation.build_cache", 0.0) - plugin,
        "estimation.fit_us": 1e6 * _ratio(d["fit_s"], fits),
        "estimation.fits": fits,
        "estimation.queries": queries,
        "estimation.memo_hit_ratio": 1.0 - _ratio(fits, queries) if queries else 0.0,
        "estimation.plugin_build_cache_s": plugin,
        "estimation.covariance_s": inc.get("estimation.stationary_covariance", 0.0),
        "approximation.optimal_general_s": inc.get("approximation.optimal_general", 0.0),
        "approximation.optimal_connected_s": inc.get(
            "approximation.optimal_connected", 0.0
        ),
        "approximation.greedy_general_s": inc.get("approximation.greedy_general", 0.0),
        "approximation.greedy_connected_s": inc.get(
            "approximation.greedy_connected", 0.0
        ),
        "arborescence.solves": cnt.get(FREE, 0) + cnt.get(FIXED, 0),
        "arborescence.solve_s": inc.get(FREE, 0.0) + inc.get(FIXED, 0.0),
        "arborescence.free_root_s": inc.get(FREE, 0.0),
        "arborescence.solves_per_ranked": _ratio(
            greedy_tree_solves, emitted.get("top_r_greedy_connected", 0)
        ),
        "topr.general_s": inc.get("topr.top_r_general", 0.0),
        "topr.connected_s": inc.get("topr.top_r_connected", 0.0),
        "topr.greedy_connected_s": op_figure(
            "inclusive", "top_r_greedy_connected", "topr.top_r_greedy"
        ),
        "topr.greedy_general_s": op_figure(
            "inclusive", "top_r_greedy_general", "topr.top_r_greedy"
        ),
        "topr.lattice_points_per_ranked": _ratio(
            sum(op_figure("count", op, SPANNING) for op in connected_ops),
            sum(emitted[op] for op in connected_ops),
        ),
        "structures.approximation_index_calls": cnt.get(
            "structures.approximation_index", 0
        ),
        "structures.approximation_index_s": inc.get(
            "structures.approximation_index", 0.0
        ),
        "structures.spanning_check_s": inc.get(SPANNING, 0.0),
        "bounds.network_alpha_s": inc.get("bounds.network_empirical_alpha", 0.0),
        "bounds.witness_alpha_s": inc.get("bounds.bound_witness_alpha", 0.0),
        "simulate.panel_s": inc.get("simulate.simulate_panel", 0.0),
        "simulate.network_s": inc.get("simulate.generate_ar_network", 0.0),
        "cli.csv_write_s": inc.get("simulate.write_experiment_csv", 0.0),
        "trace.pass_s": record["elapsed"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
    for span, value in d["self"].items():
        out[f"{layer_of(span)}.self_s"] += value
    return out


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    """Figures of the traced pass with the median time.

    One pass (the lower of the middle two for an even count) supplies
    every figure, so the layers' self times add up to its time.  Traced
    pass i and untraced pass i ran the same input instance; the tracing
    overhead is the median of their differences.
    """
    ordered = sorted(traced, key=lambda record: record["elapsed"])
    figures = pass_metrics(ordered[(len(ordered) - 1) // 2])
    figures["trace.overhead_s"] = statistics.median(
        t["elapsed"] - u["elapsed"] for t, u in zip(traced, untraced)
    )
    return {name: (figures[name], unit) for name, unit in UNITS.items()}
