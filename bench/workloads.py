"""The three benchmark workloads: seeded inputs and one pass each.

A workload is a closed loop in one process: the runner calls ``run_pass``
again as soon as the previous pass returns.  Every pass builds fresh
evaluators and caches from the same inputs, because a user pays that cost
on every run.  Inputs depend only on the benchmark seed; dinet receives
the generated inputs, never the seed.

``panel-select``   estimation-heavy: a least-squares cache of 7,280
                   values at m=16, K=3 feeds every search, ranking and
                   curvature measurement; a plug-in cache on a binary
                   panel rides along.
``exact-rank``     ranking-heavy: exact evaluators (no panel) feed the
                   ranked enumerations and an m=40 free-root
                   arborescence, where each DI value costs microseconds.
``monte-carlo``    ``dinet simulate`` through ``dinet.cli.main``: many
                   small problems (m=8) instead of one large one.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import shutil
import tempfile
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

import dinet
from dinet import cli
from dinet.errors import DinetError

from spans import delta


class Ops:
    """Operation accounting for one pass.

    ``total`` operations are attempted per pass.  When one raises a
    :class:`DinetError` the pass stops: that operation and every one
    after it count as failed.
    """

    def __init__(self, total: int, tracer=None) -> None:
        self.total = total
        self.done = 0
        self.current = ""
        self.failures: list[str] = []
        self.tracer = tracer
        self.deltas: dict[str, dict] = {}
        self.emitted: dict[str, int] = {}
        self.ranked_n = 0
        self.ranked_s = 0.0

    def run(self, name: str, fn: Callable, *args, **kwargs):
        self.current = name
        before = self.tracer.snapshot() if self.tracer is not None else None
        result = fn(*args, **kwargs)
        if before is not None:
            self.deltas[name] = delta(before, self.tracer.snapshot())
        self.done += 1
        return result

    def ranked(self, name: str, fn: Callable, *args, **kwargs):
        """Run a ranked enumeration and add it to the ranked throughput."""
        t0 = perf_counter()
        result = self.run(name, fn, *args, **kwargs)
        self.ranked_s += perf_counter() - t0
        self.ranked_n += len(result)
        self.emitted[name] = len(result)
        return result


def run_guarded(run_pass: Callable, inputs, ops: Ops) -> dict:
    """One pass; a DinetError ends it and is recorded against its operation."""
    try:
        return run_pass(inputs, ops)
    except DinetError as exc:
        ops.failures.append(f"{ops.current}: {type(exc).__name__}: {exc}")
        return {}


# ---------------------------------------------------------------------------
# output encoding: plain JSON values, so passes can be compared by digest
# and the checker can read them in another process


def _assignment(a) -> list[list[int]]:
    return [list(ps.members) for ps in a.parents]


def _cache(cache) -> list:
    return [[t, list(ms), v] for t, ms, v in cache.items()]


def _ranked(top) -> list:
    return [[sol.score, _assignment(sol.assignment)] for sol in top]


def _structure(result) -> dict:
    out = {"score": result.score, "parents": _assignment(result.assignment)}
    if hasattr(result, "root"):
        out["root"] = result.root
        out["tree"] = [list(e) for e in result.tree]
    if hasattr(result, "orders"):
        out["orders"] = [list(o) for o in result.orders]
    return out


def _rng(seed: int, instance: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, instance, stream])


def _network(model) -> dict:
    return {
        "coefficients": model.coefficients.tolist(),
        "noise_variances": model.noise_variances.tolist(),
    }


# ---------------------------------------------------------------------------
# panel-select

PS_M, PS_N, PS_K = 16, 1000, 3
PS_TOP_GENERAL, PS_TOP_CONNECTED = 50, 10
PLUGIN_M, PLUGIN_N, PLUGIN_K, PLUGIN_ORDER = 12, 20000, 2, 2
# instances share the binary panels, whose generation dominates set-up
PS_INSTANCES, PLUGIN_PANELS = 6, 3


def binary_panel(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """A binary network process with order-2 memory.

    Node i's next symbol is the majority of its own last symbol, one
    parent's last symbol and another parent's symbol two steps back,
    flipped with probability 0.15.
    """
    burn_in = 100
    p1 = np.array([rng.choice([j for j in range(m) if j != i]) for i in range(m)])
    p2 = np.array(
        [rng.choice([j for j in range(m) if j not in (i, p1[i])]) for i in range(m)]
    )
    flips = rng.random((burn_in + n, m)) < 0.15
    x = np.zeros((burn_in + n, m), dtype=np.int64)
    x[:2] = rng.integers(0, 2, size=(2, m))
    for t in range(2, burn_in + n):
        votes = x[t - 1] + x[t - 1, p1] + x[t - 2, p2]
        x[t] = (votes >= 2) ^ flips[t]
    return x[burn_in:].T.copy()


@dataclass
class PanelInputs:
    sample_seed: tuple[int, int]
    network: object
    panel: object
    binary: object


def panel_setup(seed: int, workdir: str) -> list[PanelInputs]:
    binaries = [
        dinet.TimeSeriesPanel(
            binary_panel(PLUGIN_M, PLUGIN_N, _rng(seed, b, 2)),
            kind="discrete",
            alphabet_size=2,
        )
        for b in range(PLUGIN_PANELS)
    ]
    instances = []
    for k in range(PS_INSTANCES):
        network = dinet.generate_ar_network(PS_M, _rng(seed, k, 0))
        panel = dinet.simulate_panel(network, PS_N, _rng(seed, k, 1))
        instances.append(PanelInputs((seed, k), network, panel, binaries[k % PLUGIN_PANELS]))
    return instances


def panel_pass(inp: PanelInputs, ops: Ops) -> dict:
    K = L = PS_K
    ev = ops.run("from_panel", dinet.DIEvaluator.from_panel, inp.panel)
    cache = ops.run("build_cache", dinet.build_cache, ev, PS_M, K)
    opt = ops.run("optimal_general", dinet.optimal_general, cache, K)
    opt_c = ops.run("optimal_connected", dinet.optimal_connected, cache, K)
    grd = ops.run("greedy_general", dinet.greedy_general, ev, L)
    grd_c = ops.run("greedy_connected", dinet.greedy_connected, ev, L)
    witness = ops.run(
        "bound_witness_alpha", dinet.bound_witness_alpha, ev, opt.assignment, grd.orders
    )
    network_alpha = ops.run("network_empirical_alpha", dinet.network_empirical_alpha, ev)
    top = ops.ranked("top_r_general", dinet.top_r_general, cache, K, PS_TOP_GENERAL)
    top_c = ops.ranked(
        "top_r_connected", dinet.top_r_connected, cache, K, PS_TOP_CONNECTED
    )
    config = dinet.EstimatorConfig(markov_order=PLUGIN_ORDER, estimator="discrete")
    ev_plugin = ops.run("from_panel_plugin", dinet.DIEvaluator.from_panel, inp.binary, config)
    plugin = ops.run(
        "plugin_build_cache", dinet.build_cache, ev_plugin, PLUGIN_M, PLUGIN_K
    )
    return {
        "cache": _cache(cache),
        "optimal_general": _structure(opt),
        "optimal_connected": _structure(opt_c),
        "greedy_general": _structure(grd),
        "greedy_connected": _structure(grd_c),
        "witness_alpha": witness.alpha,
        "network_alpha": network_alpha.alpha,
        "top_r_general": _ranked(top),
        "top_r_connected": _ranked(top_c),
        "plugin_cache": _cache(plugin),
    }


def panel_check_inputs(inp: PanelInputs) -> dict:
    return {
        "sample_seed": inp.sample_seed,
        # instances that share a binary panel sample the same plug-in entries
        "plugin_sample_seed": (inp.sample_seed[0], inp.sample_seed[1] % PLUGIN_PANELS),
        "panel": inp.panel.data.tolist(),
        "binary": inp.binary.data.tolist(),
        "K": PS_K,
        "plugin_K": PLUGIN_K,
        "plugin_order": PLUGIN_ORDER,
    }


# ---------------------------------------------------------------------------
# exact-rank

ER_M, ER_K, ER_TOP_GENERAL, ER_TOP_CONNECTED = 16, 2, 500, 100
GREEDY_M, GREEDY_L, GREEDY_TOP_CONNECTED, GREEDY_TOP_GENERAL = 10, 2, 10, 50
TREE_M = 40
ER_INSTANCES = 6


@dataclass
class ExactInputs:
    sample_seed: tuple[int, int]
    network: object
    greedy_network: object
    tree_network: object


def exact_setup(seed: int, workdir: str) -> list[ExactInputs]:
    return [
        ExactInputs(
            (seed, k),
            dinet.generate_ar_network(ER_M, _rng(seed, k, 10)),
            dinet.generate_ar_network(GREEDY_M, _rng(seed, k, 11)),
            dinet.generate_ar_network(TREE_M, _rng(seed, k, 12)),
        )
        for k in range(ER_INSTANCES)
    ]


def exact_pass(inp: ExactInputs, ops: Ops) -> dict:
    K, L = ER_K, GREEDY_L
    ev = ops.run("from_model", dinet.DIEvaluator.from_model, inp.network)
    cache = ops.run("build_cache", dinet.build_cache, ev, ER_M, K)
    opt = ops.run("optimal_general", dinet.optimal_general, cache, K)
    top = ops.ranked("top_r_general", dinet.top_r_general, cache, K, ER_TOP_GENERAL)
    # optimal_connected(root_has_parents=True) is left out: on some seeds
    # it returns a structure below the class optimum (see README.md)
    opt_c = ops.run("optimal_connected", dinet.optimal_connected, cache, K)
    top_c = ops.ranked(
        "top_r_connected", dinet.top_r_connected, cache, K, ER_TOP_CONNECTED
    )
    top_cp = ops.ranked(
        "top_r_connected_root_parents",
        dinet.top_r_connected,
        cache,
        K,
        ER_TOP_CONNECTED,
        root_has_parents=True,
    )

    ev_g = ops.run("from_model_greedy", dinet.DIEvaluator.from_model, inp.greedy_network)
    grd_c = ops.run("greedy_connected", dinet.greedy_connected, ev_g, L)
    grd = ops.run("greedy_general", dinet.greedy_general, ev_g, L)
    top_gc = ops.ranked(
        "top_r_greedy_connected",
        dinet.top_r_greedy,
        ev_g,
        L,
        GREEDY_TOP_CONNECTED,
        connected=True,
    )
    top_gg = ops.ranked(
        "top_r_greedy_general", dinet.top_r_greedy, ev_g, L, GREEDY_TOP_GENERAL
    )

    ev_t = ops.run("from_model_tree", dinet.DIEvaluator.from_model, inp.tree_network)
    tree_cache = ops.run("build_cache_tree", dinet.build_cache, ev_t, TREE_M, 1)
    tree = ops.run("optimal_connected_tree", dinet.optimal_connected, tree_cache, 1)
    return {
        "cache": _cache(cache),
        "optimal_general": _structure(opt),
        "top_r_general": _ranked(top),
        "optimal_connected": _structure(opt_c),
        "top_r_connected": _ranked(top_c),
        "top_r_connected_root_parents": _ranked(top_cp),
        "greedy_connected": _structure(grd_c),
        "greedy_general": _structure(grd),
        "top_r_greedy_connected": _ranked(top_gc),
        "top_r_greedy_general": _ranked(top_gg),
        "tree_cache": _cache(tree_cache),
        "tree": _structure(tree),
    }


def exact_check_inputs(inp: ExactInputs) -> dict:
    return {
        "sample_seed": inp.sample_seed,
        "network": _network(inp.network),
        "greedy_network": _network(inp.greedy_network),
        "tree_network": _network(inp.tree_network),
        "K": ER_K,
        "L": GREEDY_L,
    }


# ---------------------------------------------------------------------------
# monte-carlo

MC_M, MC_K, MC_TRIALS, MC_R = 8, 2, 40, 10


@dataclass
class StudyInputs:
    seed: int
    workdir: str


def study_setup(seed: int, workdir: str) -> list[StudyInputs]:
    # the 40 trials of one study already span 40 networks
    os.makedirs(workdir, exist_ok=True)
    return [StudyInputs(seed, workdir)]


def study_argv(inp: StudyInputs, out: str) -> list[str]:
    return [
        "simulate",
        "--m", str(MC_M),
        "--K", str(MC_K),
        "--trials", str(MC_TRIALS),
        "--r", str(MC_R),
        "--seed", str(inp.seed),
        "--selection", "estimated",
        "--out", out,
    ]


def study_pass(inp: StudyInputs, ops: Ops) -> dict:
    """One ``dinet simulate`` run; each trial is one operation.

    A trial missing from the per-trial CSV was excluded by the study and
    counts as failed, named by its number.
    """
    out = tempfile.mkdtemp(dir=inp.workdir)
    try:
        t0 = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(study_argv(inp, out))
        elapsed = perf_counter() - t0
        if code != 0:
            ops.failures.append(f"dinet simulate exited with code {code}")
            return {}
        name = f"experiment_{MC_M}_{MC_K}.csv"
        agg_name = f"experiment_aggregate_{MC_M}_{MC_K}.csv"
        with open(os.path.join(out, name), newline="") as fh:
            trials_csv = fh.read()
        with open(os.path.join(out, agg_name), newline="") as fh:
            aggregate_csv = fh.read()
    finally:
        shutil.rmtree(out, ignore_errors=True)
    present = {int(row["trial"]) for row in csv.DictReader(io.StringIO(trials_csv))}
    for trial in range(MC_TRIALS):
        if trial in present:
            ops.done += 1
        else:
            ops.failures.append(f"trial {trial}: excluded by the study")
    ops.ranked_n += sum(
        1
        for row in csv.DictReader(io.StringIO(trials_csv))
        if row["algorithm"].startswith("topr-")
    )
    ops.ranked_s += elapsed
    return {"trials_csv": trials_csv, "aggregate_csv": aggregate_csv}


def study_check_inputs(inp: StudyInputs) -> dict:
    return {"seed": inp.seed, "m": MC_M}


@dataclass(frozen=True)
class Workload:
    """``setup(seed, workdir)`` draws a list of input instances; pass k
    runs instance k mod their number, so a run's median covers several
    draws."""

    setup: Callable
    run_pass: Callable
    ops_per_pass: int
    check_inputs: Callable


WORKLOADS = {
    "panel-select": Workload(panel_setup, panel_pass, 12, panel_check_inputs),
    "exact-rank": Workload(exact_setup, exact_pass, 15, exact_check_inputs),
    "monte-carlo": Workload(study_setup, study_pass, MC_TRIALS, study_check_inputs),
}
