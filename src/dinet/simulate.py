"""Monte Carlo studies of selection quality on random linear networks.

A trial draws a sparse stable AR(1) network, simulates a panel from it,
selects structures with each requested algorithm (from estimated or exact
scores), and reports exact directed-information ratios for the selected
structures.  Everything is derived from the experiment seed: trial t uses
``SeedSequence(seed + t)``, split into independent model and panel
streams, so any trial can be reproduced in isolation.
"""

from __future__ import annotations

import csv
import logging
import math
import os
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .approximation import (
    greedy_connected,
    greedy_general,
    optimal_connected,
    optimal_general,
)
from .bounds import network_empirical_alpha
from .errors import DinetError, ValidationError
from .estimation import (
    DIEvaluator,
    LinearNetworkModel,
    TimeSeriesPanel,
    build_cache,
)
from .structures import (
    MAX_RANKED,
    ParentAssignment,
    _check_int,
    _check_real,
)
from .topr import _class_size, top_r_general

logger = logging.getLogger(__name__)

RATIO_OPTIMAL_TOL = 1e-9  # scores within this relative gap count as optimal

# draws generate_ar_network makes before it gives up on a network whose
# coefficients keep coming out with no spectral radius to rescale
MAX_NETWORK_DRAWS = 100


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for one study; coefficients are standard normal draws."""

    m: int
    K: int
    L: int | None = None  # greedy length; defaults to K
    n: int = 1000
    trials: int = 100
    edge_probability: float = 0.5
    noise_variance: float = 0.25
    spectral_target: float = 0.95
    r: int = 0  # 0 disables the ranked-enumeration rows
    seed: int = 0
    selection: str = "estimated"  # scores used to select: estimated | exact
    include_diagonal: bool = True
    timing: bool = False

    def __post_init__(self):
        for name, least in (("m", 2), ("n", 2), ("trials", 1), ("seed", 0)):
            _check_int(getattr(self, name), name, least)
        _check_int(self.r, "r", 0, MAX_RANKED)
        _check_int(self.K, "K", 1, self.m - 1)
        _check_int(self.greedy_length, "L", 1, self.m - 1)
        _check_network(self.edge_probability, self.spectral_target, self.noise_variance)
        if self.selection not in ("estimated", "exact"):
            raise ValidationError(f"unknown selection mode: {self.selection!r}")

    @property
    def greedy_length(self) -> int:
        return self.K if self.L is None else self.L


@dataclass(frozen=True)
class TrialReport:
    """One selected structure: exact score, ratio to truth, bookkeeping."""

    trial: int
    algorithm: str
    graph_class: str  # CSV column "class"
    K: int
    L: int
    score: float
    ratio: float
    alpha_hat: float | None
    ms: float


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    reports: tuple[TrialReport, ...]
    excluded_trials: int


def _check_network(
    edge_probability: float, spectral_target: float, noise_variance: float
) -> None:
    """Reject a random network's parameters, NaN included, outside their ranges."""
    edge_probability = _check_real(edge_probability, "edge_probability")
    spectral_target = _check_real(spectral_target, "spectral_target")
    noise_variance = _check_real(noise_variance, "noise_variance")
    if not 0.0 <= edge_probability <= 1.0:
        raise ValidationError(
            f"edge_probability must lie in [0, 1], got {edge_probability}"
        )
    if not 0.0 < spectral_target < 1.0:
        raise ValidationError(
            f"spectral_target must lie in (0, 1), got {spectral_target}"
        )
    if not 0.0 < noise_variance < math.inf:
        raise ValidationError(
            f"noise_variance must be finite and positive, got {noise_variance}"
        )


def _as_generator(seed) -> np.random.Generator:
    """``seed`` itself if a Generator, else a new one seeded by it.

    A seed is what numpy takes: a non-negative int, a sequence of them or
    a ``SeedSequence``; anything else raises :class:`ValidationError`.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"seed {seed!r} is not a valid seed: {exc}") from None


def generate_ar_network(
    m: int,
    seed,
    edge_probability: float = 0.5,
    spectral_target: float = 0.95,
    noise_variance: float = 0.25,
    include_diagonal: bool = True,
) -> LinearNetworkModel:
    """A random sparse AR(1) network rescaled to the target spectral radius.

    Off-diagonal coefficients are standard normal, each present with
    ``edge_probability``; diagonal self-terms are standard normal too
    unless ``include_diagonal`` is off.  An all-zero draw cannot be
    rescaled and is resampled, up to :data:`MAX_NETWORK_DRAWS` draws in
    all.
    """
    _check_int(m, "m", 1)
    _check_network(edge_probability, spectral_target, noise_variance)
    rng = _as_generator(seed)
    for _ in range(MAX_NETWORK_DRAWS):
        coeffs = rng.standard_normal((m, m))
        mask = rng.random((m, m)) < edge_probability
        np.fill_diagonal(mask, include_diagonal)
        coeffs *= mask
        model = LinearNetworkModel(coeffs, np.full(m, noise_variance))
        rho = model.spectral_radius()
        if rho <= 1e-12:
            continue
        return LinearNetworkModel(
            coeffs * (spectral_target / rho), np.full(m, noise_variance)
        )
    raise ValidationError(
        f"could not draw a nonzero coefficient matrix in {MAX_NETWORK_DRAWS} attempts"
    )


def simulate_panel(model: LinearNetworkModel, n: int, seed) -> TimeSeriesPanel:
    """Iterate the network recursion from zero; keep ``n`` steps after a
    burn-in of ``10 * m``."""
    rng = _as_generator(seed)
    m = model.m
    _check_int(n, "n", 2)
    burn_in = 10 * m
    # one draw of every step's noise, then x[t] = noise[t] + A x[t-1] in
    # place, row view by row view, each product written into one reused
    # step buffer; at small m the per-call overhead is the whole cost
    path = np.sqrt(model.noise_variances) * rng.standard_normal((burn_in + n, m))
    product = model.dynamics_matrix().dot
    step = np.empty(m)
    rows = iter(path)
    prev = next(rows)
    for row in rows:
        product(prev, out=step)
        row += step
        prev = row
    return TimeSeriesPanel(np.ascontiguousarray(path[burn_in:].T))


def _exact_scores(
    assignments: Sequence[ParentAssignment], exact: DIEvaluator
) -> list[float]:
    """Each assignment's ``math.fsum`` of its set values, in one batch."""
    for assignment in assignments:
        if assignment.m != exact.m:
            raise ValidationError(
                f"assignment has m={assignment.m} but evaluator has m={exact.m}"
            )
    values = exact._fill(
        [(ps.target, ps.members, ()) for a in assignments for ps in a.parents]
    )
    starts = range(0, len(values), exact.m)
    return [math.fsum(values[start: start + exact.m]) for start in starts]


def assignment_exact_score(assignment: ParentAssignment, exact: DIEvaluator) -> float:
    """Total directed information of an assignment under the exact oracle."""
    return _exact_scores([assignment], exact)[0]


def true_parent_assignment(model: LinearNetworkModel) -> ParentAssignment:
    return ParentAssignment.from_lists(
        [model.true_parent_set(i) for i in range(1, model.m + 1)]
    )


def ratio_greedy_optimal(
    greedy: ParentAssignment, optimal: ParentAssignment, exact: DIEvaluator
) -> float:
    """Exact-score ratio of two assignments; nan flags a degenerate trial."""
    if greedy.m != optimal.m:
        raise ValidationError(f"mixed sizes: m={greedy.m} vs m={optimal.m}")
    denom = assignment_exact_score(optimal, exact)
    if denom == 0.0:
        return math.nan
    return assignment_exact_score(greedy, exact) / denom


def ratio_to_true(
    assignment: ParentAssignment, model: LinearNetworkModel, exact: DIEvaluator
) -> float:
    """Exact-score ratio of an assignment to the generating parent sets."""
    denom = assignment_exact_score(true_parent_assignment(model), exact)
    if denom == 0.0:
        return math.nan
    return assignment_exact_score(assignment, exact) / denom


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run all trials; degenerate or failed trials are logged and skipped."""
    K, L = config.K, config.greedy_length
    reports: list[TrialReport] = []
    excluded = 0
    for trial in range(config.trials):
        trial_ss = np.random.SeedSequence(config.seed + trial)
        model_seed, panel_seed = trial_ss.spawn(2)
        try:
            rows = _run_trial(config, trial, model_seed, panel_seed, K, L)
        except DinetError as exc:
            logger.warning("trial %d excluded: %s", trial, exc)
            excluded += 1
            continue
        if rows is None:
            logger.warning("trial %d excluded: degenerate (zero true score)", trial)
            excluded += 1
            continue
        reports.extend(rows)
    return ExperimentResult(config, tuple(reports), excluded)


def _run_trial(
    config: ExperimentConfig, trial: int, model_seed, panel_seed, K: int, L: int
) -> list[TrialReport] | None:
    model = generate_ar_network(
        config.m,
        np.random.default_rng(model_seed),
        edge_probability=config.edge_probability,
        spectral_target=config.spectral_target,
        noise_variance=config.noise_variance,
        include_diagonal=config.include_diagonal,
    )
    exact = DIEvaluator.from_model(model)
    true_score = assignment_exact_score(true_parent_assignment(model), exact)
    if true_score == 0.0:
        return None

    if config.selection == "exact":
        selector = exact
    else:
        panel = simulate_panel(model, config.n, np.random.default_rng(panel_seed))
        selector = DIEvaluator.from_panel(panel)
    sel_cache = build_cache(selector, config.m, K)

    def clocked(fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        ms = (time.perf_counter() - t0) * 1e3 if config.timing else 0.0
        return result, ms

    alpha_hat = network_empirical_alpha(selector).alpha if config.m >= 3 else None
    found: list[tuple[str, str, ParentAssignment, float, float | None]] = []

    def add(algorithm: str, graph_class: str, assignment, ms: float, alpha=None):
        found.append((algorithm, graph_class, assignment, ms, alpha))

    opt, ms = clocked(optimal_general, sel_cache, K)
    add("optimal", "general", opt.assignment, ms)
    grd, ms = clocked(greedy_general, selector, L)
    add("greedy", "general", grd.assignment, ms, alpha_hat)
    opt_c, ms = clocked(optimal_connected, sel_cache, K)
    add("optimal", "connected", opt_c.assignment, ms)
    grd_c, ms = clocked(greedy_connected, selector, L)
    add("greedy", "connected", grd_c.assignment, ms, alpha_hat)

    if config.r:
        r = min(config.r, _class_size(config.m, K))
        ranked, ms = clocked(top_r_general, sel_cache, K, r)
        for rank, sol in enumerate(ranked, start=1):
            add(f"topr-{rank}", "general", sol.assignment, ms if rank == 1 else 0.0)

    # every row's score in one batch; each ratio is the one ratio_to_true takes
    scores = _exact_scores([assignment for _, _, assignment, _, _ in found], exact)
    return [
        TrialReport(
            trial=trial,
            algorithm=algorithm,
            graph_class=graph_class,
            K=K,
            L=L,
            score=score,
            ratio=score / true_score,
            alpha_hat=alpha,
            ms=ms,
        )
        for (algorithm, graph_class, _, ms, alpha), score in zip(found, scores)
    ]


# ---------------------------------------------------------------------------
# CSV emission

TRIAL_HEADER = ("trial", "algorithm", "class", "K", "L", "score", "ratio", "alpha_hat", "ms")
AGGREGATE_HEADER = (
    "algorithm",
    "class",
    "K",
    "L",
    "trials",
    "mean_ratio",
    "std_ratio",
    "min_ratio",
    "frac_optimal",
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def report_filename(name: str, m: int, K: int) -> str:
    return f"{name}_{m}_{K}.csv"


def write_trial_csv(reports: Sequence[TrialReport], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRIAL_HEADER)
        for rep in reports:
            writer.writerow(
                [
                    rep.trial,
                    rep.algorithm,
                    rep.graph_class,
                    rep.K,
                    rep.L,
                    _fmt(rep.score),
                    _fmt(rep.ratio),
                    _fmt(rep.alpha_hat),
                    _fmt(rep.ms),
                ]
            )


def _ratio_stats(ratios: list[float]) -> tuple[int, float, float, float, float]:
    arr = np.asarray(ratios, dtype=float)
    frac = float(np.mean(arr >= 1.0 - RATIO_OPTIMAL_TOL))
    return (
        len(ratios),
        float(arr.mean()),
        float(arr.std()),
        float(arr.min()),
        frac,
    )


def aggregate_rows(result: ExperimentResult) -> list[tuple]:
    """Summary rows per algorithm/class, plus greedy-vs-optimal rows.

    The greedy-vs-optimal ratio is reconstructed from each trial's exact
    score pair, so it reflects the same numbers the per-trial file holds.
    """
    cfg = result.config
    by_key: dict[tuple[str, str], list[TrialReport]] = {}
    for rep in result.reports:
        by_key.setdefault((rep.algorithm, rep.graph_class), []).append(rep)

    rows: list[tuple] = []

    def emit(algorithm: str, graph_class: str, ratios: list[float]):
        if not ratios:
            return
        n, mean, std, lo, frac = _ratio_stats(ratios)
        rows.append(
            (algorithm, graph_class, cfg.K, cfg.greedy_length, n, mean, std, lo, frac)
        )

    for graph_class in ("general", "connected"):
        for algorithm in ("optimal", "greedy"):
            reps = by_key.get((algorithm, graph_class), [])
            emit(algorithm, graph_class, [r.ratio for r in reps])
        opt = {r.trial: r.score for r in by_key.get(("optimal", graph_class), [])}
        grd = {r.trial: r.score for r in by_key.get(("greedy", graph_class), [])}
        pair = [
            grd[t] / opt[t] for t in sorted(opt.keys() & grd.keys()) if opt[t] > 0.0
        ]
        emit("greedy-vs-optimal", graph_class, pair)

    ranks = sorted(
        int(alg.split("-", 1)[1])
        for alg, cls in by_key
        if alg.startswith("topr-") and cls == "general"
    )
    for rank in ranks:
        reps = by_key[(f"topr-{rank}", "general")]
        emit(f"topr-{rank}", "general", [r.ratio for r in reps])
    return rows


def write_aggregate_csv(result: ExperimentResult, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(AGGREGATE_HEADER)
        for row in aggregate_rows(result):
            writer.writerow([_fmt(v) for v in row])


def write_experiment_csv(result: ExperimentResult, directory, name: str = "experiment") -> tuple[str, str]:
    """Write the per-trial and aggregate files; returns their paths."""
    cfg = result.config
    trial_path = os.path.join(directory, report_filename(name, cfg.m, cfg.K))
    agg_path = os.path.join(
        directory, report_filename(f"{name}_aggregate", cfg.m, cfg.K)
    )
    write_trial_csv(result.reports, trial_path)
    write_aggregate_csv(result, agg_path)
    return trial_path, agg_path
