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
from functools import partial
from typing import NamedTuple

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
    MAX_CELLS,
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

# the noise variance of every process of a random network.  A DI value is
# half the log of a ratio of two residual variances, and scaling every
# noise variance by one factor scales both alike, so any positive value
# gives the same DI values up to rounding
NOISE_VARIANCE = 0.25


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for one study; coefficients are standard normal draws."""

    m: int
    K: int
    L: int | None = None  # greedy length; defaults to K
    n: int = 1000
    trials: int = 100
    edge_probability: float = 0.5
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
        _check_network(self.edge_probability, self.spectral_target)
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
    alpha_hat: float | None  # greedy rows: the network's alpha at depth K + L - 1
    ms: float


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    reports: tuple[TrialReport, ...]
    excluded_trials: int


def _check_network(edge_probability: float, spectral_target: float) -> None:
    """Reject a random network's parameters, NaN included, outside their ranges."""
    edge_probability = _check_real(edge_probability, "edge_probability")
    spectral_target = _check_real(spectral_target, "spectral_target")
    if not 0.0 <= edge_probability <= 1.0:
        raise ValidationError(
            f"edge_probability must lie in [0, 1], got {edge_probability}"
        )
    if not 0.0 < spectral_target < 1.0:
        raise ValidationError(
            f"spectral_target must lie in (0, 1), got {spectral_target}"
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
    include_diagonal: bool = True,
) -> LinearNetworkModel:
    """A random sparse AR(1) network rescaled to the target spectral radius.

    Off-diagonal coefficients are standard normal, each present with
    ``edge_probability``; diagonal self-terms are standard normal too
    unless ``include_diagonal`` is off.  Every process has noise variance
    :data:`NOISE_VARIANCE`; no other value would change a DI value beyond
    rounding.  An all-zero draw cannot be rescaled and is resampled, up
    to :data:`MAX_NETWORK_DRAWS` draws in all.
    """
    _check_int(m, "m", 1)
    _check_network(edge_probability, spectral_target)
    rng = _as_generator(seed)
    for _ in range(MAX_NETWORK_DRAWS):
        coeffs = rng.standard_normal((m, m))
        mask = rng.random((m, m)) < edge_probability
        np.fill_diagonal(mask, include_diagonal)
        coeffs *= mask
        model = LinearNetworkModel(coeffs, np.full(m, NOISE_VARIANCE))
        rho = model.spectral_radius()
        if rho <= 1e-12:
            continue
        return LinearNetworkModel(
            coeffs * (spectral_target / rho), np.full(m, NOISE_VARIANCE)
        )
    raise ValidationError(
        f"could not draw a nonzero coefficient matrix in {MAX_NETWORK_DRAWS} attempts"
    )


def simulate_panel(model: LinearNetworkModel, n: int, seed) -> TimeSeriesPanel:
    """Iterate the network recursion from zero; keep ``n`` steps after a
    burn-in of ``10 * m``.

    The one-model case of the recursion a study runs over all of its
    panels at once (:func:`run_experiment`); both give the same bits.
    """
    rng = _as_generator(seed)
    _check_int(n, "n", 2)
    return _path_panel(_simulate_paths([model], n, [rng]), 0, n)


def _simulate_paths(
    models: Sequence[LinearNetworkModel], n: int, rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """The recursion of several models of one size, in lockstep.

    Returns the ``(10 * m + n, len(models), m)`` path, burn-in included.
    Each model draws every step's noise from its own generator in one
    call, as it would alone; then x[t] = noise[t] + A x[t-1] runs in
    place, row view by row view, each step's products written into one
    reused buffer.  Several models take one stacked ``np.matmul`` per
    step, a lone model a ``dot``, which costs less per call; each product
    has the bits of its model's own ``dot``.  At small m the per-call
    overhead is the whole cost, so a step costs about the same for one
    model as for forty.
    """
    m = models[0].m
    path = np.empty((10 * m + n, len(models), m))
    for j, (model, rng) in enumerate(zip(models, rngs)):
        np.multiply(
            np.sqrt(model.noise_variances),
            rng.standard_normal((len(path), m)),
            out=path[:, j],
        )
    if len(models) == 1:
        product = models[0].dynamics_matrix().dot
        vectors, step = path[:, 0], np.empty(m)
    else:
        # each model's matrix in the layout of its own dynamics_matrix()
        dynamics = np.stack([model.coefficients for model in models])
        product = partial(np.matmul, dynamics.transpose(0, 2, 1))
        vectors, step = path[..., None], np.empty((len(models), m, 1))
    rows = iter(vectors)
    prev = next(rows)
    for row in rows:
        product(prev, out=step)
        row += step
        prev = row
    return path


def _path_panel(path: np.ndarray, j: int, n: int) -> TimeSeriesPanel:
    """Model ``j``'s panel: the last ``n`` steps of its path."""
    return TimeSeriesPanel(np.ascontiguousarray(path[-n:, j].T))


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
    score, denom = _exact_scores([greedy, optimal], exact)
    return math.nan if denom == 0.0 else score / denom


def ratio_to_true(
    assignment: ParentAssignment, model: LinearNetworkModel, exact: DIEvaluator
) -> float:
    """Exact-score ratio of an assignment to the generating parent sets."""
    score, denom = _exact_scores([assignment, true_parent_assignment(model)], exact)
    return math.nan if denom == 0.0 else score / denom


class _Draw(NamedTuple):
    """A trial's network, its exact evaluator and true score, and its panel seed."""

    model: LinearNetworkModel
    exact: DIEvaluator
    true_score: float
    panel_seed: np.random.SeedSequence


def _draw_trial(config: ExperimentConfig, trial: int) -> _Draw | str:
    """Trial ``trial``'s draw, or the reason the trial is excluded."""
    model_seed, panel_seed = np.random.SeedSequence(config.seed + trial).spawn(2)
    try:
        model = generate_ar_network(
            config.m,
            np.random.default_rng(model_seed),
            edge_probability=config.edge_probability,
            spectral_target=config.spectral_target,
            include_diagonal=config.include_diagonal,
        )
        exact = DIEvaluator.from_model(model)
        [true_score] = _exact_scores([true_parent_assignment(model)], exact)
    except DinetError as exc:
        return str(exc)
    if true_score == 0.0:
        return "degenerate (zero true score)"
    return _Draw(model, exact, true_score, panel_seed)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run all trials; degenerate or failed trials are logged and skipped.

    Trials run in chunks whose simulated paths hold at most
    :data:`dinet.estimation.MAX_CELLS` floats, at least one trial each.
    A chunk draws every trial's network first, then simulates every
    surviving trial's panel in one lockstep recursion
    (:func:`_simulate_paths`), each from its own seed, and then runs each
    trial's pipeline in turn; a panel is cut from the path only when its
    trial runs.  Exclusions are logged in trial order, and every value
    is the one the trial gives alone, so the chunking changes no output.
    """
    reports: list[TrialReport] = []
    excluded = 0
    steps = 10 * config.m + config.n
    chunk = max(1, MAX_CELLS // (steps * config.m))
    for start in range(0, config.trials, chunk):
        trials = range(start, min(start + chunk, config.trials))
        draws = [_draw_trial(config, trial) for trial in trials]
        live = [draw for draw in draws if isinstance(draw, _Draw)]
        path = None
        if config.selection == "estimated" and live:
            path = _simulate_paths(
                [draw.model for draw in live],
                config.n,
                [np.random.default_rng(draw.panel_seed) for draw in live],
            )
        columns = iter(range(len(live)))  # each live draw's column of the path
        for trial, draw in zip(trials, draws):
            if isinstance(draw, _Draw):
                column = next(columns)
                try:
                    panel = None if path is None else _path_panel(path, column, config.n)
                    reports.extend(_run_trial(config, trial, draw, panel))
                    continue
                except DinetError as exc:
                    draw = str(exc)
            logger.warning("trial %d excluded: %s", trial, draw)
            excluded += 1
    return ExperimentResult(config, tuple(reports), excluded)


def _run_trial(
    config: ExperimentConfig, trial: int, draw: _Draw, panel: TimeSeriesPanel | None
) -> list[TrialReport]:
    """A drawn trial's report rows; ``panel`` is None under exact selection."""
    K, L = config.K, config.greedy_length
    exact, true_score = draw.exact, draw.true_score
    selector = exact if panel is None else DIEvaluator.from_panel(panel)
    sel_cache = build_cache(selector, config.m, K)

    def clocked(fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        ms = (time.perf_counter() - t0) * 1e3 if config.timing else 0.0
        return result, ms

    alpha_hat = None
    if config.m >= 3:
        # the guarantee reads a chain's gains only up to position K + L - 1
        alpha_hat = network_empirical_alpha(selector, K + L - 1).alpha
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
