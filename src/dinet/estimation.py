"""Directed information estimation for multivariate time series.

Directed information from a set of source processes to a target, causally
conditioned on a third set, measures how much the sources' past improves
one-step prediction of the target beyond the target's own past and the
conditioning processes' past.  All values returned by this module are
per-time-step rates in natural log units (nats).

Both Gaussian routes reduce to one computation on second moments:

* :func:`estimate_di`'s Gaussian estimator (least squares, no
  intercepts) uses the sample moments of the panel's lag design:
  ``G = Z Z'`` over the ``p = m * order`` lagged rows, ``C = Y Z'`` and
  ``diag(Y Y')`` for the one-step targets ``Y``, all over the same rows.
* :func:`exact_di_gaussian` uses a known linear network's population
  moments ``(S, A S, diag S)``, ``S`` being the stationary covariance.

An evaluator stacks them once into one ``(p + m) x (p + m)`` matrix
``[[G, C'], [C, diag(total)]]``.  A query (target, addition,
conditioning set) is then a principal submatrix: the reduced regressors
(the lags of the target and the conditioning set), the addition's lags,
and last the target's own row, which is the augmented block
``[[G_SS, c_S], [c_S', y'y]]``.  The kernel takes queries of any targets
and conditioning sets at once and groups them by (conditioning size,
addition size) in one pass, which appends each query's processes
(target, conditioning set, addition, target) to its group's flat list of
ints.  One ``np.array(...).reshape`` call turns that list into a row per
query.  The target and conditioning columns are sorted in place, one
lookup in a table of each process's lag rows, at any Markov order, turns
every column but the last into its process's stacked lag indices, and
the last column becomes the target's row; one fancy index then gathers
the group's blocks and one Cholesky call factors the stack, in chunks of
at most :data:`MAX_CELLS` block entries.  The
factor's last row holds the full residual sum of squares as ``L_yy**2``
and its drop from the reduced fit as ``|L_y,add|**2``, so the value,
``log1p(|L_y,add|**2 / L_yy**2) / 2``, never subtracts two residual
sums.  Each block is factored on its own, so a query gives bit for bit
the same value alone or in any batch.  A group that fails to factor, or
whose factor has a pivot that marks a lag as dependent on those before
it, is split in halves until each block that fails on its own goes
through one fallback, which drops the dependent lags and reads the value
off the rest the same way.
:func:`build_cache` asks for every target's sets in one batch; the
greedy searches ask for every live chain's candidates at once.

The discrete estimator, the plug-in conditional mutual information over
lagged windows for finite-alphabet data, has a batched kernel of its
own, which groups a batch by (target, conditioning set, addition size).
Each process's lag windows are encoded as integers once per evaluator.
Cells are laid out as (context window, target symbol, addition window),
so the addition's last member enters its set's cell codes unscaled: the
codes of the members before it (the prefix) are added to the group's
context codes once per distinct prefix, and each set then costs one
integer add and one ``np.bincount`` over the dense cell range.  A
group's count rows are stacked, in chunks of at most :data:`MAX_CELLS`
cells; the marginal counts are the stack's axis sums, and one
vectorized pass over its nonzero cells gives every term.  Each set's
terms are summed on their own, in ascending (context, addition, target
symbol) code order, so here too a batch gives each set bit for bit its
single-query value.

The estimators and the exact oracle share a conventions contract: order-1
models, least squares fits without intercepts (processes are zero mean),
and identical values under the chain rule decomposition used by the
greedy structure searches.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import (
    EstimationError,
    NonStationaryModelError,
    PanelFormatError,
    ValidationError,
)
from .structures import (
    DirectedInfoCache,
    _all_parent_sets,
    _check_int,
    _check_process,
    _check_set,
)

# relative size of the last doubling update of the stationary covariance
LYAPUNOV_TOL = 1e-12
LYAPUNOV_MAX_DOUBLINGS = 64
# a squared Cholesky pivot below this fraction of its diagonal entry marks
# a regressor as dependent on the regressors before it
SINGULAR_PIVOT = 1e-10
# a value is the log of a ratio of two residual variances, each computed
# to a few eps relative, so it is off by a few eps in nats at any size; a
# curvature gain within ZERO_GAIN_EPS eps nats of zero reads as exactly 0
ZERO_GAIN_EPS = 64

MAX_CELLS = 1_000_000
"""The most entries, 8 bytes each, that one stacked chunk holds: about 8 MB.

It bounds three stacked arrays: a chunk of plug-in count rows, a chunk
of Gaussian augmented blocks, and a chunk of a Monte Carlo study's
simulated paths (:func:`dinet.simulate.run_experiment`).  A Gaussian
block or a path larger than the cap makes a chunk of its own.  A
plug-in query's cells are counted densely, so a query above the cap
raises :class:`EstimationError` naming the query before anything is
counted.
"""


@dataclass(frozen=True)
class TimeSeriesPanel:
    """An ``m x n`` block of observations: one row per process.

    ``kind`` is ``"real"`` for continuous data or ``"discrete"`` for
    finite-alphabet data with integer symbols ``0 .. alphabet_size - 1``;
    a real panel takes no ``alphabet_size``.
    The underlying array is frozen read-only.
    """

    data: np.ndarray
    kind: str = "real"
    alphabet_size: int | None = None

    def __post_init__(self) -> None:
        arr = np.array(self.data, dtype=float)
        if arr.ndim != 2:
            raise ValidationError(f"panel data must be 2-D, got {arr.ndim}-D")
        _check_int(arr.shape[0], "m", 1)
        if arr.shape[1] < 2:
            raise ValidationError("panel needs at least two time steps")
        if self.kind == "real":
            if not np.all(np.isfinite(arr)):
                raise ValidationError("panel contains non-finite values")
            if self.alphabet_size is not None:
                raise ValidationError(
                    f"a real panel takes no alphabet_size, got {self.alphabet_size!r}"
                )
        elif self.kind == "discrete":
            if not np.all(np.isfinite(arr)) or np.any(arr != np.round(arr)):
                raise ValidationError("discrete panel symbols must be integers")
            arr = arr.astype(np.int64)
            if np.any(arr < 0):
                raise ValidationError("discrete panel symbols must be >= 0")
            size = self.alphabet_size
            if size is None:
                size = int(arr.max()) + 1
            _check_int(size, "alphabet_size", 1)
            if np.any(arr >= size):
                raise ValidationError(
                    f"discrete panel symbol out of range 0..{size - 1}"
                )
            object.__setattr__(self, "alphabet_size", size)
        else:
            raise ValidationError(f"unknown panel kind {self.kind!r}")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]

    def row(self, i: int) -> np.ndarray:
        _check_process(i, self.m)
        return self.data[i - 1]


@dataclass(frozen=True)
class EstimatorConfig:
    """Estimator settings shared across calls.

    ``markov_order`` is the number of lags included per process.  Values
    are in nats; the command line layer divides by ``ln 2`` for display
    with ``--units bits``.  The discrete estimator counts at most
    :data:`MAX_CELLS` cells per query.
    """

    markov_order: int = 1
    estimator: str = "gaussian"

    def __post_init__(self) -> None:
        _check_int(self.markov_order, "markov_order", 1)
        if self.estimator not in ("gaussian", "discrete"):
            raise ValidationError(f"unknown estimator {self.estimator!r}")


@dataclass(frozen=True)
class LinearNetworkModel:
    """A first-order linear network: ``X[i,t] = sum_j C[j,i] X[j,t-1] + N[i,t]``.

    ``coefficients[j-1, i-1]`` is the weight of edge ``j -> i``, matching
    the edge orientation used everywhere else in the package.  Noise is
    independent zero-mean Gaussian with per-process variances.
    """

    coefficients: np.ndarray
    noise_variances: np.ndarray

    def __post_init__(self) -> None:
        c = np.array(self.coefficients, dtype=float)
        q = np.array(self.noise_variances, dtype=float)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValidationError(f"coefficients must be square, got {c.shape}")
        _check_int(c.shape[0], "m", 1)
        if q.shape != (c.shape[0],):
            raise ValidationError("noise_variances must have one entry per process")
        if not np.all(np.isfinite(c)):
            raise ValidationError("coefficients must be finite")
        if not np.all((q > 0) & (q < np.inf)):
            raise ValidationError("noise variances must be finite and positive")
        c.flags.writeable = False
        q.flags.writeable = False
        object.__setattr__(self, "coefficients", c)
        object.__setattr__(self, "noise_variances", q)

    @property
    def m(self) -> int:
        return self.coefficients.shape[0]

    def dynamics_matrix(self) -> np.ndarray:
        """Row-acts-on-state form: ``X[t] = A @ X[t-1] + N[t]``."""
        return self.coefficients.T

    def spectral_radius(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(self.coefficients))))

    def true_parent_set(self, i: int) -> tuple[int, ...]:
        """Processes with a nonzero coefficient into ``i``, excluding ``i``."""
        _check_process(i, self.m)
        col = self.coefficients[:, i - 1]
        return tuple(j for j in range(1, self.m + 1) if j != i and col[j - 1] != 0.0)


def stationary_covariance(model: LinearNetworkModel) -> np.ndarray:
    """Stationary covariance ``S = A S A' + Q`` by doubling (Smith, 1968).

    After k steps ``S`` holds the first ``2**k`` terms of the series
    ``sum_j A^j Q A'^j`` and ``A`` has been squared k times, so a spectral
    radius ``rho`` needs about ``log2(1 / (1 - rho))`` steps.  The
    iteration stops once an update falls below ``1e-12`` of the largest
    entry, a relative limit that holds however large the entries grow as
    ``rho`` nears one.
    """
    rho = model.spectral_radius()
    if rho >= 1.0:
        raise NonStationaryModelError(
            f"model is not stationary: spectral radius {rho:.6f} >= 1"
        )
    a = model.dynamics_matrix()
    sigma = np.diag(model.noise_variances)
    for _ in range(LYAPUNOV_MAX_DOUBLINGS):
        update = a @ sigma @ a.T
        sigma = sigma + update
        if np.max(np.abs(update)) <= LYAPUNOV_TOL * np.max(np.abs(sigma)):
            return 0.5 * (sigma + sigma.T)
        a = a @ a
    raise EstimationError("covariance doubling iteration did not converge")


def _check_query(
    m: int, target: int, addition: Iterable[int], conditioning: Iterable[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    add = _check_set(m, target, addition, "addition")
    cond = _check_set(m, target, conditioning, "conditioning set")
    if both := set(add).intersection(cond):
        raise ValidationError(
            f"target {target}: process {min(both)} is in both the addition"
            f" {list(add)} and the conditioning set {list(cond)}"
        )
    return add, cond


class _Moments(NamedTuple):
    """Second moments of lagged regressors and one-step targets, stacked.

    ``stacked`` is the ``(p + m) x (p + m)`` matrix ``[[G, C'], [C, T]]``
    over ``p = m * order`` regressors and ``m`` targets.  Regressor
    ``(s - 1) * order + lag - 1`` is process ``s`` at lag ``lag``; row
    ``p + i - 1`` is target ``i``.  ``G`` holds regressor against
    regressor and ``C`` target against regressor.  Only the diagonal of
    the target block ``T`` is ever read, so it holds each target's sum of
    squares and zeros elsewhere.  Every query's augmented block is then a
    principal submatrix.  ``lags[s - 1]`` lists process ``s``'s regressor
    rows, lag 1 first.  ``rows`` is the sample count of a panel's moments
    and None for a model's population moments.
    """

    stacked: np.ndarray
    order: int
    lags: np.ndarray
    rows: int | None


def _stack_moments(
    gram: np.ndarray, cross: np.ndarray, total: np.ndarray, order: int, rows
) -> _Moments:
    p, m = gram.shape[0], total.shape[0]
    stacked = np.zeros((p + m, p + m))
    stacked[:p, :p] = gram
    stacked[p:, :p] = cross
    stacked[:p, p:] = cross.T
    targets = np.arange(p, p + m)
    stacked[targets, targets] = total
    return _Moments(stacked, order, np.arange(p).reshape(m, order), rows)


def _panel_moments(panel: TimeSeriesPanel, order: int) -> _Moments:
    """Sample moments over the rows every lag design of the panel shares."""
    data = panel.data.astype(float)
    rows = max(panel.n - order, 0)
    z = np.empty((panel.m * order, rows))
    for lag in range(1, order + 1):
        z[lag - 1::order] = data[:, order - lag: order - lag + rows]
    y = data[:, order: order + rows]
    return _stack_moments(z @ z.T, y @ z.T, np.einsum("ij,ij->i", y, y), order, rows)


def _model_moments(model: LinearNetworkModel) -> _Moments:
    """Population moments: ``(S, A S, diag S)`` for stationary covariance S."""
    sigma = stationary_covariance(model)
    return _stack_moments(
        sigma, model.dynamics_matrix() @ sigma, np.diag(sigma), 1, None
    )


_Query = tuple[int, tuple[int, ...], tuple[int, ...]]  # (target, addition, cond)


def _query_error(
    what: str, target: int, add: Sequence[int], cond: Sequence[int]
) -> EstimationError:
    return EstimationError(
        f"{what} (target {target}, addition {list(add)}, conditioning {list(cond)})"
    )


def _projection_di(moments: _Moments, queries: Sequence[_Query]) -> list[float]:
    """Directed information of each checked query, by Cholesky projection.

    A query's augmented block is the principal submatrix of the stacked
    moments over its reduced regressors (the lags of the target and the
    conditioning set), then the addition's lags, then the target: the
    block ``[[G_SS, c_S], [c_S', y'y]]``.  The last row of its factor
    ``L`` gives ``ss_full = L_yy**2`` and ``ss_reduced - ss_full =
    |L_y,add|**2``, so the value is ``log1p(|L_y,add|**2 / L_yy**2) / 2``
    with no difference of two residual sums.  Queries of any targets and
    conditioning sets are grouped by (conditioning size, addition size)
    in one pass that builds each group's flat list of processes, a row
    per query (see the module notes).  Each group's blocks go through
    stacked factorizations of at most :data:`MAX_CELLS` entries, in
    order, and the same element-wise steps, so a query gives bit for bit
    the same value in any batch and the first failing block is named
    first.  Only a block that
    fails :func:`_factor` on its own takes :func:`_dependent_ratio`
    (:func:`_stack_ratios`).  An empty addition is worth 0.
    """
    values = [0.0] * len(queries)
    order = moments.order
    p = moments.lags.size
    # (conditioning size, addition size) -> (positions, flat processes)
    groups: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
    for q, (target, add, cond) in enumerate(queries):
        if add:
            key = (len(cond), len(add))
            group = groups.get(key)
            if group is None:
                group = groups[key] = ([], [])
            group[0].append(q)
            flat = group[1]
            flat.append(target)
            flat += cond
            flat += add
            flat.append(target)
    log1p = math.log1p
    for (c, a), (group, flat) in groups.items():
        r = (c + 1) * order
        d = r + a * order
        if moments.rows is not None and moments.rows <= d:
            raise _query_error(
                f"insufficient samples: {moments.rows} rows for {d} regressors",
                *queries[group[0]],
            )
        # a row per query: target, conditioning set, addition, target
        procs = np.array(flat, dtype=np.intp).reshape(len(group), c + a + 2)
        procs[:, : c + 1].sort(axis=1)
        idx = np.empty((len(group), d + 1), dtype=np.intp)
        idx[:, :d] = moments.lags[procs[:, :-1] - 1].reshape(len(group), d)
        np.add(procs[:, -1], p - 1, out=idx[:, d])
        chunk = max(1, MAX_CELLS // (d + 1) ** 2)
        for start in range(0, len(group), chunk):
            part, rows = group[start: start + chunk], idx[start: start + chunk]
            blocks = moments.stacked[rows[:, :, None], rows[:, None, :]]
            for q, x in zip(part, _stack_ratios(blocks, r, d, queries, part)):
                values[q] = 0.5 * log1p(x)
    return values


def _stack_ratios(
    blocks: np.ndarray, r: int, d: int, queries: Sequence[_Query], group: list[int]
) -> list[float]:
    """:func:`_ratios` of each block in a stack, as that block gives it alone.

    A stack whose factorization raises is split in halves, and each half
    is tried on its own.  Once a stack factors, each block that fails the
    pivot check (:func:`_dependent`) goes to :func:`_dependent_ratio`,
    named as query ``queries[group[j]]`` for block ``j``, and the others
    keep their factors: a block's factor has the same bits in a stack of
    any size.  The halves and the failing blocks go in order, so the
    first block to raise is the first in the stack.
    """
    try:
        chol = np.linalg.cholesky(blocks)
    except np.linalg.LinAlgError:
        if len(blocks) == 1:
            return [_dependent_ratio(blocks[0], r, d, queries[group[0]])]
        half = len(blocks) // 2
        head = _stack_ratios(blocks[:half], r, d, queries, group[:half])
        return head + _stack_ratios(blocks[half:], r, d, queries, group[half:])
    dependent = _dependent(chol, blocks, d)
    if not dependent.any():
        return _ratios(chol, r, d).tolist()
    values = [0.0] * len(blocks)
    kept = np.flatnonzero(~dependent).tolist()
    for j, x in zip(kept, _ratios(chol[kept], r, d).tolist()):
        values[j] = x
    for j in np.flatnonzero(dependent).tolist():
        values[j] = _dependent_ratio(blocks[j], r, d, queries[group[j]])
    return values


def _factor(blocks: np.ndarray, checked: int) -> np.ndarray | None:
    """Cholesky factors of a stack of blocks, or None.

    None when a block is not positive definite or fails the pivot check
    of its first ``checked`` columns (:func:`_dependent`).
    """
    try:
        chol = np.linalg.cholesky(blocks)
    except np.linalg.LinAlgError:
        return None
    return None if _dependent(chol, blocks, checked).any() else chol


def _dependent(chol: np.ndarray, blocks: np.ndarray, checked: int) -> np.ndarray:
    """Per block, whether it fails the pivot check of its first ``checked`` columns.

    A column fails when its squared pivot falls below ``SINGULAR_PIVOT``
    times its diagonal entry: it depends on the columns before it.
    """
    pivots = np.diagonal(chol, axis1=1, axis2=2)[:, :checked] ** 2
    scale = np.diagonal(blocks, axis1=1, axis2=2)[:, :checked]
    return (pivots < SINGULAR_PIVOT * scale).any(axis=1)


def _ratios(chol: np.ndarray, r: int, d: int) -> np.ndarray:
    """``|L_y,add|**2 / L_yy**2`` off the last row of each factor in a stack.

    The addition's entries are squared and summed in column order and
    the ratio is one correctly rounded division, so a factor gives the
    same bits in a stack of any size.  An addition with no columns gives 0.
    """
    gain = np.zeros(len(chol))
    for j in range(r, d):
        gain = gain + chol[:, d, j] ** 2
    return gain / chol[:, d, d] ** 2


def _dependent_ratio(block: np.ndarray, r: int, d: int, query: _Query) -> float:
    """The ratio of one augmented block whose regressors may be dependent.

    The regressors are taken in block order, and one is kept only when it
    clears the pivot check after the kept ones (Higham, 1990): a
    projection does not depend on which spanning columns it uses.  The
    kept columns and the target row are then factored and read as in the
    batched path, so a block that keeps every column gives the batched
    bits, and an addition whose columns all drop is worth 0.  A target
    with no residual after the kept columns is worth 0 when the kept
    reduced columns leave none either, and an error otherwise.
    """

    def factor(cols: list[int], checked: int = 0) -> np.ndarray | None:
        return _factor(block[cols][:, cols][None], checked)

    keep: list[int] = []
    for j in range(d):
        if factor([*keep, j], len(keep) + 1) is not None:
            keep.append(j)
    reduced = [j for j in keep if j < r]
    chol = factor([*keep, d])
    if chol is not None:
        return float(_ratios(chol, len(reduced), len(keep))[0])
    if factor([*reduced, d]) is None:
        return 0.0
    raise _query_error(
        "zero residual variance: target is a deterministic function of lags", *query
    )


def exact_di_gaussian(
    model: LinearNetworkModel,
    target: int,
    addition: Iterable[int],
    conditioning: Iterable[int] = (),
) -> float:
    """Exact per-step directed information for a known linear model.

    Projects the target's next value on the lag-1 values of (target +
    conditioning), then of (target + conditioning + addition), against
    the stationary covariance, and returns half the log ratio of the two
    prediction error variances.

    A one-shot convenience: every call rebuilds the model's moments,
    including a Lyapunov solve for the stationary covariance.  Repeated
    queries belong on ``DIEvaluator.from_model``, which solves it once and
    gives the same bits.
    """
    # checked before the Lyapunov solve, so a bad query is named first
    add, cond = _check_query(model.m, target, addition, conditioning)
    return DIEvaluator.from_model(model).increment(target, add, cond)


class _LagCodes(NamedTuple):
    """Lag-window codes of a finite-alphabet panel, encoded once.

    ``codes[s - 1]`` holds process ``s``'s order-``l`` window at each of
    the ``rows = n - order`` one-step rows as one integer, lag 1 the most
    significant digit in base ``size``.  A set of processes in ascending
    order is coded by appending each one's window, ``span = size**order``
    values apart.  ``symbols[s - 1]`` is process ``s`` at the same rows.
    """

    codes: np.ndarray
    symbols: np.ndarray
    size: int
    order: int
    steps: int


def _lag_codes(panel: TimeSeriesPanel, config: EstimatorConfig) -> _LagCodes:
    if panel.kind != "discrete":
        raise ValidationError("discrete estimator requires a finite-alphabet panel")
    order, n = config.markov_order, panel.n
    size = panel.alphabet_size or 1
    rows = max(n - order, 0)
    codes = np.zeros((panel.m, rows), dtype=np.int64)
    for lag in range(1, order + 1):
        codes = codes * size + panel.data[:, order - lag: order - lag + rows]
    return _LagCodes(codes, panel.data[:, order:], size, order, n)


def _plugin_di(lags: _LagCodes, queries: Sequence[_Query]) -> list[float]:
    """Plug-in directed information of each checked query, by dense counts.

    Queries are grouped by (target, conditioning set, addition size).  A
    sample's cell code is ``(w * size + y) * span_a + a`` for context
    window ``w``, target symbol ``y`` and addition window ``a``, over
    ``span_w * size * span_a`` cells, at most :data:`MAX_CELLS`.
    The addition's last member is the last digit of ``a``, so the code
    of the members before it is added to the context's share once per
    distinct prefix, and a query costs one add and one ``np.bincount``.
    Count rows are stacked in chunks of at most ``MAX_CELLS // cells``
    queries, so a stacked block never holds more than ``MAX_CELLS`` cells,
    and each chunk's values come from one vectorized pass
    (:func:`_plugin_values`).  An empty addition is worth 0.
    """
    values = [0.0] * len(queries)
    order, size = lags.order, lags.size
    rows = lags.codes.shape[1]
    span = size**order
    codes = lags.codes
    groups: dict[tuple, list[int]] = {}
    for q, (target, add, cond) in enumerate(queries):
        if add:
            groups.setdefault((target, cond, len(add)), []).append(q)
    for (target, cond, k), group in groups.items():
        if rows == 0:
            raise _query_error(
                f"insufficient samples: need more than {order} steps,"
                f" have {lags.steps}",
                target, queries[group[0]][1], cond,
            )
        context = sorted({target, *cond})
        span_w = span ** len(context)
        span_a = span**k
        cells = span_w * span_a * size
        if cells > MAX_CELLS:
            raise _query_error(
                f"state space too large: {cells} cells exceed cap {MAX_CELLS}",
                target, queries[group[0]][1], cond,
            )
        w = codes[context[0] - 1]
        for s in context[1:]:
            w = w * span + codes[s - 1]
        # cell code (w * size + y) * span_a + a, less the addition's share
        base = (w * size + lags.symbols[target - 1]) * span_a
        chunk = MAX_CELLS // cells
        prefix = None
        for start in range(0, len(group), chunk):
            part = group[start: start + chunk]
            counts = np.empty((len(part), cells), dtype=np.int64)
            for row, q in zip(counts, part):
                add = queries[q][1]
                if add[:-1] != prefix:
                    prefix, head = add[:-1], base
                    if prefix:
                        a = codes[prefix[0] - 1]
                        for s in prefix[1:]:
                            a = a * span + codes[s - 1]
                        head = base + a * span
                row[:] = np.bincount(head + codes[add[-1] - 1], minlength=cells)
            block = counts.reshape(len(part), span_w, size, span_a)
            for q, value in zip(part, _plugin_values(block, rows)):
                values[q] = value
    return values


def _plugin_values(block: np.ndarray, rows: int) -> list[float]:
    """Plug-in values of a ``(query, w, y, a)`` stack of counts, one per query.

    The marginal counts ``n_w``, ``n_wa`` and ``n_wy`` are axis sums of
    the stack.  The stack is then reordered to ``(query, w, a, y)`` C
    order, so one ``np.flatnonzero`` lists every query's nonzero cells
    in that query's ascending joint code order, and the terms
    ``cnt * (log cnt + log n_w - log n_wa - log n_wy)`` are computed
    element by element over all of them.  Each query's value sums its
    own contiguous slice of terms with one ``sum``, so it does not depend
    on the stack it is computed in.
    """
    size, span_a = block.shape[2:]
    cells = block[0].size
    n_wy = block.sum(axis=3)
    n_wa = block.sum(axis=2).ravel()
    n_w = n_wy.sum(axis=2).ravel()
    n_wy = n_wy.ravel()
    joint = block.transpose(0, 1, 3, 2).ravel()
    cell = np.flatnonzero(joint)
    cnt = joint[cell]
    cell_wa, cell_y = np.divmod(cell, size)
    cell_w = cell_wa // span_a
    terms = (
        np.log(cnt)
        + np.log(n_w[cell_w])
        - np.log(n_wa[cell_wa])
        - np.log(n_wy[cell_w * size + cell_y])
    )
    products = cnt * terms
    bounds = np.searchsorted(cell, np.arange(0, block.size + 1, cells)).tolist()
    return [
        max(0.0, float(products[lo:hi].sum()) / rows)
        for lo, hi in zip(bounds, bounds[1:])
    ]


def estimate_di(
    panel: TimeSeriesPanel,
    target: int,
    addition: Iterable[int],
    conditioning: Iterable[int] = (),
    config: EstimatorConfig | None = None,
) -> float:
    """One-shot estimate from the estimator named in the config, in nats per step.

    The ``"gaussian"`` estimator fits the target's next value on lagged
    values of (target + conditioning), then again with the addition
    processes' lags included, both without intercepts over the same rows,
    and returns the log ratio of residual standard deviations.  Adding
    regressors can never raise the in-sample residual sum of squares, so
    the estimate is nonnegative by construction.  The ``"discrete"``
    estimator feeds empirical joint frequencies over order-``l`` lagged
    windows into the conditional mutual information between the addition
    windows and the target's next symbol given the (target +
    conditioning) windows, with maximum likelihood (unsmoothed)
    probabilities.

    Every call rebuilds the panel's second moments or lag-window codes.
    Repeated queries belong on ``DIEvaluator.from_panel``, which builds
    them once and gives the same bits.
    """
    evaluator = DIEvaluator.from_panel(panel, config)
    return evaluator.increment(target, addition, conditioning)


class DIEvaluator:
    """Memoized access to directed information values.

    Wraps a raw ``(target, addition, conditioning) -> value`` function and
    caches every result, so repeated queries (common in greedy searches
    and bound measurements) are free.  Construct via :meth:`from_model`
    for exact values or :meth:`from_panel` for estimates.  Evaluators
    built that way answer from state computed once (stacked second
    moments, or the plug-in estimator's lag-window codes) and compute
    every value a call needs in one batch, whatever its targets and
    conditioning sets.  ``calls`` counts the values computed, never the
    memo hits: each computed value enters the memo once, so it is the
    memo's size.
    """

    def __init__(
        self,
        fn: Callable[[int, tuple[int, ...], tuple[int, ...]], float],
        m: int,
    ) -> None:
        _check_int(m, "m", 1)
        self.m = m
        self._memo: dict[_Query, float] = {}
        # checked queries -> values; the moment-backed constructors
        # replace it with the batched kernel
        self._batch: Callable[[Sequence[_Query]], list[float]] = lambda queries: [
            fn(*query) for query in queries
        ]

    @property
    def calls(self) -> int:
        return len(self._memo)

    def increment(
        self,
        target: int,
        addition: Iterable[int],
        conditioning: Iterable[int] = (),
    ) -> float:
        add, cond = _check_query(self.m, target, addition, conditioning)
        return self._fill([(target, add, cond)])[0]

    def set_value(self, target: int, members: Iterable[int]) -> float:
        """Directed information from a whole parent set to the target."""
        return self.increment(target, members, ())

    def _fill(self, queries: Sequence[_Query]) -> list[float]:
        """Values of checked, sorted queries; computes those not memoized.

        The queries may mix targets and conditioning sets; the missing
        ones go to the kernel in one batch, in first-seen order.
        """
        memo = self._memo
        missing = list(dict.fromkeys(q for q in queries if q not in memo))
        if missing:
            memo.update(zip(missing, map(float, self._batch(missing))))
        return [memo[q] for q in queries]

    @classmethod
    def _from_batch(
        cls, batch: Callable[[Sequence[_Query]], list[float]], m: int
    ) -> "DIEvaluator":
        evaluator = cls(lambda *query: batch([query])[0], m)
        evaluator._batch = batch
        return evaluator

    @classmethod
    def from_model(cls, model: LinearNetworkModel) -> "DIEvaluator":
        return cls._from_batch(partial(_projection_di, _model_moments(model)), model.m)

    @classmethod
    def from_panel(
        cls, panel: TimeSeriesPanel, config: EstimatorConfig | None = None
    ) -> "DIEvaluator":
        config = config or EstimatorConfig()
        if config.estimator == "gaussian":
            moments = _panel_moments(panel, config.markov_order)
            return cls._from_batch(partial(_projection_di, moments), panel.m)
        return cls._from_batch(partial(_plugin_di, _lag_codes(panel, config)), panel.m)


def build_cache(evaluator: DIEvaluator, m: int, K: int) -> DirectedInfoCache:
    """Directed information values for every size-``K`` parent set.

    Populates all ``m * C(m-1, K)`` entries deterministically in
    (target, set) order, asking the evaluator for every target's sets at
    once (a single batch for evaluators from ``from_model`` and
    ``from_panel``) and cutting the values into one row per target.  A
    count above :data:`dinet.structures.MAX_CACHE_VALUES` raises
    :class:`ValidationError` before any value is computed.
    """
    _check_int(m, "m")
    if m != evaluator.m:
        raise ValidationError(f"evaluator has m={evaluator.m}, asked for m={m}")
    cache = DirectedInfoCache(m, K)
    width = cache._block(K).shape[1]  # checks the size before any value is computed
    values = evaluator._fill([
        (target, members, ())
        for target in range(1, m + 1)
        for members in _all_parent_sets(m, target, K)
    ])
    for target, start in enumerate(range(0, len(values), width), start=1):
        cache._put_row(target, K, values[start: start + width])
    return cache


def read_panel_csv(
    path: str, kind: str = "real", alphabet_size: int | None = None
) -> TimeSeriesPanel:
    """Load a panel from CSV: one row per time step, one column per process.

    A single leading header row is tolerated and skipped.  Any later parse
    failure raises :class:`PanelFormatError` naming the 1-based file row.
    A file from :func:`write_panel_csv` reads back data-exact for discrete
    panels and within its 12 significant digits for real ones.  A discrete
    panel's alphabet size is not stored: pass it back as
    ``alphabet_size``, or it is inferred as the largest symbol plus one.
    """
    import csv

    rows: list[list[float]] = []
    width: int | None = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, record in enumerate(reader, start=1):
            if not record or all(not cell.strip() for cell in record):
                continue
            try:
                values = [float(cell) for cell in record]
            except ValueError as exc:
                if lineno == 1 and not rows:
                    continue  # header row
                raise PanelFormatError(f"row {lineno}: {exc}") from None
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise PanelFormatError(
                    f"row {lineno}: expected {width} columns, got {len(values)}"
                )
            rows.append(values)
    if not rows:
        raise PanelFormatError("no data rows found")
    data = np.array(rows).T
    if kind == "discrete":
        as_int = data.astype(int)
        if np.any(as_int != data):
            raise PanelFormatError("discrete panel contains non-integer values")
        data = as_int
    return TimeSeriesPanel(data, kind=kind, alphabet_size=alphabet_size)


def write_panel_csv(panel: TimeSeriesPanel, path: str) -> None:
    """Write a panel as CSV, one row per time step.

    A header row ``x1,...,xm`` comes first.  Discrete symbols are written
    as integers, exactly; real values with 12 significant digits
    (``.12g``), so they read back within a relative error of ``1e-11``.
    The alphabet size is not written.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(f"x{i}" for i in range(1, panel.m + 1)) + "\n")
        for t in range(panel.n):
            if panel.kind == "discrete":
                cells = (str(int(panel.data[i, t])) for i in range(panel.m))
            else:
                cells = (format(panel.data[i, t], ".12g") for i in range(panel.m))
            fh.write(",".join(cells) + "\n")
