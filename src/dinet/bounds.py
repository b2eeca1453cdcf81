"""Guarantee coefficients for greedy and degree-limited selection.

The guarantees are driven by a curvature ratio ``alpha``: the most an
incremental gain may grow relative to the gain one step earlier along a
greedy selection chain.  Submodular objectives have ``alpha <= 1``;
directed information scores can exceed it (synergy between parents), and
the coefficients below degrade gracefully as ``alpha`` grows.

Measured ratios follow three conventions: a gain within
``ZERO_GAIN_EPS`` eps nats of zero (:mod:`dinet.estimation`) is rounding
noise and counts as exactly 0, 0/0 counts as 1 (a stalled chain is no
evidence of synergy), and a nonzero gain right after a zero gain admits
no finite ratio, so the estimate becomes ``inf`` -- flagged on the
result, never raised.  The coefficient functions accept ``inf`` and
return their degenerate limits so measured values can be piped straight
in.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .approximation import _greedy_orders
from .errors import ValidationError
from .estimation import ZERO_GAIN_EPS, DIEvaluator
from .structures import ParentAssignment, _check_int, _check_real, _check_set


def _check_alpha(alpha: float) -> float:
    alpha = _check_real(alpha, "alpha")
    if math.isnan(alpha) or alpha <= 0.0:
        raise ValidationError(f"alpha must be positive, got {alpha}")
    return alpha


def _geometric_sum(alpha: float, k: int) -> float:
    # 1 + alpha + ... + alpha^(k-1), stable at alpha == 1
    if alpha == 1.0:
        return float(k)
    return (alpha**k - 1.0) / (alpha - 1.0)


def greedy_bound_coefficient(alpha: float, K: int, L: int) -> float:
    """Guaranteed fraction of the best size-K score reached by L greedy picks.

    Equals ``1 - exp(-L / (1 + alpha + ... + alpha^(K-1)))``; at
    ``alpha=1`` and ``L=K`` this is the familiar ``1 - 1/e``.  An
    unbounded measured alpha collapses the guarantee to 0.
    """
    alpha = _check_alpha(alpha)
    _check_int(K, "K", 1)
    _check_int(L, "L", 1)
    if math.isinf(alpha):
        return 0.0
    return 1.0 - math.exp(-L / _geometric_sum(alpha, K))


def degree_gap_coefficient(alpha: float, K: int, L: int) -> float:
    """Guaranteed fraction of the best size-K score kept by the best size-L set.

    Requires ``L <= K``.  Equals ``(alpha^L - 1) / (alpha^K - 1)``, read
    as ``L / K`` in the ``alpha -> 1`` limit; an unbounded alpha gives 0
    (or 1 when the sizes agree).
    """
    alpha = _check_alpha(alpha)
    _check_int(K, "K", 1)
    _check_int(L, "L", 1)
    if L > K:
        raise ValidationError(f"L={L} must not exceed K={K}")
    if math.isinf(alpha):
        return 1.0 if L == K else 0.0
    return _geometric_sum(alpha, L) / _geometric_sum(alpha, K)


def geometric_budget_maximum(alpha: float, K: int, L: int, budget: float) -> float:
    """Largest total of a ratio-capped chain whose first L terms are budgeted.

    Solves ``max sum(b_1..b_K)`` over nonnegative chains with
    ``b_i <= alpha * b_(i-1)`` and ``sum(b_1..b_L) <= budget``, for
    ``alpha > 1`` and ``L <= K``.  Both constraints bind at the optimum,
    which is the pure geometric chain, giving
    ``budget * (1 - alpha^K) / (1 - alpha^L)``.  The ``alpha -> 1`` limit
    would be ``budget * K / L``, but the closed form is specific to
    ``alpha > 1`` and smaller values are rejected.
    """
    alpha = _check_real(alpha, "alpha")
    if math.isnan(alpha) or math.isinf(alpha) or alpha <= 1.0:
        raise ValidationError(f"alpha must be finite and > 1, got {alpha}")
    _check_int(K, "K", 1)
    _check_int(L, "L", 1)
    if L > K:
        raise ValidationError(f"L={L} must not exceed K={K}")
    budget = _check_real(budget, "budget")
    if not math.isfinite(budget) or budget <= 0.0:
        raise ValidationError(f"budget must be positive, got {budget}")
    return budget * _geometric_sum(alpha, K) / _geometric_sum(alpha, L)


def coefficient_table(
    kind: str, alphas: Sequence[float], K: int, L: int
) -> list[tuple[float, int, int, float]]:
    """Rows of ``(alpha, K, L, coefficient)`` over a grid of alphas."""
    if kind == "greedy":
        fn = greedy_bound_coefficient
    elif kind == "degree-gap":
        fn = degree_gap_coefficient
    else:
        raise ValidationError(f"unknown table kind: {kind!r}")
    return [(alpha, K, L, fn(alpha, K, L)) for alpha in map(_check_alpha, alphas)]


# ---------------------------------------------------------------------------
# measured curvature


@dataclass(frozen=True)
class AlphaEstimate:
    """A measured curvature ratio with the chain that attained it.

    ``alpha`` is the largest consecutive-gain ratio observed: the
    smallest value for which every recorded step satisfies
    ``gain[k+1] <= alpha * gain[k]``.  It may be below 1 (submodular
    behavior) or ``inf`` (a positive gain after a zero gain, reported by
    ``unbounded``).  The witness records the target node, the ordered
    picks, and the gain sequence of the chain containing the maximum, as
    measured; the ratios read a gain within ``ZERO_GAIN_EPS`` eps nats of
    zero as 0, and ``floored`` counts the nonzero gains, over all chains
    measured, read so.
    """

    alpha: float
    witness_target: int
    witness_path: tuple[int, ...]
    witness_increments: tuple[float, ...]
    floored: int = 0

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.alpha)


def _chain_ratios(increments: Sequence[float]) -> list[float]:
    out = []
    for prev, nxt in zip(increments, increments[1:]):
        if prev == 0.0:
            out.append(1.0 if nxt == 0.0 else math.inf)
        else:
            out.append(nxt / prev)
    return out


def _steepest_chain(
    chains: Iterable[tuple[int, Sequence[int], Sequence[float]]],
) -> AlphaEstimate:
    """The first ``(target, path, increments)`` chain with the largest ratio.

    When no chain is long enough to yield a ratio the estimate is 1,
    which asserts nothing.
    """
    floor = ZERO_GAIN_EPS * sys.float_info.epsilon
    best = (1.0, 0, (), ())
    alpha = -math.inf
    floored = 0
    for target, path, increments in chains:
        gains = [0.0 if abs(gain) <= floor else gain for gain in increments]
        floored += gains.count(0.0) - increments.count(0.0)
        ratios = _chain_ratios(gains)
        if ratios and max(ratios) > alpha:
            alpha = max(ratios)
            best = (alpha, target, tuple(path), tuple(increments))
    return AlphaEstimate(*best, floored)


def empirical_alpha(
    evaluator: DIEvaluator, target: int, pool: Sequence[int]
) -> AlphaEstimate:
    """Curvature measured along one greedy ordering of ``pool``.

    The pool (at least two processes, none equal to the target) is
    ordered greedily for the target; the estimate is the maximum
    consecutive-gain ratio along that single chain.
    """
    # a pool is a set, but True and np.int64(2) must not merge into 1 and 2
    unique = {(type(j), j): j for j in pool}.values()
    members = _check_set(evaluator.m, target, unique, "pool")
    if len(members) < 2:
        raise ValidationError(f"pool must contain at least 2 processes, got {pool!r}")
    [(picks, gains)] = _greedy_orders(evaluator, [(target, members, (), None)])
    return _steepest_chain([(target, picks, gains)])


def network_empirical_alpha(evaluator: DIEvaluator) -> AlphaEstimate:
    """The largest per-node curvature, each node measured over all others."""
    m = evaluator.m
    if m < 3:
        raise ValidationError(f"need m >= 3 for a ratio, got m={m}")
    nodes = range(1, m + 1)
    chains = [(target, [j for j in nodes if j != target], (), None) for target in nodes]
    return _steepest_chain(
        (target, picks, gains)
        for target, (picks, gains) in zip(nodes, _greedy_orders(evaluator, chains))
    )


def bound_witness_alpha(
    evaluator: DIEvaluator,
    optimal: ParentAssignment,
    greedy_orders: Sequence[Sequence[int]],
) -> AlphaEstimate:
    """Curvature measured over exactly the chains the greedy guarantee uses.

    For each node and each greedy prefix length l (0 up to one less than
    the greedy order's length), the members of the node's optimal set not
    already in the prefix are ordered greedily after it and the chain's
    consecutive-gain ratios are recorded.  The maximum over all chains is
    the smallest alpha making every inequality in the guarantee's proof
    hold, so a coefficient computed from this estimate never overshoots
    the realized greedy-to-optimal ratio.  Each greedy order must pick
    distinct processes other than its node.
    """
    m = evaluator.m
    if optimal.m != m:
        raise ValidationError(f"assignment has m={optimal.m} but evaluator has m={m}")
    if len(greedy_orders) != m:
        raise ValidationError(f"expected {m} greedy orders, got {len(greedy_orders)}")
    chains = []
    for target in range(1, m + 1):
        order = tuple(greedy_orders[target - 1])
        _check_set(m, target, order, "greedy order")
        opt = set(optimal.members_of(target))
        for l in range(len(order)):
            pool = opt - set(order[:l])
            if len(pool) >= 2:
                chains.append((target, pool, order[:l], None))
    return _steepest_chain(
        (target, (*prefix, *picks), gains)
        for (target, _, prefix, _), (picks, gains)
        in zip(chains, _greedy_orders(evaluator, chains))
    )
