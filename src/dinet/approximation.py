"""Bounded in-degree structure selection.

Given per-node directed information values, these searches pick a parent
set for every process so the summed value is as large as possible, under
one of two structural regimes:

* unconstrained ("general"): each node independently gets the best size-K
  set, found exactly by scanning all candidates or approximately by greedy
  forward selection;
* spanning-tree constrained ("connected"): the chosen structure must
  contain a directed spanning tree.  Each potential tree edge ``j -> i``
  is weighted by the best parent set for ``i`` that includes ``j``, and a
  maximum weight arborescence picks the tree.

Two private helpers carry every greedy and tree search in the package.
The greedy kernel orders the members of a pool after a prefix, one
batched increment query per step; the general and connected greedy
searches, the curvature measurements in :mod:`dinet.bounds` and the
greedy rankings in :mod:`dinet.topr` all call it.  The tree helper takes
the parent set each arc ``j -> i`` stands for (a set of ``i`` containing
``j``) and the set the root keeps, makes the one arborescence solve and
reads off the structure the tree induces; both connected searches and
the greedy connected ranking use it, so that ranking's first tree is
:func:`greedy_connected` by construction.

Ties are always resolved deterministically: candidate parent sets by
ascending set index, greedy picks by ascending process index, and tree
roots by ascending node index.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .arborescence import (
    Arborescence,
    EdgeWeights,
    max_weight_arborescence,
)
from .errors import ValidationError
from .estimation import DIEvaluator
from .structures import (
    DirectedInfoCache,
    ParentAssignment,
    ScoredApproximation,
    all_parent_sets,
)


@dataclass(frozen=True)
class GreedyApproximation(ScoredApproximation):
    """Greedy search result; ``orders[i-1]`` is node ``i``'s pick sequence."""

    orders: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ConnectedApproximation(ScoredApproximation):
    """Tree-constrained result with the certifying arborescence attached.

    ``tree`` holds the real ``(parent, child)`` edges of the spanning tree
    and ``weights`` the edge weight table the tree was selected from, so
    callers can audit the tree choice independently of the parent sets.
    """

    root: int
    tree: tuple[tuple[int, int], ...]
    weights: EdgeWeights


def _degree_vector(degree: int | Sequence[int], m: int, name: str) -> list[int]:
    if isinstance(degree, int) and not isinstance(degree, bool):
        degrees = [degree] * m
    else:
        degrees = [int(k) for k in degree]  # type: ignore[union-attr]
        if len(degrees) != m:
            raise ValidationError(f"{name} vector must have one entry per process")
    for k in degrees:
        if k < 0 or k >= m:
            raise ValidationError(f"degree too large: {name}={k} with m={m}")
    return degrees


def optimal_general(
    cache: DirectedInfoCache, K: int | Sequence[int]
) -> ScoredApproximation:
    """Exact unconstrained selection: per-node best size-``K`` parent set.

    Scans every candidate set per node in ascending index order, keeping
    the first maximum, so equal-value candidates resolve to the smallest
    set index.  ``K`` may be a single size or one size per node.
    """
    m = cache.m
    degrees = _degree_vector(K, m, "K")
    chosen: list[tuple[int, ...]] = []
    score = 0.0
    for i in range(1, m + 1):
        best, best_v = _best_parent_set(cache, i, degrees[i - 1])
        chosen.append(best)
        score += best_v
    return ScoredApproximation(ParentAssignment.from_lists(chosen), score)


def _best_parent_set(
    cache: DirectedInfoCache, target: int, K: int
) -> tuple[tuple[int, ...], float]:
    """The first maximum over ``target``'s size-``K`` sets in index order."""
    best: tuple[int, ...] | None = None
    best_v = -np.inf
    for members in all_parent_sets(cache.m, target, K):
        v = cache.get(target, members) if members else 0.0
        if v > best_v:
            best, best_v = members, v
    assert best is not None
    return best, best_v


def _greedy_order(
    evaluator: DIEvaluator,
    target: int,
    pool: Iterable[int],
    prefix: Sequence[int] = (),
    length: int | None = None,
) -> tuple[tuple[int, ...], list[float]]:
    """The greedy kernel: order up to ``length`` members of ``pool``.

    Each step adds the pool member with the largest increment conditioned
    on ``prefix`` and the picks so far, one :meth:`DIEvaluator.increments`
    batch per step; ties go to the smaller process index.  Returns the
    picks (without the prefix) and their increments; without ``length``
    the whole pool is ordered.
    """
    chosen = list(prefix)
    remaining = sorted(set(pool))
    steps = len(remaining) if length is None else min(length, len(remaining))
    gains: list[float] = []
    for _ in range(steps):
        values = evaluator.increments(target, [(j,) for j in remaining], chosen)
        best = max(range(len(remaining)), key=values.__getitem__)  # first max
        chosen.append(remaining.pop(best))
        gains.append(values[best])
    return tuple(chosen[len(prefix):]), gains


def _greedy_entry(
    evaluator: DIEvaluator, target: int, length: int, seed: tuple[int, ...] = ()
) -> tuple[tuple[int, ...], float]:
    """The greedy set of ``length`` grown from ``seed``, with its value."""
    others = set(range(1, evaluator.m + 1)) - {target, *seed}
    picks, _ = _greedy_order(evaluator, target, others, seed, length - len(seed))
    members = tuple(sorted(seed + picks))
    return members, evaluator.set_value(target, members)


def greedy_general(
    evaluator: DIEvaluator, L: int | Sequence[int]
) -> GreedyApproximation:
    """Greedy unconstrained selection, one forward pass per node.

    Each step adds the process with the largest directed information
    increment conditioned on the picks so far; the node's score is the
    chain rule sum of its increments.  ``L`` may be one length per node.
    """
    m = evaluator.m
    lengths = _degree_vector(L, m, "L")
    orders: list[tuple[int, ...]] = []
    score = 0.0
    for i in range(1, m + 1):
        others = [j for j in range(1, m + 1) if j != i]
        picks, increments = _greedy_order(evaluator, i, others, (), lengths[i - 1])
        orders.append(picks)
        score += sum(increments)
    members = [tuple(sorted(picks)) for picks in orders]
    return GreedyApproximation(
        ParentAssignment.from_lists(members), score, tuple(orders)
    )


def constrained_best_sets(
    cache: DirectedInfoCache, K: int
) -> dict[tuple[int, int], tuple[tuple[int, ...], float]]:
    """For each (target, required parent): the best set containing it.

    Scans each target's candidate sets once in index order; ties keep the
    first, i.e. the smallest set index.
    """
    m = cache.m
    best: dict[tuple[int, int], tuple[tuple[int, ...], float]] = {}
    for i in range(1, m + 1):
        for members in all_parent_sets(m, i, K):
            v = cache.get(i, members)
            for j in members:
                cur = best.get((i, j))
                if cur is None or v > cur[1]:
                    best[(i, j)] = (members, v)
    return best


_Entry = tuple[tuple[int, ...], float]  # (members, value) of one parent set


def _entry_tree(
    m: int,
    arc_entry: Callable[[int, int], _Entry | None],
    root_entry: Callable[[int], _Entry],
    root: int | None = None,
) -> tuple[Arborescence, EdgeWeights, tuple[_Entry, ...]]:
    """The best tree over arcs that stand for parent sets.

    ``arc_entry(i, j)`` is the parent set of ``i`` containing ``j`` that
    arc ``j -> i`` stands for, weighing its value, or None when the arc
    is barred; ``root_entry(r)`` is the set the tree root ``r`` keeps.
    Builds the weight table (no arcs into a given ``root``), makes one
    :func:`max_weight_arborescence` call and returns the tree, the table
    and every node's induced entry in node order.  Raises
    :class:`InfeasibleArborescenceError` when no tree exists.
    """
    w = np.zeros((m, m))
    allowed = np.zeros((m, m), dtype=bool)
    arcs: dict[tuple[int, int], _Entry] = {}
    for i in range(1, m + 1):
        if i == root:
            continue
        for j in range(1, m + 1):
            if j != i and (entry := arc_entry(i, j)) is not None:
                arcs[(i, j)] = entry
                w[j - 1, i - 1] = entry[1]
                allowed[j - 1, i - 1] = True
    weights = EdgeWeights(w, allowed)
    tree = max_weight_arborescence(weights, root)
    entries = tuple(
        root_entry(i) if i == tree.root else arcs[(i, tree.parent[i])]
        for i in range(1, m + 1)
    )
    return tree, weights, entries


def _connected(
    m: int,
    arc_entry: Callable[[int, int], _Entry],
    root_entry: Callable[[int], _Entry],
) -> ConnectedApproximation:
    """The free-root tree over ``arc_entry`` and the structure it induces."""
    tree, weights, entries = _entry_tree(m, arc_entry, root_entry)
    return ConnectedApproximation(
        ParentAssignment.from_lists([members for members, _ in entries]),
        sum(value for _, value in entries),
        root=tree.root,
        tree=tuple(tree.edges()),
        weights=weights,
    )


def _empty_set(root: int) -> _Entry:
    return (), 0.0


def optimal_connected(
    cache: DirectedInfoCache, K: int, root_has_parents: bool = False
) -> ConnectedApproximation:
    """Exact selection within the spanning-tree constrained class.

    Weights edge ``j -> i`` by the best size-``K`` parent set for ``i``
    containing ``j``, then takes a maximum weight arborescence over all
    roots.  By default the tree root keeps an empty parent set; with
    ``root_has_parents`` the same tree is kept and its root then takes
    its best size-``K`` set, so the root's own set does not influence
    the choice of tree.
    """
    m = cache.m
    if K < 1 or K >= m:
        raise ValidationError(f"degree too large: K={K} with m={m}")
    best = constrained_best_sets(cache, K)
    root_entry = (
        (lambda r: _best_parent_set(cache, r, K)) if root_has_parents else _empty_set
    )
    return _connected(m, lambda i, j: best[(i, j)], root_entry)


def greedy_connected(
    evaluator: DIEvaluator, L: int, root_has_parents: bool = False
) -> ConnectedApproximation:
    """Greedy selection within the spanning-tree constrained class.

    For each potential tree edge ``j -> i`` a parent set is grown greedily
    from the seed ``{j}`` to size ``L`` and weighed by the evaluator's
    value of the whole set (the chain rule sum of its increments, up to
    rounding); a maximum weight arborescence over those weights picks the
    tree.  :func:`dinet.topr.top_r_greedy` builds its first tree from the
    same greedy sets through the same solve, so its rank 1 is this
    structure.
    """
    m = evaluator.m
    if L < 1 or L >= m:
        raise ValidationError(f"degree too large: L={L} with m={m}")
    root_entry = (
        (lambda r: _greedy_entry(evaluator, r, L)) if root_has_parents else _empty_set
    )
    return _connected(
        m, lambda i, j: _greedy_entry(evaluator, i, L, (j,)), root_entry
    )
