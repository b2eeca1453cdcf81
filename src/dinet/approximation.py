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

Ties are always resolved deterministically: candidate parent sets by
ascending set index, greedy picks by ascending process index, and tree
roots by ascending node index.
"""

from __future__ import annotations

from collections.abc import Sequence
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
    ParentSet,
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


def _greedy_grow(
    evaluator: DIEvaluator,
    target: int,
    length: int,
    seed: tuple[int, ...] = (),
) -> tuple[tuple[int, ...], list[float]]:
    """Greedy forward selection from ``seed`` up to ``length`` parents.

    Returns the picks in selection order (seed first) and the increment of
    each pick.  Ties go to the smaller process index.
    """
    m = evaluator.m
    picks = list(seed)
    increments = [
        evaluator.increment(target, (j,), tuple(picks[:k]))
        for k, j in enumerate(picks)
    ]
    while len(picks) < length:
        candidates = [j for j in range(1, m + 1) if j != target and j not in picks]
        values = evaluator.increments(target, [(j,) for j in candidates], picks)
        best_j, best_v = None, -np.inf
        for j, v in zip(candidates, values):
            if v > best_v:
                best_j, best_v = j, v
        if best_j is None:
            raise ValidationError(
                f"degree too large: cannot grow {length} parents with m={m}"
            )
        picks.append(best_j)
        increments.append(best_v)
    return tuple(picks), increments


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
    members: list[tuple[int, ...]] = []
    orders: list[tuple[int, ...]] = []
    score = 0.0
    for i in range(1, m + 1):
        picks, increments = _greedy_grow(evaluator, i, lengths[i - 1])
        orders.append(picks)
        members.append(tuple(sorted(picks)))
        score += sum(increments)
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


def _assemble_connected(
    tree: Arborescence,
    weights: EdgeWeights,
    edge_sets: dict[tuple[int, int], tuple[int, ...]],
    m: int,
    root_set: tuple[int, ...],
    node_values: dict[tuple[int, tuple[int, ...]], float],
) -> ConnectedApproximation:
    """Build the assignment induced by a tree over edge-constrained sets."""
    root = tree.root
    lists: list[tuple[int, ...]] = []
    for i in range(1, m + 1):
        if i == root:
            lists.append(root_set)
        else:
            parent = tree.parent[i]
            lists.append(edge_sets[(i, parent)])
    assignment = ParentAssignment.from_lists(lists)
    score = 0.0
    for i in range(1, m + 1):
        ms = assignment.members_of(i)
        if ms:
            score += node_values[(i, ms)]
    return ConnectedApproximation(
        assignment, score, root=root, tree=tuple(tree.edges()), weights=weights
    )


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
    w = np.zeros((m, m))
    allowed = np.zeros((m, m), dtype=bool)
    edge_sets: dict[tuple[int, int], tuple[int, ...]] = {}
    node_values: dict[tuple[int, tuple[int, ...]], float] = {}
    for (i, j), (members, value) in best.items():
        w[j - 1, i - 1] = value
        allowed[j - 1, i - 1] = True
        edge_sets[(i, j)] = members
        node_values[(i, members)] = value
    weights = EdgeWeights(w, allowed)

    tree = max_weight_arborescence(weights)
    root_set: tuple[int, ...] = ()
    if root_has_parents:
        root_set, root_value = _best_parent_set(cache, tree.root, K)
        node_values[(tree.root, root_set)] = root_value
    return _assemble_connected(tree, weights, edge_sets, m, root_set, node_values)


def greedy_connected(
    evaluator: DIEvaluator, L: int, root_has_parents: bool = False
) -> ConnectedApproximation:
    """Greedy selection within the spanning-tree constrained class.

    For each potential tree edge ``j -> i`` a parent set is grown greedily
    from the seed ``{j}`` to size ``L`` and weighed by the evaluator's
    value of the whole set (the chain rule sum of its increments, up to
    rounding); a maximum weight arborescence over those weights picks the
    tree.  :func:`dinet.topr.top_r_greedy` weighs its edges the same way,
    so its rank 1 is this structure.
    """
    m = evaluator.m
    if L < 1 or L >= m:
        raise ValidationError(f"degree too large: L={L} with m={m}")
    w = np.zeros((m, m))
    allowed = np.zeros((m, m), dtype=bool)
    edge_sets: dict[tuple[int, int], tuple[int, ...]] = {}
    node_values: dict[tuple[int, tuple[int, ...]], float] = {}
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            if j == i:
                continue
            picks, _ = _greedy_grow(evaluator, i, L, seed=(j,))
            members = tuple(sorted(picks))
            value = evaluator.set_value(i, members)
            w[j - 1, i - 1] = value
            allowed[j - 1, i - 1] = True
            edge_sets[(i, j)] = members
            node_values[(i, members)] = value
    weights = EdgeWeights(w, allowed)

    tree = max_weight_arborescence(weights)
    root_set: tuple[int, ...] = ()
    if root_has_parents:
        picks, _ = _greedy_grow(evaluator, tree.root, L)
        root_set = tuple(sorted(picks))
        node_values[(tree.root, root_set)] = evaluator.set_value(tree.root, root_set)
    return _assemble_connected(tree, weights, edge_sets, m, root_set, node_values)
