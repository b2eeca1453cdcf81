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
The greedy kernel, ``_greedy_orders``, runs many greedy chains at once,
each ordering the members of a pool after a prefix for one target.  The
chains advance in lockstep, and each step asks the evaluator for every
live chain's candidates in one batch of mixed targets and conditioning
sets.  The general and connected greedy searches (all nodes, or all
seeded edges, at once), the curvature measurements in
:mod:`dinet.bounds` (all chains at once) and the greedy rankings in
:mod:`dinet.topr` (one chain at a time) all call it.  The tree helper takes
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
from .estimation import DIEvaluator, _check_query
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


_Entry = tuple[tuple[int, ...], float]  # (members, value) of one parent set
_Chain = tuple[int, Iterable[int], Sequence[int], "int | None"]


def _greedy_orders(
    evaluator: DIEvaluator, chains: Sequence[_Chain]
) -> list[tuple[tuple[int, ...], list[float]]]:
    """The greedy kernel: order members of a pool, for many chains at once.

    A chain ``(target, pool, prefix, length)`` orders up to ``length``
    members of ``pool`` (the whole pool when ``length`` is None).  Each
    step adds the pool member with the largest increment conditioned on
    ``prefix`` and the chain's picks so far; ties go to the smaller
    process index.  The chains advance in lockstep: one step asks the
    evaluator for every live chain's candidates in a single batch, so a
    chain picks as it would alone.  Returns each chain's picks (without
    the prefix) and their increments, in chain order.
    """
    m = evaluator.m
    runs = []  # per chain: target, prefix + picks, candidates left, steps, gains
    for target, pool, prefix, length in chains:
        remaining = sorted(set(pool))
        steps = len(remaining) if length is None else min(length, len(remaining))
        if steps:
            _check_query(m, target, remaining, prefix)
        runs.append((target, list(prefix), remaining, steps, []))
    live = [run for run in runs if run[3]]
    while live:
        queries = []
        for target, chosen, remaining, _, _ in live:
            cond = tuple(sorted(chosen))
            queries.extend((target, (j,), cond) for j in remaining)
        values = evaluator._fill(queries)
        start = 0
        for _, chosen, remaining, _, gains in live:
            step = values[start: start + len(remaining)]
            start += len(remaining)
            best = max(range(len(remaining)), key=step.__getitem__)  # first max
            chosen.append(remaining.pop(best))
            gains.append(step[best])
        live = [run for run in live if len(run[4]) < run[3]]
    # the picks are the last len(gains) entries of prefix + picks
    return [
        (tuple(chosen[len(chosen) - len(gains):]), gains)
        for _, chosen, _, _, gains in runs
    ]


def _greedy_entries(
    evaluator: DIEvaluator, length: int, seeds: Sequence[tuple[int, tuple[int, ...]]]
) -> list[_Entry]:
    """Per ``(target, seed)``: the greedy set of ``length`` grown from ``seed``.

    Each set comes with its value; all chains and all values take one
    batch per greedy step and one more for the values.
    """
    nodes = range(1, evaluator.m + 1)
    chains = []
    for target, seed in seeds:
        pool = [j for j in nodes if j != target and j not in seed]
        chains.append((target, pool, seed, length - len(seed)))
    orders = _greedy_orders(evaluator, chains)
    members = [
        tuple(sorted(seed + picks)) for (_, seed), (picks, _) in zip(seeds, orders)
    ]
    values = evaluator._fill(
        [(target, ms, ()) for (target, _), ms in zip(seeds, members)]
    )
    return list(zip(members, values))


def greedy_general(
    evaluator: DIEvaluator, L: int | Sequence[int]
) -> GreedyApproximation:
    """Greedy unconstrained selection, one forward pass per node.

    Each step adds the process with the largest directed information
    increment conditioned on the picks so far; the node's score is the
    chain rule sum of its increments.  ``L`` may be one length per node.
    All nodes' passes advance together, one batched query per step.
    """
    m = evaluator.m
    lengths = _degree_vector(L, m, "L")
    nodes = range(1, m + 1)
    chains = [(i, [j for j in nodes if j != i], (), lengths[i - 1]) for i in nodes]
    orders: list[tuple[int, ...]] = []
    score = 0.0
    for picks, increments in _greedy_orders(evaluator, chains):
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
    edges = [(i, (j,)) for i in range(1, m + 1) for j in range(1, m + 1) if j != i]
    arcs = dict(zip(edges, _greedy_entries(evaluator, L, edges)))
    root_entry = (
        (lambda r: _greedy_entries(evaluator, L, [(r, ())])[0])
        if root_has_parents
        else _empty_set
    )
    return _connected(m, lambda i, j: arcs[(i, (j,))], root_entry)
