"""Bounded in-degree structure selection.

Given per-node directed information values, these searches pick a parent
set for every process so the summed value is as large as possible, under
one of two structural regimes:

* unconstrained ("general"): each node independently gets its best
  size-K set, exactly or by greedy forward selection;
* spanning-tree constrained ("connected"): the chosen structure must
  contain a directed spanning tree.  Each potential tree edge ``j -> i``
  is weighted by a parent set for ``i`` that includes ``j``, and a
  maximum weight arborescence picks the tree.  The root keeps the empty
  set or, with ``root_has_parents``, a set of its own whose value weighs
  that root in the same solve.

Every search, here and in :mod:`dinet.topr`, reads its parent sets from
one source: per node, a candidate list, best first.  An exact list sorts
all of a node's size-K sets by value, ties to the smaller set index, with
one stable argsort of the node's cache row.  The cache keeps the
searches' lists until the row is written, so the two searches here over
one cache share them; a ranking sorts its own, so its cost does not
depend on which searches ran first.  :func:`optimal_general` takes each
node's first entry and :func:`optimal_connected` weighs arc ``j -> i``
by the first entry of ``i``'s list that contains ``j``.  A greedy list
starts with the greedy set grown after a pinned prefix (nothing, or a
tree edge's parent) and goes on through the node's greedy choice
sequences depth-first: past its first entry it holds one generator of
its later entries, drawn as a ranking reaches them; :func:`greedy_connected` reads the first entry of
each arc's pinned list, and the greedy rankings read on.  Every entry,
pinned or not, carries its set's rank.

Three private helpers carry the rest.  The greedy kernel,
``_greedy_orders``, runs many greedy chains at once, each ordering the
members of a pool after a prefix for one target.  The chains advance in
lockstep, and each step asks the evaluator for every live chain's
candidates in one batch of mixed targets and conditioning sets.
:func:`greedy_general`, the first entries of all greedy lists and the
curvature measurements in :mod:`dinet.bounds` each take one call.  A
greedy list's later entries come from ``_greedy_sets``, a recursive
generator that ranks each slot's candidates once, when it first enters
the slot, and is started only when a ranking first reads past the
list's first entry.  The tree helper takes the parent set each arc
``j -> i`` stands for and the set each root would keep, makes the one
arborescence solve and reads off the structure the tree induces; both
connected searches and the greedy connected ranking use it, so that
ranking's first tree is :func:`greedy_connected` by construction.

Every set in a candidate list is valid and sorted, so the structures
built from them skip the public constructor's checks.

Ties are always resolved deterministically: candidate parent sets by
ascending set index, greedy picks by ascending process index, and tree
roots by ascending node index.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import islice
from math import fsum

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
    _all_parent_sets,
    _check_int,
    _set_rank,
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
    """One size per node: ``degree`` itself, or a list or tuple of sizes."""
    if isinstance(degree, (list, tuple)):
        degrees = list(degree)
        if len(degrees) != m:
            raise ValidationError(f"{name} vector must have one entry per process")
    else:
        degrees = [degree] * m
    for k in degrees:
        _check_int(k, name, 0, m - 1)
    return degrees


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
    the prefix) and their increments, in chain order.  Nothing is
    checked: a prefix and its pool are disjoint sets of processes other
    than the target, which callers build or check at their boundary.
    """
    runs = []  # per chain: target, prefix + picks, candidates left, steps, gains
    for target, pool, prefix, length in chains:
        remaining = sorted(set(pool))
        steps = len(remaining) if length is None else min(length, len(remaining))
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


# ---------------------------------------------------------------------------
# per-node candidate lists


class _Candidates:
    """One node's parent-set candidates, best first.

    ``members``, ``values`` and ``ranks`` are parallel: position ``p``
    holds a set, its value and its :func:`parent_set_index`.  A greedy
    list also holds an iterator of its later ``(members, value, rank)``
    entries, which :meth:`has` draws from as a ranking reads past the
    entries held, and drops once it is exhausted.
    """

    def __init__(
        self,
        members: list[tuple[int, ...]],
        values: list[float],
        ranks: list[int],
        tail: Iterator[tuple[tuple[int, ...], float, int]] | None = None,
    ) -> None:
        self.members = members
        self.values = values
        self.ranks = ranks
        self._tail = tail  # None for an exact or exhausted list

    @classmethod
    def exact(
        cls, cache: DirectedInfoCache, target: int, K: int, kept: bool = True
    ) -> "_Candidates":
        """All size-``K`` sets of ``target``, by value, ties to the smaller rank.

        The empty set is worth 0.0 without a cache lookup.  Otherwise one
        stable argsort orders the target's cache row; a gap in the row
        raises :class:`UncachedParentSetError` for the first missing set.
        A ``kept`` list stays on the cache until the row is written, and
        every ``kept`` read returns it, so no caller may change it.  The
        rankings pass ``kept=False``: they sort a list of their own and
        leave the kept one alone.
        """
        if K == 0:
            return cls([()], [0.0], [0])
        if kept and (target, K) in cache._lists:
            return cache._lists[(target, K)]
        row = cache._row(target, K)
        # a stable sort keeps equal values in rank order
        order = np.argsort(-row, kind="stable")
        sets = list(_all_parent_sets(cache.m, target, K))
        ranks = order.tolist()
        lst = cls([sets[p] for p in ranks], row[order].tolist(), ranks)
        if kept:
            cache._lists[(target, K)] = lst
        return lst

    @classmethod
    def greedy(
        cls,
        evaluator: DIEvaluator,
        length: int,
        seeds: Sequence[tuple[int, tuple[int, ...]]],
    ) -> list["_Candidates"]:
        """Per ``(target, pinned)``: the greedy choice sequences after ``pinned``.

        A list's entries are the sets :func:`_greedy_sets` yields after
        ``pinned``, every size-``length`` set containing ``pinned`` once.
        The first, the greedy set, is built here for every list in one
        lockstep :func:`_greedy_orders` call, and their values in one more
        batch.  The later entries come from a generator of each list that
        starts only when a ranking first reads past the greedy set.
        """
        m = evaluator.m

        def pool(target: int, pinned: tuple[int, ...]) -> set[int]:
            return set(range(1, m + 1)) - {target, *pinned}

        def later(target: int, pinned: tuple[int, ...]):
            sets = _greedy_sets(
                evaluator, target, pool(target, pinned), pinned, length - len(pinned)
            )
            next(sets)  # the greedy set, already at position 0
            for ms in sets:
                yield ms, evaluator._fill([(target, ms, ())])[0], _set_rank(m, target, ms)

        chains = [
            (target, pool(target, pinned), pinned, length - len(pinned))
            for target, pinned in seeds
        ]
        orders = _greedy_orders(evaluator, chains)
        members = [
            tuple(sorted(pinned + picks))
            for (_, pinned), (picks, _) in zip(seeds, orders)
        ]
        values = evaluator._fill(
            [(target, ms, ()) for (target, _), ms in zip(seeds, members)]
        )
        return [
            cls([ms], [v], [_set_rank(m, target, ms)], later(target, pinned))
            for (target, pinned), ms, v in zip(seeds, members, values)
        ]

    def entry(self, p: int = 0) -> _Entry:
        """The set at position ``p`` with its value."""
        return self.members[p], self.values[p]

    def has(self, p: int) -> bool:
        """Whether position ``p`` exists, drawing a greedy list up to it."""
        if p >= len(self.members) and self._tail is not None:
            for members, value, rank in islice(self._tail, p + 1 - len(self.members)):
                self.members.append(members)
                self.values.append(value)
                self.ranks.append(rank)
            if p >= len(self.members):
                self._tail = None
        return p < len(self.members)


def _greedy_sets(
    evaluator: DIEvaluator,
    target: int,
    pool: set[int],
    prefix: tuple[int, ...],
    length: int,
) -> Iterator[tuple[int, ...]]:
    """Every ``length``-subset of ``pool`` added to ``prefix``, sorted, once.

    Depth first over greedy choice sequences: the pool is ranked by
    increment conditioned on ``prefix`` (ties to the smaller index), and
    the ``n``-th ranked candidate, while ``length`` candidates remain from
    it on, is appended to the prefix with the candidates ranked below it
    as the next pool.  A candidate ranked above a choice is left out of
    the deeper pools, since the sets holding it came under its own
    branch.  The first set is the greedy one; the last pick changes first.
    """
    if length == 0:
        yield tuple(sorted(prefix))
        return
    candidates = sorted(pool)
    cond = tuple(sorted(prefix))
    values = evaluator._fill([(target, (j,), cond) for j in candidates])
    ranked = [j for _, j in sorted(zip([-v for v in values], candidates))]
    for n in range(len(ranked) - length + 1):
        yield from _greedy_sets(
            evaluator, target, set(ranked[n + 1:]), prefix + (ranked[n],), length - 1
        )


def _exact_lists(
    cache: DirectedInfoCache, K: int, kept: bool = True
) -> list[_Candidates]:
    return [_Candidates.exact(cache, i, K, kept) for i in range(1, cache.m + 1)]


def _greedy_lists(
    evaluator: DIEvaluator, L: int, root_has_parents: bool
) -> tuple[dict[tuple[int, tuple[int, ...]], _Candidates], list[_Entry]]:
    """Every arc ``j -> i``'s greedy list pinned to ``j``, and the root sets.

    The lists are keyed ``(i, (j,))``.  ``roots[r-1]`` is the set a tree
    root ``r`` keeps: the empty set, or with ``root_has_parents`` the
    first entry of its unpinned list, built in the same batch.
    """
    m = evaluator.m
    nodes = range(1, m + 1)
    seeds = [(i, (j,)) for i in nodes for j in nodes if j != i]
    if root_has_parents:
        seeds += [(i, ()) for i in nodes]
    lists = _Candidates.greedy(evaluator, L, seeds)
    if root_has_parents:
        roots = [lst.entry() for lst in lists[m * (m - 1):]]
    else:
        roots = [((), 0.0)] * m
    return dict(zip(seeds, lists)), roots


def optimal_general(
    cache: DirectedInfoCache, K: int | Sequence[int]
) -> ScoredApproximation:
    """Exact unconstrained selection: per-node best size-``K`` parent set.

    Each node takes the first entry of its exact candidate list, the
    largest value with ties to the smallest set index.  ``K`` may be a
    single size or one size per node.
    """
    m = cache.m
    degrees = _degree_vector(K, m, "K")
    firsts = [
        _Candidates.exact(cache, i, k).entry() for i, k in enumerate(degrees, 1)
    ]
    return ScoredApproximation(
        ParentAssignment._from_keys([members for members, _ in firsts]),
        fsum(value for _, value in firsts),
    )


def greedy_general(
    evaluator: DIEvaluator, L: int | Sequence[int]
) -> GreedyApproximation:
    """Greedy unconstrained selection, one forward pass per node.

    Each step adds the process with the largest directed information
    increment conditioned on the picks so far.  By the chain rule a
    node's value is the sum of its increments, and the score is the
    ``fsum`` of every node's increments.  ``L`` may be one length per
    node.  All nodes' passes advance together, one batched query per step.
    """
    m = evaluator.m
    lengths = _degree_vector(L, m, "L")
    nodes = range(1, m + 1)
    chains = [(i, [j for j in nodes if j != i], (), lengths[i - 1]) for i in nodes]
    results = _greedy_orders(evaluator, chains)
    orders = tuple(picks for picks, _ in results)
    return GreedyApproximation(
        ParentAssignment._from_keys([tuple(sorted(picks)) for picks in orders]),
        fsum(gain for _, gains in results for gain in gains),
        orders,
    )


def _entry_tree(
    m: int,
    arc_entry: Callable[[int, int], _Entry | None],
    roots: Sequence[_Entry],
    root: int | None = None,
) -> tuple[Arborescence, EdgeWeights, tuple[_Entry, ...]]:
    """The best tree over arcs that stand for parent sets.

    ``arc_entry(i, j)`` is the parent set of ``i`` containing ``j`` that
    arc ``j -> i`` stands for, weighing its value, or None when the arc
    is barred; ``roots[r-1]`` is the set the tree root ``r`` keeps.
    Builds the weight table (no arcs into a given ``root``), makes one
    :func:`max_weight_arborescence` call, with each root set's value as
    its root weight when the root is free, and returns the tree, the
    table and every node's induced entry in node order.  Raises
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
    root_weights = None if root else [value for _, value in roots]
    tree = max_weight_arborescence(weights, root, root_weights)
    entries = tuple(
        roots[i - 1] if i == tree.root else arcs[(i, tree.parent[i])]
        for i in range(1, m + 1)
    )
    return tree, weights, entries


def _connected(
    m: int, arc_entry: Callable[[int, int], _Entry], roots: Sequence[_Entry]
) -> ConnectedApproximation:
    """The free-root tree over ``arc_entry`` and the structure it induces."""
    tree, weights, entries = _entry_tree(m, arc_entry, roots)
    return ConnectedApproximation(
        ParentAssignment._from_keys([members for members, _ in entries]),
        fsum(value for _, value in entries),
        root=tree.root,
        tree=tuple(tree.edges()),
        weights=weights,
    )


def optimal_connected(
    cache: DirectedInfoCache, K: int, root_has_parents: bool = False
) -> ConnectedApproximation:
    """Exact selection within the spanning-tree constrained class.

    Weights edge ``j -> i`` by the first entry of ``i``'s exact candidate
    list that contains ``j`` (its best size-``K`` set containing ``j``,
    ties to the smallest set index), then takes a maximum weight
    arborescence over all roots.  By default the tree root keeps an empty
    parent set; with ``root_has_parents`` it keeps its best size-``K``
    set, whose value weighs that root in the same solve, so the result
    is the optimum of that class too.
    """
    m = cache.m
    _check_int(K, "K", 1, m - 1)
    arcs: dict[tuple[int, int], _Entry] = {}
    best: list[_Entry] = []
    for i in range(1, m + 1):
        lst = _Candidates.exact(cache, i, K)
        best.append(lst.entry())
        # the first entry holding j is i's best set containing j
        for p, members in enumerate(lst.members):
            for j in members:
                if (i, j) not in arcs:
                    arcs[(i, j)] = lst.entry(p)
            if len(arcs) == i * (m - 1):
                break
    roots = best if root_has_parents else [((), 0.0)] * m
    return _connected(m, lambda i, j: arcs[(i, j)], roots)


def greedy_connected(
    evaluator: DIEvaluator, L: int, root_has_parents: bool = False
) -> ConnectedApproximation:
    """Greedy selection within the spanning-tree constrained class.

    For each potential tree edge ``j -> i`` a parent set is grown greedily
    from the seed ``{j}`` to size ``L`` and weighed by the evaluator's
    value of the whole set (the chain rule sum of its increments, up to
    rounding); a maximum weight arborescence over those weights picks the
    tree.  With ``root_has_parents`` the root keeps its unseeded greedy
    set, whose value weighs that root in the same solve.
    :func:`dinet.topr.top_r_greedy` builds its first tree from the same
    greedy lists through the same solve, so its rank 1 is this structure.
    """
    m = evaluator.m
    _check_int(L, "L", 1, m - 1)
    lists, roots = _greedy_lists(evaluator, L, root_has_parents)
    return _connected(m, lambda i, j: lists[(i, (j,))].entry(), roots)
