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
one stable argsort of the node's cache row;
:func:`optimal_general` takes each node's first entry and
:func:`optimal_connected` weighs arc ``j -> i`` by the first entry of
``i``'s list that contains ``j``.  A greedy list starts with the greedy
set grown after a pinned prefix (nothing, or a tree edge's parent) and
goes on through the node's greedy choice sequences depth-first, built
lazily as a ranking reaches them; :func:`greedy_connected` reads the
first entry of each arc's pinned list, and the greedy rankings read on.

Two private helpers carry the rest.  The greedy kernel,
``_greedy_orders``, runs many greedy chains at once, each ordering the
members of a pool after a prefix for one target.  The chains advance in
lockstep, and each step asks the evaluator for every live chain's
candidates in one batch of mixed targets and conditioning sets.
:func:`greedy_general`, the first entries of all greedy lists and the
curvature measurements in :mod:`dinet.bounds` each take one call; the
depth-first successor of a greedy list takes one chain at a time.  The
tree helper takes the parent set each arc ``j -> i`` stands for and the
set each root would keep, makes the one arborescence solve and reads off
the structure the tree induces; both connected searches and the greedy
connected ranking use it, so that ranking's first tree is
:func:`greedy_connected` by construction.

Every set in a candidate list is valid and sorted, so the structures
built from them skip the public constructor's checks.

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
    _check_degree,
    _set_rank,
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
        _check_degree(k, m, name)
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
    list grows from ``state``, the depth-first state of its last entry
    (None once complete), as :meth:`has` asks for positions past its end.
    """

    def __init__(
        self,
        target: int,
        members: list[tuple[int, ...]],
        values: list[float],
        ranks: list[int] | None,
        evaluator: DIEvaluator | None = None,
        state: tuple[tuple[int, ...], tuple[int, ...]] | None = None,
        n_pinned: int = 0,
    ) -> None:
        self.target = target
        self.members = members
        self.values = values
        self.ranks = ranks
        self._evaluator = evaluator
        self._state = state
        self._n_pinned = n_pinned

    @classmethod
    def exact(cls, cache: DirectedInfoCache, target: int, K: int) -> "_Candidates":
        """All size-``K`` sets of ``target``, by value, ties to the smaller rank.

        The empty set is worth 0.0 without a cache lookup.  Otherwise one
        stable argsort orders the target's cache row; a gap in the row
        raises :class:`UncachedParentSetError` for the first missing set.
        """
        if K == 0:
            return cls(target, [()], [0.0], [0])
        row = cache._row(target, K)
        # a stable sort keeps equal values in rank order
        order = np.argsort(-row, kind="stable")
        sets = list(all_parent_sets(cache.m, target, K))
        ranks = order.tolist()
        return cls(target, [sets[p] for p in ranks], row[order].tolist(), ranks)

    @classmethod
    def greedy(
        cls,
        evaluator: DIEvaluator,
        length: int,
        seeds: Sequence[tuple[int, tuple[int, ...]]],
    ) -> list["_Candidates"]:
        """Per ``(target, pinned)``: the greedy choice sequences after ``pinned``.

        A list's first entry is the greedy set of ``length`` grown from
        ``pinned``; each later one is the next state of
        :func:`_dfs_successor`, which visits every size-``length`` set
        containing ``pinned`` exactly once.  Every list's first entry takes
        one lockstep :func:`_greedy_orders` call, and their values one
        more batch.  A pinned list serves the partition search, which
        never reads ranks, so it has none.
        """
        m = evaluator.m
        chains = [
            (target, set(range(1, m + 1)) - {target, *pinned}, pinned,
             length - len(pinned))
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
            cls(
                target,
                [ms],
                [v],
                None if pinned else [_set_rank(m, target, ms)],
                evaluator,
                (pinned + picks, (0,) * length),
                len(pinned),
            )
            for (target, pinned), (picks, _), ms, v
            in zip(seeds, orders, members, values)
        ]

    def entry(self, p: int = 0) -> _Entry:
        """The set at position ``p`` with its value."""
        return self.members[p], self.values[p]

    def has(self, p: int) -> bool:
        """Whether position ``p`` exists, growing a greedy list up to it."""
        while p >= len(self.members) and self._state is not None:
            self._state = _dfs_successor(
                self._evaluator, self.target, *self._state, self._n_pinned
            )
            if self._state is not None:
                members = tuple(sorted(self._state[0]))
                self.members.append(members)
                self.values.append(self._evaluator._fill([(self.target, members, ())])[0])
                if self.ranks is not None:
                    self.ranks.append(_set_rank(self._evaluator.m, self.target, members))
        return p < len(self.members)


def _dfs_successor(
    evaluator: DIEvaluator,
    target: int,
    choices: tuple[int, ...],
    ranks: tuple[int, ...],
    n_pinned: int,
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The next state in depth-first order over greedy choice sequences.

    Advancing a slot moves it to the next-ranked candidate; deeper slots
    restart greedily over what remains.  Candidates outranking an earlier
    slot's choice are excluded from deeper slots, since sets containing
    them were already enumerated under that earlier branch; this makes the
    walk visit every parent set exactly once.
    """
    length = len(choices)
    # forward pass: each free slot's candidates, ranked by increment
    # (ties to the smaller index), and the pool they came from
    avail = set(range(1, evaluator.m + 1)) - {target, *choices[:n_pinned]}
    slots: list[tuple[set[int], list[int]]] = []
    for k in range(n_pinned, length):
        candidates = sorted(avail)
        cond = tuple(sorted(choices[:k]))
        values = evaluator._fill([(target, (j,), cond) for j in candidates])
        ranked = [j for _, j in sorted(zip([-v for v in values], candidates))]
        slots.append((avail, ranked))
        avail = avail - set(ranked[: ranks[k] + 1])

    for k in reversed(range(n_pinned, length)):
        avail, ranked = slots[k - n_pinned]
        nr = ranks[k] + 1
        # the deeper slots need length - k - 1 candidates left over
        if len(ranked) - nr - 1 >= length - k - 1:
            prefix = choices[:k] + (ranked[nr],)
            pool = avail - set(ranked[: nr + 1])
            [(picks, _)] = _greedy_orders(
                evaluator, [(target, pool, prefix, length - k - 1)]
            )
            return prefix + picks, ranks[:k] + (nr,) + (0,) * len(picks)
    return None


def _empty_set(root: int) -> _Entry:
    return (), 0.0


def _exact_lists(cache: DirectedInfoCache, K: int) -> list[_Candidates]:
    return [_Candidates.exact(cache, i, K) for i in range(1, cache.m + 1)]


def _greedy_lists(
    evaluator: DIEvaluator, L: int, root_has_parents: bool
) -> tuple[dict[tuple[int, tuple[int, ...]], _Candidates], Callable[[int], _Entry]]:
    """Every arc ``j -> i``'s greedy list pinned to ``j``, and the root sets.

    The lists are keyed ``(i, (j,))``.  The root keeps the empty set, or
    with ``root_has_parents`` the first entry of its unpinned list, keyed
    ``(r, ())`` and built in the same batch.
    """
    nodes = range(1, evaluator.m + 1)
    seeds = [(i, (j,)) for i in nodes for j in nodes if j != i]
    if root_has_parents:
        seeds += [(i, ()) for i in nodes]
    lists = dict(zip(seeds, _Candidates.greedy(evaluator, L, seeds)))
    if root_has_parents:
        return lists, lambda r: lists[(r, ())].entry()
    return lists, _empty_set


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
        sum(value for _, value in firsts),
    )


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
        ParentAssignment._from_keys(members), score, tuple(orders)
    )


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
    root_weights = None if root else [root_entry(r)[1] for r in range(1, m + 1)]
    tree = max_weight_arborescence(weights, root, root_weights)
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
        ParentAssignment._from_keys([members for members, _ in entries]),
        sum(value for _, value in entries),
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
    _check_degree(K, m, least=1)
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
    root_entry = (lambda r: best[r - 1]) if root_has_parents else _empty_set
    return _connected(m, lambda i, j: arcs[(i, j)], root_entry)


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
    _check_degree(L, m, "L", 1)
    lists, root_entry = _greedy_lists(evaluator, L, root_has_parents)
    return _connected(m, lambda i, j: lists[(i, (j,))].entry(), root_entry)
