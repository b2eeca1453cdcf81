"""Ranked enumeration of the r best structures.

Every ranking is built from one step: a node swaps its parent set for
the next one in its own candidate order.  The candidates are the
per-node lists of :mod:`dinet.approximation`, best first, the same lists
its single searches read: an exact list sorts all of a node's size-K
sets by value (ties to the smaller set rank, its
:func:`parent_set_index`), and a greedy list walks the node's greedy
choice sequences depth-first, built lazily as the rankings reach them.

A lattice is one candidate list per node; a point picks a position in
each.  One walk pops the points of one or more lattices in order of
(score descending, tie index, lattice, position), so each point is
reached once and never before a better one; every ranking emits points
as it pops them.  Over exact lists, which are sorted by value, a point is
pushed only by its canonical parent, the point with its last bumped
coordinate stepped back: a pop bumps only that coordinate and the ones
after it, and no seen set is kept.  This is exact if a parent's score
is never lower, and on an exact tie a parent's tie index is smaller.
A score is ``math.fsum`` of the point's node values: the exact sum,
correctly rounded, so it is monotone in each value and the walk is
exact on every Python version.  Greedy lists are not sorted by value,
so over them a pop pushes every one-step successor and a seen set drops
repeats.  Heap entries hold positions, never :class:`ParentAssignment`
objects, which are built only for emitted solutions, sharing one
:class:`ParentSet` per (node, set) within a ranking.  The same values
give the same bits in any order, so equal scores compare bit for bit.

The tie index weighs each node's set rank, and a step between equal
values raises a rank, so exact ties pop in index order.  The general
rankings weigh node i by ``C(m-1, K)**(i-1)``, the
:func:`approximation_index`.  The connected ranking weighs node 1 most,
in base ``C(m-1, K) + 1`` with a root's empty set at rank -1, which is
the canonical assignment key's order across all roots.  One caveat holds
for every ranking: a tie that exists only after rounding (node values
that differ, sums that round equal) comes in the walk's order.

* unconstrained (:func:`top_r_general`, and :func:`top_r_greedy` without
  ``connected``): the first r points of one lattice.  Over the exact
  lists this is the exact ranking, since the (l+1)-th best always
  differs from some better solution in exactly one parent set
  (:func:`get_new_solutions` exposes that one step).
* tree-constrained exact (:func:`top_r_connected`): one lattice per
  candidate root, whose own list holds only the empty set, or a single
  lattice with ``root_has_parents``; the first r points that contain a
  spanning tree, which is exact since no point pops before a better one.
* greedy tree-constrained (:func:`top_r_greedy` with ``connected``): a
  Lawler partition search over the greedy lists pinned to each tree
  edge, the lists :func:`dinet.approximation.greedy_connected` reads.
  A subproblem is a root plus, per node, one forced parent set or a set
  of banned ones; its representative is one solve of
  :mod:`dinet.approximation`'s tree helper over the first unbanned set of
  each edge's list, so the first representative is
  :func:`dinet.approximation.greedy_connected` by construction.  Popping a
  representative splits the rest of its subproblem into disjoint
  children, so every class member is reachable exactly once.  Children
  are pushed unsolved, keyed by the ``fsum`` of each node's best allowed
  value, which bounds their representative's score, and are solved only
  when they reach the top of the heap, so most are never solved.
  Emission follows pool order, which here is not guaranteed globally
  sorted.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Sequence
from itertools import count
from math import comb, fsum, inf

from .approximation import (
    _Candidates,
    _Entry,
    _entry_tree,
    _exact_lists,
    _greedy_lists,
)
from .errors import InfeasibleArborescenceError, ValidationError
from .estimation import DIEvaluator
from .structures import (
    MAX_RANKED,
    DirectedInfoCache,
    ParentAssignment,
    ParentSet,
    ScoredApproximation,
    _check_degree,
    _check_int,
    _has_spanning_tree,
)


def _class_size(m: int, K: int, empty_root: bool = False) -> int:
    """A bound on the size of a ranking's class, the largest ``r`` it takes.

    Every node has ``C(m-1, K)`` candidate sets.  In a class whose tree
    root keeps the empty set, one of ``m`` roots does so while the other
    ``m - 1`` nodes choose, which can exceed ``C(m-1, K)**m``.
    """
    radix = comb(m - 1, K)
    return m * radix ** (m - 1) if empty_root else radix**m


def _check_r(r: int, m: int, K: int, empty_root: bool = False) -> None:
    """Reject an ``r`` outside 1 .. the class size, capped by :data:`MAX_RANKED`."""
    _check_int(r, "r", 1, min(_class_size(m, K, empty_root), MAX_RANKED))


# ---------------------------------------------------------------------------
# the lattice walk


_Lattice = Sequence[_Candidates]  # one candidate list per node, in node order
_Point = tuple[int, ...]  # one position per node


def _score_at(columns: Sequence[list[float]], pos: _Point) -> float:
    """The ``fsum`` of the values at ``pos``, one value column per node."""
    return fsum(map(list.__getitem__, columns, pos))


def _successors(lattice: _Lattice, pos: _Point, start: int = 0):
    """Each one-coordinate step below ``pos`` from coordinate ``start`` on.

    Yields ``(c, pos with coordinate c bumped to its next candidate)``, in
    coordinate order, for every such coordinate whose list has a next
    candidate.
    """
    for c in range(start, len(pos)):
        p = pos[c] + 1
        lst = lattice[c]
        # p exists once its value is drawn; has() draws a greedy list to it
        if p < len(lst.values) or lst.has(p):
            yield c, pos[:c] + (p,) + pos[c + 1:]


def _walk(lattices: Sequence[_Lattice], weights: Sequence[int], sorted_lists: bool):
    """Every point of ``lattices``, yielded as (score, lattice, position).

    Points come by score descending, equal scores to the smaller tie
    index, the sum of each node's set rank times its ``weights`` entry,
    then by lattice and position.  The index is updated in O(1) per step.

    With ``sorted_lists`` (each list by value, ties by rank), a point is
    pushed only by its canonical parent, the point with its last bumped
    coordinate stepped back: a heap entry carries that coordinate, and a
    pop bumps only it and the ones after it, so every point is pushed
    once.  Otherwise a pop pushes every one-step successor and a seen set
    drops the repeats.
    """
    columns = [[lst.values for lst in lattice] for lattice in lattices]
    ranks = [[lst.ranks for lst in lattice] for lattice in lattices]
    seen = None if sorted_lists else [{(0,) * len(lattice)} for lattice in lattices]
    heap = []
    for n, lattice in enumerate(lattices):
        pos = (0,) * len(lattice)
        index = sum(col[0] * w for col, w in zip(ranks[n], weights))
        heap.append((-_score_at(columns[n], pos), index, n, pos, 0))
    heapq.heapify(heap)
    while heap:
        neg_score, index, n, pos, last = heapq.heappop(heap)
        yield -neg_score, n, pos
        start = last if seen is None else 0
        for c, nxt in _successors(lattices[n], pos, start):
            if seen is not None:
                if nxt in seen[n]:
                    continue
                seen[n].add(nxt)
            col, p = ranks[n][c], nxt[c]
            step = (col[p] - col[p - 1]) * weights[c]
            heapq.heappush(heap, (-_score_at(columns[n], nxt), index + step, n, nxt, c))


def _key(columns: Sequence[list[tuple[int, ...]]], pos: _Point) -> tuple:
    """The canonical assignment key at ``pos``, one member column per node."""
    return tuple(map(list.__getitem__, columns, pos))


class _SharedSets(dict):
    """One node's :class:`ParentSet` per members, built when first asked for."""

    def __init__(self, target: int) -> None:
        super().__init__()
        self.target = target

    def __missing__(self, members: tuple[int, ...]) -> ParentSet:
        ps = self[members] = ParentSet._unchecked(self.target, members)
        return ps


def _top_points(
    lattices: Sequence[_Lattice],
    weights: Sequence[int],
    r: int,
    keep: Callable[[tuple], bool] | None = None,
    sorted_lists: bool = True,
) -> tuple[ScoredApproximation, ...]:
    """The first ``r`` points of the walk whose key ``keep(key)`` accepts.

    The emitted structures share one :class:`ParentSet` per (node, set).
    """
    members = [[lst.members for lst in lattice] for lattice in lattices]
    sets = [_SharedSets(i) for i in range(1, len(lattices[0]) + 1)]
    emitted: list[ScoredApproximation] = []
    for score, n, pos in _walk(lattices, weights, sorted_lists):
        key = _key(members[n], pos)
        if keep is None or keep(key):
            assignment = ParentAssignment._from_sets(map(dict.__getitem__, sets, key))
            emitted.append(ScoredApproximation(assignment, score))
            if len(emitted) == r:
                break
    return tuple(emitted)


# ---------------------------------------------------------------------------
# exact rankings


def top_r_general(
    cache: DirectedInfoCache, K: int, r: int
) -> tuple[ScoredApproximation, ...]:
    """The exact r best unconstrained structures, best first.

    Output order is score descending, ties by ascending assignment index,
    as a full enumeration sort orders them, except that a tie that exists
    only after rounding comes in the walk's order.
    """
    m = cache.m
    _check_degree(K, m)
    _check_r(r, m, K)
    weights = [comb(m - 1, K) ** i for i in range(m)]
    return _top_points([_exact_lists(cache, K)], weights, r)


def get_new_solutions(
    cache: DirectedInfoCache, K: int, seed: ParentAssignment
) -> tuple[ScoredApproximation, ...]:
    """One branch step: per node, swap in the next-best parent set.

    For each node in turn the seed's set is replaced by the best strictly
    worse candidate (worse meaning lower value, or equal value with a
    larger set index).  Nodes already at their worst candidate contribute
    nothing.  Results come back in node order.  This is the step
    :func:`top_r_general` branches by.
    """
    m = cache.m
    _check_degree(K, m)
    if seed.m != m:
        raise ValidationError(f"seed has m={seed.m} but cache has m={m}")
    lists = _exact_lists(cache, K)
    pos = []
    for i, lst in enumerate(lists, 1):
        ms = seed.members_of(i)
        if len(ms) != K:
            raise ValidationError(
                f"seed parent set for node {i} has size {len(ms)}, expected {K}"
            )
        pos.append(lst.members.index(ms))
    members = [lst.members for lst in lists]
    columns = [lst.values for lst in lists]
    return tuple(
        ScoredApproximation(
            ParentAssignment._from_keys(_key(members, nxt)), _score_at(columns, nxt)
        )
        for _, nxt in _successors(lists, tuple(pos))
    )


def top_r_connected(
    cache: DirectedInfoCache,
    K: int,
    r: int,
    root_has_parents: bool = False,
) -> tuple[ScoredApproximation, ...]:
    """The r best tree-constrained structures, best first.

    The walk runs over one lattice per candidate root, the root's own
    list holding only the empty set (with ``root_has_parents``, over one
    lattice where every node keeps K parents), and keeps the points that
    contain a spanning tree.  No point is popped before a better one, so
    the ranking is exact; equal scores order by the canonical assignment
    key, except that a tie that exists only after rounding comes in the
    walk's order.  The output may be shorter than ``r`` when the class is
    exhausted.  Worst case (members sparse among high scores) the walk
    degrades to full enumeration of the lattices.
    """
    m = cache.m
    _check_degree(K, m, least=1)
    _check_r(r, m, K, not root_has_parents)

    lists = _exact_lists(cache, K)
    if root_has_parents:
        lattices = [lists]
    else:
        # the empty set sorts first in a canonical key, so it ranks -1
        root = _Candidates([()], [0.0], [-1])
        lattices = [[*lists[: rt - 1], root, *lists[rt:]] for rt in range(1, m + 1)]
    # node 1 weighs most and every digit, rank + 1, stays below the base
    base = comb(m - 1, K) + 1
    weights = [base ** (m - i) for i in range(1, m + 1)]
    # a free root's lattice gives only the root an empty set, so the
    # check tries that one root
    return _top_points(lattices, weights, r, lambda key: _has_spanning_tree(key, None))


# ---------------------------------------------------------------------------
# greedy rankings


def _top_r_greedy_connected(
    evaluator: DIEvaluator, L: int, r: int, root_has_parents: bool
) -> tuple[ScoredApproximation, ...]:
    """Lawler's partition search over per-node parent-set choices, solved lazily.

    A subproblem is a root (none yet for the first) plus, per node, either
    one forced set or a set of banned sets.  Node ``i``'s arc column holds,
    per ``j``, the entry arc ``j -> i`` stands for: the first set of the
    greedy list ``(i, j)``, pinned to ``j``, not banned for ``i``; a node
    forced to ``S`` only takes arcs from ``S``, each weighing ``S``.  The
    columns come from a memo keyed by (node, forced set, banned sets).  A
    subproblem's representative is one arborescence solve over them.

    Popping a representative pushes one child per free non-root node
    ``i_t`` in node order: the earlier free nodes are forced to their
    current sets and ``i_t``'s current set is banned.  The children and
    the representative partition the subproblem, so nothing is reached
    twice within a root.  Once the first subproblem is popped, every other
    root starts a subproblem of its own.  The root keeps its empty (or
    greedy) set and is never branched; with ``root_has_parents`` that
    set's value weighs each root in the first solve, one structure can
    represent several roots, and only its first pop is emitted.

    A subproblem is pushed unsolved, keyed by a relaxation: the ``fsum``
    of each node's best column value (a fixed root's own set value, and
    with a free root each node's root value as well).  ``fsum`` is
    monotone in each term, so no representative of the subproblem scores
    above it.  A subproblem is solved only when it reaches the top of the
    heap, where an unsolved entry goes before a solved one of equal score,
    and its solved entry keeps its push order; so the solved entries pop
    in (score, key, push order), as if each had been solved when pushed.
    A child's representative can outscore its parent's (greedy lists are
    not sorted by value), so a parent's score bounds nothing.
    """
    m = evaluator.m
    nodes = range(1, m + 1)
    lists, roots = _greedy_lists(evaluator, L, root_has_parents)
    columns: dict[tuple, tuple[list, float]] = {}

    def column(i: int, forced: _Entry | None, banned: frozenset) -> tuple:
        """Node ``i``'s arc entries by ``j`` (None if barred) and their best value."""
        memo_key = (i, forced, banned)
        if memo_key not in columns:
            if forced is not None:
                col = [forced if j in forced[0] else None for j in nodes]
            else:
                col = [None if j == i else first_allowed(lists[(i, (j,))], banned)
                       for j in nodes]
            values = [entry[1] for entry in col if entry is not None]
            columns[memo_key] = col, max(values, default=-inf)
        return columns[memo_key]

    def first_allowed(edges: _Candidates, banned: frozenset) -> _Entry | None:
        level = 0
        while edges.has(level):
            if edges.members[level] not in banned:
                return edges.entry(level)
            level += 1
        return None

    heap: list[tuple] = []
    tick = count()

    def push(root: int | None, forced: tuple, banned: tuple) -> None:
        cols: list = [None] * m
        terms = []
        for i in nodes:
            best = value = roots[i - 1][1]
            if i != root:
                cols[i - 1], best = column(i, forced[i - 1], banned[i - 1])
                if root is None:
                    best = max(best, value)
                elif best == -inf:
                    return  # no arc enters node i: the subproblem holds no member
            terms.append(best)
        bound = fsum(terms)
        # the 0 sorts an unsolved entry before a solved one (1) of equal score
        heapq.heappush(heap, (-bound, 0, next(tick), root, forced, banned, cols))

    unconstrained = (None,) * m, (frozenset(),) * m
    push(None, *unconstrained)
    seen: set[tuple[tuple[int, ...], ...]] = set()
    emitted: list[ScoredApproximation] = []
    while heap and len(emitted) < r:
        popped = heapq.heappop(heap)
        if popped[1] == 0:
            _, _, t, root, forced, banned, cols = popped
            try:
                tree, _, entries = _entry_tree(
                    m, lambda i, j: cols[i - 1][j - 1], roots, root
                )
            except InfeasibleArborescenceError:
                continue  # the subproblem holds no class member
            score = fsum(value for _, value in entries)
            key = tuple(members for members, _ in entries)
            heapq.heappush(
                heap,
                (-score, 1, key, t, tree.root, root is None, entries, forced, banned),
            )
            continue
        neg_score, _, key, _, root, free_root, entries, forced, banned = popped
        if key not in seen:
            seen.add(key)
            emitted.append(
                ScoredApproximation(ParentAssignment._from_keys(key), -neg_score)
            )
        fixed = list(forced)
        for i in nodes:
            if i == root or forced[i - 1] is not None:
                continue
            child_banned = list(banned)
            child_banned[i - 1] = banned[i - 1] | {key[i - 1]}
            push(root, tuple(fixed), tuple(child_banned))
            fixed[i - 1] = entries[i - 1]
        if free_root:
            for other in nodes:
                if other != root:
                    push(other, *unconstrained)
    return tuple(emitted)


def top_r_greedy(
    evaluator: DIEvaluator,
    L: int,
    r: int,
    connected: bool = False,
    root_has_parents: bool = False,
) -> tuple[ScoredApproximation, ...]:
    """r structures enumerated through greedy choice sequences.

    The first solution is the greedy one:
    :func:`dinet.approximation.greedy_general`, or with ``connected``
    :func:`dinet.approximation.greedy_connected` down to the bits of its
    score.  Without ``connected`` the walk runs over each node's greedy
    list, whose depth-first order changes the last greedy pick first;
    since those lists are not sorted by value, every one-step successor
    of a popped point is pushed and a seen set drops repeats, and ties go
    to the smaller approximation index.  With ``connected`` they come
    from a partition search over per-node parent-set choices: each
    subproblem's representative is one arborescence solve over the greedy
    sets grown from each tree edge, and popping it splits the rest of its
    subproblem into disjoint children, so with ``r`` at least the class
    size every member of the class is emitted exactly once (with
    ``root_has_parents`` the root keeps its greedy set).  A child is
    solved only when its relaxation, the ``fsum`` of each node's best
    allowed set value, reaches the top of the pool, which emits the
    same sequence as solving every child when it is pushed.  The pool
    emits by score among generated candidates, so the score sequence may
    jump non-monotonically; output is pool order, not a certified global
    ranking, and may be shorter than ``r`` when the class is exhausted.
    ``r`` may not exceed :data:`dinet.structures.MAX_RANKED`.
    """
    m = evaluator.m
    _check_degree(L, m, "L", 1)
    _check_r(r, m, L, connected and not root_has_parents)
    if connected:
        return _top_r_greedy_connected(evaluator, L, r, root_has_parents)
    lists = _Candidates.greedy(evaluator, L, [(i, ()) for i in range(1, m + 1)])
    weights = [comb(m - 1, L) ** i for i in range(m)]
    return _top_points([lists], weights, r, sorted_lists=False)
