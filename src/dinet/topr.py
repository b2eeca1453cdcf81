"""Ranked enumeration of the r best structures.

All variants share one pooling scheme: a seed solution enters a priority
queue; whenever a solution is emitted, a branching rule generates nearby
candidates that re-enter the queue, with a seen-set suppressing duplicate
assignments across the queue and the emitted list.  The queue orders by
score descending with deterministic tie keys, so runs are reproducible.
Queue entries hold lattice positions or member tuples, never
:class:`ParentAssignment` objects, which are built only for emitted
solutions.  A score is always the full sum of node values in node
order, so equal scores compare bit for bit.

Branching rules differ per variant:

* unconstrained exact (:func:`top_r_general`): replace one node's parent
  set with its next-best candidate, the one successor step that
  :func:`top_r_connected` also branches by and :func:`get_new_solutions`
  exposes on its own.  Every solution one step below an emitted one is
  generated, which makes the enumeration exact: the (l+1)-th best always
  differs from some better solution in exactly one parent set.  Ties go to the smaller :func:`approximation_index`, kept
  as a Python int: a one-node step changes it by the difference of two
  set ranks times that node's radix power.
* tree-constrained exact (:func:`top_r_connected`): the same
  one-coordinate branching, run per candidate root over per-node
  candidate lists, with assignments filtered to those containing a
  spanning tree (checked on the raw member tuples).  A score plateau is
  fully drained before anything below it is emitted, so the ranking
  stays exact under the tree constraint.
* greedy (:func:`top_r_greedy`): walk each node's greedy choice sequence
  depth-first, changing the most recently added parent first and backing
  up to earlier picks when alternatives run out; ties go to the smaller
  approximation index, summed from memoised per-node set ranks.  Every
  greedy pick, first or restarted, comes from the greedy kernel of
  :mod:`dinet.approximation`.  The tree-constrained combination is a
  Lawler partition search: a subproblem is a root plus, per node, one
  forced parent set or a set of banned ones, and its representative is
  one solve of that module's tree helper over the first unbanned set of
  each edge's greedy list, so the first representative is
  :func:`dinet.approximation.greedy_connected` by construction.  Popping a
  representative splits the rest of its subproblem into disjoint
  children, so every class member is reachable exactly once.  Emission
  follows pool order, which here is not guaranteed globally sorted.
"""

from __future__ import annotations

import functools
import heapq
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import count
from math import comb

from .approximation import (
    _Entry,
    _empty_set,
    _entry_tree,
    _greedy_entry,
    _greedy_order,
)
from .errors import InfeasibleArborescenceError, ValidationError
from .estimation import DIEvaluator
from .structures import (
    DirectedInfoCache,
    ParentAssignment,
    ScoredApproximation,
    all_parent_sets,
    parent_set_index,
    _has_spanning_tree,
)


@dataclass(frozen=True)
class TopR:
    """An ordered batch of enumerated solutions."""

    solutions: tuple[ScoredApproximation, ...]

    def __iter__(self):
        return iter(self.solutions)

    def __len__(self) -> int:
        return len(self.solutions)

    def __getitem__(self, idx):
        return self.solutions[idx]


def _check_r(m: int, K: int, r: int, empty_root: bool = False) -> None:
    """Reject ``r`` outside ``1 ..`` the class size bound.

    Every node has ``C(m-1, K)`` candidate sets.  In a class whose tree
    root keeps the empty set, one of ``m`` roots does so while the other
    ``m - 1`` nodes choose, which can exceed ``C(m-1, K)**m``.
    """
    radix = comb(m - 1, K)
    space = m * radix ** (m - 1) if empty_root else radix**m
    if not 1 <= r <= space:
        raise ValidationError(f"r={r} out of range 1..{space}")


# ---------------------------------------------------------------------------
# unconstrained exact enumeration


_Candidate = tuple[tuple[int, ...], float, int]  # (members, value, set rank)


def _node_candidate_lists(
    cache: DirectedInfoCache, K: int
) -> tuple[list[list[_Candidate]], list[dict[tuple[int, ...], int]]]:
    """Per node: all size-K sets sorted best-first, plus position maps.

    Each candidate carries its set rank, its position in the
    :func:`all_parent_sets` walk, which is :func:`parent_set_index` order.
    Sorting is by value descending with the smaller set index first among
    equal values, the same total order used everywhere else.
    """
    m = cache.m
    lists = []
    positions = []
    for i in range(1, m + 1):
        cands = [
            (ms, cache.get(i, ms), rank)
            for rank, ms in enumerate(all_parent_sets(m, i, K))
        ]
        cands.sort(key=lambda c: (-c[1], c[2]))
        lists.append(cands)
        positions.append({ms: p for p, (ms, _, _) in enumerate(cands)})
    return lists, positions


def _value_columns(lists: list[list[_Candidate]]) -> list[list[float]]:
    """Per node, the candidate values alone, in candidate order."""
    return [[v for _, v, _ in cands] for cands in lists]


def _score_at(columns: Sequence[list[float]], pos: tuple[int, ...]) -> float:
    """The summed values at ``pos``, one value column per node, in node order."""
    return sum(map(list.__getitem__, columns, pos))


def _successors(pos: tuple[int, ...], size: int):
    """Each one-coordinate step below ``pos``, in coordinate order.

    Yields ``(c, pos with coordinate c bumped to its next candidate)`` for
    every coordinate not yet at its last candidate; every node has
    ``size`` candidates.
    """
    for c, p in enumerate(pos):
        if p + 1 < size:
            yield c, pos[:c] + (p + 1,) + pos[c + 1:]


def top_r_general(cache: DirectedInfoCache, K: int, r: int) -> TopR:
    """The exact r best unconstrained structures, best first.

    Output order is score descending, ties by ascending assignment index;
    it matches a full enumeration sort exactly.
    """
    m = cache.m
    if K < 0 or K >= m:
        raise ValidationError(f"degree too large: K={K} with m={m}")
    _check_r(m, K, r)

    lists, _ = _node_candidate_lists(cache, K)
    # the tie key is approximation_index, kept as an int and updated in
    # O(1) when one node's set changes: node i weighs its rank by radix**i
    radix = comb(m - 1, K)
    weight = [radix**i for i in range(m)]
    seed = tuple(0 for _ in range(m))
    seed_index = 1 + sum(w * lists[i][0][2] for i, w in enumerate(weight))
    columns = _value_columns(lists)

    heap = [(-_score_at(columns, seed), seed_index, seed)]
    seen = {seed}
    emitted: list[ScoredApproximation] = []
    while heap and len(emitted) < r:
        neg_score, index, pos = heapq.heappop(heap)
        assignment = ParentAssignment.from_lists(
            [lists[i][p][0] for i, p in enumerate(pos)]
        )
        emitted.append(ScoredApproximation(assignment, -neg_score))
        for i, nxt in _successors(pos, radix):
            if nxt not in seen:
                seen.add(nxt)
                step = (lists[i][nxt[i]][2] - lists[i][pos[i]][2]) * weight[i]
                heapq.heappush(heap, (-_score_at(columns, nxt), index + step, nxt))
    return TopR(tuple(emitted))


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
    if seed.m != m:
        raise ValidationError(f"seed has m={seed.m} but cache has m={m}")
    lists, positions = _node_candidate_lists(cache, K)
    pos = []
    for i in range(1, m + 1):
        ms = seed.members_of(i)
        if len(ms) != K:
            raise ValidationError(
                f"seed parent set for node {i} has size {len(ms)}, expected {K}"
            )
        if ms not in positions[i - 1]:
            raise ValidationError(f"seed set {ms} unknown for node {i}")
        pos.append(positions[i - 1][ms])
    columns = _value_columns(lists)
    return tuple(
        ScoredApproximation(
            ParentAssignment.from_lists(
                [lists[k][p][0] for k, p in enumerate(nxt)]
            ),
            _score_at(columns, nxt),
        )
        for _, nxt in _successors(tuple(pos), comb(m - 1, K))
    )


# ---------------------------------------------------------------------------
# greedy choice sequences walked depth-first


def _initial_state(
    evaluator: DIEvaluator, target: int, length: int, pinned: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """All-greedy state: pinned picks first, then rank-0 choices."""
    pool = set(range(1, evaluator.m + 1)) - {target, *pinned}
    picks, _ = _greedy_order(evaluator, target, pool, pinned, length - len(pinned))
    return pinned + picks, (0,) * length


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
        values = evaluator.increments(
            target, [(j,) for j in candidates], choices[:k]
        )
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
            picks, _ = _greedy_order(evaluator, target, pool, prefix, length - k - 1)
            return prefix + picks, ranks[:k] + (nr,) + (0,) * len(picks)
    return None


class _GreedyEdgeList:
    """Lazily materialized alternatives for one pinned-first-parent edge."""

    def __init__(self, evaluator: DIEvaluator, target: int, pin: int, length: int):
        self._evaluator = evaluator
        self._target = target
        state = _initial_state(evaluator, target, length, (pin,))
        self._states = [state]
        self._entries = [self._entry(state)]
        self._exhausted = False

    def _entry(self, state) -> _Entry:
        members = tuple(sorted(state[0]))
        return members, self._evaluator.set_value(self._target, members)

    def get(self, level: int) -> _Entry | None:
        while len(self._entries) <= level and not self._exhausted:
            nxt = _dfs_successor(
                self._evaluator, self._target, *self._states[-1], n_pinned=1
            )
            if nxt is None:
                self._exhausted = True
                break
            self._states.append(nxt)
            self._entries.append(self._entry(nxt))
        return self._entries[level] if level < len(self._entries) else None


# ---------------------------------------------------------------------------
# tree-constrained partition search over greedy edge lists


def _top_r_greedy_connected(
    evaluator: DIEvaluator, L: int, r: int, root_has_parents: bool
) -> TopR:
    """Lawler's partition search over per-node parent-set choices.

    A subproblem is a root plus, per node, either one forced set or a set
    of banned sets.  Its representative is one arborescence solve: arc
    ``j -> i`` weighs the first set of edge list ``(i, j)`` not banned for
    ``i``, and a node forced to ``S`` only takes arcs from ``S``, each
    weighing ``S``.  Popping a representative pushes one child per free
    non-root node ``i_t`` in node order: the earlier free nodes are forced
    to their current sets and ``i_t``'s current set is banned.  The
    children and the representative partition the subproblem, so nothing
    is reached twice within a root.  The first subproblem leaves the root
    free; once it is popped, every other root starts a subproblem of its
    own.  The root keeps its empty (or greedy) set and is never branched,
    so with ``root_has_parents`` one structure can represent several
    roots and only its first pop is emitted.
    """
    m = evaluator.m
    nodes = range(1, m + 1)
    edge_lists = {
        (i, j): _GreedyEdgeList(evaluator, i, j, L)
        for i in nodes
        for j in nodes
        if j != i
    }
    root_entry = (
        functools.cache(lambda root: _greedy_entry(evaluator, root, L))
        if root_has_parents
        else _empty_set
    )

    heap: list[tuple] = []
    tiebreak = count()

    def push(root: int | None, forced: tuple, banned: tuple) -> None:
        def arc_entry(i: int, j: int) -> _Entry | None:
            if forced[i - 1] is not None:
                return forced[i - 1] if j in forced[i - 1][0] else None
            edges, ban, level = edge_lists[(i, j)], banned[i - 1], 0
            while (entry := edges.get(level)) is not None and entry[0] in ban:
                level += 1
            return entry

        try:
            tree, _, entries = _entry_tree(m, arc_entry, root_entry, root)
        except InfeasibleArborescenceError:
            return  # the subproblem holds no class member
        score = sum(value for _, value in entries)
        key = tuple(members for members, _ in entries)
        heapq.heappush(
            heap,
            (-score, key, next(tiebreak), tree.root, root is None,
             entries, forced, banned),
        )

    unconstrained = (None,) * m, (frozenset(),) * m
    push(None, *unconstrained)
    seen: set[tuple[tuple[int, ...], ...]] = set()
    emitted: list[ScoredApproximation] = []
    while heap and len(emitted) < r:
        popped = heapq.heappop(heap)
        neg_score, key, _, root, free_root, entries, forced, banned = popped
        if key not in seen:
            seen.add(key)
            emitted.append(
                ScoredApproximation(ParentAssignment.from_lists(key), -neg_score)
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
    return TopR(tuple(emitted))


def top_r_connected(
    cache: DirectedInfoCache,
    K: int,
    r: int,
    root_has_parents: bool = False,
) -> TopR:
    """The r best tree-constrained structures, best first.

    For each candidate root the product lattice of per-node candidate
    sets is walked in score order with the same one-coordinate branching
    the unconstrained enumeration uses, keeping assignments that contain
    a spanning tree.  Walking every lattice point at or above a score
    before moving below it makes the ranking exact; equal scores order by
    the canonical assignment key.  The output may be shorter than ``r``
    when the class is exhausted.  Worst case (members sparse among high
    scores) the walk degrades to full enumeration of the lattice.
    """
    m = cache.m
    if K < 1 or K >= m:
        raise ValidationError(f"degree too large: K={K} with m={m}")
    _check_r(m, K, r, empty_root=not root_has_parents)

    lists, _ = _node_candidate_lists(cache, K)
    radix = comb(m - 1, K)

    # pseudo-root 0 means every node keeps K parents and any spanning
    # tree qualifies; otherwise the root node itself takes the empty set
    roots = [0] if root_has_parents else list(range(1, m + 1))
    others = {rt: [i for i in range(1, m + 1) if i != rt] for rt in roots}

    values = _value_columns(lists)
    columns = {rt: [values[i - 1] for i in others[rt]] for rt in roots}

    def members_at(rt: int, pos: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """The assignment's canonical key: one member tuple per node."""
        key = [lists[i - 1][p][0] for i, p in zip(others[rt], pos)]
        if rt:
            key.insert(rt - 1, ())
        return tuple(key)

    heap: list[tuple[float, int, tuple[int, ...]]] = []
    seen: dict[int, set[tuple[int, ...]]] = {rt: set() for rt in roots}
    for rt in roots:
        pos0 = tuple(0 for _ in others[rt])
        seen[rt].add(pos0)
        heapq.heappush(heap, (-_score_at(columns[rt], pos0), rt, pos0))

    emitted: list[ScoredApproximation] = []
    block: list[tuple[tuple[tuple[int, ...], ...], float]] = []
    block_score: float | None = None

    def flush() -> None:
        block.sort()
        for key, score in block[: r - len(emitted)]:
            emitted.append(
                ScoredApproximation(ParentAssignment.from_lists(key), score)
            )
        block.clear()

    while heap:
        neg, rt, pos = heapq.heappop(heap)
        score = -neg
        # children never beat their parent, so once the popped score drops
        # the finished plateau holds every solution at that score
        if block and score != block_score:
            flush()
            if len(emitted) >= r:
                break
        block_score = score
        key = members_at(rt, pos)
        if _has_spanning_tree(key, None if root_has_parents else rt):
            block.append((key, score))
        for _, nxt in _successors(pos, radix):
            if nxt not in seen[rt]:
                seen[rt].add(nxt)
                heapq.heappush(heap, (-_score_at(columns[rt], nxt), rt, nxt))
    if block:
        flush()
    return TopR(tuple(emitted))


# ---------------------------------------------------------------------------
# greedy enumeration


def top_r_greedy(
    evaluator: DIEvaluator,
    L: int,
    r: int,
    connected: bool = False,
    root_has_parents: bool = False,
) -> TopR:
    """r structures enumerated through greedy choice sequences.

    The first solution is the greedy one:
    :func:`dinet.approximation.greedy_general`, or with ``connected``
    :func:`dinet.approximation.greedy_connected` down to the bits of its
    score.  Without ``connected``
    later solutions come from depth-first alternatives (change the last
    greedy pick first).  With ``connected`` they come from a partition
    search over per-node parent-set choices: each subproblem's
    representative is one arborescence solve over the greedy sets grown
    from each tree edge, and popping it splits the rest of its
    subproblem into disjoint children, so with ``r`` at least the class
    size every member of the class is emitted exactly once (with
    ``root_has_parents`` the root keeps its greedy set).  The pool emits
    by score among generated candidates, so the score sequence may jump
    non-monotonically; output is pool order, not a certified global
    ranking, and may be shorter than ``r`` when the class is exhausted.
    """
    m = evaluator.m
    if L < 1 or L >= m:
        raise ValidationError(f"degree too large: L={L} with m={m}")
    _check_r(m, L, r, empty_root=connected and not root_has_parents)
    if connected:
        return _top_r_greedy_connected(evaluator, L, r, root_has_parents)

    # tie key: approximation_index from per-node set ranks
    weight = [comb(m - 1, L) ** i for i in range(m)]
    set_ranks: dict[tuple[int, tuple[int, ...]], int] = {}

    def set_rank(i: int, members: tuple[int, ...]) -> int:
        if (i, members) not in set_ranks:
            set_ranks[(i, members)] = parent_set_index(m, i, members)
        return set_ranks[(i, members)]

    def push(sts) -> None:
        key = tuple(tuple(sorted(st[0])) for st in sts)
        if key in seen:
            return
        seen.add(key)
        score = sum(evaluator.set_value(i, ms) for i, ms in enumerate(key, 1))
        index = 1 + sum(
            set_rank(i, ms) * w for i, (ms, w) in enumerate(zip(key, weight), 1)
        )
        # indices are unique, so the entries never compare beyond them
        heapq.heappush(heap, (-score, index, key, sts))

    heap: list[tuple] = []
    seen: set[tuple[tuple[int, ...], ...]] = set()
    push(tuple(_initial_state(evaluator, i, L, ()) for i in range(1, m + 1)))
    emitted: list[ScoredApproximation] = []
    while heap and len(emitted) < r:
        neg_score, _, key, sts = heapq.heappop(heap)
        emitted.append(
            ScoredApproximation(ParentAssignment.from_lists(key), -neg_score)
        )
        for i in range(m):
            nxt = _dfs_successor(evaluator, i + 1, *sts[i], n_pinned=0)
            if nxt is not None:
                push(sts[:i] + (nxt,) + sts[i + 1:])
    return TopR(tuple(emitted))
