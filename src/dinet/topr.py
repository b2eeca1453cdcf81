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
  set with its next-best candidate.  Every solution one step below an
  emitted one is generated, which makes the enumeration exact: the
  (l+1)-th best always differs from some better solution in exactly one
  parent set.  Ties go to the smaller :func:`approximation_index`, kept
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
  approximation index, summed from memoised per-node set ranks.  The
  tree-constrained combination is a Lawler partition search: a
  subproblem is a root plus, per node, one forced parent set or a set of
  banned ones, and its representative is one arborescence solve over the
  first unbanned set of each edge's greedy list.  Popping a
  representative splits the rest of its subproblem into disjoint
  children, so every class member is reachable exactly once.  Emission
  follows pool order, which here is not guaranteed globally sorted.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import count
from math import comb

import numpy as np

from .arborescence import EdgeWeights, max_weight_arborescence
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
    weight = [comb(m - 1, K) ** i for i in range(m)]
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
        for i in range(m):
            p = pos[i]
            if p + 1 < len(lists[i]):
                nxt = pos[:i] + (p + 1,) + pos[i + 1:]
                if nxt in seen:
                    continue
                seen.add(nxt)
                step = (lists[i][p + 1][2] - lists[i][p][2]) * weight[i]
                heapq.heappush(heap, (-_score_at(columns, nxt), index + step, nxt))
    return TopR(tuple(emitted))


def get_new_solutions(
    cache: DirectedInfoCache, K: int, seed: ParentAssignment
) -> tuple[ScoredApproximation, ...]:
    """One branch step: per node, swap in the next-best parent set.

    For each node in turn the seed's set is replaced by the best strictly
    worse candidate (worse meaning lower value, or equal value with a
    larger set index).  Nodes already at their worst candidate contribute
    nothing.  Results come back in node order.
    """
    m = cache.m
    if seed.m != m:
        raise ValidationError(f"seed has m={seed.m} but cache has m={m}")
    lists, positions = _node_candidate_lists(cache, K)
    columns = _value_columns(lists)
    out: list[ScoredApproximation] = []
    for i in range(m):
        ms = seed.members_of(i + 1)
        if len(ms) != K:
            raise ValidationError(
                f"seed parent set for node {i + 1} has size {len(ms)}, expected {K}"
            )
        p = positions[i].get(ms)
        if p is None:
            raise ValidationError(f"seed set {ms} unknown for node {i + 1}")
        if p + 1 >= len(lists[i]):
            continue
        members = [seed.members_of(k + 1) for k in range(m)]
        members[i] = lists[i][p + 1][0]
        assignment = ParentAssignment.from_lists(members)
        pos = tuple(
            positions[k][assignment.members_of(k + 1)] for k in range(m)
        )
        out.append(ScoredApproximation(assignment, _score_at(columns, pos)))
    return tuple(out)


# ---------------------------------------------------------------------------
# greedy choice sequences walked depth-first


def _ranked_candidates(
    evaluator: DIEvaluator, target: int, avail: set[int], prefix: Sequence[int]
) -> list[int]:
    candidates = sorted(avail)
    values = evaluator.increments(target, [(j,) for j in candidates], prefix)
    scored = sorted((-v, j) for v, j in zip(values, candidates))
    return [j for _, j in scored]


def _initial_state(
    evaluator: DIEvaluator, target: int, length: int, pinned: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """All-greedy state: pinned picks first, then rank-0 choices."""
    m = evaluator.m
    if length > m - 1:
        raise ValidationError(f"degree too large: L={length} with m={m}")
    choices = list(pinned)
    avail = set(range(1, m + 1)) - {target} - set(pinned)
    while len(choices) < length:
        ranked = _ranked_candidates(evaluator, target, avail, choices)
        choices.append(ranked[0])
        avail.discard(ranked[0])
    return tuple(choices), tuple([0] * length)


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
    m = evaluator.m
    # forward pass: the available pool entering each slot
    avails: list[set[int]] = []
    avail = set(range(1, m + 1)) - {target}
    for k in range(length):
        avails.append(set(avail))
        if k < n_pinned:
            avail.discard(choices[k])
        else:
            ranked = _ranked_candidates(evaluator, target, avail, choices[:k])
            avail -= set(ranked[: ranks[k] + 1])

    for k in reversed(range(n_pinned, length)):
        ranked = _ranked_candidates(evaluator, target, avails[k], choices[:k])
        nr = ranks[k] + 1
        while nr < len(ranked):
            if len(avails[k]) - (nr + 1) >= length - k - 1:
                new_choices = list(choices[:k]) + [ranked[nr]]
                new_ranks = list(ranks[:k]) + [nr]
                pool = avails[k] - set(ranked[: nr + 1])
                for _ in range(k + 1, length):
                    deeper = _ranked_candidates(
                        evaluator, target, pool, new_choices
                    )
                    new_choices.append(deeper[0])
                    new_ranks.append(0)
                    pool.discard(deeper[0])
                return tuple(new_choices), tuple(new_ranks)
            nr += 1
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

    def _entry(self, state) -> tuple[tuple[int, ...], float]:
        members = tuple(sorted(state[0]))
        return members, self._evaluator.set_value(self._target, members)

    def get(self, level: int) -> tuple[tuple[int, ...], float] | None:
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


_Entry = tuple[tuple[int, ...], float]  # (members, value) of one parent set


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
    root_sets: dict[int, _Entry] = {}

    def root_entry(root: int) -> _Entry:
        if not root_has_parents:
            return (), 0.0
        if root not in root_sets:
            choices, _ = _initial_state(evaluator, root, L, ())
            members = tuple(sorted(choices))
            root_sets[root] = members, evaluator.set_value(root, members)
        return root_sets[root]

    def arc_entry(i: int, j: int, forced: _Entry | None, banned) -> _Entry | None:
        if forced is not None:
            return forced if j in forced[0] else None
        edges = edge_lists[(i, j)]
        level = 0
        while (entry := edges.get(level)) is not None and entry[0] in banned:
            level += 1
        return entry

    heap: list[tuple] = []
    tiebreak = count()

    def push(root: int | None, forced: tuple, banned: tuple) -> None:
        w = np.zeros((m, m))
        allowed = np.zeros((m, m), dtype=bool)
        arcs: dict[tuple[int, int], _Entry] = {}
        for i in nodes:
            if i == root:
                continue
            for j in nodes:
                if j != i:
                    entry = arc_entry(i, j, forced[i - 1], banned[i - 1])
                    if entry is not None:
                        arcs[(i, j)] = entry
                        w[j - 1, i - 1] = entry[1]
                        allowed[j - 1, i - 1] = True
        try:
            tree = max_weight_arborescence(EdgeWeights(w, allowed), root)
        except InfeasibleArborescenceError:
            return  # the subproblem holds no class member
        entries = tuple(
            root_entry(i) if i == tree.root else arcs[(i, tree.parent[i])]
            for i in nodes
        )
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
        for c, node in enumerate(others[rt]):
            if pos[c] + 1 < len(lists[node - 1]):
                nxt = pos[:c] + (pos[c] + 1,) + pos[c + 1:]
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
