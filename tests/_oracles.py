"""Independent reference implementations used to validate the library.

Everything here favors obviousness over speed: exhaustive enumeration,
naive counting, generic LP solvers, per-query least squares fits,
per-query ``np.unique`` counts and scipy's Lyapunov solver.  Nothing
imports from the package's algorithm internals beyond plain data
containers, so agreement between these oracles and the library is
meaningful evidence.  Four exceptions: :func:`per_root_arborescence`
loops the package's fixed-root solver (checked against
:func:`brute_force_arborescence` on its own) over every root,
:func:`contraction_arborescence` is the package's earlier solver, which
rebuilds every arc at each contraction level,
:func:`per_row_trial_reports` runs the package's public searches and
checks only how a Monte Carlo trial scores what they select, and
:func:`eager_greedy_connected` is the greedy partition search solved
eagerly, over the package's greedy lists and tree helper, against which
the lazily solved one is checked.
"""

from __future__ import annotations

import json
import math
from itertools import combinations, product

import numpy as np

from dinet.errors import UncachedParentSetError
from dinet.structures import ParentAssignment, approximation_index


# ---------------------------------------------------------------------------
# arborescences by parent-vector enumeration


def brute_force_arborescence(
    weights: np.ndarray,
    allowed: np.ndarray,
    root: int | None,
    first_node: int = 1,
) -> tuple[float, dict[int, int]] | None:
    """Best spanning arborescence by trying every parent vector.

    ``weights[j][i]`` is the weight of the arc node(j) -> node(i) in the
    package's table layout; ``allowed`` masks usable arcs.  Nodes are
    numbered ``first_node .. first_node + m - 1``.  Returns (weight,
    parent map) of a maximum-weight arborescence, or None when no
    spanning arborescence exists.  Ties are broken arbitrarily; callers
    should compare weights only.
    """
    m = weights.shape[0]
    nodes = list(range(first_node, first_node + m))
    roots = nodes if root is None else [root]
    best: tuple[float, dict[int, int]] | None = None
    for r in roots:
        others = [v for v in nodes if v != r]
        choice_lists = []
        for v in others:
            options = [
                u
                for u in nodes
                if u != v and allowed[u - first_node][v - first_node]
            ]
            choice_lists.append(options)
        if any(not options for options in choice_lists):
            continue
        for parents in product(*choice_lists):
            parent_map = dict(zip(others, parents))
            # walk up from each node; a spanning arborescence reaches r
            ok = True
            for v in others:
                seen = {v}
                cur = v
                while cur != r:
                    cur = parent_map[cur]
                    if cur in seen:
                        ok = False
                        break
                    seen.add(cur)
                if not ok:
                    break
            if not ok:
                continue
            total = math.fsum(
                weights[parent_map[v] - first_node][v - first_node] for v in others
            )
            if best is None or total > best[0]:
                best = (total, dict(parent_map))
    return best


def per_root_arborescence(weights, root_weights=None):
    """Best free-root arborescence by one fixed-root solve per root.

    Takes an ``EdgeWeights`` table and optionally one weight per root.
    Each root's tree comes from the package's fixed-root solver (checked
    against :func:`brute_force_arborescence` on its own) and totals its
    edge weights plus ``root_weights[r-1]``; the first root with the
    strictly largest total wins, so exact ties go to the smallest root.
    Raises ``InfeasibleArborescenceError`` when no root has a tree.
    """
    from dinet.arborescence import max_weight_arborescence
    from dinet.errors import InfeasibleArborescenceError

    bonus = [0.0] * weights.m if root_weights is None else root_weights
    best, best_total = None, None
    for r in weights.nodes:
        try:
            tree = max_weight_arborescence(weights, r)
        except InfeasibleArborescenceError:
            continue
        total = tree.total_weight + bonus[r - 1]
        if best is None or total > best_total:
            best, best_total = tree, total
    if best is None:
        raise InfeasibleArborescenceError(
            "infeasible: no spanning arborescence with allowed edges"
        )
    return best


def contraction_arborescence(weights, root=None, root_weights=None):
    """The cycle-contraction solve that rebuilds every arc at each level.

    Takes an ``EdgeWeights`` table and returns ``(tree, contractions)``:
    the package's ``Arborescence`` for the same query and the number of
    cycles contracted.  It is the package's earlier solver, kept as the
    reference for the incremental one: the same dummy node 0 and
    ``Z x R x Z`` arc weights (see ``dinet.arborescence``), the same
    cycle search, super-node numbering and unwinding, but each level
    builds a fresh arc list from the one before, re-weighting every arc
    that enters the cycle and merging arcs per (source, destination)
    pair.  Raises ``InfeasibleArborescenceError`` as the package does.
    """
    from dinet.arborescence import Arborescence
    from dinet.errors import InfeasibleArborescenceError

    # an arc is [src, dst, weight, original (src, dst), wrapped arc, entered node]
    def better(a, b):
        return b is None or (a[2], b[3]) > (b[2], a[3])

    def minus(a, b):
        return (a[0] - b[0], a[1] - b[1], a[2] - b[2])

    contractions = 0

    def solve(nodes, arcs, root):
        nonlocal contractions
        best_in = {}
        for arc in arcs:
            if arc[1] != root and better(arc, best_in.get(arc[1])):
                best_in[arc[1]] = arc
        if any(v != root and v not in best_in for v in nodes):
            return None
        color, cycle = {}, None
        for start in nodes:
            if start == root or start in color:
                continue
            path, v = [], start
            while v != root and v not in color:
                color[v] = 0
                path.append(v)
                v = best_in[v][0]
            if v != root and color[v] == 0:
                cycle = path[path.index(v):]
            for u in path:
                color[u] = 1
            if cycle:
                break
        if cycle is None:
            return [best_in[v] for v in nodes if v != root]
        contractions += 1
        cyc = set(cycle)
        sup = max(nodes) + 1
        merged = {}
        for arc in arcs:
            s_in, d_in = arc[0] in cyc, arc[1] in cyc
            if s_in and d_in:
                continue
            if d_in:
                adjusted = minus(arc[2], best_in[arc[1]][2])
                cand = (arc[0], sup, adjusted, arc[3], arc, arc[1])
            elif s_in:
                cand = (sup, arc[1], arc[2], arc[3], arc, None)
            else:
                cand = arc
            if better(cand, merged.get(cand[:2])):
                merged[cand[:2]] = cand
        rest = [v for v in nodes if v not in cyc]
        sub = solve(rest + [sup], list(merged.values()), root)
        if sub is None:
            return None
        chosen = []
        for arc in sub:
            if arc[1] == sup:
                entered_at = arc[5]
                chosen.append(arc[4])
            elif arc[0] == sup:
                chosen.append(arc[4])
            else:
                chosen.append(arc)
        return chosen + [best_in[v] for v in cycle if v != entered_at]

    nodes = list(weights.nodes)
    if root is not None:
        dummy_arcs = [(root, 0.0)]
    else:
        bonus = [0.0] * len(nodes) if root_weights is None else root_weights
        dummy_arcs = [(r, float(b)) for r, b in zip(nodes, bonus)]
    arcs = [
        (s, d, (0, w, 0), (s, d), None, None)
        for s, d, w in weights.arcs()
        if d != root
    ]
    arcs += [(0, r, (-1, b, -r), (0, r), None, None) for r, b in dummy_arcs]
    chosen = solve([0, *nodes], arcs, 0) or []
    tops = [arc[1] for arc in chosen if arc[0] == 0]
    if len(tops) != 1:
        raise InfeasibleArborescenceError("infeasible: no spanning arborescence")
    chosen = [arc for arc in chosen if arc[0] != 0]
    tree = Arborescence(
        root=tops[0],
        parent={arc[1]: arc[0] for arc in chosen},
        total_weight=math.fsum(arc[2][1] for arc in chosen),
    )
    return tree, contractions


# ---------------------------------------------------------------------------
# exhaustive structure search


def all_assignments(m: int, K: int):
    """Every assignment with exactly K parents per node, as member tuples."""
    per_node = [
        list(combinations([j for j in range(1, m + 1) if j != i], K))
        for i in range(1, m + 1)
    ]
    for combo in product(*per_node):
        yield combo


def exhaustive_optimal_general(cache, K: int):
    """Full-product maximization with the (score desc, index asc) tie rule."""
    m = cache.m
    best = None
    for combo in all_assignments(m, K):
        assignment = ParentAssignment.from_lists(combo)
        score = math.fsum(cache.get(i + 1, combo[i]) for i in range(m))
        key = (-score, approximation_index(assignment))
        if best is None or key < best[0]:
            best = (key, assignment, score)
    return best[1], best[2]


def spans(assignment, root: int | None = None) -> bool:
    """Whether the parent -> child arcs reach every node from one root.

    A plain search from ``root``, or, with no root given, from each node
    in turn: no node is ruled out as a root beforehand.
    """
    m = assignment.m
    children = {j: [] for j in range(1, m + 1)}
    for c in range(1, m + 1):
        for p in assignment.members_of(c):
            children[p].append(c)

    def reaches_all(r: int) -> bool:
        seen = {r}
        frontier = [r]
        while frontier:
            for c in children[frontier.pop()]:
                if c not in seen:
                    seen.add(c)
                    frontier.append(c)
        return len(seen) == m

    roots = range(1, m + 1) if root is None else [root]
    return any(reaches_all(r) for r in roots)


def cache_score(cache, assignment) -> float:
    """The ``math.fsum`` of an assignment's cached values, an empty set worth 0.0."""
    return math.fsum(
        cache.get(i, assignment.members_of(i)) if assignment.members_of(i) else 0.0
        for i in range(1, assignment.m + 1)
    )


def connected_class_members(m: int, K: int, root_has_parents: bool):
    """Every member of the tree-containing class, with its root.

    Default shape: one root node keeps an empty set, every other node has
    exactly K parents, and the parent graph contains a spanning
    arborescence rooted there.  With ``root_has_parents`` every node has
    K parents and any spanning arborescence qualifies.
    """
    others = lambda i: [j for j in range(1, m + 1) if j != i]
    if root_has_parents:
        per_node = [list(combinations(others(i), K)) for i in range(1, m + 1)]
        for combo in product(*per_node):
            assignment = ParentAssignment.from_lists(combo)
            if spans(assignment):
                yield assignment
        return
    for root in range(1, m + 1):
        per_node = [
            [()] if i == root else list(combinations(others(i), K))
            for i in range(1, m + 1)
        ]
        for combo in product(*per_node):
            assignment = ParentAssignment.from_lists(combo)
            if spans(assignment, root):
                yield assignment


def exhaustive_connected(cache, K: int, root_has_parents: bool = False):
    """All connected-class members scored and sorted best-first.

    Returns a list of (assignment, score) sorted by score descending with
    the canonical assignment key breaking ties, the same total order the
    ranked search emits.
    """
    m = cache.m
    rows = []
    seen = set()
    for assignment in connected_class_members(m, K, root_has_parents):
        key = assignment.canonical_key()
        if key in seen:
            continue
        seen.add(key)
        rows.append((assignment, cache_score(cache, assignment)))
    rows.sort(key=lambda row: (-row[1], row[0].canonical_key()))
    return rows


def per_point_top_r_connected(cache, K: int, r: int, root_has_parents: bool = False):
    """The connected ranking's lattice walk, one assignment per point.

    Walks each root's product lattice of per-node candidate lists (value
    descending, set index ascending) in score order, builds a
    ``ParentAssignment`` at every popped point and keeps those that pass
    :func:`spans`; each finished score plateau is emitted in
    canonical key order.  Returns (assignment, score) rows, at most r.
    """
    import heapq

    m = cache.m
    lists = []
    for i in range(1, m + 1):
        cands = [
            (ms, cache.get(i, ms))
            for ms in combinations([j for j in range(1, m + 1) if j != i], K)
        ]
        cands.sort(key=lambda mv: (-mv[1], mv[0]))
        lists.append(cands)
    roots = [0] if root_has_parents else list(range(1, m + 1))
    others = {rt: [i for i in range(1, m + 1) if i != rt] for rt in roots}

    def score_of(rt, pos):
        return math.fsum(lists[i - 1][p][1] for i, p in zip(others[rt], pos))

    def as_assignment(rt, pos):
        by_node = {i: lists[i - 1][p][0] for i, p in zip(others[rt], pos)}
        return ParentAssignment.from_lists(
            [by_node.get(i, ()) for i in range(1, m + 1)]
        )

    heap = []
    seen = {rt: set() for rt in roots}
    for rt in roots:
        pos0 = tuple(0 for _ in others[rt])
        seen[rt].add(pos0)
        heapq.heappush(heap, (-score_of(rt, pos0), rt, pos0))
    rows, block, block_score = [], [], None
    while heap:
        neg, rt, pos = heapq.heappop(heap)
        if block and -neg != block_score:
            rows += sorted(block, key=lambda row: row[0].canonical_key())
            block = []
            if len(rows) >= r:
                break
        block_score = -neg
        assignment = as_assignment(rt, pos)
        if spans(assignment, None if root_has_parents else rt):
            block.append((assignment, -neg))
        for c, node in enumerate(others[rt]):
            if pos[c] + 1 < len(lists[node - 1]):
                nxt = pos[:c] + (pos[c] + 1,) + pos[c + 1:]
                if nxt not in seen[rt]:
                    seen[rt].add(nxt)
                    heapq.heappush(heap, (-score_of(rt, nxt), rt, nxt))
    rows += sorted(block, key=lambda row: row[0].canonical_key())
    return rows[:r]


def seen_set_ranking(cache, K: int, r: int, connected: bool = False,
                     root_has_parents: bool = False):
    """The lattice walk that pushes every successor and drops repeats by a seen set.

    Per node, every size-K set sorted by value descending, ties by set
    (lexicographic) order.  One product lattice, or with ``connected``
    and a free root one lattice per root whose own list holds only the
    empty set.  A heap ordered by (score descending, tie key, lattice,
    position) pops points; each pop pushes every one-step successor not
    pushed before.  The tie key is the ``approximation_index`` (general)
    or the canonical key (connected).  A score sums the set values in node
    order, a root's empty set worth 0.0.  With ``connected`` only points
    whose structure contains a spanning tree are kept.  Returns up to r
    (assignment, score) rows.
    """
    import heapq

    m = cache.m
    lists = []
    for i in range(1, m + 1):
        cands = [
            (ms, cache.get(i, ms))
            for ms in combinations([j for j in range(1, m + 1) if j != i], K)
        ]
        cands.sort(key=lambda mv: (-mv[1], mv[0]))
        lists.append(cands)
    if connected and not root_has_parents:
        lattices = [
            [[((), 0.0)] if i == rt else lists[i - 1] for i in range(1, m + 1)]
            for rt in range(1, m + 1)
        ]
    else:
        lattices = [lists]

    def entry(n, pos):
        key = tuple(lattices[n][i][p][0] for i, p in enumerate(pos))
        score = math.fsum(lattices[n][i][p][1] for i, p in enumerate(pos))
        assignment = ParentAssignment.from_lists(key)
        tie = key if connected else approximation_index(assignment)
        return (-score, tie, n, pos), assignment

    heap, seen, rows = [], set(), []
    for n in range(len(lattices)):
        pos = (0,) * m
        seen.add((n, pos))
        heap.append(entry(n, pos))
    heapq.heapify(heap)
    while heap and len(rows) < r:
        (neg_score, _, n, pos), assignment = heapq.heappop(heap)
        if not connected or spans(assignment):
            rows.append((assignment, -neg_score))
        for c in range(m):
            if pos[c] + 1 < len(lattices[n][c]):
                nxt = pos[:c] + (pos[c] + 1,) + pos[c + 1:]
                if (n, nxt) not in seen:
                    seen.add((n, nxt))
                    heapq.heappush(heap, entry(n, nxt))
    return rows


def exhaustive_sorted_general(cache, K: int):
    """Every uniform-K assignment sorted by (score desc, index asc)."""
    m = cache.m
    rows = []
    for combo in all_assignments(m, K):
        assignment = ParentAssignment.from_lists(combo)
        score = math.fsum(cache.get(i + 1, combo[i]) for i in range(m))
        rows.append((assignment, score))
    rows.sort(key=lambda row: (-row[1], approximation_index(row[0])))
    return rows


def branch_step(cache, K: int, seed):
    """Each structure one branch step below ``seed``, in node order.

    Per node, the seed's set is swapped for the node's next candidate in
    (value descending, set index ascending) order; a node at its last
    candidate gives nothing.  The exact general ranking rests on the
    (l+1)-th best being one such step from a better structure.
    """
    m = cache.m
    lists = seed.canonical_key()
    out = []
    for i in range(1, m + 1):
        cands = sorted(
            combinations([j for j in range(1, m + 1) if j != i], K),
            key=lambda ms: (-cache.get(i, ms), ms),
        )
        p = cands.index(lists[i - 1]) + 1
        if p < len(cands):
            out.append(ParentAssignment.from_lists(lists[: i - 1] + (cands[p],) + lists[i:]))
    return out


# ---------------------------------------------------------------------------
# greedy forward selection, one query per candidate


def slow_greedy_order(evaluator, target: int, pool, prefix=(), length=None):
    """Order up to ``length`` members of ``pool`` greedily after ``prefix``.

    Each step asks ``evaluator.increment`` once per remaining candidate,
    conditioned on the prefix and the picks so far, scanning candidates
    in ascending index and keeping the first strictly largest value.
    Without ``length`` the whole pool is ordered.  Returns (picks,
    increments), the picks without the prefix.
    """
    chosen = list(prefix)
    remaining = sorted(set(pool))
    picks, gains = [], []
    while remaining and (length is None or len(picks) < length):
        best_j, best_v = None, None
        for j in remaining:
            v = evaluator.increment(target, (j,), tuple(chosen))
            if best_v is None or v > best_v:
                best_j, best_v = j, v
        picks.append(best_j)
        gains.append(best_v)
        chosen.append(best_j)
        remaining.remove(best_j)
    return tuple(picks), gains


def _slow_ranked(evaluator, target: int, pool, prefix) -> list[int]:
    """``pool`` by increment after ``prefix``, largest first, ties to smaller index."""
    value = {j: evaluator.increment(target, (j,), tuple(prefix)) for j in pool}
    return sorted(pool, key=lambda j: (-value[j], j))


def _slow_dfs_step(evaluator, target: int, state):
    """The next depth-first greedy choice state of ``target``, or None.

    A state is (choices, ranks): the picks in order and each pick's rank
    among its slot's candidates, which are the processes ranked by
    increment after the earlier picks, minus every candidate that
    outranked an earlier slot's pick.  The step advances the deepest slot
    that has a next candidate with enough left over for the slots after
    it, and refills those slots greedily.
    """
    choices, ranks = state
    length = len(choices)
    avail = [j for j in range(1, evaluator.m + 1) if j != target]
    slots = []
    for k in range(length):
        ranked = _slow_ranked(evaluator, target, avail, choices[:k])
        slots.append((avail, ranked))
        avail = [j for j in avail if j not in ranked[: ranks[k] + 1]]
    for k in reversed(range(length)):
        avail, ranked = slots[k]
        nxt = ranks[k] + 1
        if len(ranked) - nxt - 1 >= length - k - 1:
            prefix = choices[:k] + (ranked[nxt],)
            pool = [j for j in avail if j not in ranked[: nxt + 1]]
            rest = length - k - 1
            picks, _ = slow_greedy_order(evaluator, target, pool, prefix, rest)
            return prefix + picks, ranks[:k] + (nxt,) + (0,) * len(picks)
    return None


def greedy_state_ranking(evaluator, L: int, r: int):
    """The unconstrained greedy ranking as a heap of per-node states.

    Every heap entry carries one depth-first greedy choice state per node
    (see :func:`_slow_dfs_step`), starting from each node's greedy
    sequence.  Popping an entry emits its structure and pushes, for every
    node, the entry with that node's state stepped once; a structure seen
    before is not pushed again.  Entries order by score (the evaluator's
    set values summed in node order) descending, then by
    ``approximation_index``.  Returns up to r (member key, score) rows.
    """
    import heapq

    m = evaluator.m

    def push(states):
        key = tuple(tuple(sorted(choices)) for choices, _ in states)
        if key in seen:
            return
        seen.add(key)
        score = math.fsum(evaluator.set_value(i, ms) for i, ms in enumerate(key, 1))
        index = approximation_index(ParentAssignment.from_lists(key))
        heapq.heappush(heap, (-score, index, key, states))

    heap, seen, rows = [], set(), []
    first = []
    for i in range(1, m + 1):
        others = [j for j in range(1, m + 1) if j != i]
        picks, _ = slow_greedy_order(evaluator, i, others, (), L)
        first.append((picks, (0,) * L))
    push(tuple(first))
    while heap and len(rows) < r:
        neg_score, _, key, states = heapq.heappop(heap)
        rows.append((key, -neg_score))
        for i in range(m):
            nxt = _slow_dfs_step(evaluator, i + 1, states[i])
            if nxt is not None:
                push(states[:i] + (nxt,) + states[i + 1:])
    return rows


def eager_greedy_connected(evaluator, L: int, r: int, root_has_parents: bool = False):
    """The greedy connected ranking's partition search, every child solved at push.

    The search :func:`dinet.topr.top_r_greedy` runs with ``connected``,
    before it learned to solve lazily: each subproblem is solved by
    ``topr._entry_tree`` (looked up at call time, so a test can count the
    solves) as soon as it is pushed, and keyed by its representative's
    score.  Returns the emitted ``ScoredApproximation`` tuple.
    """
    import heapq
    from itertools import count

    from dinet import topr
    from dinet.approximation import _greedy_lists
    from dinet.errors import InfeasibleArborescenceError
    from dinet.structures import ScoredApproximation

    m = evaluator.m
    nodes = range(1, m + 1)
    lists, roots = _greedy_lists(evaluator, L, root_has_parents)
    heap: list[tuple] = []
    tiebreak = count()

    def push(root, forced, banned):
        def arc_entry(i, j):
            if forced[i - 1] is not None:
                return forced[i - 1] if j in forced[i - 1][0] else None
            edges, level = lists[(i, (j,))], 0
            while edges.has(level):
                if edges.members[level] not in banned[i - 1]:
                    return edges.entry(level)
                level += 1
            return None

        try:
            tree, _, entries = topr._entry_tree(m, arc_entry, roots, root)
        except InfeasibleArborescenceError:
            return
        score = math.fsum(value for _, value in entries)
        key = tuple(members for members, _ in entries)
        heapq.heappush(
            heap,
            (-score, key, next(tiebreak), tree.root, root is None,
             entries, forced, banned),
        )

    unconstrained = (None,) * m, (frozenset(),) * m
    push(None, *unconstrained)
    seen, emitted = set(), []
    while heap and len(emitted) < r:
        neg_score, key, _, root, free_root, entries, forced, banned = heapq.heappop(heap)
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
    return tuple(emitted)


# ---------------------------------------------------------------------------
# numeric oracles


def lp_budget_maximum(alpha: float, K: int, L: int, budget: float) -> float:
    """Solve the budgeted chain program with a generic LP solver."""
    from scipy.optimize import linprog

    c = -np.ones(K)
    a_ub = []
    b_ub = []
    prefix = np.zeros(K)
    prefix[:L] = 1.0
    a_ub.append(prefix)
    b_ub.append(budget)
    for i in range(1, K):
        row = np.zeros(K)
        row[i] = 1.0
        row[i - 1] = -alpha
        a_ub.append(row)
        b_ub.append(0.0)
    res = linprog(
        c, A_ub=np.array(a_ub), b_ub=np.array(b_ub), bounds=[(0, None)] * K,
        method="highs",
    )
    assert res.status == 0, res.message
    return -res.fun


def sample_budget_feasible(
    alpha: float, K: int, L: int, budget: float, rng: np.random.Generator
) -> float:
    """Objective value of one random feasible point of the chain program."""
    b = np.empty(K)
    b[0] = rng.random()
    for i in range(1, K):
        b[i] = rng.random() * alpha * b[i - 1]
    prefix = b[:L].sum()
    if prefix > 0:
        b *= rng.random() * budget / prefix
    return float(b.sum())


def power_iteration_radius(matrix: np.ndarray, squarings: int = 40) -> float:
    """Spectral radius via normalized repeated squaring (Gelfand limit).

    With B_0 = A and B_{j+1} = (B_j / ||B_j||)^2, the norms n_j satisfy
    log ||A^(2^s)|| = sum_{j<s} 2^(s-j) log n_j + log ||B_s||, so the
    Gelfand estimate ||A^(2^s)||^(1/2^s) accumulates log n_j / 2^j.
    """
    a = np.array(matrix, dtype=float)
    log_rho = 0.0
    for j in range(squarings):
        norm = float(np.linalg.norm(a))
        if norm == 0.0:
            return 0.0
        log_rho += np.log(norm) / (2.0**j)
        a = a / norm
        a = a @ a
    norm = float(np.linalg.norm(a))
    if norm > 0.0:
        log_rho += np.log(norm) / (2.0**squarings)
    return float(np.exp(log_rho))


def lag_design(data: np.ndarray, processes, order: int) -> np.ndarray:
    """Columns: for each process in the order given, its lags 1..order."""
    n = data.shape[1]
    cols = []
    for s in processes:
        series = data[s - 1].astype(float)
        for lag in range(1, order + 1):
            cols.append(series[order - lag: n - lag])
    if not cols:
        return np.empty((n - order, 0))
    return np.column_stack(cols)


def residual_ss(design: np.ndarray, y: np.ndarray) -> float:
    """Residual sum of squares of the minimum-norm least squares fit.

    ``lstsq`` drops the singular directions below its default cutoff, so
    a design with dependent columns has the residual of their span.
    """
    if design.shape[1] == 0:
        return float(y @ y)
    beta = np.linalg.lstsq(design, y, rcond=None)[0]
    resid = y - design @ beta
    return float(resid @ resid)


def lstsq_di(
    data: np.ndarray,
    target: int,
    addition: tuple[int, ...],
    conditioning: tuple[int, ...],
    order: int,
) -> float:
    """Least squares DI by two per-query ``lstsq`` fits on fresh lag designs.

    Half the log ratio of the residual sums of squares without and with
    the addition's lags, both fits over the same rows and without
    intercepts.  A target the reduced fit leaves no residual is worth 0.
    """
    if not addition:
        return 0.0
    y = data[target - 1].astype(float)[order:]
    reduced = sorted({target, *conditioning})
    full = sorted({target, *conditioning, *addition})
    ss_reduced = residual_ss(lag_design(data, reduced, order), y)
    if ss_reduced == 0.0:
        return 0.0
    ss_full = residual_ss(lag_design(data, full, order), y)
    return max(0.0, 0.5 * float(np.log(ss_reduced / ss_full)))


def lyapunov_exact_di(
    coefficients: np.ndarray,
    noise_variances: np.ndarray,
    target: int,
    addition: tuple[int, ...],
    conditioning: tuple[int, ...],
) -> float:
    """Exact DI of a linear network from scipy's Lyapunov solution.

    Conditional variances come from ``numpy.linalg.solve`` on the
    stationary covariance blocks, differenced in logs.
    """
    from scipy.linalg import solve_discrete_lyapunov

    if not addition:
        return 0.0
    a = np.asarray(coefficients, dtype=float).T
    sigma = solve_discrete_lyapunov(a, np.diag(noise_variances))
    lagged = a @ sigma

    def cond_var(regressors) -> float:
        idx = [s - 1 for s in regressors]
        g = sigma[np.ix_(idx, idx)]
        c = lagged[target - 1, idx]
        return float(sigma[target - 1, target - 1] - c @ np.linalg.solve(g, c))

    reduced = sorted({target, *conditioning})
    full = sorted({target, *conditioning, *addition})
    return 0.5 * float(np.log(cond_var(reduced) / cond_var(full)))


def naive_discrete_di(
    data: np.ndarray,
    alphabet: int,
    target: int,
    addition: tuple[int, ...],
    conditioning: tuple[int, ...],
    order: int,
) -> float:
    """Plug-in conditional mutual information by literal dictionary counting.

    Windows are (tuple of symbols); estimates
    I(past(addition); present(target) | past(target), past(conditioning))
    from empirical frequencies, in nats.
    """
    m, n = data.shape
    rows = []
    for t in range(order, n):
        w = []
        for proc in sorted((target,) + tuple(conditioning)):
            for lag in range(1, order + 1):
                w.append(int(data[proc - 1, t - lag]))
        a = []
        for proc in sorted(addition):
            for lag in range(1, order + 1):
                a.append(int(data[proc - 1, t - lag]))
        y = int(data[target - 1, t])
        rows.append((tuple(w), tuple(a), y))
    n_rows = len(rows)
    from collections import Counter

    c_w = Counter(r[0] for r in rows)
    c_wa = Counter((r[0], r[1]) for r in rows)
    c_wy = Counter((r[0], r[2]) for r in rows)
    c_way = Counter(r for r in rows)
    total = 0.0
    for (w, a, y), cnt in c_way.items():
        total += cnt * (
            np.log(cnt) + np.log(c_w[w]) - np.log(c_wa[(w, a)]) - np.log(c_wy[(w, y)])
        )
    return max(0.0, total / n_rows)


def _encode_windows(
    data: np.ndarray, size: int, processes, order: int
) -> tuple[np.ndarray, int]:
    """Integer codes of the lagged windows of the given processes."""
    n = data.shape[1]
    codes = np.zeros(n - order, dtype=np.int64)
    span = 1
    for s in processes:
        series = data[s - 1].astype(np.int64)
        for lag in range(1, order + 1):
            codes = codes * size + series[order - lag: n - lag]
            span *= size
    return codes, span


def unique_count_di(
    data: np.ndarray,
    alphabet: int,
    target: int,
    addition: tuple[int, ...],
    conditioning: tuple[int, ...],
    order: int,
) -> float:
    """Plug-in DI by four ``np.unique`` counts per query, on fresh codes.

    The package's former per-query path, kept as the bit-for-bit oracle
    of the batched counting kernel: the observed joint cells come out of
    ``np.unique`` in ascending code order, each is decomposed into its
    marginal codes, and the same terms are summed in that order.
    """
    if not addition:
        return 0.0
    size = alphabet
    context = sorted({target, *conditioning})
    w, _ = _encode_windows(data, size, context, order)
    a, span_a = _encode_windows(data, size, sorted(addition), order)
    y = data[target - 1].astype(np.int64)[order:]

    n_rows = len(y)
    wa = w * span_a + a
    wy = w * size + y
    way = wa * size + y

    w_vals, w_cnt = np.unique(w, return_counts=True)
    wa_vals, wa_cnt = np.unique(wa, return_counts=True)
    wy_vals, wy_cnt = np.unique(wy, return_counts=True)
    vals, cnt = np.unique(way, return_counts=True)

    # decompose each observed joint cell back into its marginal codes;
    # every marginal code is present by construction, so searchsorted is
    # an exact lookup
    cell_wa, cell_y = np.divmod(vals, size)
    cell_w = cell_wa // span_a
    cell_wy = cell_w * size + cell_y
    n_w = w_cnt[np.searchsorted(w_vals, cell_w)]
    n_wa = wa_cnt[np.searchsorted(wa_vals, cell_wa)]
    n_wy = wy_cnt[np.searchsorted(wy_vals, cell_wy)]
    total = float(
        np.sum(cnt * (np.log(cnt) + np.log(n_w) - np.log(n_wa) - np.log(n_wy)))
    )
    return max(0.0, total / n_rows)


class DictCache:
    """The directed information cache as one dict keyed (target, sorted members).

    Takes valid sets only and checks nothing.  It answers ``put``,
    ``get``, ``in``, ``len``, ``items`` and ``to_json`` the way the
    package's cache documents them: a missing key raises
    :class:`UncachedParentSetError`, items sort by (target, members).
    """

    def __init__(self, m: int, K: int) -> None:
        self.m, self.K = m, K
        self.entries: dict[tuple[int, tuple[int, ...]], float] = {}

    def put(self, target, members, value) -> None:
        self.entries[(target, tuple(sorted(members)))] = float(value)

    def get(self, target, members) -> float:
        key = tuple(sorted(members))
        if (target, key) not in self.entries:
            raise UncachedParentSetError(target, key)
        return self.entries[(target, key)]

    def __contains__(self, key) -> bool:
        target, members = key
        return (target, tuple(sorted(members))) in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def items(self):
        return sorted((t, ms, v) for (t, ms), v in self.entries.items())

    def to_json(self) -> str:
        entries = [{"target": t, "set": list(ms), "value": v} for t, ms, v in self.items()]
        return json.dumps({"m": self.m, "K": self.K, "entries": entries}, indent=2) + "\n"


def best_first_positions(values) -> list[int]:
    """Positions of ``values`` by value descending, equal values in position order."""
    return sorted(range(len(values)), key=values.__getitem__, reverse=True)


def random_cache(m: int, K: int, rng: np.random.Generator, tie_rich: bool = False):
    """A synthetic score cache; tie_rich draws from a tiny value set."""
    from dinet.structures import DirectedInfoCache

    cache = DirectedInfoCache(m, K)
    for i in range(1, m + 1):
        others = [j for j in range(1, m + 1) if j != i]
        for members in combinations(others, K):
            if tie_rich:
                value = float(rng.choice([0.0, 0.25, 0.5]))
            else:
                value = float(rng.random())
            cache.put(i, members, value)
    return cache


# ---------------------------------------------------------------------------
# Monte Carlo trials, one step and one query at a time


def loop_simulate_panel(model, n: int, seed) -> np.ndarray:
    """The network recursion with one noise draw per step, as an m x n
    array of the steps after a burn-in of 10 * m."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    m = model.m
    burn_in = 10 * m
    dyn = model.coefficients.T
    scale = np.sqrt(model.noise_variances)
    x = np.zeros(m)
    out = np.empty((m, n))
    for t in range(burn_in + n):
        x = dyn @ x + scale * rng.standard_normal(m)
        if t >= burn_in:
            out[:, t - burn_in] = x
    return out


def per_row_trial_reports(config):
    """The reports of ``run_experiment(config)``, each row scored on its own.

    Trials draw their networks and panels as the package does (the panel
    by :func:`loop_simulate_panel`) and select with the package's public
    searches.  Each report row's exact score then sums single
    ``set_value`` queries in node order, and its ratio comes from
    ``ratio_to_true`` on that row alone.  Degenerate and failing trials
    are left out.
    """
    from math import comb

    from dinet import (
        DIEvaluator,
        TimeSeriesPanel,
        build_cache,
        generate_ar_network,
        greedy_connected,
        greedy_general,
        network_empirical_alpha,
        optimal_connected,
        optimal_general,
        ratio_to_true,
        top_r_general,
        true_parent_assignment,
    )
    from dinet.errors import DinetError
    from dinet.simulate import TrialReport

    K, L, m = config.K, config.greedy_length, config.m
    reports = []
    for trial in range(config.trials):
        model_seed, panel_seed = np.random.SeedSequence(config.seed + trial).spawn(2)
        try:
            model = generate_ar_network(
                m,
                np.random.default_rng(model_seed),
                edge_probability=config.edge_probability,
                spectral_target=config.spectral_target,
                include_diagonal=config.include_diagonal,
            )
            exact = DIEvaluator.from_model(model)

            def score(assignment):
                return math.fsum(
                    exact.set_value(i, assignment.members_of(i))
                    for i in range(1, m + 1)
                )

            if score(true_parent_assignment(model)) == 0.0:
                continue
            if config.selection == "exact":
                selector = exact
            else:
                data = loop_simulate_panel(
                    model, config.n, np.random.default_rng(panel_seed)
                )
                selector = DIEvaluator.from_panel(TimeSeriesPanel(data))
            cache = build_cache(selector, m, K)
            # the chains end at the deepest gain the guarantee reads
            alpha = network_empirical_alpha(selector, K + L - 1).alpha if m >= 3 else None
            rows = [
                ("optimal", "general", optimal_general(cache, K).assignment, None),
                ("greedy", "general", greedy_general(selector, L).assignment, alpha),
                ("optimal", "connected", optimal_connected(cache, K).assignment, None),
                ("greedy", "connected", greedy_connected(selector, L).assignment,
                 alpha),
            ]
            if config.r:
                ranked = top_r_general(cache, K, min(config.r, comb(m - 1, K) ** m))
                rows += [
                    (f"topr-{rank}", "general", sol.assignment, None)
                    for rank, sol in enumerate(ranked, start=1)
                ]
            reports += [
                TrialReport(
                    trial, algorithm, graph_class, K, L, score(assignment),
                    ratio_to_true(assignment, model, exact), alpha_hat, 0.0,
                )
                for algorithm, graph_class, assignment, alpha_hat in rows
            ]
        except DinetError:
            continue
    return reports
