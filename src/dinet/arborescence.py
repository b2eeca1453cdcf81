"""Maximum weight directed spanning trees (arborescences).

The solver is the classic cycle-contraction algorithm: pick the best
in-edge per node, contract any cycle that forms, adjust the weights of
edges entering the cycle by the weight of the in-cycle edge they displace,
and repeat.  As in Tarjan (1977), a contraction touches only the edges
around its cycle: each node keeps a map of its in-edges by source, the
best in-edges are picked once, and a contraction re-weights the edges
entering the cycle and merges per destination the edges leaving it, so
every other edge and best in-edge stays as it was.  Everything is
deterministic: among equal-weight choices the smaller original ``(source,
destination)`` pair wins, so equal-weight inputs always reproduce the
same tree.

Internally an arc's weight is an element of the ordered group
``Z x R x Z``, compared lexicographically; contraction subtracts weights
elementwise, and the algorithm is correct over any totally ordered
group.  A real arc of weight ``w`` is ``(0, w, 0)``.  Nodes are ``1 ..
m``.  Every query, fixed or free root, is one solve from a dummy node 0
with an arc ``(-1, b_r, -r)`` into each candidate root ``r``, where
``b_r`` is ``r``'s root weight (0.0 unless given): the optimum uses as
few dummy arcs as possible (exactly one when a spanning tree of real
arcs exists), then maximizes the real weight plus its root's weight,
then takes the smallest root.  Removing the dummy arc leaves the best
tree.  A free root has a dummy arc into every node.  A fixed root has
the only one and no real arcs into it, so it never joins a cycle and
the solve is the rooted one.

Weights live in an :class:`EdgeWeights` table.  Forbidden edges are an
explicit mask, never a large negative float, so they can never be chosen
no matter how the finite weights scale.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from math import fsum

import numpy as np

from .errors import InfeasibleArborescenceError, ValidationError
from .structures import _check_process, _check_real


class EdgeWeights:
    """Dense edge weight table over nodes ``1 .. m``.

    ``weight(j, i)`` is the value of edge ``j -> i``.  Self-loops are always
    forbidden.  The table is immutable after construction.
    """

    def __init__(
        self,
        weights: np.ndarray,
        allowed: np.ndarray | None = None,
    ) -> None:
        w = np.array(weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValidationError(f"weights must be square, got shape {w.shape}")
        m = w.shape[0]
        if allowed is None:
            mask = np.ones((m, m), dtype=bool)
        else:
            mask = np.array(allowed, dtype=bool)
            if mask.shape != w.shape:
                raise ValidationError("allowed mask shape must match weights")
        np.fill_diagonal(mask, False)
        if not np.all(np.isfinite(w[mask])):
            raise ValidationError("allowed edge weights must be finite")
        w.flags.writeable = False
        mask.flags.writeable = False
        self._w = w
        self._allowed = mask

    @property
    def m(self) -> int:
        return self._w.shape[0]

    @property
    def nodes(self) -> range:
        return range(1, self.m + 1)

    def _pos(self, node: int) -> int:
        _check_process(node, self.m, "node")
        return node - 1

    def weight(self, src: int, dst: int) -> float:
        return float(self._w[self._pos(src), self._pos(dst)])

    def is_allowed(self, src: int, dst: int) -> bool:
        return bool(self._allowed[self._pos(src), self._pos(dst)])

    def arcs(self) -> list[tuple[int, int, float]]:
        """All allowed arcs as ``(src, dst, weight)``, sorted by (src, dst)."""
        src, dst = np.nonzero(self._allowed)  # row-major: sorted by (src, dst)
        return [
            (a + 1, b + 1, w)
            for a, b, w in zip(src.tolist(), dst.tolist(), self._w[src, dst].tolist())
        ]


@dataclass(frozen=True)
class Arborescence:
    """A spanning tree result: every node but the root has one parent."""

    root: int
    parent: dict[int, int]
    total_weight: float

    def edges(self) -> list[tuple[int, int]]:
        return sorted((p, c) for c, p in self.parent.items())


# (-dummy arcs, real weight, -root) in the ordered group Z x R x Z
_Weight = tuple[int, float, int]


def _minus(a: _Weight, b: _Weight) -> _Weight:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


@dataclass(slots=True)
class _Arc:
    src: int
    dst: int
    w: _Weight
    key: tuple[int, int]  # original (src, dst), used for deterministic ties
    # for arcs touching a contracted node: the one-level-down arc they wrap
    # and, for arcs entering the cycle, the cycle node they enter at
    orig: "_Arc | None"
    enters_at: int | None


def _better(a: _Arc, b: _Arc | None) -> bool:
    """Whether arc ``a`` beats ``b``: higher weight, then smaller key."""
    if b is None:
        return True
    if a.w != b.w:
        return a.w > b.w
    return a.key < b.key


def _find_cycle(
    nodes: list[int], best_in: dict[int, _Arc], root: int
) -> list[int] | None:
    """The first cycle of chosen in-arcs, walking up from each node in order."""
    color: dict[int, int] = {}  # 0 on current walk, 1 finished
    for start in nodes:
        if start == root or start in color:
            continue
        path: list[int] = []
        v = start
        while v != root and v not in color:
            color[v] = 0
            path.append(v)
            v = best_in[v].src
        if v != root and color[v] == 0:
            return path[path.index(v):]
        for u in path:
            color[u] = 1
    return None


def _best(arcs) -> _Arc | None:
    best = None
    for arc in arcs:
        if _better(arc, best):
            best = arc
    return best


def _solve(
    nodes: list[int], into: dict[int, dict[int, _Arc]], root: int
) -> list[_Arc] | None:
    """Chosen arcs, or None if infeasible.

    ``into[v]`` maps each source to the arc into ``v``, for every node but
    the root.  Every node's best in-arc is picked once.  Contracting a
    cycle into a super node re-weights only the arcs entering it, keeping
    the best per source, and merges per destination the arcs leaving it
    into one wrapped arc; every other arc and best in-arc stays, a best
    in-arc from the cycle becoming its wrapped arc.  Contractions repeat
    while a cycle remains, then unwind from the last one.
    """
    best_in: dict[int, _Arc] = {}
    for v in nodes:
        if v != root:
            best = _best(into[v].values())
            if best is None:
                return None
            best_in[v] = best

    # per contraction: its cycle, super node and the cycle's best in-arcs
    levels: list[tuple[list[int], int, dict[int, _Arc]]] = []
    while (cycle := _find_cycle(nodes, best_in, root)) is not None:
        cyc = set(cycle)
        super_node = max(nodes) + 1
        entering: dict[int, _Arc] = {}
        for v in cycle:
            base = best_in[v].w
            for s, arc in into.pop(v).items():
                if s in cyc:
                    continue
                cand = _Arc(s, super_node, _minus(arc.w, base), arc.key, arc, v)
                if _better(cand, entering.get(s)):
                    entering[s] = cand
        nodes = [v for v in nodes if v not in cyc]
        for d in nodes:
            if d == root:
                continue
            arcs = into[d]
            best = _best([a for c in cycle if (a := arcs.pop(c, None)) is not None])
            if best is not None:
                arcs[super_node] = wrapped = _Arc(
                    super_node, d, best.w, best.key, best, None
                )
                if best_in[d] is best:
                    best_in[d] = wrapped
        if not entering:
            return None
        levels.append((cycle, super_node, {v: best_in.pop(v) for v in cycle}))
        nodes.append(super_node)
        into[super_node] = entering
        best_in[super_node] = _best(entering.values())  # type: ignore[assignment]

    chosen = [best_in[v] for v in nodes if v != root]
    # the super node is never the root, so one chosen arc enters it
    for cycle, super_node, cycle_in in reversed(levels):
        unwound: list[_Arc] = []
        for arc in chosen:
            if arc.dst == super_node:
                entered_at = arc.enters_at
                unwound.append(arc.orig)  # type: ignore[arg-type]
            elif arc.src == super_node:
                unwound.append(arc.orig)  # type: ignore[arg-type]
            else:
                unwound.append(arc)
        unwound += [cycle_in[v] for v in cycle if v != entered_at]
        chosen = unwound
    return chosen


def max_weight_arborescence(
    weights: EdgeWeights,
    root: int | None = None,
    root_weights: Sequence[float] | None = None,
) -> Arborescence:
    """Maximum total weight spanning arborescence.

    One solve from a dummy root (see the module notes).  With ``root``
    given the tree is rooted there; otherwise it is the best tree over
    all roots, exact ties going to the smallest root index.
    ``root_weights[r-1]``, one finite value per node and only for a free
    root, is added to the weight of every tree rooted at ``r``, so the
    solve maximizes tree plus root weight.  ``total_weight`` is the
    ``fsum`` of the chosen edges' weights, without the root weight.
    Raises :class:`InfeasibleArborescenceError` when no spanning tree of
    allowed edges exists.
    """
    nodes = list(weights.nodes)
    if root is not None:
        _check_process(root, len(nodes), "root")
        if root_weights is not None:
            raise ValidationError("root_weights apply only to a free root")
        dummy_arcs = [(root, 0.0)]
    else:
        if root_weights is None:
            root_weights = [0.0] * len(nodes)
        root_weights = [_check_real(b, "root weight") for b in root_weights]
        if len(root_weights) != len(nodes) or not all(map(np.isfinite, root_weights)):
            raise ValidationError("root_weights must be one finite value per node")
        dummy_arcs = list(zip(nodes, root_weights))
    dummy = 0
    into: dict[int, dict[int, _Arc]] = {v: {} for v in nodes}
    for s, d, w in weights.arcs():
        if d != root:
            into[d][s] = _Arc(s, d, (0, w, 0), (s, d), None, None)
    for r, b in dummy_arcs:
        into[r][dummy] = _Arc(dummy, r, (-1, b, -r), (dummy, r), None, None)
    chosen = _solve([dummy, *nodes], into, dummy) or []
    # a tree of real arcs is one that needs a single dummy arc
    tops = [a.dst for a in chosen if a.src == dummy]
    if len(tops) != 1:
        raise InfeasibleArborescenceError(
            "infeasible: no spanning arborescence with allowed edges"
            + (f" rooted at {root}" if root is not None else "")
        )
    root = tops[0]
    chosen = [a for a in chosen if a.src != dummy]
    total = fsum(a.w[1] for a in chosen)
    return Arborescence(
        root=root, parent={a.dst: a.src for a in chosen}, total_weight=total
    )
