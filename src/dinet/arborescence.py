"""Maximum weight directed spanning trees (arborescences).

The solver is the classic cycle-contraction algorithm: greedily pick the
best in-edge per node, contract any cycle that forms, adjust the weights of
edges entering the cycle by the weight of the in-cycle edge they displace,
and recurse.  Everything is deterministic: among equal-weight choices the
smaller original ``(source, destination)`` pair wins, so equal-weight
inputs always reproduce the same tree.

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


def _solve(nodes: list[int], arcs: list[_Arc], root: int) -> list[_Arc] | None:
    """Chosen arcs at this contraction level, or None if infeasible."""
    best_in: dict[int, _Arc] = {}
    for arc in arcs:
        if arc.dst == root:
            continue
        if _better(arc, best_in.get(arc.dst)):
            best_in[arc.dst] = arc

    for v in nodes:
        if v != root and v not in best_in:
            return None

    # look for a cycle among the chosen in-edges
    color: dict[int, int] = {}  # 0 on current walk, 1 finished
    cycle: list[int] | None = None
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
            cycle = path[path.index(v):]
        for u in path:
            color[u] = 1
        if cycle:
            break

    if cycle is None:
        return [best_in[v] for v in nodes if v != root]

    cyc = set(cycle)
    super_node = max(nodes) + 1
    new_nodes = [v for v in nodes if v not in cyc] + [super_node]
    merged: dict[tuple[int, int], _Arc] = {}
    for arc in arcs:
        s_in, d_in = arc.src in cyc, arc.dst in cyc
        if s_in and d_in:
            continue
        if d_in:
            adjusted = _minus(arc.w, best_in[arc.dst].w)
            cand = _Arc(arc.src, super_node, adjusted, arc.key, arc, arc.dst)
        elif s_in:
            cand = _Arc(super_node, arc.dst, arc.w, arc.key, arc, None)
        else:
            cand = arc
        pair = (cand.src, cand.dst)
        if _better(cand, merged.get(pair)):
            merged[pair] = cand

    sub = _solve(new_nodes, list(merged.values()), root)
    if sub is None:
        return None

    # the super node is never the root, so one arc of ``sub`` enters it
    chosen: list[_Arc] = []
    for arc in sub:
        if arc.dst == super_node:
            entered_at = arc.enters_at
            chosen.append(arc.orig)  # type: ignore[arg-type]
        elif arc.src == super_node:
            chosen.append(arc.orig)  # type: ignore[arg-type]
        else:
            chosen.append(arc)
    for v in cycle:
        if v != entered_at:
            chosen.append(best_in[v])
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
    solve maximizes tree plus root weight.  ``total_weight`` sums the
    chosen edges' weights in ascending child order, without the root
    weight.  Raises :class:`InfeasibleArborescenceError` when no spanning
    tree of allowed edges exists.
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
    arcs = [
        _Arc(s, d, (0, w, 0), (s, d), None, None)
        for s, d, w in weights.arcs()
        if d != root
    ]
    arcs += [
        _Arc(dummy, r, (-1, b, -r), (dummy, r), None, None) for r, b in dummy_arcs
    ]
    chosen = _solve([dummy, *nodes], arcs, dummy) or []
    # a tree of real arcs is one that needs a single dummy arc
    tops = [a.dst for a in chosen if a.src == dummy]
    if len(tops) != 1:
        raise InfeasibleArborescenceError(
            "infeasible: no spanning arborescence with allowed edges"
            + (f" rooted at {root}" if root is not None else "")
        )
    root = tops[0]
    chosen = [a for a in chosen if a.src != dummy]
    total = sum(a.w[1] for a in sorted(chosen, key=lambda a: a.dst))
    return Arborescence(
        root=root, parent={a.dst: a.src for a in chosen}, total_weight=total
    )
