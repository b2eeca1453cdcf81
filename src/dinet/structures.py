"""Core structures for bounded in-degree network approximation.

Processes are identified by 1-based integer indices ``1..m``.  A candidate
structure assigns every process a parent set; the quality of a structure is
the sum of cached directed information values, one per node.  Everything in
this module is pure bookkeeping: validation, scoring, combinatorial
indexing of parent sets and whole assignments, and serialization to JSON
and GraphViz DOT.

Sets are checked once, at the public boundary: every public entry that
takes a set of processes goes through ``_check_set``, which returns the
sorted key.  Past it, a set is its sorted member tuple and its
:func:`parent_set_index`.  :class:`DirectedInfoCache` stores its values
densely, one float64 row per (target, set size) in that index order, so
the searches read a whole row at once; structures the searches build
from such rows skip the constructor's checks.

Integers have one rule as well, ``_check_int``: an ``int`` that is not a
``bool``, in the input's range.  It checks every public set size K or L;
a ranking's r; an ``ExperimentConfig``'s m, n, trials, r and seed; a
simulated panel's n; a random network's m; an ``EstimatorConfig``'s
Markov order; a discrete panel's alphabet size; the m of a panel, a
linear network model, an evaluator, a cache and ``build_cache``; the m,
target, set rank and approximation index of
:func:`parent_set_from_index` and :func:`assignment_from_index`; and
every process index (a target, a root, a node of an edge weight
table).  Real values have one type rule, ``_check_real``: a real number
that is not a ``bool``, numpy scalars included, so a cache value, a root
weight, a guarantee's alpha and budget and a random network's parameters
refuse ``"0.5"`` and ``None``.

:class:`ParentSet` and :class:`ParentAssignment` are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import json
import math
import numbers
import reprlib
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import combinations, compress, count, repeat
from math import comb

import numpy as np

from .errors import UncachedParentSetError, ValidationError

ProcessIndex = int

MAX_CACHE_VALUES = 10_000_000
"""The most values a :class:`DirectedInfoCache` holds for one set size.

A cache stores the sets of one size as a dense block of ``m * C(m-1,
size)`` float64 values (8 bytes each, NaN where none is stored), however
few of them are stored, so this caps one block near 80 MB.  A block above
it, and :func:`dinet.build_cache` for such a size, raise
:class:`ValidationError` before anything is allocated or computed.
"""


MAX_RANKED = 100_000
"""The most structures one ranking emits: the largest ``r`` it takes.

A ranking keeps every structure it emits and the heap of its walk until
it returns.  At r = 100,000, traced by ``tracemalloc``, the peak was 1,135
bytes per emitted structure for :func:`dinet.top_r_general` at m=16, K=2
(373 of them kept in the result) and 2,012 for the general
:func:`dinet.top_r_greedy` at m=10, L=2, whose walk also keeps a seen
set; so this caps a ranking's memory near 110 to 200 MB.  The rankings
and a study's ``r`` above it raise :class:`ValidationError` before any
list is built.
"""


def _check_int(
    value: int, what: str, least: int | None = None, most: int | None = None
) -> None:
    """Reject anything but an ``int`` that is not a ``bool``, in ``least..most``.

    The one rule for a process index, a process count, a set size, a
    count, a set rank, an approximation index and a seed, so ``True``,
    ``1.0``, ``"2"`` and ``np.int64(2)`` are all refused.  A ``most``
    needs a ``least``; with neither, only the type is checked.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    if most is not None and not least <= value <= most:
        raise ValidationError(f"{what} {value} out of range {least}..{most}")
    if least is not None and value < least:
        raise ValidationError(f"{what} must be >= {least}, got {value}")


def _check_real(value: float, what: str) -> float:
    """``value`` as a ``float``, if it is a real number that is not a ``bool``.

    The one type rule for a real-valued input: Python and numpy numbers
    pass, while ``True``, ``"0.5"`` and ``None`` are refused, and so is a
    number too large for a float, such as the int ``10**400``.  NaN and
    infinities pass; each caller checks its own range.
    """
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValidationError(f"{what} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(
            f"{what} must be a real number a float can hold, got {reprlib.repr(value)}"
        ) from None


def _check_process(i: int, m: int, what: str = "process index") -> None:
    _check_int(i, what, 1, m)


def _check_set(
    m: float, target: int, members: Iterable[int], what: str = "parent set"
) -> tuple[int, ...]:
    """The sorted members of a valid set of processes for ``target``.

    The one rule for every parent set, DI query set and greedy order:
    the target and the members are integers (never bools) in ``1..m``, no
    member repeats and none is the target.  Types are checked before
    sorting, so a bad member raises :class:`ValidationError`, not
    ``TypeError``, naming the target and the offending process.
    """
    key = tuple(members)
    if type(target) is int and all(type(j) is int for j in key):
        key = tuple(sorted(key))
        if 1 <= target <= m and (not key or (
            1 <= key[0] and key[-1] <= m
            and len(set(key)) == len(key) and target not in key
        )):
            return key
    # the slow path names the first fault, and passes int subclasses
    _check_process(target, m, "target")
    for j in key:
        _check_process(j, m, f"target {target}: {what} member")
    key = tuple(sorted(key))
    for a, b in zip(key, key[1:]):
        if a == b:
            raise ValidationError(f"target {target}: {what} {list(key)} repeats {a}")
    if target in key:
        raise ValidationError(f"target {target}: {what} {list(key)} contains the target")
    return key


@dataclass(frozen=True)
class ParentSet:
    """A target process together with its chosen set of parent processes.

    ``members`` is kept strictly ascending; the target itself can never be
    a member.  Instances are hashable and compare by value.
    """

    target: ProcessIndex
    members: tuple[ProcessIndex, ...]

    def __post_init__(self) -> None:
        # the number of processes is unknown here; an assignment bounds it
        members = _check_set(math.inf, self.target, self.members)
        object.__setattr__(self, "members", members)

    @classmethod
    def _unchecked(cls, target: int, members: tuple[int, ...]) -> "ParentSet":
        """A parent set of valid, sorted members, built without the checks."""
        ps = object.__new__(cls)
        object.__setattr__(ps, "target", target)
        object.__setattr__(ps, "members", members)
        return ps

    @property
    def size(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, j: int) -> bool:
        return j in self.members


@dataclass(frozen=True)
class ParentAssignment:
    """One parent set per process: a complete candidate structure.

    ``parents[i - 1]`` is the parent set of process ``i``.  The induced
    graph has an edge ``j -> i`` for every ``j`` in ``parents[i - 1]``.
    """

    parents: tuple[ParentSet, ...]

    def __post_init__(self) -> None:
        parents = tuple(self.parents)
        m = len(parents)
        if m == 0:
            raise ValidationError("assignment needs at least one process")
        for i, ps in enumerate(parents, start=1):
            if not isinstance(ps, ParentSet):
                raise ValidationError(f"parents[{i - 1}] is not a ParentSet")
            if ps.target != i:
                raise ValidationError(
                    f"parents[{i - 1}] has target {ps.target}, expected {i}"
                )
            if ps.members and ps.members[-1] > m:
                _check_process(ps.members[-1], m, f"target {i}: parent set member")
        object.__setattr__(self, "parents", parents)

    @classmethod
    def from_lists(cls, members_per_node: Sequence[Iterable[int]]) -> "ParentAssignment":
        """Build from one iterable of parent indices per node, in node order."""
        parents = []
        for i, ms in enumerate(members_per_node, start=1):
            if not isinstance(ms, Iterable):
                raise ValidationError(f"parents[{i - 1}] is not an iterable of processes")
            parents.append(ParentSet(i, tuple(ms)))
        return cls(tuple(parents))

    @classmethod
    def _from_keys(cls, keys: Iterable[tuple[int, ...]]) -> "ParentAssignment":
        """:meth:`from_lists` of valid, sorted member tuples, unchecked.

        For structures built from candidate lists, whose sets were checked
        or generated in sorted form already; equal and hash-equal to the
        checked construction.
        """
        return cls._from_sets(map(ParentSet._unchecked, count(1), keys))

    @classmethod
    def _from_sets(cls, parents: Iterable[ParentSet]) -> "ParentAssignment":
        """An assignment of valid parent sets in node order, unchecked."""
        assignment = object.__new__(cls)
        object.__setattr__(assignment, "parents", tuple(parents))
        return assignment

    @property
    def m(self) -> int:
        return len(self.parents)

    def members_of(self, i: int) -> tuple[int, ...]:
        _check_process(i, self.m)
        return self.parents[i - 1].members

    def uniform_degree(self) -> int | None:
        """The common parent set size, or None if sizes differ."""
        sizes = {ps.size for ps in self.parents}
        return sizes.pop() if len(sizes) == 1 else None

    def root(self) -> int | None:
        """The unique node with an empty parent set, if exactly one exists."""
        empties = [ps.target for ps in self.parents if ps.size == 0]
        return empties[0] if len(empties) == 1 else None

    def canonical_key(self) -> tuple[tuple[int, ...], ...]:
        """A deterministic total-order key: the tuple of member tuples."""
        return tuple(ps.members for ps in self.parents)

    def edges(self) -> list[tuple[int, int]]:
        """All edges ``(source, destination)``, sorted."""
        out = [
            (j, ps.target)
            for ps in self.parents
            for j in ps.members
        ]
        out.sort()
        return out

    def to_json_dict(self) -> dict:
        degree = self.uniform_degree()
        if degree == 0 and self.m > 1:
            degree = None
        sizes = {ps.size for ps in self.parents if ps.size > 0}
        if degree is None and len(sizes) == 1 and self.root() is not None:
            # connected-style structure: one empty root, uniform elsewhere
            degree = sizes.pop()
        return {
            "m": self.m,
            "K": degree,
            "parents": [list(ps.members) for ps in self.parents],
        }

    def to_dot(self, root: int | None = None) -> str:
        """GraphViz DOT rendering with one edge per parent relation."""
        lines = ["digraph approximation {"]
        for i in range(1, self.m + 1):
            attrs = ' [shape=doublecircle]' if i == root else ""
            lines.append(f'  x{i} [label="X{i}"]{attrs};')
        for j, i in self.edges():
            lines.append(f"  x{j} -> x{i};")
        lines.append("}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ScoredApproximation:
    """A candidate structure together with its total directed information."""

    assignment: ParentAssignment
    score: float


def _not_finite(target: int, key: Sequence[int], value: object) -> ValidationError:
    return ValidationError(
        f"target {target}: parent set {list(key)} has value {value!r},"
        " not a finite number"
    )


def _json_set(members: Sequence[int]) -> str:
    """A member list as ``json.dumps(..., indent=2)`` writes it in a cache entry."""
    if not members:
        return "[]"
    return "[\n        " + ",\n        ".join(map(str, members)) + "\n      ]"


class DirectedInfoCache:
    """Directed information values keyed by (target, parent set members).

    Values are finite per-time-step rates in nats.  Reads of missing keys
    raise :class:`UncachedParentSetError` naming the target and set.  ``K``
    records the nominal parent set size the cache was built for, but
    entries of other sizes may be stored to support per-node degree vectors.

    Storage is dense: each set size the cache holds is one block of one
    float64 row per target, in :func:`parent_set_index` order, with NaN
    where no value is stored (a stored value is always finite), allocated
    on the first value of that size and capped by
    :data:`MAX_CACHE_VALUES`.  The public methods check every set by the
    one set rule; the searches read a target's whole row at once.
    """

    def __init__(self, m: int, K: int) -> None:
        _check_int(m, "m", 1)
        _check_int(K, "K", 0, m - 1)
        self.m = m
        self.K = K
        # set size -> m x C(m-1, size) values, NaN where none is stored
        self._blocks: dict[int, np.ndarray] = {}

    def _block(self, size: int) -> np.ndarray:
        """The block of ``size``-sets, allocated on first use within the cap."""
        block = self._blocks.get(size)
        if block is None:
            width = comb(self.m - 1, size)
            if self.m * width > MAX_CACHE_VALUES:
                raise ValidationError(
                    f"a cache with m={self.m} and parent sets of size {size} holds"
                    f" {self.m * width:,} values, above the limit of {MAX_CACHE_VALUES:,}"
                )
            block = self._blocks[size] = np.full((self.m, width), math.nan)
        return block

    def _slot(self, target: int, members: Iterable[int]) -> tuple[tuple[int, ...], float]:
        """A checked set's sorted key and its value, NaN when none is stored."""
        key = _check_set(self.m, target, members)
        block = self._blocks.get(len(key))
        if block is None:
            return key, math.nan
        return key, float(block[target - 1, _set_rank(self.m, target, key)])

    def put(self, target: int, members: Iterable[int], value: float) -> None:
        key = _check_set(self.m, target, members)
        number = _check_real(value, f"target {target}: parent set {list(key)} value")
        if not math.isfinite(number):
            raise _not_finite(target, key, value)
        self._block(len(key))[target - 1, _set_rank(self.m, target, key)] = number

    def get(self, target: int, members: Iterable[int]) -> float:
        key, value = self._slot(target, members)
        if math.isnan(value):
            raise UncachedParentSetError(target, key)
        return value

    def __contains__(self, key: tuple[int, Iterable[int]]) -> bool:
        return not math.isnan(self._slot(*key)[1])

    def __len__(self) -> int:
        return sum(int(np.count_nonzero(~np.isnan(block))) for block in self._blocks.values())

    def _put_row(self, target: int, size: int, values: Sequence[float]) -> None:
        """Store ``target``'s values of every ``size``-set, in rank order."""
        row = np.array(values, dtype=np.float64)
        finite = np.isfinite(row)
        if not finite.all():
            p = int(np.argmin(finite))
            raise _not_finite(target, parent_set_from_index(self.m, target, size, p), values[p])
        self._block(size)[target - 1] = row

    def _row(self, target: int, size: int) -> np.ndarray:
        """``target``'s values of every ``size``-set, in rank order.

        A gap raises :class:`UncachedParentSetError` naming the first
        missing set.  The row is the cache's own storage: do not write it.
        """
        block = self._blocks.get(size)
        # a block never allocated misses its first set
        missing = np.isnan(block[target - 1]) if block is not None else np.ones(1, bool)
        if missing.any():
            raise UncachedParentSetError(
                target, parent_set_from_index(self.m, target, size, int(np.argmax(missing)))
            )
        return block[target - 1]

    def items(self) -> list[tuple[int, tuple[int, ...], float]]:
        """All entries as (target, members, value), deterministically sorted."""
        out = []
        for size, block in self._blocks.items():
            for target, row in enumerate(block, start=1):
                mask = ~np.isnan(row)
                if mask.any():
                    sets = _all_parent_sets(self.m, target, size)
                    out += zip(
                        repeat(target), compress(sets, mask.tolist()), row[mask].tolist()
                    )
        out.sort()
        return out

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "K": self.K,
            "entries": [
                {"target": t, "set": list(ms), "value": v}
                for t, ms, v in self.items()
            ],
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_json_dict(), indent=2) + "\\n"``, written directly.

        The layout is fixed, so each entry is formatted in place; the
        values alone go through the JSON encoder, in one call.  This
        skips the pure-Python encoder ``indent`` would take.
        """
        items = self.items()
        values = json.dumps([v for _, _, v in items])[1:-1].split(", ")
        entries = ",\n".join(
            f'    {{\n      "target": {t},\n      "set": {_json_set(ms)},\n'
            f'      "value": {v}\n    }}'
            for (t, ms, _), v in zip(items, values)
        )
        entries = f"[\n{entries}\n  ]" if items else "[]"
        return f'{{\n  "m": {self.m},\n  "K": {self.K},\n  "entries": {entries}\n}}\n'

    @classmethod
    def from_json_dict(cls, obj: dict) -> "DirectedInfoCache":
        try:
            cache = cls(obj["m"], obj["K"])
            for e in obj["entries"]:
                cache.put(e["target"], e["set"], e["value"])
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed cache JSON: {exc}") from exc
        return cache

    @classmethod
    def from_json(cls, text: str) -> "DirectedInfoCache":
        return cls.from_json_dict(json.loads(text))


def _has_spanning_tree(
    members: Sequence[tuple[int, ...]], root: int | None
) -> bool:
    """Whether the graph of ``members`` contains a directed spanning tree.

    ``members[i - 1]`` holds node ``i``'s parents, and edges point from
    parent to child.  With ``root`` given, every node must be reachable
    from it; otherwise any node may serve as the root.  Nothing is
    validated: the callers pass sets the searches built.
    """
    m = len(members)
    children: list[list[int]] = [[] for _ in range(m + 1)]
    for i, ms in enumerate(members, start=1):
        for j in ms:
            children[j].append(i)

    def reaches_all(r: int) -> bool:
        seen = {r}
        stack = [r]
        while stack:
            u = stack.pop()
            for v in children[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == m

    if root is not None:
        return reaches_all(root)
    # only nodes with no in-edges can root a spanning tree; if none exists,
    # any node on a source cycle works, so fall back to trying all
    candidates = [
        i for i, ms in enumerate(members, start=1) if not ms
    ] or list(range(1, m + 1))
    return any(reaches_all(r) for r in candidates)


def parent_set_index(m: int, target: int, members: Iterable[int]) -> int:
    """Zero-based lexicographic rank of a parent set among same-size sets.

    The target is removed from the universe by sliding indices above it
    down one, leaving a subset ``c_1 < ... < c_K`` of ``{1..n}``,
    ``n = m - 1``.  Reversing the order of ``1..n`` maps lexicographic
    order onto colexicographic order, whose rank is a sum of binomials,
    so the rank is ``C(n, K) - 1 - sum_i C(n - c_i, K - i + 1)``.
    """
    return _set_rank(m, target, _check_set(m, target, members))


def _set_rank(m: int, target: int, key: Sequence[int]) -> int:
    """:func:`parent_set_index` of a valid, sorted ``key``, unchecked."""
    n, K = m - 1, len(key)
    rank = comb(n, K) - 1
    for i, j in enumerate(key):
        rank -= comb(n - (j - 1 if j > target else j), K - i)
    return rank


def parent_set_from_index(m: int, target: int, K: int, rank: int) -> tuple[int, ...]:
    """Inverse of :func:`parent_set_index` for size-``K`` sets."""
    _check_int(m, "m", 1)
    _check_process(target, m, "target")
    _check_int(K, "K", 0, m - 1)
    _check_int(rank, "rank", 0, comb(m - 1, K) - 1)
    universe = [j for j in range(1, m + 1) if j != target]
    chosen: list[int] = []
    lo = 0  # position in universe of the smallest remaining candidate
    remaining = rank
    for slot in range(K):
        for pos in range(lo, len(universe)):
            block = comb(len(universe) - pos - 1, K - slot - 1)
            if remaining < block:
                chosen.append(universe[pos])
                lo = pos + 1
                break
            remaining -= block
    return tuple(chosen)


def _all_parent_sets(m: int, target: int, K: int) -> Iterator[tuple[int, ...]]:
    """All size-``K`` parent sets for ``target``, in index order, unchecked."""
    universe = [j for j in range(1, m + 1) if j != target]
    return iter(combinations(universe, K))


def approximation_index(assignment: ParentAssignment) -> int:
    """One-based mixed-radix index of a uniform-degree assignment.

    Node ``i`` contributes its parent set rank times ``C(m-1, K)**(i-1)``.
    The result ranges over ``1 .. C(m-1, K)**m`` and is a bijection on the
    set of uniform-degree assignments.  Python integers keep this exact at
    any scale.
    """
    K = assignment.uniform_degree()
    if K is None:
        raise ValidationError(
            "approximation_index requires all parent sets to share one size"
        )
    m = assignment.m
    radix = comb(m - 1, K)
    index = 1
    weight = 1
    for ps in assignment.parents:
        index += _set_rank(m, ps.target, ps.members) * weight
        weight *= radix
    return index


def assignment_from_index(m: int, K: int, index: int) -> ParentAssignment:
    """Inverse of :func:`approximation_index`."""
    _check_int(m, "m", 1)
    _check_int(K, "K", 0, m - 1)
    radix = comb(m - 1, K)
    _check_int(index, "index", 1, radix**m)
    rest = index - 1
    lists = []
    for target in range(1, m + 1):
        rest, rank = divmod(rest, radix)
        lists.append(parent_set_from_index(m, target, K, rank))
    return ParentAssignment.from_lists(lists)
