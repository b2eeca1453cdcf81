"""Property tests of the rankings against slower walks and searches.

Hypothesis draws tie-rich caches, where equal scores are the rule, and
compares :func:`top_r_connected` with the exhaustive sort in
``_oracles.py`` in both root modes, for every ``r`` up to the class size.
It compares :func:`top_r_general` with the exhaustive sort there, the
exact rankings' one-parent walk with the seen-set walk in
``_oracles.py``, also on caches whose values span many magnitudes, and
the lazily solved greedy partition search with the eager one there.  It
checks that the key a point is pushed under bounds the score it gets
when the walk reaches it, over sorted lists and over unsorted ones with
lazy tails, as greedy lists are, where the walk pops as one that scores
every point when it is pushed.
"""

import heapq
from itertools import combinations
from math import fsum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dinet.estimation import DIEvaluator
from dinet.simulate import generate_ar_network
from dinet.structures import DirectedInfoCache, approximation_index
from dinet.approximation import _Candidates
from dinet.topr import (
    _bound,
    _class_size,
    _walk,
    top_r_connected,
    top_r_general,
    top_r_greedy,
)

from _oracles import (
    eager_greedy_connected,
    exhaustive_connected,
    exhaustive_sorted_general,
    random_cache,
    seen_set_ranking,
)
from test_approximation import evaluator_from_cache


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(3, 5),
    K=st.integers(1, 2),
    root_has_parents=st.booleans(),
)
def test_top_r_connected_matches_the_exhaustive_sort(
    data, seed, m, K, root_has_parents
):
    cache = random_cache(m, K, np.random.default_rng(seed), tie_rich=True)
    ranked = exhaustive_connected(cache, K, root_has_parents)
    r = data.draw(st.integers(1, len(ranked)), label="r")
    got = top_r_connected(cache, K, r, root_has_parents=root_has_parents)
    assert [(sol.assignment, sol.score) for sol in got] == ranked[:r]


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from([(3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 2)]),
)
def test_top_r_general_matches_the_exhaustive_sort(data, seed, shape):
    m, K = shape
    cache = random_cache(m, K, np.random.default_rng(seed), tie_rich=True)
    ranked = exhaustive_sorted_general(cache, K)
    r = data.draw(st.integers(1, len(ranked)), label="r")
    got = top_r_general(cache, K, r)
    assert [(sol.assignment, sol.score) for sol in got] == ranked[:r]


def _runs(rows):
    """(score, structures in emission order) per run of equal score."""
    runs = []
    for assignment, score in rows:
        if runs and runs[-1][0] == score:
            runs[-1][1].append(assignment)
        else:
            runs.append((score, [assignment]))
    return runs


# exponents that put values at, just below and far below a rounding unit
# of 1, so a score's rounding drops or keeps its smallest terms
_EXPONENTS = [0, 0, -1, -26, -52, -53, -54, -80, -106, -107, -126, -160]


def _mixed_magnitude_value(rng: np.random.Generator) -> float:
    """Uniform times 2^e over ``_EXPONENTS``, negative one time in four."""
    value = float(rng.random()) * 2.0 ** int(rng.choice(_EXPONENTS))
    return -value if rng.random() < 0.25 else value


def _mixed_magnitude_cache(m: int, K: int, rng: np.random.Generator):
    cache = DirectedInfoCache(m, K)
    for i in range(1, m + 1):
        others = [j for j in range(1, m + 1) if j != i]
        for members in combinations(others, K):
            cache.put(i, members, _mixed_magnitude_value(rng))
    return cache


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(3, 6),
    K=st.integers(1, 2),
    values=st.sampled_from(["random", "tie-rich", "mixed magnitudes"]),
    ranking=st.sampled_from(["general", "connected", "connected root_has_parents"]),
)
def test_the_one_parent_walk_matches_the_seen_set_walk(
    data, seed, m, K, values, ranking
):
    rng = np.random.default_rng(seed)
    if values == "mixed magnitudes":
        cache = _mixed_magnitude_cache(m, K, rng)
    else:
        cache = random_cache(m, K, rng, tie_rich=values == "tie-rich")
    connected = ranking != "general"
    root_has_parents = ranking.endswith("root_has_parents")
    most = _class_size(m, K, connected and not root_has_parents)
    r = data.draw(st.integers(1, min(most, 300)), label="r")
    if connected:
        got = top_r_connected(cache, K, r, root_has_parents=root_has_parents)
    else:
        got = top_r_general(cache, K, r)
    # the walk is exact only while a parent never scores below its child,
    # that is while fsum is monotone in each term
    scores = [sol.score for sol in got]
    assert all(a >= b for a, b in zip(scores, scores[1:]))
    want = seen_set_ranking(cache, K, r, connected, root_has_parents)
    runs = _runs([(sol.assignment, sol.score) for sol in got])
    want_runs = _runs(want)
    assert [score for score, _ in runs] == [score for score, _ in want_runs]
    if values == "mixed magnitudes" and len(got) == r:
        # a run of ties that exist only after rounding comes in each walk's
        # own order, so when r cuts the last run short its members differ
        runs, want_runs = runs[:-1], want_runs[:-1]
    for (_, run), (_, want_run) in zip(runs, want_runs):
        assert set(run) == set(want_run)
    if values == "tie-rich":
        # values from {0, 0.25, 0.5} sum exactly, so every tie is exact
        tie = (lambda a: a.canonical_key()) if connected else approximation_index
        for _, run in runs:
            assert [tie(a) for a in run] == sorted(tie(a) for a in run)


# values of every magnitude a score can hold: mixed magnitudes, signed
# zeros and subnormals, whose sums are exact
_values = st.one_of(
    st.integers(0, 2**32 - 1).map(
        lambda seed: _mixed_magnitude_value(np.random.default_rng(seed))
    ),
    st.sampled_from([0.0, -0.0, 2.0**-1022, -(2.0**-1022)]),
    st.integers(-(2**52) + 1, 2**52 - 1).map(lambda k: k * 2.0**-1074),
)


@settings(max_examples=2000, deadline=None)
@given(st.lists(_values, min_size=1, max_size=16), st.data())
def test_the_pushed_key_bounds_the_child_score(values, data):
    c = data.draw(st.integers(0, len(values) - 1), label="c")
    new = data.draw(_values, label="new")
    child = values[:c] + [new] + values[c + 1:]
    assert _bound(fsum(values), new, values[c]) >= fsum(child)


def _sorted_list(values: list[float]) -> _Candidates:
    """A list of made-up sets holding ``values`` by value, ties by rank."""
    ranks = sorted(range(len(values)), key=lambda p: -values[p])
    return _Candidates([(p,) for p in ranks], [values[p] for p in ranks], ranks)


def _unsorted_list(values: list[float], ranks: list[int], held: int) -> _Candidates:
    """A list of made-up sets holding ``values`` in drawn order, as a greedy list.

    The first ``held`` entries are held; the rest come from a lazy tail
    that :meth:`_Candidates.has` draws from.
    """
    entries = [((rank,), value, rank) for value, rank in zip(values, ranks)]
    members, held_values, held_ranks = (list(col) for col in zip(*entries[:held]))
    return _Candidates(members, held_values, held_ranks, iter(entries[held:]))


def _eager_walk(lattice, lattice_count, weights, sorted_lists):
    """The walk that scores every point when it is pushed.

    Over sorted lists a point is pushed only by its canonical parent;
    otherwise a pop pushes every one-step successor and a seen set drops
    the repeats.
    """
    def entry(n, pos, last):
        score = fsum(lst.values[p] for lst, p in zip(lattice, pos))
        index = sum(lst.ranks[p] * w for lst, p, w in zip(lattice, pos, weights))
        return (-score, index, n, pos, last)

    heap = [entry(n, (0,) * len(lattice), 0) for n in range(lattice_count)]
    heapq.heapify(heap)
    seen = [{(0,) * len(lattice)} for _ in range(lattice_count)]
    while heap:
        neg_score, _, n, pos, last = heapq.heappop(heap)
        yield -neg_score, n, pos
        for c in range(last if sorted_lists else 0, len(pos)):
            if pos[c] + 1 < len(lattice[c].values) or lattice[c].has(pos[c] + 1):
                nxt = pos[:c] + (pos[c] + 1,) + pos[c + 1:]
                if not sorted_lists:
                    if nxt in seen[n]:
                        continue
                    seen[n].add(nxt)
                heapq.heappush(heap, entry(n, nxt, c))


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.lists(_values, min_size=1, max_size=4), min_size=1, max_size=4),
    st.integers(1, 3),
    st.booleans(),
    st.data(),
)
def test_the_lazy_walk_pushes_bounding_keys_and_pops_as_the_eager_one(
    lists, lattice_count, sorted_lists, data
):
    if sorted_lists:
        def lattice():
            return [_sorted_list(values) for values in lists]
    else:
        # greedy lists: values in drawn order, ranks in any order, and
        # some entries behind a lazy tail drawn when a push reaches them
        ranks = [data.draw(st.permutations(range(len(v))), label="ranks") for v in lists]
        held = [data.draw(st.integers(1, len(v)), label="held") for v in lists]

        def lattice():
            return [_unsorted_list(*args) for args in zip(lists, ranks, held)]

    walked = lattice()
    weights = [5**c for c in range(len(walked))]
    pushed = []
    push = heapq.heappush

    def spy(heap, entry):
        pushed.append(entry)
        push(heap, entry)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(heapq, "heappush", spy)
        walk = list(_walk([walked] * lattice_count, weights, sorted_lists))
    for key, scored, _, _, pos, c in pushed:
        if not scored:
            child = pos[:c] + (pos[c] + 1,) + pos[c + 1:]
            assert -key >= fsum(lst.values[p] for lst, p in zip(walked, child))
    want = list(_eager_walk(lattice(), lattice_count, weights, sorted_lists))
    assert [(score.hex(), n, pos) for score, n, pos in walk] == [
        (score.hex(), n, pos) for score, n, pos in want
    ]


@st.composite
def greedy_models(draw):
    """A factory of fresh, equal evaluators, a greedy length L and m.

    The evaluators are exact linear models, or caches of every set up to
    size L, worth 0, 0.25 or 0.5 (tie-rich) or uniform times 2^e over
    ``_EXPONENTS``, a quarter of them negative (mixed magnitudes), whose
    sums round.  A partition key that fell below a score it bounds, by
    as little as one rounding unit, would pop a subproblem late.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    m = draw(st.integers(3, 7))
    L = draw(st.integers(1, 2))
    kind = draw(st.sampled_from(["model", "tie-rich", "mixed magnitudes"]))
    rng = np.random.default_rng(seed)
    if kind == "model":
        model = generate_ar_network(m, rng)
        return (lambda: DIEvaluator.from_model(model)), L, m
    cache = DirectedInfoCache(m, L)
    for i in range(1, m + 1):
        others = [j for j in range(1, m + 1) if j != i]
        for k in range(1, L + 1):
            for members in combinations(others, k):
                if kind == "tie-rich":
                    value = float(rng.choice([0.0, 0.25, 0.5]))
                else:
                    value = _mixed_magnitude_value(rng)
                cache.put(i, members, value)
    return (lambda: evaluator_from_cache(cache, L)), L, m


@settings(max_examples=150, deadline=None)
@given(greedy_models(), st.booleans(), st.data())
def test_the_lazy_greedy_search_matches_the_eager_one(model, root_has_parents, data):
    make, L, m = model
    most = _class_size(m, L, not root_has_parents)
    r = data.draw(st.integers(1, min(most, 150)), label="r")
    lazy_ev, eager_ev = make(), make()
    lazy = top_r_greedy(lazy_ev, L, r, connected=True, root_has_parents=root_has_parents)
    eager = eager_greedy_connected(eager_ev, L, r, root_has_parents)
    assert [(sol.score.hex(), sol.assignment.canonical_key()) for sol in lazy] == [
        (sol.score.hex(), sol.assignment.canonical_key()) for sol in eager
    ]
    assert lazy_ev.calls == eager_ev.calls
