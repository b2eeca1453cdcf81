from itertools import combinations, islice, product
from math import comb, fsum, nextafter

import numpy as np
import pytest

from dinet import approximation, topr
from dinet.approximation import (
    greedy_connected,
    greedy_general,
    optimal_connected,
    optimal_general,
)
from dinet.errors import ValidationError
from dinet.estimation import DIEvaluator, build_cache
from dinet.simulate import ExperimentConfig, generate_ar_network
from dinet.structures import (
    MAX_RANKED,
    DirectedInfoCache,
    ScoredApproximation,
    approximation_index,
    parent_set_index,
)
from dinet.topr import top_r_connected, top_r_general, top_r_greedy

from _oracles import (
    all_assignments,
    branch_step,
    connected_class_members,
    eager_greedy_connected,
    exhaustive_connected,
    exhaustive_sorted_general,
    per_point_top_r_connected,
    random_cache,
    spans,
)
from test_approximation import evaluator_from_cache


def test_topr_container_protocol():
    rng = np.random.default_rng(301)
    cache = random_cache(3, 1, rng)
    out = top_r_general(cache, 1, 3)
    assert isinstance(out, tuple)
    assert len(out) == 3
    assert all(isinstance(sol, ScoredApproximation) for sol in out)


def test_top_r_general_full_enumeration_matches_sorted_oracle():
    rng = np.random.default_rng(307)
    for m, K in [(3, 1), (4, 1), (4, 2)]:
        space = comb(m - 1, K) ** m
        for trial in range(12):
            cache = random_cache(m, K, rng, tie_rich=bool(trial % 2))
            got = top_r_general(cache, K, space)
            want = exhaustive_sorted_general(cache, K)
            assert len(got) == space
            for rank, sol in enumerate(got):
                want_assignment, want_score = want[rank]
                assert sol.score == want_score  # bit-exact: same sum order
                assert sol.assignment == want_assignment


def test_top_r_general_prefix_and_rank_one():
    rng = np.random.default_rng(311)
    for trial in range(10):
        cache = random_cache(4, 2, rng, tie_rich=bool(trial % 2))
        got = top_r_general(cache, 2, 7)
        assert len(got) == 7
        best = optimal_general(cache, 2)
        assert got[0].score == pytest.approx(best.score, abs=1e-12)
        assert got[0].assignment == best.assignment
        scores = [sol.score for sol in got]
        assert scores == sorted(scores, reverse=True)
        keys = {sol.assignment.canonical_key() for sol in got}
        assert len(keys) == 7


def test_top_r_general_validation():
    rng = np.random.default_rng(313)
    cache = random_cache(3, 1, rng)
    with pytest.raises(ValidationError):
        top_r_general(cache, 1, 0)
    with pytest.raises(ValidationError):
        top_r_general(cache, 1, 9)  # space is 2^3 = 8
    with pytest.raises(ValidationError):
        top_r_general(cache, 3, 1)


@pytest.mark.parametrize("tie_rich", [False, True])
def test_top_r_general_tie_keys_at_big_int_scale(tie_rich):
    # C(15, 2)**16 is about 2**107, far past any fixed-width integer
    m, K, r = 16, 2, 500
    if tie_rich:
        cache = random_cache(m, K, np.random.default_rng(433), tie_rich=True)
    else:
        network = generate_ar_network(m, np.random.default_rng([7, 10]))
        cache = build_cache(DIEvaluator.from_model(network), m, K)
    assert comb(m - 1, K) ** m > 2**106
    got = top_r_general(cache, K, r)
    assert len(got) == r
    keys = [(-sol.score, approximation_index(sol.assignment)) for sol in got]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    if tie_rich:
        # every node has several sets at the top value, so all r solutions
        # tie and must be the r smallest indices among the top-value sets
        tops = []
        for i in range(1, m + 1):
            others = [j for j in range(1, m + 1) if j != i]
            tops.append(
                sorted(
                    parent_set_index(m, i, ms)
                    for ms in combinations(others, K)
                    if cache.get(i, ms) == 0.5
                )
            )
        assert all(tops)
        assert len({sol.score for sol in got}) == 1
        # index order is lexicographic in the ranks read from node m down
        want = [
            1 + sum(rank * comb(m - 1, K) ** i for i, rank in enumerate(reversed(ranks)))
            for ranks in islice(product(*reversed(tops)), r)
        ]
        assert [index for _, index in keys] == want


def test_top_r_general_second_best_is_one_branch_step():
    # the ranking branches by one step: a node swaps in its next-best set
    rng = np.random.default_rng(317)
    cache = random_cache(4, 1, rng)
    seed, second = top_r_general(cache, 1, 2)
    assert seed.assignment == optimal_general(cache, 1).assignment
    diffs = [
        i
        for i in range(1, 5)
        if second.assignment.members_of(i) != seed.assignment.members_of(i)
    ]
    assert len(diffs) == 1  # exactly one parent set replaced
    assert second.score <= seed.score + 1e-12
    assert second.assignment in branch_step(cache, 1, seed.assignment)


def test_top_r_general_worst_solution_is_a_dead_end():
    # the full ranking ends at the worst solution, and nothing comes after
    rng = np.random.default_rng(331)
    cache = random_cache(3, 1, rng)
    ranked = exhaustive_sorted_general(cache, 1)
    worst = ranked[-1][0]
    assert top_r_general(cache, 1, len(ranked))[-1].assignment == worst
    with pytest.raises(ValidationError, match="r 9 out of range 1..8"):
        top_r_general(cache, 1, len(ranked) + 1)


def test_top_r_general_two_node_graph_has_no_successors():
    rng = np.random.default_rng(337)
    cache = random_cache(2, 1, rng)
    seed = optimal_general(cache, 1).assignment
    assert [sol.assignment for sol in top_r_general(cache, 1, 1)] == [seed]
    with pytest.raises(ValidationError, match="r 2 out of range 1..1"):
        top_r_general(cache, 1, 2)


@pytest.mark.parametrize("K", [-1, 3])
def test_top_r_general_rejects_an_out_of_range_degree(K):
    rng = np.random.default_rng(348)
    cache = random_cache(3, 1, rng)
    with pytest.raises(ValidationError, match=f"K {K} out of range 0..2"):
        top_r_general(cache, K, 1)


def test_branching_reaches_every_next_best():
    # the (l+1)-th best always differs from some better solution in one
    # parent set, which is the lemma the exact enumeration rests on
    rng = np.random.default_rng(349)
    for trial in range(6):
        cache = random_cache(4, 1, rng, tie_rich=bool(trial % 2))
        ranked = exhaustive_sorted_general(cache, 1)
        got = [sol.assignment for sol in top_r_general(cache, 1, len(ranked))]
        assert got == [a for a, _ in ranked]
        for l in range(1, len(got)):
            found = any(got[l] in branch_step(cache, 1, seed) for seed in got[:l])
            assert found, f"rank {l} unreachable from better solutions"


def test_top_r_connected_matches_exhaustive_first_ranks():
    rng = np.random.default_rng(353)
    for trial in range(30):
        cache = random_cache(4, 2, rng, tie_rich=bool(trial % 2))
        ranked = exhaustive_connected(cache, 2)
        got = top_r_connected(cache, 2, 10)
        assert len(got) == min(10, len(ranked))
        for rank, sol in enumerate(got):
            want_assignment, want_score = ranked[rank]
            assert sol.score == want_score
            assert sol.assignment == want_assignment


def test_top_r_connected_full_prefix_various_sizes():
    rng = np.random.default_rng(359)
    for m, K in [(3, 1), (4, 1)]:
        space = comb(m - 1, K) ** m
        for trial in range(10):
            cache = random_cache(m, K, rng, tie_rich=bool(trial % 2))
            ranked = exhaustive_connected(cache, K)
            got = top_r_connected(cache, K, space)
            assert len(got) == min(space, len(ranked))
            for rank, sol in enumerate(got):
                want_assignment, want_score = ranked[rank]
                assert sol.score == want_score
                assert sol.assignment == want_assignment


def test_top_r_connected_solutions_are_class_members():
    rng = np.random.default_rng(367)
    cache = random_cache(5, 2, rng)
    got = top_r_connected(cache, 2, 12)
    keys = set()
    for sol in got:
        a = sol.assignment
        root = a.root()
        assert root is not None
        assert a.members_of(root) == ()
        assert spans(a, root)
        for i in range(1, 6):
            if i != root:
                assert len(a.members_of(i)) == 2
        keys.add(a.canonical_key())
    assert len(keys) == len(got)
    scores = [sol.score for sol in got]
    assert scores == sorted(scores, reverse=True)


def test_top_r_connected_rank_one_is_the_constrained_optimum():
    rng = np.random.default_rng(373)
    for trial in range(10):
        cache = random_cache(4, 2, rng, tie_rich=bool(trial % 2))
        got = top_r_connected(cache, 2, 1)
        best = optimal_connected(cache, 2)
        assert got[0].score == pytest.approx(best.score, abs=1e-12)


def test_top_r_connected_rooted_variant_matches_rooted_oracle():
    rng = np.random.default_rng(379)
    for trial in range(15):
        cache = random_cache(4, 2, rng, tie_rich=bool(trial % 2))
        ranked = exhaustive_connected(cache, 2, root_has_parents=True)
        got = top_r_connected(cache, 2, 10, root_has_parents=True)
        assert len(got) == min(10, len(ranked))
        for rank, sol in enumerate(got):
            want_assignment, want_score = ranked[rank]
            assert sol.score == want_score
            assert sol.assignment == want_assignment
        # both maximize jointly over root and tree
        rooted = optimal_connected(cache, 2, root_has_parents=True)
        assert got[0].score == rooted.score


def test_rooted_optimum_counts_the_root_value_when_choosing_the_tree():
    # keeping the best tree and only then giving its root the best set
    # falls 0.0579 nats short of the class optimum on this network
    network = generate_ar_network(16, np.random.default_rng([13, 10]))
    cache = build_cache(DIEvaluator.from_model(network), 16, 2)
    rooted = optimal_connected(cache, 2, root_has_parents=True)
    best = top_r_connected(cache, 2, 1, root_has_parents=True)[0]
    assert rooted.score == best.score
    assert rooted.assignment == best.assignment


@pytest.mark.parametrize("root_has_parents", [False, True])
def test_top_r_connected_matches_per_point_reference(root_has_parents):
    rng = np.random.default_rng(439)
    for trial in range(3):
        cache = random_cache(5, 2, rng, tie_rich=True)
        got = top_r_connected(cache, 2, 100, root_has_parents=root_has_parents)
        want = per_point_top_r_connected(cache, 2, 100, root_has_parents)
        assert len(got) == 100
        assert [(sol.assignment, sol.score) for sol in got] == want


def _all_zero_cache(m, K):
    cache = DirectedInfoCache(m, K)
    for i in range(1, m + 1):
        for members in combinations([j for j in range(1, m + 1) if j != i], K):
            cache.put(i, members, 0.0)
    return cache


TIED_CACHES = {
    "all-zero m=8": lambda: (_all_zero_cache(8, 2), 5),
    "all-zero m=16": lambda: (_all_zero_cache(16, 2), 5),
    "tie-rich m=16": lambda: (
        random_cache(16, 2, np.random.default_rng(433), tie_rich=True),
        20,
    ),
}


@pytest.mark.parametrize("root_has_parents", [False, True])
@pytest.mark.parametrize("case", TIED_CACHES)
def test_top_r_connected_emits_tied_caches_without_draining_a_plateau(
    case, root_has_parents
):
    # every point of these lattices ties with many others; a ranking that
    # waited for a whole score plateau would walk most of the lattice
    cache, r = TIED_CACHES[case]()
    got = top_r_connected(cache, 2, r, root_has_parents=root_has_parents)
    assert len(got) == r
    keys = [(-sol.score, sol.assignment.canonical_key()) for sol in got]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    for sol in got:
        a = sol.assignment
        root = None if root_has_parents else a.root()
        assert spans(a, root)
        assert sol.score == fsum(
            cache.get(i, a.members_of(i)) if a.members_of(i) else 0.0
            for i in range(1, cache.m + 1)
        )


def _runs(rows):
    """(score, structure keys) per run of equal score, in emission order."""
    runs = []
    for assignment, score in rows:
        if runs and runs[-1][0] == score:
            runs[-1][1].add(assignment.canonical_key())
        else:
            runs.append((score, {assignment.canonical_key()}))
    return runs


def _assert_same_up_to_order_within_ties(got, want):
    rows = [(sol.assignment, sol.score) for sol in got]
    assert [score for _, score in rows] == [score for _, score in want]
    assert _runs(rows) == _runs(want)


def test_top_r_general_orders_a_tie_made_by_rounding_in_walk_order():
    # node 1's two values differ by one ulp, which node 2's 1e6 rounds
    # away: the two best points tie only after rounding, and the walk pops
    # index 2 (node 1's first candidate) before index 1
    cache = DirectedInfoCache(3, 1)
    for target, members, value in [
        (1, (2,), nextafter(0.3, 0.0)),
        (1, (3,), 0.3),
        (2, (1,), 1e6),
        (2, (3,), 1.0),
        (3, (1,), 2.0),
        (3, (2,), 1.5),
    ]:
        cache.put(target, members, value)
    got = top_r_general(cache, 1, 8)
    assert got[0].score == got[1].score
    assert [approximation_index(sol.assignment) for sol in got[:2]] == [2, 1]
    _assert_same_up_to_order_within_ties(got, exhaustive_sorted_general(cache, 1))


def test_top_r_connected_orders_a_tie_made_by_rounding_in_walk_order():
    # node 2's sets (x, 16) differ only by rounding noise here, so one run
    # of equal scores may come in the walk's order, not canonical key order
    network = generate_ar_network(16, np.random.default_rng([7, 8, 10]))
    cache = build_cache(DIEvaluator.from_model(network), 16, 2)
    got = top_r_connected(cache, 2, 100, root_has_parents=True)
    want = per_point_top_r_connected(cache, 2, 100, root_has_parents=True)
    assert len(got) == 100
    _assert_same_up_to_order_within_ties(got, want)


def test_top_r_connected_validation():
    rng = np.random.default_rng(383)
    cache = random_cache(3, 1, rng)
    with pytest.raises(ValidationError):
        top_r_connected(cache, 1, 0)
    with pytest.raises(ValidationError):
        top_r_connected(cache, 1, 13)  # 3 roots times 2^2 choices
    with pytest.raises(ValidationError):
        top_r_connected(cache, 0, 1)
    with pytest.raises(ValidationError):
        top_r_connected(cache, 3, 1)


def _with_smaller_sets(cache, L, rng, tie_rich=False):
    """``cache`` plus random values for every set smaller than L."""
    for k in range(1, L):
        for target, members, value in random_cache(cache.m, k, rng, tie_rich).items():
            cache.put(target, members, value)
    return cache


def test_r_range_covers_the_empty_root_class():
    # one of m roots keeps the empty set, so the class can outgrow
    # C(m-1, K)**m = 81: here it has 104 members
    cache = random_cache(4, 2, np.random.default_rng(5))
    ranked = exhaustive_connected(cache, 2)
    assert len(ranked) == 104
    got = top_r_connected(cache, 2, 104)
    assert [(sol.assignment, sol.score) for sol in got] == ranked
    with pytest.raises(ValidationError, match=r"out of range 1\.\.108"):
        top_r_connected(cache, 2, 109)
    # the rooted class gives every node K parents, so C(m-1, K)**m holds
    with pytest.raises(ValidationError, match=r"out of range 1\.\.81"):
        top_r_connected(cache, 2, 82, root_has_parents=True)
    ev = evaluator_from_cache(_with_smaller_sets(cache, 2, np.random.default_rng(6)), 2)
    assert len(top_r_greedy(ev, 2, 108, connected=True)) == 104
    with pytest.raises(ValidationError, match=r"out of range 1\.\.81"):
        top_r_greedy(ev, 2, 82, connected=True, root_has_parents=True)


def test_top_r_connected_deterministic():
    rng = np.random.default_rng(389)
    cache = random_cache(4, 2, rng, tie_rich=True)
    a = top_r_connected(cache, 2, 8)
    b = top_r_connected(cache, 2, 8)
    assert [s.assignment for s in a] == [s.assignment for s in b]
    assert [s.score for s in a] == [s.score for s in b]


def test_top_r_greedy_rank_one_matches_single_searches():
    rng = np.random.default_rng(397)
    for trial in range(10):
        m = int(rng.integers(3, 6))
        L = int(rng.integers(1, min(3, m - 1)))
        cache = random_cache(m, L, rng)
        for k in range(1, L):
            for target, members, value in random_cache(m, k, rng).items():
                cache.put(target, members, value)
        ev = evaluator_from_cache(cache, L)
        got = top_r_greedy(ev, L, 1)
        ref = greedy_general(ev, L)
        assert got[0].assignment == ref.assignment
        assert got[0].score == pytest.approx(ref.score, abs=1e-10)

        ev2 = evaluator_from_cache(cache, L)
        got_c = top_r_greedy(ev2, L, 1, connected=True)
        ref_c = greedy_connected(ev2, L)
        assert got_c[0].assignment == ref_c.assignment
        assert got_c[0].score == pytest.approx(ref_c.score, abs=1e-10)


@pytest.mark.parametrize("root_has_parents", [False, True])
def test_top_r_greedy_rank_one_is_greedy_connected_under_exact_ties(root_has_parents):
    # nodes 4 and 6 have fewer true parents than L=2, so every set adding
    # any second process to the true parent has the same exact value; the
    # two searches must still break those ties identically
    model = generate_ar_network(6, np.random.default_rng([27, 6]))
    assert [len(model.true_parent_set(i)) for i in (4, 6)] == [1, 1]
    ev = DIEvaluator.from_model(model)
    ranked = top_r_greedy(ev, 2, 3, connected=True, root_has_parents=root_has_parents)
    single = greedy_connected(ev, 2, root_has_parents=root_has_parents)
    assert ranked[0].assignment == single.assignment
    assert ranked[0].score == single.score
    # the score is the evaluator's value of the chosen sets
    parents = [single.assignment.members_of(i) for i in range(1, 7)]
    assert single.score == fsum(ev.set_value(i, ms) for i, ms in enumerate(parents, 1) if ms)


@pytest.mark.parametrize("L", [1, 2, 3])
def test_top_r_greedy_enumerates_the_whole_space(L):
    rng = np.random.default_rng([401, L])
    cache = _with_smaller_sets(random_cache(5, L, rng), L, rng)
    ev = evaluator_from_cache(cache, L)
    space = comb(4, L) ** 5
    got = top_r_greedy(ev, L, space)
    keys = [sol.assignment.canonical_key() for sol in got]
    assert len(keys) == len(set(keys)) == space
    assert set(keys) == set(all_assignments(5, L))
    assert got[0].assignment == greedy_general(ev, L).assignment
    if L == 1:
        # at L=1 the first solution is the exact optimum
        assert got[0].score == pytest.approx(optimal_general(cache, 1).score, abs=1e-12)


def test_top_r_greedy_expands_each_depth_first_state_once(monkeypatch):
    m = 10
    model = generate_ar_network(m, np.random.default_rng([7, 0, 11]))
    ev = DIEvaluator.from_model(model)
    expanded = []
    leaves = 0
    lists = []
    sets = approximation._greedy_sets
    greedy = approximation._Candidates.greedy

    # the generator recurses through the module name, so every depth-first
    # state, a (target, prefix) pair, passes through the wrapper
    def counting_sets(evaluator, target, pool, prefix, length):
        nonlocal leaves
        expanded.append((target, prefix))
        leaves += length == 0
        yield from sets(evaluator, target, pool, prefix, length)

    def keeping_lists(cls, *args):
        made = greedy(*args)
        lists.extend(made)
        return made

    monkeypatch.setattr(approximation, "_greedy_sets", counting_sets)
    monkeypatch.setattr(approximation._Candidates, "greedy", classmethod(keeping_lists))
    assert len(top_r_greedy(ev, 2, 50)) == 50
    assert len({target for target, _ in expanded}) > 1
    assert len(set(expanded)) == len(expanded)
    # every finished set is a list entry: a generator's first is the
    # greedy set at position 0, and no set is built past what is read
    assert leaves <= sum(len(lst.members) for lst in lists)


def test_zero_degree_ranking_needs_no_cache_entries():
    # the empty set is worth 0.0 without a lookup, as in optimal_general
    cache = DirectedInfoCache(4, 0)
    got = top_r_general(cache, 0, 1)
    best = optimal_general(cache, 0)
    assert len(got) == 1
    assert got[0].assignment == best.assignment
    assert got[0].score == best.score == 0.0
    with pytest.raises(ValidationError, match="r 2 out of range 1..1"):
        top_r_general(cache, 0, 2)


def test_top_r_greedy_general_properties():
    rng = np.random.default_rng(409)
    cache = random_cache(4, 2, rng)
    for target, members, value in random_cache(4, 1, rng).items():
        cache.put(target, members, value)
    ev = evaluator_from_cache(cache, 2)
    got = top_r_greedy(ev, 2, 10)
    assert got[0].assignment == greedy_general(ev, 2).assignment
    keys = {s.assignment.canonical_key() for s in got}
    assert len(keys) == len(got)
    for s in got:
        assert s.assignment.uniform_degree() == 2
        total = sum(ev.set_value(i, s.assignment.members_of(i)) for i in range(1, 5))
        assert s.score == pytest.approx(total, abs=1e-9)
    # pool order is not a certified global ranking; scores may jump


def test_top_r_greedy_connected_properties():
    rng = np.random.default_rng(419)
    cache = random_cache(4, 2, rng)
    for target, members, value in random_cache(4, 1, rng).items():
        cache.put(target, members, value)
    ev = evaluator_from_cache(cache, 2)
    got = top_r_greedy(ev, 2, 6, connected=True)
    keys = set()
    for s in got:
        root = s.assignment.root()
        assert root is not None
        assert spans(s.assignment, root)
        for i in range(1, 5):
            if i != root:
                assert len(s.assignment.members_of(i)) == 2
        keys.add(s.assignment.canonical_key())
    assert len(keys) == len(got)


def test_top_r_greedy_rooted_connected_variant():
    rng = np.random.default_rng(421)
    cache = random_cache(4, 2, rng)
    for target, members, value in random_cache(4, 1, rng).items():
        cache.put(target, members, value)
    ev = evaluator_from_cache(cache, 2)
    got = top_r_greedy(ev, 2, 4, connected=True, root_has_parents=True)
    for s in got:
        assert s.assignment.uniform_degree() == 2
        assert spans(s.assignment)


@pytest.mark.parametrize("tie_rich", [False, True])
@pytest.mark.parametrize("m, L", [(4, 1), (4, 2), (4, 3), (5, 1), (5, 2), (5, 3)])
def test_top_r_greedy_connected_enumerates_the_whole_class(m, L, tie_rich):
    rng = np.random.default_rng([443, m, L, tie_rich])
    cache = _with_smaller_sets(random_cache(m, L, rng, tie_rich), L, rng, tie_rich)
    ev = evaluator_from_cache(cache, L)
    got = top_r_greedy(ev, L, m * comb(m - 1, L) ** (m - 1), connected=True)
    keys = [sol.assignment.canonical_key() for sol in got]
    want = {a.canonical_key() for a in connected_class_members(m, L, False)}
    assert len(keys) == len(set(keys)) == len(want)
    assert set(keys) == want
    single = greedy_connected(ev, L)
    assert got[0].assignment == single.assignment
    assert got[0].score == single.score
    for sol, key in zip(got, keys):
        assert sol.score == fsum(ev.set_value(i, ms) for i, ms in enumerate(key, 1) if ms)


def test_top_r_greedy_rooted_connected_reaches_every_tree_around_greedy_roots():
    # the root keeps its greedy set and the other nodes range over the
    # class, so the emitted set is every structure containing a spanning
    # tree from some root r whose set is r's greedy set
    for seed in range(4):
        rng = np.random.default_rng([seed, 4, 2])
        cache = _with_smaller_sets(random_cache(4, 2, rng), 2, rng)
        ev = evaluator_from_cache(cache, 2)
        greedy = greedy_general(ev, 2).assignment
        want = {
            a.canonical_key()
            for a in connected_class_members(4, 2, True)
            if any(
                a.members_of(rt) == greedy.members_of(rt)
                and spans(a, rt)
                for rt in range(1, 5)
            )
        }
        got = top_r_greedy(ev, 2, 81, connected=True, root_has_parents=True)
        keys = [sol.assignment.canonical_key() for sol in got]
        assert len(keys) == len(set(keys))
        assert set(keys) == want
        assert got[0].assignment == greedy_connected(ev, 2, root_has_parents=True).assignment


def test_top_r_greedy_validation():
    rng = np.random.default_rng(431)
    cache = random_cache(3, 1, rng)
    ev = evaluator_from_cache(cache, 1)
    with pytest.raises(ValidationError):
        top_r_greedy(ev, 0, 1)
    with pytest.raises(ValidationError):
        top_r_greedy(ev, 3, 1)
    with pytest.raises(ValidationError):
        top_r_greedy(ev, 1, 0)
    with pytest.raises(ValidationError):
        top_r_greedy(ev, 1, 9)


def test_an_r_above_the_ranking_cap_is_refused_before_any_work():
    # m=16, K=2 classes hold far more than MAX_RANKED structures; the
    # cache stays empty and the evaluator is never asked, so a ranking
    # that read either before checking r would fail differently
    cache = DirectedInfoCache(16, 2)
    ev = DIEvaluator(lambda *query: pytest.fail(f"queried {query}"), 16)
    assert comb(15, 2) ** 16 > MAX_RANKED
    r = MAX_RANKED + 1
    for rank in (
        lambda: top_r_general(cache, 2, r),
        lambda: top_r_connected(cache, 2, r),
        lambda: top_r_connected(cache, 2, r, root_has_parents=True),
        lambda: top_r_greedy(ev, 2, r),
        lambda: top_r_greedy(ev, 2, r, connected=True),
        lambda: top_r_greedy(ev, 2, r, connected=True, root_has_parents=True),
    ):
        with pytest.raises(ValidationError) as info:
            rank()
        assert str(info.value) == f"r {r} out of range 1..{MAX_RANKED}"
    with pytest.raises(ValidationError, match=f"r {r} out of range 0..{MAX_RANKED}"):
        ExperimentConfig(16, 2, r=r)
    assert len(cache) == 0 and ev.calls == 0


def test_the_lazy_greedy_search_solves_fewer_subproblems(monkeypatch):
    # the greedy model of the exact-rank benchmark at seed 7, instance 0
    model = generate_ar_network(10, np.random.default_rng([7, 0, 11]))
    solve = topr._entry_tree
    solves = 0

    def counting_solve(*args):
        nonlocal solves
        solves += 1
        return solve(*args)

    monkeypatch.setattr(topr, "_entry_tree", counting_solve)
    lazy_ev, eager_ev = DIEvaluator.from_model(model), DIEvaluator.from_model(model)
    lazy = top_r_greedy(lazy_ev, 2, 10, connected=True)
    lazy_solves, solves = solves, 0
    eager = eager_greedy_connected(eager_ev, 2, 10)
    assert lazy_solves <= 20 and solves == 51
    assert [(sol.score.hex(), sol.assignment) for sol in lazy] == [
        (sol.score.hex(), sol.assignment) for sol in eager
    ]
    assert lazy_ev.calls == eager_ev.calls
