import numpy as np
import pytest

from dinet.arborescence import (
    Arborescence,
    EdgeWeights,
    max_weight_arborescence,
)
from dinet.errors import InfeasibleArborescenceError, ValidationError

from _oracles import brute_force_arborescence


def check_tree(result: Arborescence, weights: EdgeWeights, root: int | None):
    """Structural sanity: spanning, acyclic, allowed edges, consistent total."""
    nodes = list(weights.nodes)
    if root is not None:
        assert result.root == root
    assert result.root in nodes
    assert set(result.parent) == set(nodes) - {result.root}
    total = 0.0
    for child, parent in result.parent.items():
        assert weights.is_allowed(parent, child)
        total += weights.weight(parent, child)
        # walking up must terminate at the root
        seen = {child}
        node = child
        while node != result.root:
            node = result.parent[node]
            assert node not in seen
            seen.add(node)
    assert result.total_weight == pytest.approx(total, abs=1e-9)


def test_edge_weights_validation():
    with pytest.raises(ValidationError):
        EdgeWeights(np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        EdgeWeights(np.zeros((2, 2)), allowed=np.ones((3, 3), dtype=bool))
    bad = np.zeros((2, 2))
    bad[0, 1] = np.inf
    with pytest.raises(ValidationError):
        EdgeWeights(bad)
    # non-finite entries under a False mask are harmless
    mask = np.zeros((2, 2), dtype=bool)
    mask[1, 0] = True
    ew = EdgeWeights(bad, allowed=mask)
    assert not ew.is_allowed(1, 2)
    assert ew.is_allowed(2, 1)


def test_edge_weights_accessors():
    w = np.array([[0.0, 2.0], [3.0, 0.0]])
    ew = EdgeWeights(w)
    assert ew.m == 2
    assert list(ew.nodes) == [1, 2]
    assert ew.weight(1, 2) == 2.0
    assert not ew.is_allowed(1, 1)  # diagonal always forbidden
    assert ew.arcs() == [(1, 2, 2.0), (2, 1, 3.0)]
    with pytest.raises(ValidationError):
        ew.weight(0, 1)


def test_solver_matches_brute_force_dense():
    rng = np.random.default_rng(101)
    for trial in range(200):
        m = int(rng.integers(2, 7))
        w = rng.standard_normal((m, m))
        ew = EdgeWeights(w)
        allowed = ~np.eye(m, dtype=bool)

        free = max_weight_arborescence(ew)
        oracle_free = brute_force_arborescence(w, allowed, None)
        assert oracle_free is not None
        assert free.total_weight == pytest.approx(oracle_free[0], abs=1e-9)
        check_tree(free, ew, None)

        root = int(rng.integers(1, m + 1))
        fixed = max_weight_arborescence(ew, root)
        oracle_fixed = brute_force_arborescence(w, allowed, root)
        assert oracle_fixed is not None
        assert fixed.total_weight == pytest.approx(oracle_fixed[0], abs=1e-9)
        check_tree(fixed, ew, root)


def test_solver_matches_brute_force_sparse_masks():
    rng = np.random.default_rng(103)
    infeasible_seen = 0
    for trial in range(200):
        m = int(rng.integers(2, 6))
        w = rng.standard_normal((m, m))
        allowed = rng.random((m, m)) < 0.5
        np.fill_diagonal(allowed, False)
        ew = EdgeWeights(w, allowed=allowed)
        root = int(rng.integers(1, m + 1))
        oracle = brute_force_arborescence(w, allowed, root)
        if oracle is None:
            infeasible_seen += 1
            with pytest.raises(InfeasibleArborescenceError):
                max_weight_arborescence(ew, root)
        else:
            got = max_weight_arborescence(ew, root)
            assert got.total_weight == pytest.approx(oracle[0], abs=1e-9)
            check_tree(got, ew, root)
    assert infeasible_seen > 10  # the mask density actually exercises both paths


def test_free_root_beats_every_fixed_root():
    rng = np.random.default_rng(107)
    for _ in range(50):
        m = int(rng.integers(2, 6))
        ew = EdgeWeights(rng.standard_normal((m, m)))
        free = max_weight_arborescence(ew)
        totals = [max_weight_arborescence(ew, r).total_weight for r in ew.nodes]
        assert free.total_weight == pytest.approx(max(totals), abs=1e-9)
        # ties go to the smallest root index
        candidates = [
            r for r, t in zip(ew.nodes, totals)
            if t >= free.total_weight - 1e-12
        ]
        assert free.root == min(candidates)


def test_tie_handling_is_deterministic():
    rng = np.random.default_rng(109)
    for _ in range(60):
        m = int(rng.integers(2, 6))
        w = rng.integers(0, 3, size=(m, m)).astype(float)  # heavy ties
        ew = EdgeWeights(w)
        a = max_weight_arborescence(ew)
        b = max_weight_arborescence(ew)
        assert a.parent == b.parent and a.root == b.root
        oracle = brute_force_arborescence(w, ~np.eye(m, dtype=bool), None)
        assert a.total_weight == pytest.approx(oracle[0], abs=1e-9)


def test_all_equal_weights_prefers_smallest_keys():
    ew = EdgeWeights(np.ones((4, 4)))
    got = max_weight_arborescence(ew)
    assert got.root == 1
    # every non-root hangs off the smallest available source
    assert got.parent == {2: 1, 3: 1, 4: 1}
    assert got.total_weight == 3.0


def test_single_node_graph():
    ew = EdgeWeights(np.zeros((1, 1)))
    got = max_weight_arborescence(ew)
    assert got.root == 1 and got.parent == {} and got.total_weight == 0.0


def test_infeasible_fixed_root_raises():
    # node 1 has the only out-edges; rooting anywhere else is impossible
    w = np.zeros((3, 3))
    allowed = np.zeros((3, 3), dtype=bool)
    allowed[0, 1] = allowed[0, 2] = True
    ew = EdgeWeights(w, allowed=allowed)
    assert max_weight_arborescence(ew, 1).parent == {2: 1, 3: 1}
    with pytest.raises(InfeasibleArborescenceError):
        max_weight_arborescence(ew, 2)
    with pytest.raises(ValidationError):
        max_weight_arborescence(ew, 4)


def test_root_weights_pick_the_root_and_are_validated():
    ew = EdgeWeights(np.ones((3, 3)))
    # every tree weighs 2.0, so the root weights alone decide the root
    got = max_weight_arborescence(ew, root_weights=[0.0, 0.5, 0.5])
    assert got.root == 2 and got.total_weight == 2.0
    plain = max_weight_arborescence(ew)
    assert max_weight_arborescence(ew, root_weights=[0.0] * 3) == plain
    with pytest.raises(ValidationError, match="one finite value per node"):
        max_weight_arborescence(ew, root_weights=[0.0, 1.0])
    with pytest.raises(ValidationError, match="one finite value per node"):
        max_weight_arborescence(ew, root_weights=[0.0, np.nan, 1.0])
    with pytest.raises(ValidationError, match="only to a free root"):
        max_weight_arborescence(ew, 1, root_weights=[0.0] * 3)


@pytest.mark.parametrize("node", [True, 1.0, np.int64(1), 0, 4])
def test_node_indices_follow_the_process_index_rule(node):
    ew = EdgeWeights(np.ones((3, 3)))
    for call in (
        lambda: ew.weight(node, 3),
        lambda: ew.weight(2, node),
        lambda: ew.is_allowed(node, 2),
        lambda: ew.is_allowed(3, node),
        lambda: max_weight_arborescence(ew, root=node),
    ):
        with pytest.raises(ValidationError, match="must be an integer|out of range 1..3"):
            call()
