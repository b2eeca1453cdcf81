"""Print one SHA-256 line per deterministic output of the checkout.

Run from a checkout root:

    python3 tools/output_digests.py

The outputs are the ``run_pass`` result of every instance of the three
benchmark workloads (``bench/workloads.py``) at seeds 7 and 4049, the
stdout of each demo, the CSVs ``dinet simulate`` writes with each
selection and those of a study whose ``alpha_hat`` chains run at full
depth (see ``simulate_lines``), the stderr of a study whose trials are all excluded (see
``exclusion_lines``), one line per ranking of two seeded sets (see
``ranking_lines``), one line per plug-in cache or greedy search on
seeded finite-alphabet panels (see ``plugin_lines``) and one line per
Gaussian cache on panels with a dependent process (see
``collinear_lines``), and one line per optimal search over the exact
ranking set's caches and over seeded tie-rich caches (see
``optimal_lines``); a Gaussian cache that raises ``DinetError`` is
digested as its message, so the script also runs on a checkout that
refuses such panels.  Two checkouts whose lines agree give those
outputs bit for bit, so ``diff`` of two runs shows whether a change
kept its outputs.
Everything is written to temporary directories, removed on exit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd().resolve()
SRC, BENCH = ROOT / "src", ROOT / "bench"
sys.path[:0] = [str(SRC), str(BENCH)]

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from dinet import (  # noqa: E402
    DIEvaluator,
    DinetError,
    DirectedInfoCache,
    EstimatorConfig,
    TimeSeriesPanel,
    build_cache,
    cli,
    estimation,
    generate_ar_network,
    greedy_connected,
    greedy_general,
    optimal_connected,
    optimal_general,
    simulate_panel,
    top_r_connected,
    top_r_general,
    top_r_greedy,
)

SEEDS = (7, 4049)
RANKING_SEEDS = (7, 4049, 11)
PLUGIN_M, PLUGIN_N = 8, 2000
SIMULATE = ["simulate", "--m", "5", "--K", "2", "--trials", "4", "--n", "300",
            "--r", "3", "--seed", "11"]
# K + L - 1 = 3 = m - 1: the alpha_hat chains reach every other process, so
# this study's CSVs do not depend on where the chains are cut
SIMULATE_FULL_DEPTH = ["simulate", "--m", "4", "--K", "2", "--trials", "4", "--n", "300",
                       "--r", "3", "--seed", "11"]
EXCLUDED = ["simulate", "--m", "3", "--K", "1", "--n", "2", "--trials", "8", "--seed", "0",
            "--edge-probability", "0.2"]
# equal values, signed zeros and values that differ below rounding
TIE_VALUES = (0.0, -0.0, 0.25, 0.5, 1e-17, 2e-17)


def sha(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def bench_lines(tmp: str) -> list[str]:
    lines = []
    for name, workload in workloads.WORKLOADS.items():
        for seed in SEEDS:
            instances = workload.setup(seed, os.path.join(tmp, f"{name}-{seed}"))
            for k, inputs in enumerate(instances):
                ops = workloads.Ops(workload.ops_per_pass)
                outputs = workloads.run_guarded(workload.run_pass, inputs, ops)
                text = json.dumps([outputs, ops.failures], sort_keys=True)
                lines.append(f"{sha(text)}  bench {name} seed {seed} instance {k}")
    return lines


def demo_lines(tmp: str) -> list[str]:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    ), "TMPDIR": tmp}
    lines = []
    for demo in sorted((ROOT / "demos").glob("*.py")):
        proc = subprocess.run(
            [sys.executable, str(demo)], capture_output=True, cwd=tmp, env=env, check=True
        )
        lines.append(f"{sha(proc.stdout)}  demo {demo.stem}")
    return lines


def simulate_lines(tmp: str) -> list[str]:
    """The CSVs of ``SIMULATE`` with each selection, and of
    ``SIMULATE_FULL_DEPTH`` with estimated selection; each file name
    holds its study's m and K."""
    lines = []
    for argv, selection in ((SIMULATE, "estimated"), (SIMULATE, "exact"),
                            (SIMULATE_FULL_DEPTH, "estimated")):
        out = os.path.join(tmp, f"{selection}-{argv[2]}")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--selection", selection, "--out", out])
        if code != 0:
            sys.exit(f"dinet simulate --selection {selection} exited with code {code}")
        for path in sorted(Path(out).iterdir()):
            lines.append(f"{sha(path.read_bytes())}  simulate {selection} {path.name}")
    return lines


def exclusion_lines(tmp: str) -> list[str]:
    """The stderr of ``dinet simulate`` on ``EXCLUDED``: one warning per trial.

    Six trials have too few samples and two a zero true score, so the
    line pins the warnings' words and their trial order.
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    out = os.path.join(tmp, "excluded")
    proc = subprocess.run(
        [sys.executable, "-m", "dinet.cli", *EXCLUDED, "--out", out],
        capture_output=True, cwd=tmp, env=env, check=True,
    )
    return [f"{sha(proc.stderr)}  simulate excluded stderr"]


def exact_caches() -> dict[tuple[int, int], DirectedInfoCache]:
    """The exact set: per seed s of ``RANKING_SEEDS`` and k < 40, ``build_cache``
    at K=2 of ``generate_ar_network(16, default_rng([s, k, 10]))``."""
    return {
        (seed, k): build_cache(DIEvaluator.from_model(
            generate_ar_network(16, np.random.default_rng([seed, k, 10]))
        ), 16, 2)
        for seed in RANKING_SEEDS for k in range(40)
    }


def ranking_lines(caches: dict[tuple[int, int], DirectedInfoCache]) -> list[str]:
    """One line per ranking, over the scores' bits and the structures' keys.

    The exact set (``exact_caches``) is ranked at K=2 by
    ``top_r_general`` (r=500) and ``top_r_connected`` (r=100) in both
    root modes.  The greedy set ranks
    ``generate_ar_network(10, default_rng([s, k, 11]))`` at L=2 for k < 12
    with ``top_r_greedy`` (r=50), connected in both root modes and general,
    and for k < 3 with a deep general ``top_r_greedy`` (r=2000), whose walk
    pops enough points to tell one walk order from another.
    """
    def line(name: str, seed: int, k: int, ranked) -> str:
        rows = [[sol.score.hex(), sol.assignment.canonical_key()] for sol in ranked]
        return f"{sha(json.dumps(rows))}  rank {name} seed {seed} k {k}"

    lines = []
    for seed in RANKING_SEEDS:
        for k in range(40):
            cache = caches[(seed, k)]
            lines += [
                line("top_r_general", seed, k, top_r_general(cache, 2, 500)),
                line("top_r_connected", seed, k, top_r_connected(cache, 2, 100)),
                line("top_r_connected_root_parents", seed, k,
                     top_r_connected(cache, 2, 100, root_has_parents=True)),
            ]
        for k in range(12):
            network = generate_ar_network(10, np.random.default_rng([seed, k, 11]))
            for name, connected, root_has_parents in (
                ("top_r_greedy_connected", True, False),
                ("top_r_greedy_connected_root_parents", True, True),
                ("top_r_greedy", False, False),
            ):
                ranked = top_r_greedy(DIEvaluator.from_model(network), 2, 50,
                                      connected=connected, root_has_parents=root_has_parents)
                lines.append(line(name, seed, k, ranked))
            if k < 3:
                ranked = top_r_greedy(DIEvaluator.from_model(network), 2, 2000)
                lines.append(line("top_r_greedy_deep", seed, k, ranked))
    return lines


def tie_rich_cache(k: int) -> DirectedInfoCache:
    """Every size-K value drawn from ``TIE_VALUES`` by ``default_rng([k, 12])``,
    at m = 3 + k % 6 and K = 1 + (k // 6) % (m - 1)."""
    m = 3 + k % 6
    K = 1 + (k // 6) % (m - 1)
    rng = np.random.default_rng([k, 12])
    cache = DirectedInfoCache(m, K)
    for target in range(1, m + 1):
        others = [j for j in range(1, m + 1) if j != target]
        for members in itertools.combinations(others, K):
            cache.put(target, members, TIE_VALUES[rng.integers(len(TIE_VALUES))])
    return cache


def optimal_lines(caches: dict[tuple[int, int], DirectedInfoCache]) -> list[str]:
    """One line per optimal search over each cache of the exact set and of
    ``tie_rich_cache(k)`` for k < 40: ``optimal_general`` and
    ``optimal_connected`` in both root modes, at the cache's K.

    A line covers the score's hex and the structure's key, and for a
    connected search the root, the tree and every arc weight's hex.
    """
    labelled = [(f"seed {seed} k {k}", cache) for (seed, k), cache in caches.items()]
    labelled += [(f"tie-rich k {k}", tie_rich_cache(k)) for k in range(40)]
    lines = []
    for label, cache in labelled:
        for name, result in (
            ("optimal_general", optimal_general(cache, cache.K)),
            ("optimal_connected", optimal_connected(cache, cache.K)),
            ("optimal_connected_root_parents",
             optimal_connected(cache, cache.K, root_has_parents=True)),
        ):
            fields = [result.score.hex(), result.assignment.canonical_key()]
            if name != "optimal_general":
                fields += [result.root, result.tree,
                           [(a, b, w.hex()) for a, b, w in result.weights.arcs()]]
            lines.append(f"{sha(json.dumps(fields))}  optimal {name} {label}")
    return lines


def plugin_panel(alphabet: int) -> TimeSeriesPanel:
    """An ``m=8, n=2000`` panel: each process copies its predecessor's last symbol.

    A copy happens with probability 0.6, and a fresh uniform symbol is
    drawn otherwise.
    """
    rng = np.random.default_rng([alphabet, 12])
    data = rng.integers(0, alphabet, size=(PLUGIN_M, PLUGIN_N))
    for i in range(1, PLUGIN_M):
        copy = rng.random(PLUGIN_N - 1) < 0.6
        data[i, 1:] = np.where(copy, data[i - 1, :-1], data[i, 1:])
    return TimeSeriesPanel(data, kind="discrete", alphabet_size=alphabet)


def plugin_lines() -> list[str]:
    """One line per plug-in cache's JSON and per plug-in greedy search.

    The caches are ``build_cache`` on ``plugin_panel(alphabet)`` for
    alphabet 2 and 3, Markov order 1 to 3 and K 1 to 3, wherever a set's
    cells fit ``estimation.MAX_CELLS``.  ``greedy_general`` and
    ``greedy_connected`` (L=3, order 2, binary panel) ask for batches
    under conditioning sets.
    """
    # a base checkout from before MAX_CELLS held the same cap in its config
    cap = getattr(estimation, "MAX_CELLS", None) or EstimatorConfig().state_space_cap
    lines = []
    for alphabet in (2, 3):
        panel = plugin_panel(alphabet)
        for order in (1, 2, 3):
            config = EstimatorConfig(markov_order=order, estimator="discrete")
            for K in (1, 2, 3):
                if alphabet ** (order * (K + 1) + 1) > cap:
                    continue
                cache = build_cache(DIEvaluator.from_panel(panel, config), PLUGIN_M, K)
                lines.append(
                    f"{sha(cache.to_json())}  plugin build_cache alphabet {alphabet}"
                    f" order {order} K {K}"
                )
    config = EstimatorConfig(markov_order=2, estimator="discrete")
    for search in (greedy_general, greedy_connected):
        result = search(DIEvaluator.from_panel(plugin_panel(2), config), 3)
        parents = [list(ps.members) for ps in result.assignment.parents]
        text = json.dumps([result.score.hex(), parents, getattr(result, "orders", None),
                           getattr(result, "tree", None)])
        lines.append(f"{sha(text)}  plugin {search.__name__} L 3")
    return lines


def collinear_panels() -> dict[str, TimeSeriesPanel]:
    """``simulate_panel(generate_ar_network(6, default_rng(3)), 500, 1)``
    with process 5 made zero, twice process 2, or process 2 plus 1e-13
    noise."""
    data = simulate_panel(generate_ar_network(6, np.random.default_rng(3)), 500, 1).data
    noise = 1e-13 * np.random.default_rng(5).standard_normal(data.shape[1])
    return {
        name: TimeSeriesPanel(np.vstack([data[:4], row, data[5:]]))
        for name, row in (("zero", np.zeros(data.shape[1])), ("twice", 2.0 * data[1]),
                          ("noisy copy", data[1] + noise))
    }


def collinear_lines() -> list[str]:
    """One line per Gaussian ``build_cache`` (K 1 and 2) on ``collinear_panels``."""
    lines = []
    for name, panel in collinear_panels().items():
        for K in (1, 2):
            try:
                text = build_cache(DIEvaluator.from_panel(panel), 6, K).to_json()
            except DinetError as exc:
                text = str(exc)
            lines.append(f"{sha(text)}  collinear build_cache {name} K {K}")
    return lines


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="dinet_digests_") as tmp:
        for lines in (bench_lines(tmp), demo_lines(tmp), simulate_lines(tmp),
                      exclusion_lines(tmp)):
            print(*lines, sep="\n", flush=True)
    caches = exact_caches()
    print(*ranking_lines(caches), sep="\n", flush=True)
    print(*plugin_lines(), sep="\n", flush=True)
    print(*collinear_lines(), sep="\n", flush=True)
    print(*optimal_lines(caches), sep="\n", flush=True)


if __name__ == "__main__":
    main()
