"""Independent checks on one pass's outputs.

Nothing here calls dinet's estimators or searches.  Values are recomputed
with per-query ``numpy.linalg.lstsq`` on the lagged panel, literal
dictionary counting (``naive_discrete_di`` in ``tests/_oracles.py``),
``scipy.linalg.solve_discrete_lyapunov`` plus Gaussian projection, and
``networkx.maximum_spanning_arborescence``.  Ranked outputs are certified
by closure rather than by full enumeration.  The Monte Carlo check
regenerates each trial's network with ``dinet.generate_ar_network``,
which is the input generator, not the code under test.

``run`` returns a list of problems; an empty list means every check
passed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from itertools import combinations

import networkx as nx
import numpy as np
from scipy.linalg import solve_discrete_lyapunov

from _oracles import naive_discrete_di

LS_SAMPLE = 40
PLUGIN_SAMPLE = 3
EXACT_SAMPLE = 60
# least squares and counting redo the same arithmetic in another order
REL_SAME = 1e-9
# the covariance fixed point stops once an update falls below 1e-12;
# at spectral radius 0.95 the values then agree with scipy to 1e-9
# relative and 2e-12 absolute; the bounds leave a factor near 100
EXACT_REL, EXACT_ABS = 1e-7, 1e-10
# sums of the same values in another order
SCORE_REL = 1e-12
# the rooted optimum carries an offset near 100 through networkx
CONNECTED_REL = 1e-10
# CSV numbers carry 12 significant digits
CSV_REL = 1e-9


def _close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def _sample(keys: list, k: int, seed: list) -> list:
    rng = np.random.default_rng([*seed, 99])
    idx = rng.choice(len(keys), size=min(k, len(keys)), replace=False)
    return [keys[i] for i in sorted(idx)]


def _cache_map(entries) -> dict:
    return {(t, tuple(s)): v for t, s, v in entries}


def _complete(cache: dict, m: int, K: int, what: str, problems: list) -> None:
    expected = {
        (t, s)
        for t in range(1, m + 1)
        for s in combinations([j for j in range(1, m + 1) if j != t], K)
    }
    if set(cache) != expected:
        problems.append(f"{what}: holds {len(cache)} entries, expected {len(expected)}")


# ---------------------------------------------------------------------------
# reference values


def ls_di(x: np.ndarray, target: int, members) -> float:
    """Least squares DI from one lag, by per-query ``lstsq``."""
    y = x[target - 1, 1:]

    def rss(procs) -> float:
        z = x[[p - 1 for p in procs], :-1].T
        beta = np.linalg.lstsq(z, y, rcond=None)[0]
        resid = y - z @ beta
        return float(resid @ resid)

    return max(0.0, 0.5 * math.log(rss([target]) / rss([target, *members])))


class ExactGaussian:
    """DI values of a linear network from scipy's Lyapunov solution."""

    def __init__(self, network: dict) -> None:
        a = np.array(network["coefficients"]).T
        q = np.diag(network["noise_variances"])
        self.sigma = solve_discrete_lyapunov(a, q)
        self.lagged = a @ self.sigma

    def _cond_var(self, target: int, regressors) -> float:
        idx = [r - 1 for r in regressors]
        g = self.sigma[np.ix_(idx, idx)]
        c = self.lagged[target - 1, idx]
        return float(self.sigma[target - 1, target - 1] - c @ np.linalg.solve(g, c))

    def di(self, target: int, members) -> float:
        if not members:
            return 0.0
        full = sorted({target, *members})
        return 0.5 * math.log(self._cond_var(target, [target]) / self._cond_var(target, full))


# ---------------------------------------------------------------------------
# structures


def _reaches_all(parents: list, root: int) -> bool:
    m = len(parents)
    children = {i: [] for i in range(1, m + 1)}
    for child, members in enumerate(parents, start=1):
        for p in members:
            children[p].append(child)
    seen, stack = {root}, [root]
    while stack:
        for v in children[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == m


def _connected_member(parents: list, K: int, root_has_parents: bool) -> bool:
    """Class membership by a search of our own."""
    sizes = [len(ms) for ms in parents]
    if root_has_parents:
        return all(s == K for s in sizes) and any(
            _reaches_all(parents, r) for r in range(1, len(parents) + 1)
        )
    roots = [i for i, s in enumerate(sizes, start=1) if s == 0]
    others_ok = sorted(sizes) == [0] + [K] * (len(parents) - 1)
    return len(roots) == 1 and others_ok and _reaches_all(parents, roots[0])


def _score(cache: dict, parents: list) -> float:
    return sum(cache[(i, tuple(ms))] for i, ms in enumerate(parents, start=1) if ms)


def _check_optimal_general(cache, m, K, result, what, problems) -> float:
    best_sets, best = [], 0.0
    for i in range(1, m + 1):
        cands = sorted((s, v) for (t, s), v in cache.items() if t == i)
        top = max(v for _, v in cands)
        best_sets.append([list(s) for s, v in cands if v == top][0])
        best += top
    if result["parents"] != best_sets:
        problems.append(f"{what}: parent sets differ from the per-node argmax")
    if not _close(result["score"], best, SCORE_REL):
        problems.append(f"{what}: score {result['score']!r} != per-node optimum {best!r}")
    return best


def _check_ranked_general(cache, m, K, ranked, optimum, what, problems) -> None:
    """Exactness of a top-r list by closure.

    With per-node candidates sorted best first, every structure is
    reached from the all-best one by one-coordinate steps that never
    raise the score.  So if the all-best structure and every successor of
    an emitted structure that scores above the r-th score were emitted,
    nothing above the r-th score is missing.
    """
    lists = []
    for i in range(1, m + 1):
        cands = sorted(((s, v) for (t, s), v in cache.items() if t == i), key=lambda sv: (-sv[1], sv[0]))
        lists.append(cands)
    where = [{s: p for p, (s, _) in enumerate(cands)} for cands in lists]

    def score_at(pos) -> float:
        return sum(lists[i][p][1] for i, p in enumerate(pos))

    emitted, scores = [], []
    for score, parents in ranked:
        try:
            pos = tuple(where[i][tuple(ms)] for i, ms in enumerate(parents))
        except KeyError:
            problems.append(f"{what}: emitted a structure outside the class")
            return
        recomputed = score_at(pos)
        if not _close(score, recomputed, SCORE_REL):
            problems.append(f"{what}: score {score!r} != recomputed {recomputed!r}")
        emitted.append(pos)
        scores.append(recomputed)
    if len(set(emitted)) != len(emitted):
        problems.append(f"{what}: emitted duplicate structures")
    if any(b > a * (1 + SCORE_REL) for a, b in zip(scores, scores[1:])):
        problems.append(f"{what}: scores increase along the ranking")
    if not _close(scores[0], optimum, SCORE_REL):
        problems.append(f"{what}: rank 1 score {scores[0]!r} != optimum {optimum!r}")
    floor = scores[-1] * (1 + SCORE_REL)
    members = set(emitted)
    frontier = [tuple(0 for _ in range(m))] + [
        pos[:i] + (pos[i] + 1,) + pos[i + 1:]
        for pos in emitted
        for i in range(m)
        if pos[i] + 1 < len(lists[i])
    ]
    missing = [pos for pos in frontier if pos not in members and score_at(pos) > floor]
    if missing:
        problems.append(f"{what}: {len(missing)} structures above the r-th score are missing")


def _check_ranked_connected(cache, K, ranked, optimum, root_has_parents, what, problems):
    seen = set()
    prev = math.inf
    for rank, (score, parents) in enumerate(ranked, start=1):
        if not _connected_member(parents, K, root_has_parents):
            problems.append(f"{what}: rank {rank} is not in the connected class")
        recomputed = _score(cache, parents)
        if not _close(score, recomputed, SCORE_REL):
            problems.append(f"{what}: rank {rank} score {score!r} != recomputed {recomputed!r}")
        if recomputed > prev * (1 + SCORE_REL):
            problems.append(f"{what}: rank {rank} scores above rank {rank - 1}")
        prev = recomputed
        seen.add(tuple(map(tuple, parents)))
    if len(seen) != len(ranked):
        problems.append(f"{what}: emitted duplicate structures")
    if not ranked or not _close(ranked[0][0], optimum, CONNECTED_REL):
        problems.append(f"{what}: rank 1 does not score the connected optimum {optimum!r}")


def connected_optimum(cache: dict, m: int, root_has_parents: bool) -> float:
    """Best score in the connected class, by networkx.

    Edge j -> i weighs the best cached set of i that contains j.  With
    the root's set empty the optimum is a maximum spanning arborescence.
    With every node keeping K parents the root's best set adds to the
    tree: a dummy node 0 gets one edge to each node r weighing that
    value less a constant larger than any tree, so exactly one dummy
    edge is used.
    """
    graph = nx.DiGraph()
    best_free = dict.fromkeys(range(1, m + 1), -math.inf)
    for (i, members), v in cache.items():
        best_free[i] = max(best_free[i], v)
        for j in members:
            if v > graph.get_edge_data(j, i, {"weight": -math.inf})["weight"]:
                graph.add_edge(j, i, weight=v)
    offset = 0.0
    if root_has_parents:
        offset = 1.0 + sum(max(0.0, v) for v in cache.values())
        for r in range(1, m + 1):
            graph.add_edge(0, r, weight=best_free[r] - offset)
    tree = nx.maximum_spanning_arborescence(graph, attr="weight")
    return sum(d["weight"] for _, _, d in tree.edges(data=True)) + offset


def _check_connected(cache, K, result, root_has_parents, what, problems) -> None:
    if not _connected_member(result["parents"], K, root_has_parents):
        problems.append(f"{what}: structure is not in the connected class")
    if not _close(result["score"], _score(cache, result["parents"]), SCORE_REL):
        problems.append(f"{what}: score does not match its parent sets")


def _check_optimal_connected(cache, m, K, result, what, problems) -> None:
    """A root with no parents: in the class and scoring the networkx optimum."""
    _check_connected(cache, K, result, False, what, problems)
    best = connected_optimum(cache, m, False)
    if not _close(result["score"], best, CONNECTED_REL):
        problems.append(f"{what}: score {result['score']!r} != networkx optimum {best!r}")


def greedy_coefficient(alpha: float, K: int, L: int) -> float:
    if math.isinf(alpha):
        return 0.0
    geometric = float(K) if alpha == 1.0 else (alpha**K - 1.0) / (alpha - 1.0)
    return 1.0 - math.exp(-L / geometric)


# ---------------------------------------------------------------------------
# workloads


# counted plug-in values by (panel digest, target, set, order): instances
# that share a binary panel are checked against one count
_counted: dict = {}


def _panel(inputs: dict, out: dict, problems: list) -> None:
    x = np.array(inputs["panel"], dtype=float)
    m, K, seed = x.shape[0], inputs["K"], inputs["sample_seed"]
    cache = _cache_map(out["cache"])
    _complete(cache, m, K, "least-squares cache", problems)
    for t, s in _sample(sorted(cache), LS_SAMPLE, seed):
        ref = ls_di(x, t, s)
        if not _close(cache[(t, s)], ref, REL_SAME, 1e-15):
            problems.append(f"least-squares value ({t}, {s}): {cache[(t, s)]!r} != lstsq {ref!r}")

    binary = np.array(inputs["binary"], dtype=np.int64)
    plugin = _cache_map(out["plugin_cache"])
    _complete(plugin, binary.shape[0], inputs["plugin_K"], "plug-in cache", problems)
    panel_key = hashlib.sha256(binary.tobytes()).hexdigest()
    for t, s in _sample(sorted(plugin), PLUGIN_SAMPLE, inputs["plugin_sample_seed"]):
        key = (panel_key, t, s, inputs["plugin_order"])
        if key not in _counted:
            _counted[key] = naive_discrete_di(binary, 2, t, s, (), inputs["plugin_order"])
        ref = _counted[key]
        if not _close(plugin[(t, s)], ref, REL_SAME, 1e-15):
            problems.append(f"plug-in value ({t}, {s}): {plugin[(t, s)]!r} != counting {ref!r}")

    optimum = _check_optimal_general(cache, m, K, out["optimal_general"], "optimal_general", problems)
    _check_ranked_general(cache, m, K, out["top_r_general"], optimum, "top_r_general", problems)
    _check_optimal_connected(cache, m, K, out["optimal_connected"], "optimal_connected", problems)
    _check_ranked_connected(
        cache, K, out["top_r_connected"], out["optimal_connected"]["score"], False,
        "top_r_connected", problems,
    )
    greedy = out["greedy_general"]
    if not _close(greedy["score"], _score(cache, greedy["parents"]), REL_SAME):
        problems.append("greedy_general: chain-rule score != cached value of its sets")
    floor = greedy_coefficient(out["witness_alpha"], K, K) * optimum
    if greedy["score"] < floor:
        problems.append(f"greedy guarantee broken: {greedy['score']!r} < {floor!r}")
    _check_connected(cache, K, out["greedy_connected"], False, "greedy_connected", problems)


def _exact_sample(cache: dict, exact: ExactGaussian, seed: list, what: str, problems: list):
    for t, s in _sample(sorted(cache), EXACT_SAMPLE, seed):
        ref = exact.di(t, s)
        if not _close(cache[(t, s)], ref, EXACT_REL, EXACT_ABS):
            problems.append(f"{what} ({t}, {s}): {cache[(t, s)]!r} != Lyapunov {ref!r}")


def _same_greedy(ranked_first, greedy: dict, exact: ExactGaussian) -> bool:
    """Rank 1 of a greedy ranking is the greedy structure, up to ties.

    A node with fewer true parents than L gets the same exact DI from
    every set that adds an irrelevant member, so rounding alone picks
    among them, and the two searches weigh a set by different sums of
    the same values.  Rank 1 may differ from the greedy structure only
    at such nodes, and must score the same.
    """
    score, parents = ranked_first
    if not _close(score, greedy["score"], SCORE_REL):
        return False
    for i, (got, want) in enumerate(zip(parents, greedy["parents"]), start=1):
        if got != want and not _close(exact.di(i, got), exact.di(i, want), EXACT_REL, EXACT_ABS):
            return False
    return len(parents) == len(greedy["parents"])


def _exact(inputs: dict, out: dict, problems: list) -> None:
    K, L, seed = inputs["K"], inputs["L"], inputs["sample_seed"]
    exact = ExactGaussian(inputs["network"])
    cache = _cache_map(out["cache"])
    m = len(out["optimal_general"]["parents"])
    _complete(cache, m, K, "exact cache", problems)
    _exact_sample(cache, exact, seed, "exact value", problems)
    optimum = _check_optimal_general(cache, m, K, out["optimal_general"], "optimal_general", problems)
    _check_ranked_general(cache, m, K, out["top_r_general"], optimum, "top_r_general", problems)
    opt_c = out["optimal_connected"]
    _check_optimal_connected(cache, m, K, opt_c, "optimal_connected", problems)
    _check_ranked_connected(
        cache, K, out["top_r_connected"], opt_c["score"], False, "top_r_connected", problems
    )
    _check_ranked_connected(
        cache, K, out["top_r_connected_root_parents"], connected_optimum(cache, m, True),
        True, "top_r_connected_root_parents", problems,
    )

    greedy_exact = ExactGaussian(inputs["greedy_network"])
    for kind in ("connected", "general"):
        ranked = out[f"top_r_greedy_{kind}"]
        first = out[f"greedy_{kind}"]
        if not _same_greedy(ranked[0], first, greedy_exact):
            problems.append(f"top_r_greedy ({kind}): rank 1 is not greedy_{kind}")
        if len({tuple(map(tuple, p)) for _, p in ranked}) != len(ranked):
            problems.append(f"top_r_greedy ({kind}): emitted duplicate structures")
        for rank, (score, parents) in enumerate(ranked, start=1):
            ref = sum(greedy_exact.di(i, ms) for i, ms in enumerate(parents, start=1))
            if not _close(score, ref, EXACT_REL, EXACT_ABS):
                problems.append(f"top_r_greedy ({kind}) rank {rank}: score {score!r} != exact {ref!r}")
            if kind == "connected" and not _connected_member(parents, L, False):
                problems.append(f"top_r_greedy (connected) rank {rank} is not in the class")

    tree_cache = _cache_map(out["tree_cache"])
    tree_m = len(out["tree"]["parents"])
    _complete(tree_cache, tree_m, 1, "m=40 exact cache", problems)
    _exact_sample(tree_cache, ExactGaussian(inputs["tree_network"]), seed, "m=40 exact value", problems)
    _check_optimal_connected(tree_cache, tree_m, 1, out["tree"], "m=40 optimal_connected", problems)


def _study(inputs: dict, out: dict, problems: list) -> None:
    from dinet.simulate import generate_ar_network

    rows = list(csv.DictReader(io.StringIO(out["trials_csv"])))
    by_trial: dict[int, dict] = {}
    for row in rows:
        by_trial.setdefault(int(row["trial"]), {})[(row["algorithm"], row["class"])] = row
    for trial, algs in sorted(by_trial.items()):
        opt = algs.get(("optimal", "general"))
        top = algs.get(("topr-1", "general"))
        if opt is None or top is None or float(opt["score"]) != float(top["score"]):
            problems.append(f"trial {trial}: topr-1 score != optimal score")
        model_seed, _ = np.random.SeedSequence(inputs["seed"] + trial).spawn(2)
        model = generate_ar_network(inputs["m"], np.random.default_rng(model_seed))
        exact = ExactGaussian(
            {"coefficients": model.coefficients, "noise_variances": model.noise_variances}
        )
        truth = sum(
            exact.di(i, [j for j in range(1, inputs["m"] + 1) if j != i and model.coefficients[j - 1, i - 1] != 0.0])
            for i in range(1, inputs["m"] + 1)
        )
        for (alg, cls), row in algs.items():
            implied = float(row["ratio"]) * truth
            if not _close(float(row["score"]), implied, CSV_REL, 1e-12):
                problems.append(
                    f"trial {trial} {alg}/{cls}: score {row['score']} != ratio x true score {implied!r}"
                )
    _check_aggregate(rows, out["aggregate_csv"], problems)


def _check_aggregate(rows: list, aggregate_csv: str, problems: list) -> None:
    """Recompute the aggregate file from the per-trial one."""
    groups: dict[tuple[str, str], list[dict]] = {}
    for row in rows:
        groups.setdefault((row["algorithm"], row["class"]), []).append(row)
    expected: dict[tuple[str, str], list[float]] = {}
    for (alg, cls), members in groups.items():
        expected[(alg, cls)] = [float(r["ratio"]) for r in members]
    for cls in ("general", "connected"):
        opt = {r["trial"]: float(r["score"]) for r in groups.get(("optimal", cls), [])}
        grd = {r["trial"]: float(r["score"]) for r in groups.get(("greedy", cls), [])}
        expected[("greedy-vs-optimal", cls)] = [
            grd[t] / opt[t] for t in sorted(opt.keys() & grd.keys(), key=int) if opt[t] > 0
        ]
    got = list(csv.DictReader(io.StringIO(aggregate_csv)))
    if {(r["algorithm"], r["class"]) for r in got} != set(expected):
        problems.append("aggregate CSV rows do not match the per-trial groups")
        return
    for row in got:
        ratios = np.array(expected[(row["algorithm"], row["class"])])
        want = {
            "trials": len(ratios),
            "mean_ratio": float(np.mean(ratios)),
            "std_ratio": float(np.std(ratios)),
            "min_ratio": float(np.min(ratios)),
            "frac_optimal": float(np.mean(ratios >= 1.0 - 1e-9)),
        }
        for key, value in want.items():
            if not _close(float(row[key]), value, CSV_REL, 1e-12):
                problems.append(
                    f"aggregate {row['algorithm']}/{row['class']} {key}: {row[key]} != {value!r}"
                )


CHECKS = {"panel-select": _panel, "exact-rank": _exact, "monte-carlo": _study}


def run(workload: str, inputs: dict, outputs: dict) -> list[str]:
    problems: list[str] = []
    if outputs:
        CHECKS[workload](inputs, outputs, problems)
    return problems
