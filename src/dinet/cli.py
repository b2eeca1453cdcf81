"""Command line surface.

Subcommands: ``estimate`` (one directed-information value), ``cache build``
(all size-K parent set values as JSON), ``approximate`` (one structure),
``topr`` (ranked structures as a JSON array), ``bounds`` (coefficient
tables as CSV), ``simulate`` (Monte Carlo study CSVs).  Every subcommand
is deterministic under fixed flags and seed.

Exit codes: 0 success, 1 validation, 2 file format or I/O, 3 internal.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .approximation import (
    greedy_connected,
    greedy_general,
    optimal_connected,
    optimal_general,
)
from .bounds import coefficient_table
from .errors import (
    DinetError,
    NonStationaryModelError,
    PanelFormatError,
    ValidationError,
)
from .estimation import (
    DIEvaluator,
    EstimatorConfig,
    build_cache,
    estimate_di,
    read_panel_csv,
)
from .simulate import ExperimentConfig, run_experiment, write_experiment_csv
from .structures import DirectedInfoCache
from .topr import top_r_connected, top_r_general, top_r_greedy

LN2 = math.log(2.0)


def _parse_processes(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValidationError(f"expected comma-separated integers, got {text!r}")


def _estimator_config(args) -> EstimatorConfig:
    return EstimatorConfig(markov_order=args.markov_order, estimator=args.estimator)


def _load_panel(args):
    kind = "discrete" if args.estimator == "discrete" else "real"
    return read_panel_csv(args.panel, kind=kind, alphabet_size=args.alphabet_size)


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def _display(value: float, units: str) -> float:
    return value / LN2 if units == "bits" else value


# ---------------------------------------------------------------------------
# subcommands


def cmd_estimate(args) -> int:
    panel = _load_panel(args)
    value = estimate_di(
        panel,
        args.target,
        _parse_processes(args.addition),
        _parse_processes(args.conditioning),
        _estimator_config(args),
    )
    print(f"{_display(value, args.units):.9f}")
    return 0


def cmd_cache_build(args) -> int:
    panel = _load_panel(args)
    evaluator = DIEvaluator.from_panel(panel, _estimator_config(args))
    cache = build_cache(evaluator, panel.m, args.K)
    _write_text(args.out, cache.to_json())
    return 0


def _search_inputs(args):
    """What the chosen search runs on: (cache, K), or (evaluator, L) for greedy."""
    if args.root_has_parents and args.graph_class == "general":
        raise ValidationError("--root-has-parents applies only to --class connected")
    cache = evaluator = None
    if args.cache is not None:
        with open(args.cache) as fh:
            cache = DirectedInfoCache.from_json(fh.read())
    if args.panel is not None:
        panel = _load_panel(args)
        evaluator = DIEvaluator.from_panel(panel, _estimator_config(args))
    if cache is None and evaluator is None:
        raise ValidationError("provide --panel or --cache")
    if args.search == "optimal":
        if cache is None:
            if args.K is None:
                raise ValidationError("optimal search requires --K")
            cache = build_cache(evaluator, evaluator.m, args.K)
        K = args.K if args.K is not None else cache.K
        if K != cache.K:
            raise ValidationError(f"cache holds K={cache.K}, asked for K={K}")
        return cache, K
    # greedy search scores growing prefixes, which a fixed-K cache cannot
    # answer; it needs panel data
    if evaluator is None:
        raise ValidationError("greedy search requires --panel")
    L = args.L if args.L is not None else args.K
    if L is None:
        raise ValidationError("greedy search requires --L (or --K)")
    return evaluator, L


def _search_structure(args):
    source, degree = _search_inputs(args)
    if args.search == "optimal":
        if args.graph_class == "general":
            return optimal_general(source, degree)
        return optimal_connected(source, degree, root_has_parents=args.root_has_parents)
    if args.graph_class == "general":
        return greedy_general(source, degree)
    return greedy_connected(source, degree, root_has_parents=args.root_has_parents)


def _structure_json(result, args) -> dict:
    return {
        "class": args.graph_class,
        "search": args.search,
        "score": result.score,
        "assignment": result.assignment.to_json_dict(),
    }


def cmd_approximate(args) -> int:
    result = _search_structure(args)
    text = json.dumps(_structure_json(result, args), indent=2, sort_keys=True)
    if args.out is not None:
        _write_text(args.out, text)
        print(f"score {_display(result.score, args.units):.9f}")
    else:
        _write_text(None, text)
    if args.dot is not None:
        root = getattr(result, "root", None)
        _write_text(args.dot, result.assignment.to_dot(root=root))
    return 0


def cmd_topr(args) -> int:
    source, degree = _search_inputs(args)
    if args.search == "greedy":
        ranked = top_r_greedy(
            source,
            degree,
            args.r,
            connected=args.graph_class == "connected",
            root_has_parents=args.root_has_parents,
        )
    elif args.graph_class == "general":
        ranked = top_r_general(source, degree, args.r)
    else:
        ranked = top_r_connected(
            source, degree, args.r, root_has_parents=args.root_has_parents
        )
    payload = [
        {
            "rank": rank,
            "score": sol.score,
            "assignment": sol.assignment.to_json_dict(),
        }
        for rank, sol in enumerate(ranked, start=1)
    ]
    _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True))
    if args.dot_dir is not None:
        os.makedirs(args.dot_dir, exist_ok=True)
        for rank, sol in enumerate(ranked, start=1):
            path = os.path.join(args.dot_dir, f"rank_{rank:03d}.dot")
            _write_text(path, sol.assignment.to_dot(root=sol.assignment.root()))
    return 0


def cmd_bounds(args) -> int:
    try:
        alphas = [float(part) for part in args.alphas.split(",") if part.strip()]
    except ValueError:
        raise ValidationError(f"expected comma-separated numbers, got {args.alphas!r}")
    if not alphas:
        raise ValidationError("provide at least one alpha")
    rows = coefficient_table(args.table, alphas, args.K, args.L)
    lines = ["alpha,K,L,coefficient"]
    for alpha, K, L, coeff in rows:
        lines.append(f"{alpha:.12g},{K},{L},{coeff:.12g}")
    _write_text(args.out, "\n".join(lines))
    return 0


def cmd_simulate(args) -> int:
    config = ExperimentConfig(
        m=args.m,
        K=args.K,
        L=args.L,
        n=args.n,
        trials=args.trials,
        edge_probability=args.edge_probability,
        spectral_target=args.spectral_target,
        r=args.r,
        seed=args.seed,
        selection=args.selection,
        include_diagonal=not args.no_diagonal,
        timing=args.timing,
    )
    result = run_experiment(config)
    os.makedirs(args.out, exist_ok=True)
    trial_path, agg_path = write_experiment_csv(result, args.out, args.name)
    print(trial_path)
    print(agg_path)
    if result.excluded_trials:
        print(f"excluded trials: {result.excluded_trials}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def _add_estimator_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--markov-order", type=int, default=EstimatorConfig.markov_order)
    parser.add_argument(
        "--estimator", choices=("gaussian", "discrete"), default=EstimatorConfig.estimator
    )
    parser.add_argument("--alphabet-size", type=int, default=None)


def _add_search_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--panel", default=None, help="panel CSV path")
    parser.add_argument("--cache", default=None, help="cache JSON path")
    parser.add_argument(
        "--class",
        dest="graph_class",
        choices=("general", "connected"),
        default="general",
    )
    parser.add_argument(
        "--search", choices=("optimal", "greedy"), default="optimal"
    )
    parser.add_argument("--K", type=int, default=None)
    parser.add_argument("--L", type=int, default=None)
    parser.add_argument("--root-has-parents", action="store_true")
    _add_estimator_flags(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dinet",
        description="Directed information estimation and bounded in-degree structure search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="estimate one directed information value")
    p.add_argument("panel", help="panel CSV path")
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--addition", default="", help="comma-separated process indices")
    p.add_argument("--conditioning", default="", help="comma-separated process indices")
    p.add_argument("--units", choices=("nats", "bits"), default="nats")
    _add_estimator_flags(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("cache", help="directed information cache operations")
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    pb = cache_sub.add_parser("build", help="compute all size-K parent set values")
    pb.add_argument("panel", help="panel CSV path")
    pb.add_argument("--K", type=int, required=True)
    pb.add_argument("--out", default=None, help="cache JSON path (default stdout)")
    _add_estimator_flags(pb)
    pb.set_defaults(func=cmd_cache_build)

    p = sub.add_parser("approximate", help="select one bounded in-degree structure")
    _add_search_flags(p)
    p.add_argument("--units", choices=("nats", "bits"), default="nats")
    p.add_argument("--out", default=None, help="result JSON path (default stdout)")
    p.add_argument("--dot", default=None, help="also write a DOT rendering here")
    p.set_defaults(func=cmd_approximate)

    p = sub.add_parser("topr", help="enumerate the r best structures")
    _add_search_flags(p)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--out", default=None, help="JSON array path (default stdout)")
    p.add_argument("--dot-dir", default=None, help="write one DOT file per rank here")
    p.set_defaults(func=cmd_topr)

    p = sub.add_parser("bounds", help="emit guarantee coefficient tables")
    p.add_argument("--table", choices=("greedy", "degree-gap"), default="greedy")
    p.add_argument("--alphas", default="1,1.3,1.7,2.5")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("simulate", help="run a Monte Carlo selection study")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--L", type=int, default=None)
    p.add_argument("--n", type=int, default=ExperimentConfig.n)
    p.add_argument("--trials", type=int, default=ExperimentConfig.trials)
    p.add_argument("--edge-probability", type=float, default=ExperimentConfig.edge_probability)
    p.add_argument("--spectral-target", type=float, default=ExperimentConfig.spectral_target)
    p.add_argument("--r", type=int, default=ExperimentConfig.r)
    p.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    p.add_argument(
        "--selection", choices=("estimated", "exact"), default=ExperimentConfig.selection
    )
    p.add_argument("--no-diagonal", action="store_true")
    p.add_argument("--timing", action="store_true")
    p.add_argument("--name", default="experiment")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, NonStationaryModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (PanelFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DinetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
