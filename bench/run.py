"""dinet benchmark: one workload per call, one JSON result line.

    python3 bench/run.py --workload panel-select --seed 7 --seconds 22 --trace 0

Run from the root of a source checkout.  The workload runs in a child
process (``worker.py``) with one BLAS thread; this process then checks
the child's outputs against computations made apart from dinet
(``checks.py``) and prints the result as its last line:

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer figures of a traced run.  See
README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("panel-select", "exact-rank", "monte-carlo")
CHILD_TIMEOUT_S = 150
BLAS_THREADS = "1"


def _versions() -> dict:
    import networkx
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "dinet" / "__init__.py").is_file():
        print(f"error: no dinet sources under {src}", file=sys.stderr)
        return 2

    out_root = ROOT / ".bench_out"
    run_dir = out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    spans = out_root / f"spans-{args.workload}-seed{args.seed}.npz"
    env = dict(
        os.environ,
        PYTHONPATH=str(src),
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
    )
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", str(run_dir),
        "--spans", str(spans),
    ]
    try:
        # its own session, so a timeout also stops the pass it has forked
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, start_new_session=True)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            print(f"error: workload ran past {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 3
        if code != 0:
            print(f"error: workload exited with code {code}", file=sys.stderr)
            return 3
        with open(run_dir / "result.json") as fh:
            result = json.load(fh)
        sys.path[:0] = [str(HERE), str(src), str(ROOT / "tests")]
        import checks

        problems = []
        t0 = time.perf_counter()
        for i in result["checked_instances"]:
            with open(run_dir / f"check-{i}.json") as fh:
                check = json.load(fh)
            problems += [
                f"instance {i}: {problem}"
                for problem in checks.run(args.workload, check["inputs"], check["outputs"])
            ]
        check_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if result["mismatched_passes"]:
        problems.append(
            f"{result['mismatched_passes']} passes gave other outputs than the first pass"
            " on the same instance"
        )
    for failure in result["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    metrics = result["metrics"]
    print("environment " + json.dumps(_versions(), sort_keys=True))
    print(
        f"workload {args.workload} seed {args.seed}: {result['passes']} timed passes"
        + f" over {result['instances']} input instances"
        + f"; checks took {check_s:.1f} s"
        + (f", {result['traced_passes']} traced" if args.trace else "")
    )
    print("  pass times (s): " + " ".join(f"{t:.3f}" for t in result["pass_times"]))
    print(f"  reference work median {result['reference_s']:.4f} s; unscaled figures:")
    for name, value in result.get("raw", {}).items():
        print(f"    {name:38s} {value:14.6g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    line = {
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
