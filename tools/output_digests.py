"""Print one SHA-256 line per deterministic output of the checkout.

Run from a checkout root:

    python3 tools/output_digests.py

The outputs are the ``run_pass`` result of every instance of the three
benchmark workloads (``bench/workloads.py``) at seeds 7 and 4049, the
stdout of each demo, and the CSVs ``dinet simulate`` writes with each
selection.  Two checkouts whose lines agree give those outputs bit for
bit, so ``diff`` of two runs shows whether a change kept its outputs.
Everything is written to temporary directories, removed on exit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd().resolve()
SRC, BENCH = ROOT / "src", ROOT / "bench"
sys.path[:0] = [str(SRC), str(BENCH)]

import workloads  # noqa: E402
from dinet import cli  # noqa: E402

SEEDS = (7, 4049)
SIMULATE = ["simulate", "--m", "5", "--K", "2", "--trials", "4", "--n", "300",
            "--r", "3", "--seed", "11"]


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
    lines = []
    for selection in ("estimated", "exact"):
        out = os.path.join(tmp, selection)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*SIMULATE, "--selection", selection, "--out", out])
        if code != 0:
            sys.exit(f"dinet simulate --selection {selection} exited with code {code}")
        for path in sorted(Path(out).iterdir()):
            lines.append(f"{sha(path.read_bytes())}  simulate {selection} {path.name}")
    return lines


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="dinet_digests_") as tmp:
        for lines in (bench_lines(tmp), demo_lines(tmp), simulate_lines(tmp)):
            print(*lines, sep="\n", flush=True)


if __name__ == "__main__":
    main()
