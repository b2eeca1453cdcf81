"""One workload in its own process: set-up, warm-up, timed passes.

Started by ``run.py`` with the BLAS thread count pinned to 1.  After
set-up and one untimed warm-up pass, each timed pass runs in a process
forked from this one, so it starts from the same warmed state and its
own peak resident memory can be read when it ends; a heavy pass then
moves one sample of the median instead of the whole run's figure.

Writes ``result.json`` (timings, operation counts, per-layer figures) and
one ``check-<instance>.json`` per input instance (its inputs and
outputs, for the independent checks the parent process runs) into the
directory given by ``--out``.  Only dinet and numpy are imported here.

Set-up time is the median time to import dinet in a fresh interpreter
plus the median time to generate the inputs, each taken three times.

The reference work of ``reference.py`` is timed three times before
set-up and three times before every timed pass, in a process of its
own.  The end-to-end metrics are reported at its nominal speed (times
scaled by ``NOMINAL_S`` over the median reference time, rates by the
inverse); the raw figures go to ``result.json`` beside them.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

SETUP_REPEATS = 3
# reference samples timed before set-up and before every timed pass
REFERENCE_SAMPLES = 3


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()

    from reference import ReferenceClock

    with ReferenceClock() as clock:
        return _run(args, clock)


def _run(args, clock) -> int:
    import workloads
    from layers import layer_metrics
    from reference import NOMINAL_S
    from spans import Tracer

    workload = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(args.out, "work")
    reference_times = clock.times(REFERENCE_SAMPLES)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        instances = workload.setup(args.seed, workdir)
        setup_times.append(perf_counter() - t0)
    setup_s = _import_s() + statistics.median(setup_times)

    digests: dict[int, str] = {}

    def one_pass(k: int, traced: bool) -> dict:
        """Run pass k and describe it in plain JSON values."""
        instance = k % len(instances)
        tracer = Tracer() if traced else None
        ops = workloads.Ops(workload.ops_per_pass, tracer)
        if tracer is not None:
            tracer.install()
        try:
            t0 = perf_counter()
            outputs = workloads.run_guarded(workload.run_pass, instances[instance], ops)
            elapsed = perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        text = json.dumps(outputs, sort_keys=True)
        record = {
            "instance": instance,
            "elapsed": elapsed,
            "total": ops.total,
            "done": ops.done,
            "failures": ops.failures,
            "ranked_n": ops.ranked_n,
            "ranked_s": ops.ranked_s,
            "emitted": ops.emitted,
            "digest": hashlib.sha256(text.encode()).hexdigest(),
        }
        if instance not in digests:
            check = {"inputs": workload.check_inputs(instances[instance]), "outputs": outputs}
            with open(os.path.join(args.out, f"check-{instance}.json"), "w") as fh:
                json.dump(check, fh)
        if tracer is not None:
            record["deltas"] = ops.deltas
            record["delta"] = tracer.snapshot()
            tracer.write(args.spans + ".part")
        return record

    warm = one_pass(0, traced=False)
    digests[0] = warm["digest"]
    passes: list[dict] = []
    traced: list[dict] = []
    start = perf_counter()
    while True:
        # with tracing on, untraced and traced passes alternate, each
        # series cycling through the instances in the same order
        reference_times += clock.times(REFERENCE_SAMPLES)
        if args.trace and len(passes) > len(traced):
            record = _forked(one_pass, len(traced), True)
            traced.append(record)
            os.replace(args.spans + ".part", args.spans)
        else:
            record = _forked(one_pass, len(passes), False)
            passes.append(record)
        digests.setdefault(record["instance"], record["digest"])
        if perf_counter() - start >= args.seconds and (not args.trace or traced):
            break

    measured = [warm, *passes, *traced]
    failures = sorted({f for record in measured for f in record["failures"]})
    mismatched = sum(r["digest"] != digests[r["instance"]] for r in measured)
    timed = passes + traced
    result = {
        "attempted": sum(r["total"] for r in timed),
        "failed": sum(r["total"] - r["done"] for r in timed),
        "failures": failures,
        "mismatched_passes": mismatched,
        "passes": len(passes),
        "traced_passes": len(traced),
        "instances": len(instances),
        "checked_instances": sorted(digests),
        "pass_times": [r["elapsed"] for r in passes],
    }
    reference = statistics.median(reference_times)
    result["reference_s"] = reference
    if args.trace:
        result["metrics"] = layer_metrics(traced, passes)
    else:
        raw = {
            "setup_s": setup_s,
            "pass_s": statistics.median(r["elapsed"] for r in passes),
            "ranked_per_s": _median(
                r["ranked_n"] / r["ranked_s"] for r in passes if r["ranked_s"]
            ),
            "trials_per_s": statistics.median(
                _trials(args.workload, r) / r["elapsed"] for r in passes
            ),
        }
        result["raw"] = raw
        scale = NOMINAL_S / reference  # below 1 while the host runs slow
        result["metrics"] = {
            "setup_s": (raw["setup_s"] * scale, "s"),
            "pass_s": (raw["pass_s"] * scale, "s"),
            "ranked_per_s": (raw["ranked_per_s"] / scale, "structures/s"),
            "trials_per_s": (raw["trials_per_s"] / scale, "trials/s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_kib"] for r in passes) / 1024.0, "MB"),
        }
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


def _forked(one_pass, k: int, traced: bool) -> dict:
    """Run one pass in a forked child; add the child's peak resident memory."""
    gc.collect()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            payload = json.dumps(one_pass(k, traced)).encode()
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(payload)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        payload = fh.read()
    _, status, usage = os.wait4(pid, 0)
    if status != 0:
        raise RuntimeError(f"pass {k} ended with wait status {status}")
    record = json.loads(payload)
    record["peak_rss_kib"] = usage.ru_maxrss
    return record


def _import_s() -> float:
    """Median time to import dinet in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import dinet; print(time.perf_counter() - t)"
    times = [
        float(subprocess.run([sys.executable, "-c", code], capture_output=True, check=True, text=True).stdout)
        for _ in range(SETUP_REPEATS)
    ]
    return statistics.median(times)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _trials(workload: str, record: dict) -> int:
    # a Monte Carlo trial is one completed operation; the other workloads
    # count one trial per pass
    return record["done"] if workload == "monte-carlo" else 1


if __name__ == "__main__":
    sys.exit(main())
