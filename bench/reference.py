"""A fixed piece of reference work, timed to gauge the host's speed.

This host's speed drifts by up to a third between stretches of minutes,
and that drift moves every timed figure alike.  The worker times
``reference_s()`` between passes, in a process of its own
(:class:`ReferenceClock`) that stays warm and idle while a pass runs and
whose objects never add to a pass's memory.  Timed metrics are then
reported at the nominal reference speed: a time is scaled by
``NOMINAL_S`` over the run's median reference time, a rate by the
inverse.  The work mirrors
what a pass spends its time on (interpreted loops over tuples, dicts and
a heap; many short-lived objects; small dense solves; least squares on a
tall panel), and it never calls dinet, so a change to dinet leaves it as
it is.
"""

from __future__ import annotations

import heapq
import json
import subprocess
import sys
from itertools import combinations
from time import perf_counter

import numpy as np

# a typical median reference time on a 2-vCPU virtual machine (Intel
# Xeon, 2.0 GHz); any fixed value would do
NOMINAL_S = 0.35


def _interpreted(rounds: int) -> float:
    total = 0.0
    for r in range(rounds):
        heap: list = []
        seen: dict = {}
        for combo in combinations(range(22), 3):
            key = (combo[0] * 7 + combo[1] * 3 + combo[2] + r) % 1009
            seen[combo] = seen.get(combo, 0) + key
            heapq.heappush(heap, (-key, combo))
            if len(heap) > 64:
                total += heapq.heappop(heap)[0]
    return total


def _allocating(n: int) -> int:
    table = {(i % 1000, i // 1000, i % 7): [i, float(i)] for i in range(n)}
    return len(sorted(table.items(), key=lambda kv: -kv[1][1]))


def _small_solves(n: int) -> float:
    a = np.arange(256, dtype=float).reshape(16, 16) / 256.0
    g = a @ a.T + np.eye(16)
    total = 0.0
    for i in range(n):
        idx = [i % 16, (i + 5) % 16, (i + 11) % 16]
        total += float(np.linalg.solve(g[np.ix_(idx, idx)], g[idx, i % 16]) @ g[idx, 0])
    return total


def _least_squares(n: int) -> float:
    x = np.sin(np.arange(4000, dtype=float).reshape(1000, 4) * 0.37)
    y = np.cos(np.arange(1000) * 0.11)
    total = 0.0
    for i in range(n):
        total += float(np.linalg.lstsq(x[:, : 1 + i % 4], y, rcond=None)[0][0])
    return total


def reference_s() -> float:
    """Wall time of the reference work, about 0.35 s at nominal speed."""
    t0 = perf_counter()
    _interpreted(25)
    _allocating(50000)
    _small_solves(2400)
    _least_squares(1400)
    return perf_counter() - t0


class ReferenceClock:
    """The reference work in a child process: ``times(n)`` runs it n times
    there and returns the n wall times."""

    def __enter__(self) -> "ReferenceClock":
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            self.times(1)  # untimed: the first call loads what it runs
        except BaseException:
            self.__exit__()
            raise
        return self

    def times(self, n: int) -> list[float]:
        self._proc.stdin.write(f"{n}\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the reference process ended early")
        return json.loads(line)

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()  # end of input ends the child's loop
        self._proc.wait()


if __name__ == "__main__":
    for request in sys.stdin:
        print(json.dumps([reference_s() for _ in range(int(request))]), flush=True)
