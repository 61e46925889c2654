"""Host calibration: the facts needed before comparing numbers across hosts.

From the repository root::

    PYTHONPATH=src python3 perfbench/calibrate.py > perfbench/calibration.json

prints the core count, the Python and numpy versions, the active GF(2^8)
backend, a pure-Python loop rate, the event-loop-shaped churn rate the
benchmark scales its timings by, and the speed-up a two-process ``spawn``
pool gives on CPU-bound work (1.0 means no parallelism at all).  Every
``run.py`` run prints the cheap part of this on standard error; the
committed ``calibration.json`` records the host the reference numbers in
``README.md`` come from.
"""

from __future__ import annotations

import heapq
import json
import multiprocessing
import os
import platform
import sys
import time
from typing import Dict

SPIN_ITERATIONS = 3_000_000
#: :func:`churn_rate` on the reference host in an average period; the
#: benchmark's timings are scaled to this speed (see ``README.md``).
REFERENCE_CHURN_RATE = 500_000.0


def software() -> Dict[str, object]:
    import numpy

    from repro.erasure.gf import default_backend

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gf_backend": default_backend(),
    }


def loop_rate(seconds: float) -> float:
    """Iterations per second of a plain Python accumulate loop."""
    done = 0
    start = time.perf_counter()
    while True:
        total = 0
        for i in range(100_000):
            total += i
        done += 100_000
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return done / elapsed


class _Event:
    __slots__ = ("time", "action", "argument")

    def __init__(self, time: float, action, argument) -> None:
        self.time = time
        self.action = action
        self.argument = argument


def churn_rate(seconds: float) -> float:
    """Steps per second of an event-loop-shaped pure-Python loop.

    Each step allocates a slotted event, pushes it on a heap, pops the
    oldest once 256 are queued and does two dict operations: the mix the
    simulator's own event loop runs, in code that is not the program's,
    so a change to the program never moves it.  On a shared host this
    rate tracks the slow and fast periods the benchmark workloads see
    (correlation 0.86 over 130 adjacent pairs on the reference host),
    which is what :func:`host_speed` uses it for.
    """
    heap: list = []
    index: dict = {}
    seq = 0
    done = 0
    start = time.perf_counter()
    while True:
        for i in range(5_000):
            seq += 1
            event = _Event(seq * 0.37 % 101.0, len, (i, seq))
            heapq.heappush(heap, (event.time, seq, event))
            index[(i & 1023, seq & 7)] = event
            if len(heap) > 256:
                _, _, oldest = heapq.heappop(heap)
                index.get((oldest.argument[0] & 1023, 0))
        done += 5_000
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return done / elapsed


def host_speed(seconds: float = 0.3) -> float:
    """This host's speed right now relative to the reference host
    (:data:`REFERENCE_CHURN_RATE`); below 1 means slower."""
    return churn_rate(seconds) / REFERENCE_CHURN_RATE


def spin(iterations: int) -> int:
    total = 0
    for i in range(iterations):
        total += i * i % 7
    return total


def pool_speedup(workers: int = 2, tasks: int = 4) -> float:
    """Serial time of ``tasks`` CPU-bound tasks over their time on a
    ``workers``-process spawn pool (pool start-up included)."""
    start = time.perf_counter()
    for _ in range(tasks):
        spin(SPIN_ITERATIONS)
    serial = time.perf_counter() - start
    start = time.perf_counter()
    context = multiprocessing.get_context("spawn")
    with context.Pool(processes=workers) as pool:
        pool.map(spin, [SPIN_ITERATIONS] * tasks)
    return serial / (time.perf_counter() - start)


def main() -> int:
    print(
        json.dumps(
            {
                **software(),
                "loop_rate_per_s": loop_rate(1.0),
                "churn_rate_per_s": churn_rate(1.0),
                "spawn_pool_2_speedup": pool_speedup(),
            },
            indent=2,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
