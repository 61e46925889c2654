"""Shared spawn-pool scaffolding for the sharded experiment engines.

Every sharded engine in this package — sweeps, single-register long runs
and the namespace (fleet) engine — has the same execution shape: a
deterministic grid of picklable payloads fans out over a ``spawn``
process pool, results stream back in *completion* order (so
post-processing pipelines against points still simulating), and
order-sensitive consumers restore grid order with a buffered
next-expected cursor.  This module is that shape, extracted once:

* :func:`iter_unordered` — the pool body (serial in-process for ``jobs=1``
  or single-payload grids, a ``spawn``
  :class:`~concurrent.futures.ProcessPoolExecutor` otherwise).  A worker
  that dies mid-payload (killed, ``os._exit``, out of memory) fails the
  run at once with an error naming the payload index instead of hanging;
* :func:`in_order` — the order-restoring cursor over ``(index, result)``
  pairs;
* :func:`resolve_workers` — the daemonic-context guard: a daemonic process
  (e.g. a worker of a :class:`multiprocessing.pool.Pool`) cannot spawn
  children, so a pool requested from inside one degrades to serial
  execution with a loud :class:`RuntimeWarning` instead of crashing —
  results are byte-identical either way, only the parallelism is lost.

``spawn`` rather than ``fork`` everywhere, so workers start from a clean
interpreter on every platform (no inherited RNG or simulation state);
payload functions must be module-level to stay picklable.
"""

from __future__ import annotations

import itertools
import multiprocessing
import warnings
from typing import Any, Callable, Dict, Iterable, Iterator, Sequence, Tuple


def resolve_workers(requested: int, *, what: str = "worker processes") -> int:
    """Clamp a requested worker count to what this process may spawn.

    Daemonic processes cannot create child processes; asking for
    ``N > 1`` workers from inside one warns loudly and returns 1 — the
    caller then runs its work serially, which is result-identical by
    construction in every engine here.
    """
    if requested < 1:
        raise ValueError(f"{what}: need at least one worker")
    if requested > 1 and multiprocessing.current_process().daemon:
        warnings.warn(
            f"{what}: {requested} worker processes requested inside a "
            f"daemonic process, which cannot spawn children; degrading "
            f"to serial execution (results are identical, only slower)",
            RuntimeWarning,
            stacklevel=3,
        )
        return 1
    return requested


def iter_unordered(
    fn: Callable[[Any], Any], payloads: Sequence[Any], *, jobs: int = 1
) -> Iterator[Any]:
    """Yield ``fn(payload)`` for every payload, in completion order.

    ``jobs=1`` (or a single payload) runs in-process — no pool, no
    pickling — and yields in payload order; ``jobs>1`` shards the payloads
    over a ``spawn`` process pool and yields as workers finish.  Each
    worker holds one payload at a time, so when a worker process dies the
    :class:`RuntimeError` raised here names the payload index (its
    position in ``payloads``) it was running.  A ``jobs>1`` request from
    inside a daemonic process degrades to serial with a warning (see
    :func:`resolve_workers`) instead of raising.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if jobs > 1:
        jobs = resolve_workers(jobs, what="pool jobs")
    return _iter_unordered(fn, list(payloads), jobs)


def _iter_unordered(
    fn: Callable[[Any], Any], payloads: list, jobs: int
) -> Iterator[Any]:
    """Generator body of :func:`iter_unordered` (validation stays
    fail-fast at the call site rather than deferring to first iteration)."""
    if jobs == 1 or len(payloads) <= 1:
        for payload in payloads:
            yield fn(payload)
        return
    # Imported here so serial runs stay import-light.
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    workers = min(jobs, len(payloads))
    queued = iter(enumerate(payloads))
    context = multiprocessing.get_context("spawn")
    pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
    try:
        # One payload in flight per worker: a broken pool then implicates
        # exactly the payloads still running.
        running = {
            pool.submit(fn, payload): index
            for index, payload in itertools.islice(queued, workers)
        }
        while running:
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in done:
                index = running.pop(future)
                try:
                    result = future.result()
                except BrokenProcessPool:
                    lost = sorted([index, *running.values()])
                    which = (
                        f"payload index {lost[0]}"
                        if len(lost) == 1
                        else f"one of payload indices {lost}"
                    )
                    raise RuntimeError(
                        f"a pool worker process died while running {which} "
                        f"(of {len(payloads)} payloads)"
                    ) from None
                # Refill before yielding, so the worker is not idle while
                # the consumer folds this result.
                for next_index, payload in queued:
                    running[pool.submit(fn, payload)] = next_index
                    break
                yield result
    finally:
        # All results are in (or the run failed): let the idle workers
        # exit without blocking on their interpreter teardown.
        pool.shutdown(wait=False, cancel_futures=True)


def max_rss_kb() -> int:
    """Peak resident-set size of the *current* process, in kilobytes.

    Called at the end of every epoch/cell payload so each pool worker
    reports its own high-water mark (the parent's gauge says nothing
    about its children).  Returns 0 where :mod:`resource` is unavailable;
    on macOS ``ru_maxrss`` is in bytes and is normalised to KB.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    import sys

    if sys.platform == "darwin":  # pragma: no cover - linux CI
        peak //= 1024
    return int(peak)


def in_order(results: Iterable[Tuple[int, Any]]) -> Iterator[Any]:
    """Restore grid order over ``(index, result)`` pairs.

    The engines consume results with order-dependent folds (epoch offsets
    accumulate, histograms merge deterministically), while the pool yields
    in completion order; this cursor buffers out-of-order arrivals and
    yields each result exactly at its turn.  Indices must be the
    contiguous range ``0..N-1`` — a gap left at exhaustion (a worker that
    never reported) raises instead of silently dropping the tail.
    """
    buffered: Dict[int, Any] = {}
    next_index = 0
    for index, result in results:
        buffered[index] = result
        while next_index in buffered:
            yield buffered.pop(next_index)
            next_index += 1
    if buffered:
        raise RuntimeError(
            f"pool results left a gap at index {next_index} "
            f"(buffered: {sorted(buffered)}); a worker never reported"
        )
