"""Microbenchmarks for the incremental atomicity checker's hot paths.

The simulation rows in ``BENCH_sim.json`` measure the checker *behind* a
cluster or workload generator, so checker regressions hide inside
simulation noise.  These rows isolate it: a synthetic operation stream is
generated once (outside the timed region) and replayed straight into the
checking layer in two configurations:

* **serial** — one :class:`IncrementalAtomicityChecker`, one crossing
  test per completed read, exactly the unbatched streaming path
  (``checker_ops_per_s``);
* **batched** — the same events bracketed by ``begin_batch`` /
  ``end_batch`` at a fixed chunk size, the way
  :class:`~repro.consistency.stream.CheckerBatcher` brackets event-loop
  drains (``checker_batched_ops_per_s``).

``run_benchmarks.py`` folds the rows into ``BENCH_sim.json``;
``checker_ops_per_s`` is gated in CI at the standard regression factor.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from repro.consistency.incremental import IncrementalAtomicityChecker
from repro.consistency.stream import (
    OperationRecord,
    StreamingRecorder,
    StreamObserver,
)
from repro.workloads.generator import StreamSpec, stream_operations

#: Events per ``begin_batch``/``end_batch`` bracket in the batched replay
#: — the same order of magnitude as one event-loop drain in a streamed run.
_BATCH_CHUNK = 256


class _Tape(StreamObserver):
    """Records a sink's event stream as sink-level call tuples."""

    def __init__(self) -> None:
        self.events: List[Tuple] = []

    def on_invoke(self, record: OperationRecord) -> None:
        self.events.append(
            ("i", record.op_id, record.kind, record.client, record.invoked_at, record.value)
        )

    def on_complete(self, record: OperationRecord) -> None:
        self.events.append(("r", record.op_id, record.responded_at, record.value))

    def on_failed(self, record: OperationRecord) -> None:
        pass


def record_tape(operations: int, *, clients: int = 16, seed: int = 7) -> _Tape:
    """Generate a synthetic operation stream once and return its tape."""
    recorder = StreamingRecorder(window=256)
    tape = recorder.subscribe(_Tape())
    stream_operations(StreamSpec(operations=operations, clients=clients, seed=seed), recorder)
    return tape


def _checker_events(tape: _Tape) -> List[Tuple[int, OperationRecord]]:
    """Pre-build the observer-level records a sink would dispatch, so the
    timed replay loops measure checker cost, not record construction."""
    events: List[Tuple[int, OperationRecord]] = []
    live: Dict[str, OperationRecord] = {}
    for event in tape.events:
        if event[0] == "i":
            record = OperationRecord(
                op_id=event[1], kind=event[2], client=event[3],
                invoked_at=event[4], value=event[5],
            )
            live[event[1]] = record
            events.append((0, record))
        else:
            record = live[event[1]]
            record.responded_at = event[2]
            if event[3] is not None:
                record.value = event[3]
            events.append((1, record))
    return events


def bench_serial(events: List[Tuple[int, OperationRecord]], invoked: int) -> float:
    """Operations per second through one per-op (unbatched) checker."""
    checker = IncrementalAtomicityChecker()
    on_invoke = checker.on_invoke
    on_complete = checker.on_complete
    start = time.perf_counter()
    for kind, record in events:
        if kind == 0:
            on_invoke(record)
        else:
            on_complete(record)
    wall = time.perf_counter() - start
    if not checker.ok:  # pragma: no cover - would be a generator/checker bug
        raise RuntimeError(f"clean stream flagged: {checker.violations}")
    return invoked / wall


def bench_batched(events: List[Tuple[int, OperationRecord]], invoked: int) -> float:
    """Operations per second with drain-sized begin/end_batch brackets."""
    checker = IncrementalAtomicityChecker()
    on_invoke = checker.on_invoke
    on_complete = checker.on_complete
    start = time.perf_counter()
    for base in range(0, len(events), _BATCH_CHUNK):
        checker.begin_batch()
        for kind, record in events[base : base + _BATCH_CHUNK]:
            if kind == 0:
                on_invoke(record)
            else:
                on_complete(record)
        checker.end_batch()
    wall = time.perf_counter() - start
    if not checker.ok:  # pragma: no cover - would be a generator/checker bug
        raise RuntimeError(f"clean stream flagged: {checker.violations}")
    return invoked / wall


def bench_checker(*, quick: bool = False, seed: int = 7) -> Dict[str, float]:
    """The checker rows folded into BENCH_sim.json by run_benchmarks.py."""
    single_ops = 10_000 if quick else 100_000
    tape = record_tape(single_ops, clients=16, seed=seed)
    events = _checker_events(tape)
    return {
        "checker_ops_per_s": bench_serial(events, single_ops),
        "checker_batched_ops_per_s": bench_batched(events, single_ops),
    }


if __name__ == "__main__":
    for metric, value in bench_checker().items():
        print(f"{metric} = {value:,.0f}")
