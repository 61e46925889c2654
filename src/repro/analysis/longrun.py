"""Million-operation real-cluster streaming runs with sharded checking.

The sweep engine (:mod:`repro.analysis.sweep`) shards *across* independent
simulations; this module scales a *single* long execution: one protocol,
one logical run, millions of client operations, checked online for
register linearizability under bounded memory.

The run is defined as a deterministic sequence of **epochs**.  Epoch ``k``
is a fresh cluster simulation seeded by ``derive_seed(base, name, k)``
whose register starts at a unique epoch marker value and whose writers
emit values tagged with the epoch index — so epochs are value-disjoint and
(once placed at deterministic offsets on a global timeline) time-disjoint.
Each epoch streams its operations through a bounded
:class:`~repro.consistency.stream.StreamingRecorder` with the incremental
atomicity checker subscribed (failures surface online, mid-run), and
exports the checker's canonical cluster summaries.

Sharding a run over worker processes is then exactly the sweep engine's
job: epochs fan out over a spawn pool (``jobs=N``), and the per-epoch
exports are reconciled by :func:`repro.consistency.shardmerge.merge_shard_verdicts`
— epoch initial states become explicit marker-write clusters, every
summary is rebased to its epoch's global offset, and one boundary-crossing
sweep re-orders blocks across epoch boundaries.  Because the merged
verdict is a pure function of the per-epoch exports and every epoch owns a
derived seed, the verdict is **byte-identical for any jobs count**; the CI
smoke job diffs the committed artefacts of ``--jobs 1`` and ``--jobs 2``
runs to prove it.

``python -m repro.cli experiment longrun --ops 1000000 --jobs 4`` is the
command-line entry point; artefacts land under ``results/`` as JSON (the
full deterministic report) and CSV (per-epoch rows).
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

from repro.analysis.pool import in_order, max_rss_kb
from repro.analysis.sweep import SweepSpec, iter_sweep
from repro.baselines.registry import make_cluster
from repro.consistency.history import History
from repro.consistency.incremental import (
    ClusterSummary,
    IncrementalAtomicityChecker,
    Violation,
)
from repro.consistency.shardmerge import (
    MergedCheckResult,
    ShardVerdict,
    merge_shard_verdicts,
    shard_verdict_from_checker,
    shift_summary,
)
from repro.consistency.stream import (
    CheckerBatcher,
    OperationRecord,
    StreamingRecorder,
    StreamObserver,
)
from repro.workloads.faults import canonical_fault_spec

#: Artefact schema version (bump on breaking changes to the JSON layout).
LONGRUN_SCHEMA_VERSION = 1

#: Simulated-time gap between consecutive epochs on the merged timeline.
#: The epoch marker write is placed inside this gap, after everything of
#: the previous epoch and before everything of its own epoch.
EPOCH_GAP = 1.0


def _epoch_marker(epoch_index: int) -> bytes:
    """The unique initial value of epoch ``epoch_index``'s register."""
    return f"<longrun-epoch-{epoch_index}>".encode()


def _require_complete(stats, context: str) -> None:
    """Refuse to aggregate a truncated run.

    A run whose event budget was exhausted mid-flight describes a *prefix*
    of the requested workload; folding it into a merged report would
    silently understate every counter and verdict.  The epoch points call
    this right after the driver returns, so a truncated epoch aborts the
    whole analysis instead of polluting it.
    """
    if getattr(stats, "truncated", False):
        raise RuntimeError(
            f"{context} was truncated by its event budget "
            f"({stats.completed} operations completed); rerun with a larger "
            f"max_events instead of aggregating a partial epoch"
        )


class _RecordTap(StreamObserver):
    """Optional per-epoch capture of every operation (small runs only).

    The long-run engine never materialises histories; this tap exists so
    tests can rebuild the merged global history of a *small* run and
    cross-validate the sharded verdict against the monolithic checkers.
    """

    def __init__(self) -> None:
        self.records: Dict[str, list] = {}

    def on_invoke(self, record: OperationRecord) -> None:
        self.records[record.op_id] = [
            record.op_id,
            record.kind,
            record.client,
            record.invoked_at,
            None,
            record.value,
            False,
        ]

    def on_complete(self, record: OperationRecord) -> None:
        row = self.records[record.op_id]
        row[4] = record.responded_at
        row[5] = record.value

    def on_failed(self, record: OperationRecord) -> None:
        self.records[record.op_id][6] = True


def default_protocol_kwargs(protocol: str) -> Dict[str, object]:
    """Protocol-specific construction defaults for long runs (overridable
    via ``run_longrun(protocol_kwargs=...)``, and recorded in the artefact
    params so every report is self-describing)."""
    if protocol.upper() == "CASGC":
        return {"delta": 4}
    if protocol.upper() == "SODAERR":
        return {"e": 1}
    return {}


def longrun_epoch_point(
    *,
    protocol: str,
    n: int,
    f: int,
    num_writers: int,
    num_readers: int,
    epoch_index: int,
    ops: int,
    value_size: int,
    mean_gap: float,
    window: int,
    frontier_limit: int,
    keep_records: bool,
    cluster_kwargs: Mapping[str, object],
    seed: int,
    faults_spec: str = "none",
    max_events: Optional[int] = None,
) -> Dict[str, object]:
    """One epoch of a long run: a fresh cluster streamed for ``ops`` ops.

    Module-level (hence picklable under the ``spawn`` start method); the
    returned payload is everything the merge needs — counters, the bounded
    recorder's residency gauge, and the checker's shard verdict — plus the
    optional record capture for test-sized cross-validation.
    """
    marker = _epoch_marker(epoch_index)
    recorder = StreamingRecorder(window=window)
    checker = IncrementalAtomicityChecker(
        initial_value=marker, frontier_limit=frontier_limit
    )
    # Subscribed before the cluster exists so make_cluster binds the
    # batcher to its simulation's micro-task hook: crossing tests then run
    # once per event-loop drain (verdict-identical to per-op checking).
    batcher = recorder.subscribe(CheckerBatcher(checker))
    tap = recorder.subscribe(_RecordTap()) if keep_records else None
    cluster = make_cluster(
        protocol,
        n,
        f,
        num_writers=num_writers,
        num_readers=num_readers,
        seed=seed,
        initial_value=marker,
        recorder=recorder,
        **dict(cluster_kwargs),
    )
    if faults_spec != "none":
        # Faults derive from the epoch seed, so each epoch re-draws its
        # victims — part of the deterministic grid, independent of jobs.
        cluster.apply_fault_plan(faults_spec, seed=seed)
    start = time.perf_counter()
    stats = cluster.run_streamed(
        operations=ops,
        value_size=value_size,
        mean_gap=mean_gap,
        seed=seed + 1,
        value_prefix=f"e{epoch_index}|",
        max_events=max_events,
    )
    wall_s = time.perf_counter() - start
    _require_complete(stats, f"longrun epoch {epoch_index}")
    batcher.flush()
    verdict = shard_verdict_from_checker(epoch_index, checker)
    return {
        "epoch": epoch_index,
        "seed": seed,
        "ops": ops,
        "issued": stats.issued,
        "completed": stats.completed,
        "failed": stats.failed,
        "writes": stats.writes,
        "reads": stats.reads,
        "end_time": stats.end_time,
        "events": stats.events,
        "max_resident": recorder.max_resident,
        "evicted": recorder.evicted_count,
        "distinct_writes": sum(
            1 for s in verdict.summaries if s.has_write and not s.initial
        ),
        "checker_ok": checker.ok,
        "verdict": verdict,
        "wall_s": wall_s,
        "max_rss_kb": max_rss_kb(),
        "records": tuple(tap.records.values()) if tap is not None else None,
    }


def _qualify(op_id: Optional[str], epoch_index: int) -> Optional[str]:
    """Prefix an epoch-local operation id for the global timeline."""
    return None if op_id is None else f"e{epoch_index}:{op_id}"


def _rebase_summary(
    summary: ClusterSummary, epoch_index: int, offset: float
) -> ClusterSummary:
    """Place one epoch summary on the global timeline.

    Ordinary clusters shift by the epoch offset and get epoch-qualified
    operation ids.  The epoch's *initial-value* cluster becomes an explicit
    marker-write cluster invoked (and responded) inside the inter-epoch
    gap: the epoch's register really did hold the marker before its first
    write, and modelling that as a write lets the merge treat the whole
    run as a single register history with no distinguished initial value.
    """
    shifted = shift_summary(summary, offset)
    if not summary.initial:
        return shifted._replace(
            write_id=_qualify(summary.write_id, epoch_index),
            first_read_id=_qualify(summary.first_read_id, epoch_index),
        )
    marker_invoked = offset - 0.75 * EPOCH_GAP
    marker_responded = offset - 0.5 * EPOCH_GAP
    return shifted._replace(
        write_id=f"<epoch{epoch_index}-initial>",
        has_write=True,
        write_invoked=marker_invoked,
        max_inv=max(shifted.max_inv, marker_invoked),
        min_resp=min(marker_responded, shifted.min_read_resp),
        first_read_id=_qualify(summary.first_read_id, epoch_index),
        initial=False,
    )


def _qualify_violation(violation: Violation, epoch_index: int) -> Violation:
    return Violation(
        kind=violation.kind,
        description=f"epoch {epoch_index}: {violation.description}",
        op_ids=tuple(_qualify(op, epoch_index) or "?" for op in violation.op_ids),
    )


@dataclass(frozen=True)
class EpochRow:
    """Deterministic per-epoch artefact row."""

    index: int
    seed: int
    ops: int
    issued: int
    completed: int
    failed: int
    writes: int
    reads: int
    distinct_writes: int
    end_time: float
    offset: float
    events: int
    max_resident: int
    evicted: int
    checker_ok: bool

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass
class LongRunReport:
    """Outcome of one sharded long run: verdict, gauges and epoch rows.

    Everything in :meth:`to_jsonable` is a deterministic function of the
    run parameters — wall-clock timing and the jobs count are deliberately
    excluded so artefacts of the same run diff clean across any ``jobs``.
    """

    protocol: str
    n: int
    f: int
    params: Dict[str, object]
    epochs: List[EpochRow]
    verdict: MergedCheckResult
    local_violations: Tuple[Violation, ...]
    stream_max_resident: int
    wall_s: float
    jobs: int
    #: Peak resident-set size (KB) over the epoch workers — OS-level
    #: memory ground truth per process, complementing the deterministic
    #: record-count gauge.  Excluded from :meth:`to_jsonable` (it varies
    #: run to run) like every other non-deterministic field.
    worker_max_rss_kb: int = 0
    replay_history: Optional[History] = field(default=None, repr=False)

    # -- aggregate accessors ------------------------------------------------
    @property
    def ok(self) -> bool:
        return self.verdict.ok and all(row.checker_ok for row in self.epochs)

    @property
    def issued(self) -> int:
        return sum(row.issued for row in self.epochs)

    @property
    def completed(self) -> int:
        return sum(row.completed for row in self.epochs)

    @property
    def failed(self) -> int:
        return sum(row.failed for row in self.epochs)

    @property
    def writes(self) -> int:
        return sum(row.writes for row in self.epochs)

    @property
    def reads(self) -> int:
        return sum(row.reads for row in self.epochs)

    @property
    def events(self) -> int:
        return sum(row.events for row in self.epochs)

    @property
    def distinct_writes(self) -> int:
        return sum(row.distinct_writes for row in self.epochs)

    @property
    def ops_per_s(self) -> float:
        return self.issued / self.wall_s if self.wall_s > 0 else float("inf")

    # -- whole-history guard ------------------------------------------------
    def full_history(self) -> History:
        """Sharded runs have no in-memory history — same guard as a
        single-process streaming run (see
        :meth:`repro.runtime.cluster.RegisterCluster.full_history`)."""
        if self.replay_history is not None:
            return self.replay_history
        raise TypeError(
            f"{type(self).__name__} records through sharded StreamingRecorder "
            f"sinks; whole-history analyses need the in-memory History sink "
            f"(the default) — subscribe a stream observer for bounded-memory "
            f"runs instead, or rerun a small run with keep_records=True"
        )

    def latency_tracker(self):
        from repro.metrics.latency import LatencyTracker

        tracker = LatencyTracker()
        tracker.record_operations(self.full_history().operations())
        return tracker

    # -- serialisation ------------------------------------------------------
    def to_jsonable(self) -> Dict[str, object]:
        return {
            "schema_version": LONGRUN_SCHEMA_VERSION,
            "kind": "longrun",
            "protocol": self.protocol,
            "params": dict(self.params),
            "totals": {
                "issued": self.issued,
                "completed": self.completed,
                "failed": self.failed,
                "writes": self.writes,
                "reads": self.reads,
                "events": self.events,
                "distinct_writes": self.distinct_writes,
                "stream_max_resident": self.stream_max_resident,
            },
            "verdict": self.verdict.to_jsonable(),
            "local_violations": [
                {
                    "kind": v.kind,
                    "description": v.description,
                    "op_ids": list(v.op_ids),
                }
                for v in self.local_violations
            ],
            "epochs": [row.as_dict() for row in self.epochs],
        }


def run_longrun(
    protocol: str = "SODA",
    *,
    ops: int = 1_000_000,
    epoch_ops: int = 25_000,
    jobs: int = 1,
    n: int = 6,
    f: int = 2,
    num_writers: int = 2,
    num_readers: int = 2,
    value_size: int = 32,
    mean_gap: float = 0.25,
    window: int = 256,
    frontier_limit: int = 256,
    seed: int = 0,
    keep_records: bool = False,
    protocol_kwargs: Optional[Mapping[str, object]] = None,
    faults: object = "none",
) -> LongRunReport:
    """Run one long streamed execution, sharded into epochs over ``jobs``.

    The epoch grid (sizes, derived seeds, offsets) depends only on the
    parameters, never on ``jobs``; the pool merely decides which process
    simulates which epoch, so the report's deterministic content —
    including the merged verdict — is byte-identical for every jobs count.

    Defaults mirror ``repro.cli experiment longrun`` (n=6, f=2), so the
    committed ``results/`` artefacts are reproducible from either entry
    point with no extra arguments beyond protocol/ops/seed.
    """
    if ops < 1:
        raise ValueError("ops must be positive")
    if epoch_ops < 1:
        raise ValueError("epoch_ops must be positive")
    faults_spec = canonical_fault_spec(faults)
    cluster_kwargs = (
        dict(protocol_kwargs)
        if protocol_kwargs is not None
        else default_protocol_kwargs(protocol)
    )
    epochs = math.ceil(ops / epoch_ops)
    grid = tuple(
        {
            "protocol": protocol,
            "n": n,
            "f": f,
            "num_writers": num_writers,
            "num_readers": num_readers,
            "epoch_index": k,
            "ops": min(epoch_ops, ops - k * epoch_ops),
            "value_size": value_size,
            "mean_gap": mean_gap,
            "window": window,
            "frontier_limit": frontier_limit,
            "keep_records": keep_records,
            "cluster_kwargs": cluster_kwargs,
            "faults_spec": faults_spec,
        }
        for k in range(epochs)
    )
    spec = SweepSpec(
        name=f"longrun-{protocol.lower()}",
        fn=longrun_epoch_point,
        grid=grid,
        base_seed=seed,
        description=f"long streamed {protocol} run, {ops} ops over {epochs} epochs",
    )

    rows: List[EpochRow] = []
    shards: List[ShardVerdict] = []
    local_violations: List[Violation] = []
    replay = History() if keep_records else None
    offset = EPOCH_GAP

    def consume(result: Dict[str, object]) -> None:
        """Fold one finished epoch into the report state (epoch order)."""
        nonlocal offset
        k = result["epoch"]
        verdict: ShardVerdict = result["verdict"]
        shards.append(
            ShardVerdict(
                index=k,
                ops_seen=verdict.ops_seen,
                reads_checked=verdict.reads_checked,
                summaries=tuple(
                    _rebase_summary(s, k, offset) for s in verdict.summaries
                ),
                duplicate_claims=tuple(
                    (key, _qualify(op_id, k) or "?", invoked + offset)
                    for key, op_id, invoked in verdict.duplicate_claims
                ),
                violations=tuple(
                    _qualify_violation(v, k) for v in verdict.violations
                ),
            )
        )
        local_violations.extend(shards[-1].violations)
        rows.append(
            EpochRow(
                index=k,
                seed=result["seed"],
                ops=result["ops"],
                issued=result["issued"],
                completed=result["completed"],
                failed=result["failed"],
                writes=result["writes"],
                reads=result["reads"],
                distinct_writes=result["distinct_writes"],
                end_time=result["end_time"],
                offset=offset,
                events=result["events"],
                max_resident=result["max_resident"],
                evicted=result["evicted"],
                checker_ok=result["checker_ok"],
            )
        )
        if replay is not None:
            marker_id = f"<epoch{k}-initial>"
            replay.record(
                OperationRecord(
                    op_id=marker_id,
                    kind="write",
                    client=marker_id,
                    invoked_at=offset - 0.75 * EPOCH_GAP,
                    responded_at=offset - 0.5 * EPOCH_GAP,
                    value=_epoch_marker(k),
                )
            )
            for op_id, kind, client, inv, resp, value, failed in result["records"]:
                replay.record(
                    OperationRecord(
                        op_id=_qualify(op_id, k) or "?",
                        kind=kind,
                        client=f"e{k}:{client}",
                        invoked_at=inv + offset,
                        responded_at=None if resp is None else resp + offset,
                        value=value,
                        failed=failed,
                    )
                )
        offset += result["end_time"] + EPOCH_GAP

    # Pipelined merge: epoch verdicts stream out of the pool as shards
    # finish (imap_unordered — no barrier on the slowest worker) and the
    # per-epoch rebase/summary work runs on the coordinator while later
    # epochs are still simulating.  Epoch offsets accumulate in epoch
    # order, so the in_order cursor restores grid order; the folded state
    # — hence the merged verdict and every artefact byte — is identical
    # for any jobs count.
    start = time.perf_counter()
    worker_rss = 0
    for result in in_order(iter_sweep(spec, jobs=jobs)):
        worker_rss = max(worker_rss, result["max_rss_kb"])
        consume(result)
    merged = merge_shard_verdicts(shards, initial_value=None)
    wall_s = time.perf_counter() - start
    return LongRunReport(
        protocol=protocol,
        n=n,
        f=f,
        params={
            "ops": ops,
            "epoch_ops": epoch_ops,
            "epochs": epochs,
            "n": n,
            "f": f,
            "num_writers": num_writers,
            "num_readers": num_readers,
            "value_size": value_size,
            "mean_gap": mean_gap,
            "window": window,
            "frontier_limit": frontier_limit,
            "seed": seed,
            # Only fault-injected runs carry the spec, so benign artefacts
            # keep their pre-FaultPlan byte layout.
            **({"faults": faults_spec} if faults_spec != "none" else {}),
            # Protocol-specific construction arguments (e.g. CASGC's delta,
            # SODAerr's e), so the artefact reproduces from its own params.
            **{
                f"protocol_{key}": value
                for key, value in sorted(cluster_kwargs.items())
            },
        },
        epochs=rows,
        verdict=merged,
        local_violations=tuple(local_violations),
        stream_max_resident=max(row.max_resident for row in rows),
        wall_s=wall_s,
        jobs=jobs,
        worker_max_rss_kb=worker_rss,
        replay_history=replay,
    )


# ----------------------------------------------------------------------
# committed artefacts
# ----------------------------------------------------------------------
def artefact_paths(report: LongRunReport, directory: Path) -> Tuple[Path, Path]:
    stem = f"longrun_{report.protocol.lower()}_{report.params['ops']}"
    return directory / f"{stem}.json", directory / f"{stem}.csv"


def write_longrun_artefacts(
    report: LongRunReport, directory: Path
) -> Tuple[Path, Path]:
    """Write the deterministic JSON report and per-epoch CSV under
    ``directory`` (typically ``results/``); returns the two paths.

    Both files are byte-identical for any jobs count — the CI smoke job
    relies on ``diff`` of a ``--jobs 1`` and a ``--jobs 2`` run.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    json_path, csv_path = artefact_paths(report, directory)
    json_path.write_text(
        json.dumps(report.to_jsonable(), indent=2, sort_keys=True) + "\n"
    )
    fieldnames = list(report.epochs[0].as_dict()) if report.epochs else []
    with csv_path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        for row in report.epochs:
            writer.writerow(row.as_dict())
    return json_path, csv_path
