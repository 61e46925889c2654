"""The namespace engine: multi-object runs partitioned across processes.

Every multi-object run — closed loop (``experiment longrun --objects N``),
open loop (``experiment openloop``) and adversarial (``experiment
adversary``) — goes through this module.  A run is a deterministic grid
of **epochs** (the long-run sharding grain, see
:mod:`repro.analysis.longrun`); every epoch's namespace is further split
into ``P`` partitions (:func:`repro.workloads.keyed.partition_objects`,
LPT on the popularity shares), and each **cell** — one
``(epoch, partition)`` pair — simulates its objects, each on its own
fresh simulation (:func:`repro.runtime.fleet.fleet_cell_point`).  The
cell grid is ``epochs × P``; with ``--jobs J`` up to ``J × P`` cells are
in flight over the spawn pool, and ``--fleet 1 --jobs 1`` runs the whole
grid in-process.

Simulating each object on its own clock is sound because linearizability
is local (Herlihy & Wing): a namespace is atomic iff each register is,
and the paper's registers never exchange messages.  Each object's
history is checked online by its own checker and the per-object shard
verdicts merge into one namespace verdict
(:func:`repro.consistency.shardmerge.merge_namespace_verdicts`).

**Byte-identity contract.**  Everything a cell computes is a pure
function of ``(seed, object)``: epoch seeds are
``derive_seed(seed, engine_name, k)`` with the engine names
``multiobj-<p>``, ``openloop-<p>`` and ``adversary-<p>``, each object's
driver inputs come from the namespace-wide
:func:`~repro.workloads.keyed.plan_objects` draw, its simulation seed is
:func:`~repro.runtime.fleet.fleet_object_seed`, and its fault/audit
seeds derive from its global index.  The partition assignment and the
pool schedule only decide *where* an object simulates — so the reports
here, and both artefacts, are byte-identical for any ``--fleet`` /
``--jobs`` combination (the CI ``fleet-smoke`` job diffs both axes).

**Capacity metric.**  Each cell measures its own CPU seconds; an epoch's
critical path is the *maximum* over its cells, and ``fleet_cpu_s`` sums
the critical paths.  ``fleet_ops_per_s = issued / fleet_cpu_s`` is a
*model* of the sustained namespace rate with one core per partition —
equal to the wall-clock rate on a ``>= P``-core host.  The measured
wall-clock rate of *this* host rides along as ``ops_per_s``.

Artefacts land under ``results/`` as ``fleet_*.json`` / ``.csv``.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

from repro.analysis.longrun import (
    EPOCH_GAP,
    LONGRUN_SCHEMA_VERSION,
    _epoch_marker,
    _qualify,
    _qualify_violation,
    _rebase_summary,
    default_protocol_kwargs,
)
from repro.analysis.pool import in_order, iter_unordered
from repro.analysis.sweep import derive_seed
from repro.consistency.incremental import Violation
from repro.consistency.shardmerge import (
    NamespaceCheckResult,
    ShardVerdict,
    merge_namespace_verdicts,
)
from repro.metrics.latency import LatencyHistogram
from repro.runtime.fleet import fleet_cell_point
from repro.workloads.arrivals import parse_arrival
from repro.workloads.faults import canonical_fault_spec
from repro.workloads.keyed import parse_key_dist, partition_objects

#: Open-loop artefact schema version (bump on breaking changes to the
#: JSON layout); closed-loop and adversarial artefacts share
#: :data:`~repro.analysis.longrun.LONGRUN_SCHEMA_VERSION`.
OPENLOOP_SCHEMA_VERSION = 1


def _jsonable_float(value: float) -> Optional[float]:
    """JSON-safe float: the nan/inf sentinels become ``null``."""
    return None if math.isnan(value) or math.isinf(value) else value


def _latency_block(hist: LatencyHistogram, slo: float) -> Dict[str, object]:
    summary = hist.summary()
    return {
        "summary": {
            key: (value if key == "count" else _jsonable_float(value))
            for key, value in summary.items()
        },
        "slo_attainment": _jsonable_float(hist.attainment(slo)),
        "histogram": hist.to_jsonable(),
    }


# ----------------------------------------------------------------------
# cell grid
# ----------------------------------------------------------------------
def _fleet_grid(
    mode: str,
    engine_name: str,
    *,
    ops: int,
    epoch_ops: int,
    objects: int,
    fleet: int,
    key_dist_spec: str,
    seed: int,
    common: Mapping[str, object],
) -> Tuple[int, int, List[Dict[str, object]]]:
    """The deterministic ``epochs × partitions`` cell grid.

    Epoch seeds derive from ``engine_name`` (``multiobj-<p>``,
    ``openloop-<p>`` or ``adversary-<p>``); the partition split is a pure
    function of the key distribution.  Returns
    ``(epochs, partitions, payloads)``.
    """
    if ops < 1:
        raise ValueError("ops must be positive")
    if epoch_ops < 1:
        raise ValueError("epoch_ops must be positive")
    if objects < 1:
        raise ValueError("objects must be positive")
    if fleet < 1:
        raise ValueError("fleet must be positive")
    partitions = partition_objects(
        parse_key_dist(key_dist_spec), objects, fleet
    )
    epochs = math.ceil(ops / epoch_ops)
    count = len(partitions)
    payloads: List[Dict[str, object]] = []
    for k in range(epochs):
        epoch_seed = derive_seed(seed, engine_name, k)
        for p, owned in enumerate(partitions):
            payloads.append(
                {
                    "mode": mode,
                    "index": k * count + p,
                    "epoch": k,
                    "partition": p,
                    "object_ids": tuple(owned),
                    "namespace_size": objects,
                    "epoch_seed": epoch_seed,
                    "ops": min(epoch_ops, ops - k * epoch_ops),
                    "marker": _epoch_marker(k),
                    "key_dist_spec": key_dist_spec,
                    **common,
                }
            )
    return epochs, count, payloads


def _iter_epochs(payloads, *, partitions: int, jobs: int):
    """Yield one list of ``partitions`` cell results per epoch, in epoch
    order.  The pool fans the whole grid out at once (up to
    ``jobs × partitions`` cells in flight, so later epochs overlap the
    current epoch's stragglers); the order-restoring cursor re-serialises
    completions, and because the grid is laid out epoch-major the next
    ``partitions`` results are always one complete epoch."""
    buffer: List[Dict[str, object]] = []
    for result in in_order(
        iter_unordered(fleet_cell_point, payloads, jobs=jobs * partitions)
    ):
        buffer.append(result)
        if len(buffer) == partitions:
            yield buffer
            buffer = []


def _merged_objects(cells: List[Dict[str, object]]) -> List[Dict[str, object]]:
    """One epoch's per-object payloads in global object order — the fold
    order, hence independent of the partition assignment."""
    return sorted(
        (obj for cell in cells for obj in cell["objects"]),
        key=lambda obj: obj["object"],
    )


# ----------------------------------------------------------------------
# rows
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FleetObjectRow:
    """Deterministic per-(epoch, object) closed-loop row.

    ``end_time`` and ``offset`` live on the *object's own* timeline (each
    fleet object runs its own simulation); the partition that hosted the
    object is deliberately absent — it depends on ``--fleet`` and rows
    must not.
    """

    epoch: int
    object: int
    seed: int
    allocated: int
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


@dataclass(frozen=True)
class FleetEpochRow:
    """Deterministic per-epoch aggregate row (all objects of the epoch).

    ``end_time`` is the epoch makespan — the largest per-object end time,
    i.e. when the last partition would finish with one core each."""

    index: int
    seed: int
    ops: int
    issued: int
    completed: int
    failed: int
    end_time: float
    events: int
    max_resident: int
    checker_ok: bool

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class FleetOpenLoopObjectRow:
    """Deterministic per-(epoch, object) open-loop admission row."""

    epoch: int
    object: int
    seed: int
    allocated: int
    arrived: int
    admitted: int
    issued: int
    completed: int
    failed: int
    rejected: int
    shed_reads: int
    timed_out: int
    writes: int
    reads: int
    queued_at_end: int
    stall_time: float
    end_time: float
    events: int

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class FleetOpenLoopEpochRow:
    """Deterministic per-epoch open-loop aggregate row."""

    index: int
    seed: int
    ops: int
    arrived: int
    admitted: int
    issued: int
    completed: int
    failed: int
    rejected: int
    shed_reads: int
    timed_out: int
    writes: int
    reads: int
    queued_at_end: int
    stall_time: float
    end_time: float
    events: int

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class FleetAdversaryObjectRow:
    """Deterministic per-(epoch, object) detection row (fleet timeline)."""

    epoch: int
    object: int
    seed: int
    allocated: int
    issued: int
    completed: int
    failed: int
    writes: int
    reads: int
    checker_ok: bool
    withheld: int
    surviving_elements: Optional[int]
    below_k: bool
    isolated: int
    crashed: int
    min_estimate: int
    flagged: bool
    first_flagged_at: Optional[float]
    first_stall_at: Optional[float]
    stalled_reads: int
    detected_before_stall: bool
    false_flag: bool
    end_time: float
    offset: float

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------
class _FleetTimingMixin:
    """The capacity accessors shared by every fleet report.

    ``fleet_cpu_s`` sums each epoch's critical path (the largest cell CPU
    time), so the ``fleet_*`` rates describe the sustained throughput of
    a host with one core per partition; ``ops_per_s`` is this host's
    actual wall-clock rate.  All timing fields are excluded from
    :meth:`to_jsonable` like every non-deterministic field.
    """

    @property
    def ops_per_s(self) -> float:
        return self.issued / self.wall_s if self.wall_s > 0 else float("inf")

    @property
    def fleet_ops_per_s(self) -> float:
        return (
            self.issued / self.fleet_cpu_s
            if self.fleet_cpu_s > 0
            else float("inf")
        )

    @property
    def fleet_events_per_s(self) -> float:
        return (
            self.events / self.fleet_cpu_s
            if self.fleet_cpu_s > 0
            else float("inf")
        )


@dataclass
class FleetLongRunReport(_FleetTimingMixin):
    """Outcome of one closed-loop fleet run.

    The namespace checker verdict (per-object merges and their
    conjunction), per-epoch and per-object rows, and the fleet capacity
    bookkeeping.  ``fleet``, ``jobs``, wall-clock and CPU timing are
    excluded from :meth:`to_jsonable`, so artefacts diff clean across
    every ``--fleet``/``--jobs`` combination.
    """

    protocol: str
    n: int
    f: int
    objects: int
    params: Dict[str, object]
    epochs: List[FleetEpochRow]
    object_rows: List[FleetObjectRow]
    verdict: NamespaceCheckResult
    local_violations: Tuple[Tuple[int, Violation], ...]
    stream_max_resident: int
    fleet_cpu_s: float = 0.0
    wall_s: float = 0.0
    fleet: int = 1
    jobs: int = 1
    #: Peak resident-set size (KB) over the cell workers — the per-process
    #: memory a P-core deployment must provision; excluded from artefacts.
    worker_max_rss_kb: int = 0

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
    def events(self) -> int:
        return sum(row.events for row in self.epochs)

    def object_totals(self) -> List[Dict[str, int]]:
        """Per-object totals across every epoch (hot keys show up here)."""
        totals = [
            {"issued": 0, "completed": 0, "failed": 0, "writes": 0, "reads": 0}
            for _ in range(self.objects)
        ]
        for row in self.object_rows:
            bucket = totals[row.object]
            bucket["issued"] += row.issued
            bucket["completed"] += row.completed
            bucket["failed"] += row.failed
            bucket["writes"] += row.writes
            bucket["reads"] += row.reads
        return totals

    # -- serialisation ------------------------------------------------------
    def to_jsonable(self) -> Dict[str, object]:
        return {
            "schema_version": LONGRUN_SCHEMA_VERSION,
            "kind": "fleet-longrun",
            "protocol": self.protocol,
            "params": dict(self.params),
            "totals": {
                "issued": self.issued,
                "completed": self.completed,
                "failed": self.failed,
                "events": self.events,
                "stream_max_resident": self.stream_max_resident,
            },
            "object_totals": self.object_totals(),
            "verdict": self.verdict.to_jsonable(),
            "local_violations": [
                {
                    "object": obj,
                    "kind": v.kind,
                    "description": v.description,
                    "op_ids": list(v.op_ids),
                }
                for obj, v in self.local_violations
            ],
            "epochs": [row.as_dict() for row in self.epochs],
            "object_rows": [row.as_dict() for row in self.object_rows],
        }


@dataclass
class FleetOpenLoopReport(_FleetTimingMixin):
    """Outcome of one open-loop fleet run.

    Admission counters sum and per-object bounded-memory latency
    histograms merge in (epoch, object) order, so the percentiles describe
    the whole run; plus per-object rows and the fleet capacity
    bookkeeping.
    """

    protocol: str
    n: int
    f: int
    objects: int
    params: Dict[str, object]
    epochs: List[FleetOpenLoopEpochRow]
    object_rows: List[FleetOpenLoopObjectRow]
    read_latency: LatencyHistogram
    write_latency: LatencyHistogram
    slo: float
    fleet_cpu_s: float = 0.0
    wall_s: float = 0.0
    fleet: int = 1
    jobs: int = 1
    #: Peak resident-set size (KB) over the cell workers; excluded from
    #: artefacts.
    worker_max_rss_kb: int = 0

    # -- aggregate accessors ------------------------------------------------
    def _sum(self, attribute: str) -> int:
        return sum(getattr(row, attribute) for row in self.epochs)

    @property
    def arrived(self) -> int:
        return self._sum("arrived")

    @property
    def admitted(self) -> int:
        return self._sum("admitted")

    @property
    def issued(self) -> int:
        return self._sum("issued")

    @property
    def completed(self) -> int:
        return self._sum("completed")

    @property
    def failed(self) -> int:
        return self._sum("failed")

    @property
    def rejected(self) -> int:
        return self._sum("rejected")

    @property
    def shed_reads(self) -> int:
        return self._sum("shed_reads")

    @property
    def timed_out(self) -> int:
        return self._sum("timed_out")

    @property
    def writes(self) -> int:
        return self._sum("writes")

    @property
    def reads(self) -> int:
        return self._sum("reads")

    @property
    def events(self) -> int:
        return self._sum("events")

    @property
    def sim_time(self) -> float:
        """Sum of epoch makespans (largest per-object end time each)."""
        return sum(row.end_time for row in self.epochs)

    def latency(self) -> LatencyHistogram:
        """Reads and writes merged (a fresh copy)."""
        return self.read_latency.copy().merge(self.write_latency)

    @property
    def p50(self) -> float:
        return self.latency().percentile(50.0)

    @property
    def p99(self) -> float:
        return self.latency().percentile(99.0)

    @property
    def p999(self) -> float:
        return self.latency().percentile(99.9)

    def slo_attainment(self) -> float:
        return self.latency().attainment(self.slo)

    @property
    def sim_ops_per_s(self) -> float:
        """Sustained simulated throughput (completed ops per simulated
        second, one simulated time unit read as 1 ms)."""
        sim_seconds = self.sim_time / 1_000.0
        return self.completed / sim_seconds if sim_seconds > 0 else float("inf")

    # -- serialisation ------------------------------------------------------
    def to_jsonable(self) -> Dict[str, object]:
        return {
            "schema_version": OPENLOOP_SCHEMA_VERSION,
            "kind": "fleet-openloop",
            "protocol": self.protocol,
            "params": dict(self.params),
            "totals": {
                "arrived": self.arrived,
                "admitted": self.admitted,
                "issued": self.issued,
                "completed": self.completed,
                "failed": self.failed,
                "rejected": self.rejected,
                "shed_reads": self.shed_reads,
                "timed_out": self.timed_out,
                "writes": self.writes,
                "reads": self.reads,
                "events": self.events,
                "sim_time": self.sim_time,
                "sim_ops_per_s": _jsonable_float(self.sim_ops_per_s),
            },
            "latency": {
                "read": _latency_block(self.read_latency, self.slo),
                "write": _latency_block(self.write_latency, self.slo),
                "all": _latency_block(self.latency(), self.slo),
            },
            "slo_ms": self.slo,
            "epochs": [row.as_dict() for row in self.epochs],
            "object_rows": [row.as_dict() for row in self.object_rows],
        }


@dataclass
class FleetAdversaryReport(_FleetTimingMixin):
    """Outcome of one adversarial fleet run.

    Three verdicts per object: the checker verdict (atomicity must hold
    even when reads stall — the adversaries drop and delay messages, they
    never forge them), the audit verdict (did the probes flag the register
    unrecoverable, and when) and the stall observation (when did a
    foreground read first exceed the stall threshold).  The detection
    contract: every register whose surviving element count drops below
    ``k`` is flagged *before* any foreground read stalls, and no fully
    recoverable register is flagged.  Fault ground truth and audit seeds
    derive from each object's global index.
    """

    protocol: str
    n: int
    f: int
    objects: int
    params: Dict[str, object]
    epochs: List[FleetEpochRow]
    object_rows: List[FleetAdversaryObjectRow]
    verdict: NamespaceCheckResult
    local_violations: Tuple[Tuple[int, Violation], ...]
    object_faults: List[Dict[str, object]] = field(default_factory=list)
    stream_max_resident: int = 0
    fleet_cpu_s: float = 0.0
    wall_s: float = 0.0
    fleet: int = 1
    jobs: int = 1
    #: Peak resident-set size (KB) over the cell workers; excluded from
    #: artefacts.
    worker_max_rss_kb: int = 0

    # -- aggregate accessors ------------------------------------------------
    @property
    def checker_ok(self) -> bool:
        return self.verdict.ok and all(row.checker_ok for row in self.epochs)

    @property
    def detection_ok(self) -> bool:
        """Every below-``k`` register flagged before any foreground stall."""
        return all(
            row.detected_before_stall
            for row in self.object_rows
            if row.below_k
        )

    @property
    def ok(self) -> bool:
        return self.checker_ok and self.detection_ok

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
    def events(self) -> int:
        return sum(row.events for row in self.epochs)

    def detection_summary(self) -> Dict[str, object]:
        """The run-level detection verdict, one row of booleans/counts."""
        below = [row for row in self.object_rows if row.below_k]
        sound = [row for row in self.object_rows if not row.below_k]
        return {
            "below_k_rows": len(below),
            "detected": sum(1 for row in below if row.flagged),
            "detected_before_stall": sum(
                1 for row in below if row.detected_before_stall
            ),
            "missed": sum(1 for row in below if not row.flagged),
            "false_flags": sum(1 for row in sound if row.false_flag),
            "stalled_reads": sum(row.stalled_reads for row in self.object_rows),
            "all_detected_before_stall": self.detection_ok,
        }

    # -- serialisation ------------------------------------------------------
    def to_jsonable(self) -> Dict[str, object]:
        return {
            "schema_version": LONGRUN_SCHEMA_VERSION,
            "kind": "fleet-adversary",
            "protocol": self.protocol,
            "params": dict(self.params),
            "totals": {
                "issued": self.issued,
                "completed": self.completed,
                "failed": self.failed,
                "events": self.events,
                "stream_max_resident": self.stream_max_resident,
            },
            "detection": self.detection_summary(),
            "verdict": self.verdict.to_jsonable(),
            "local_violations": [
                {
                    "object": obj,
                    "kind": v.kind,
                    "description": v.description,
                    "op_ids": list(v.op_ids),
                }
                for obj, v in self.local_violations
            ],
            "object_faults": list(self.object_faults),
            "epochs": [row.as_dict() for row in self.epochs],
            "object_rows": [row.as_dict() for row in self.object_rows],
        }


# ----------------------------------------------------------------------
# runners
# ----------------------------------------------------------------------
def run_fleet_longrun(
    protocol: str = "SODA",
    *,
    ops: int = 100_000,
    epoch_ops: int = 25_000,
    fleet: int = 1,
    jobs: int = 1,
    objects: int = 8,
    key_dist: str = "uniform",
    n: int = 6,
    f: int = 2,
    num_writers: int = 1,
    num_readers: int = 1,
    value_size: int = 32,
    mean_gap: float = 0.25,
    window: int = 128,
    frontier_limit: int = 256,
    seed: int = 0,
    protocol_kwargs: Optional[Mapping[str, object]] = None,
    faults: object = "none",
) -> FleetLongRunReport:
    """Run one closed-loop namespace execution over ``epochs × fleet`` cells.

    ``fleet`` is the partition count and ``jobs`` how many epochs may be
    in flight at once — up to ``jobs × fleet`` processes.  Each object
    streams its share of ``ops`` through a bounded recorder with its own
    online checker; the namespace verdict is byte-identical for every
    ``fleet``/``jobs``.  Defaults are smaller than the single-register
    long run (fewer clients, smaller window) because the namespace
    multiplies both by ``objects``.
    """
    dist_spec = parse_key_dist(key_dist).spec()
    faults_spec = canonical_fault_spec(faults)
    cluster_kwargs = (
        dict(protocol_kwargs)
        if protocol_kwargs is not None
        else default_protocol_kwargs(protocol)
    )
    epochs, partitions, payloads = _fleet_grid(
        "longrun",
        f"multiobj-{protocol.lower()}",
        ops=ops,
        epoch_ops=epoch_ops,
        objects=objects,
        fleet=fleet,
        key_dist_spec=dist_spec,
        seed=seed,
        common={
            "protocol": protocol,
            "n": n,
            "f": f,
            "num_writers": num_writers,
            "num_readers": num_readers,
            "value_size": value_size,
            "mean_gap": mean_gap,
            "window": window,
            "frontier_limit": frontier_limit,
            "cluster_kwargs": cluster_kwargs,
            "faults_spec": faults_spec,
            "max_events": None,
        },
    )

    epoch_rows: List[FleetEpochRow] = []
    object_rows: List[FleetObjectRow] = []
    shards_by_object: List[List[ShardVerdict]] = [[] for _ in range(objects)]
    local_violations: List[Tuple[int, Violation]] = []
    offsets = {gid: EPOCH_GAP for gid in range(objects)}
    fleet_cpu_s = 0.0
    worker_rss = 0

    start = time.perf_counter()
    for cells in _iter_epochs(payloads, partitions=partitions, jobs=jobs):
        k = cells[0]["epoch"]
        epoch_ok = True
        end_times: List[float] = []
        for payload in _merged_objects(cells):
            gid = payload["object"]
            offset = offsets[gid]
            verdict: ShardVerdict = payload["verdict"]
            rebased = ShardVerdict(
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
            shards_by_object[gid].append(rebased)
            local_violations.extend((gid, v) for v in rebased.violations)
            epoch_ok = epoch_ok and payload["checker_ok"]
            end_times.append(payload["end_time"])
            object_rows.append(
                FleetObjectRow(
                    epoch=k,
                    object=gid,
                    seed=cells[0]["seed"],
                    allocated=payload["allocated"],
                    issued=payload["issued"],
                    completed=payload["completed"],
                    failed=payload["failed"],
                    writes=payload["writes"],
                    reads=payload["reads"],
                    distinct_writes=payload["distinct_writes"],
                    end_time=payload["end_time"],
                    offset=offset,
                    events=payload["events"],
                    max_resident=payload["max_resident"],
                    evicted=payload["evicted"],
                    checker_ok=payload["checker_ok"],
                )
            )
            offsets[gid] = offset + payload["end_time"] + EPOCH_GAP
        merged = _merged_objects(cells)
        epoch_rows.append(
            FleetEpochRow(
                index=k,
                seed=cells[0]["seed"],
                ops=cells[0]["ops"],
                issued=sum(p["issued"] for p in merged),
                completed=sum(p["completed"] for p in merged),
                failed=sum(p["failed"] for p in merged),
                end_time=max(end_times),
                events=sum(p["events"] for p in merged),
                max_resident=max(p["max_resident"] for p in merged),
                checker_ok=epoch_ok,
            )
        )
        fleet_cpu_s += max(cell["cpu_s"] for cell in cells)
        worker_rss = max(worker_rss, max(cell["max_rss_kb"] for cell in cells))
    verdict = merge_namespace_verdicts(shards_by_object, initial_value=None)
    wall_s = time.perf_counter() - start

    return FleetLongRunReport(
        protocol=protocol,
        n=n,
        f=f,
        objects=objects,
        params={
            "ops": ops,
            "epoch_ops": epoch_ops,
            "epochs": epochs,
            "objects": objects,
            "key_dist": dist_spec,
            "n": n,
            "f": f,
            "num_writers": num_writers,
            "num_readers": num_readers,
            "value_size": value_size,
            "mean_gap": mean_gap,
            "window": window,
            "frontier_limit": frontier_limit,
            "seed": seed,
            **({"faults": faults_spec} if faults_spec != "none" else {}),
            **{
                f"protocol_{key}": value
                for key, value in sorted(cluster_kwargs.items())
            },
        },
        epochs=epoch_rows,
        object_rows=object_rows,
        verdict=verdict,
        local_violations=tuple(local_violations),
        stream_max_resident=max(row.max_resident for row in epoch_rows),
        fleet_cpu_s=fleet_cpu_s,
        wall_s=wall_s,
        fleet=fleet,
        jobs=jobs,
        worker_max_rss_kb=worker_rss,
    )


def run_fleet_openloop(
    protocol: str = "SODA",
    *,
    ops: int = 100_000,
    epoch_ops: int = 25_000,
    fleet: int = 1,
    jobs: int = 1,
    objects: int = 8,
    key_dist: str = "uniform",
    arrival: str = "poisson:4",
    read_fraction: float = 0.5,
    policy: str = "drop",
    queue_per_server: int = 4,
    op_timeout: Optional[float] = None,
    slo: float = 10.0,
    n: int = 6,
    f: int = 2,
    num_writers: int = 8,
    num_readers: int = 8,
    value_size: int = 32,
    seed: int = 0,
    protocol_kwargs: Optional[Mapping[str, object]] = None,
    faults: object = "none",
) -> FleetOpenLoopReport:
    """Run one open-loop namespace execution over ``epochs × fleet`` cells.

    ``arrival``/``key_dist`` are spec strings (``poisson:4``,
    ``zipf:1.1``), recorded canonicalised in the artefact params.  Each
    object's arrival process is the namespace process scaled by its
    popularity share, so the offered rate is partition-independent; a
    trace arrival replays unscaled on a single object and raises on a
    larger namespace.  Each epoch restarts the arrival clock at zero;
    counters sum and histograms merge across epochs and objects.  ``slo``
    is the latency target (in simulated milliseconds) for the attainment
    numbers.
    """
    arrival_spec = parse_arrival(arrival).spec()
    dist_spec = parse_key_dist(key_dist).spec()
    faults_spec = canonical_fault_spec(faults)
    if not slo > 0:
        raise ValueError("slo must be positive")
    cluster_kwargs = (
        dict(protocol_kwargs)
        if protocol_kwargs is not None
        else default_protocol_kwargs(protocol)
    )
    epochs, partitions, payloads = _fleet_grid(
        "openloop",
        f"openloop-{protocol.lower()}",
        ops=ops,
        epoch_ops=epoch_ops,
        objects=objects,
        fleet=fleet,
        key_dist_spec=dist_spec,
        seed=seed,
        common={
            "protocol": protocol,
            "n": n,
            "f": f,
            "num_writers": num_writers,
            "num_readers": num_readers,
            "arrival_spec": arrival_spec,
            "read_fraction": read_fraction,
            "policy": policy,
            "queue_per_server": queue_per_server,
            "op_timeout": op_timeout,
            "value_size": value_size,
            "cluster_kwargs": cluster_kwargs,
            "faults_spec": faults_spec,
            "max_events": None,
        },
    )

    epoch_rows: List[FleetOpenLoopEpochRow] = []
    object_rows: List[FleetOpenLoopObjectRow] = []
    read_latency = LatencyHistogram()
    write_latency = LatencyHistogram()
    fleet_cpu_s = 0.0
    worker_rss = 0

    start = time.perf_counter()
    for cells in _iter_epochs(payloads, partitions=partitions, jobs=jobs):
        k = cells[0]["epoch"]
        merged = _merged_objects(cells)
        for payload in merged:
            object_rows.append(
                FleetOpenLoopObjectRow(
                    epoch=k,
                    object=payload["object"],
                    seed=cells[0]["seed"],
                    allocated=payload["allocated"],
                    arrived=payload["arrived"],
                    admitted=payload["admitted"],
                    issued=payload["issued"],
                    completed=payload["completed"],
                    failed=payload["failed"],
                    rejected=payload["rejected"],
                    shed_reads=payload["shed_reads"],
                    timed_out=payload["timed_out"],
                    writes=payload["writes"],
                    reads=payload["reads"],
                    queued_at_end=payload["queued_at_end"],
                    stall_time=payload["stall_time"],
                    end_time=payload["end_time"],
                    events=payload["events"],
                )
            )
            # Deterministic merge order: (epoch, object) ascending.
            read_latency.merge(payload["read_latency"])
            write_latency.merge(payload["write_latency"])
        epoch_rows.append(
            FleetOpenLoopEpochRow(
                index=k,
                seed=cells[0]["seed"],
                ops=cells[0]["ops"],
                arrived=sum(p["arrived"] for p in merged),
                admitted=sum(p["admitted"] for p in merged),
                issued=sum(p["issued"] for p in merged),
                completed=sum(p["completed"] for p in merged),
                failed=sum(p["failed"] for p in merged),
                rejected=sum(p["rejected"] for p in merged),
                shed_reads=sum(p["shed_reads"] for p in merged),
                timed_out=sum(p["timed_out"] for p in merged),
                writes=sum(p["writes"] for p in merged),
                reads=sum(p["reads"] for p in merged),
                queued_at_end=sum(p["queued_at_end"] for p in merged),
                stall_time=sum(p["stall_time"] for p in merged),
                end_time=max(p["end_time"] for p in merged),
                events=sum(p["events"] for p in merged),
            )
        )
        fleet_cpu_s += max(cell["cpu_s"] for cell in cells)
        worker_rss = max(worker_rss, max(cell["max_rss_kb"] for cell in cells))
    wall_s = time.perf_counter() - start

    return FleetOpenLoopReport(
        protocol=protocol,
        n=n,
        f=f,
        objects=objects,
        params={
            "ops": ops,
            "epoch_ops": epoch_ops,
            "epochs": epochs,
            "objects": objects,
            "key_dist": dist_spec,
            "arrival": arrival_spec,
            "read_fraction": read_fraction,
            "policy": policy,
            "queue_per_server": queue_per_server,
            "op_timeout": op_timeout,
            "slo_ms": slo,
            "n": n,
            "f": f,
            "num_writers": num_writers,
            "num_readers": num_readers,
            "value_size": value_size,
            "seed": seed,
            **({"faults": faults_spec} if faults_spec != "none" else {}),
            **{
                f"protocol_{key}": value
                for key, value in sorted(cluster_kwargs.items())
            },
        },
        epochs=epoch_rows,
        object_rows=object_rows,
        read_latency=read_latency,
        write_latency=write_latency,
        slo=slo,
        fleet_cpu_s=fleet_cpu_s,
        wall_s=wall_s,
        fleet=fleet,
        jobs=jobs,
        worker_max_rss_kb=worker_rss,
    )


def run_fleet_adversary(
    protocol: str = "SODA",
    *,
    ops: int = 100_000,
    epoch_ops: int = 25_000,
    fleet: int = 1,
    jobs: int = 1,
    objects: int = 8,
    key_dist: str = "uniform",
    faults: object = "withhold:1:40:30;partition:2:10:12",
    n: int = 6,
    f: int = 2,
    num_writers: int = 1,
    num_readers: int = 1,
    value_size: int = 32,
    mean_gap: float = 0.25,
    window: int = 128,
    frontier_limit: int = 256,
    seed: int = 0,
    stall_threshold: float = 25.0,
    audit_sample: int = 4,
    audit_interval: float = 2.5,
    audit_confirm: int = 2,
    audit_rounds: int = 80,
    audit_start: float = 1.0,
    protocol_kwargs: Optional[Mapping[str, object]] = None,
) -> FleetAdversaryReport:
    """Run one adversarial namespace execution over ``epochs × fleet`` cells.

    Fault ground truth and audit seeds derive from each epoch's seed and
    each object's global index (the withhold victim draw runs over the
    logical namespace), so which registers drop below ``k`` is
    partition-independent.  The default plan withholds one element
    beyond the MDS slack for 30 time units (``withhold:1:40:30`` —
    ``n - k + 1`` servers withhold, leaving ``k - 1`` surviving elements)
    and earlier isolates ``f`` servers along a seeded cut for 12
    (``partition:2:10:12`` — exactly ``k`` reachable, the canonical
    must-not-flag case).
    """
    if stall_threshold <= 0:
        raise ValueError("stall_threshold must be positive")
    dist_spec = parse_key_dist(key_dist).spec()
    faults_spec = canonical_fault_spec(faults)
    cluster_kwargs = (
        dict(protocol_kwargs)
        if protocol_kwargs is not None
        else default_protocol_kwargs(protocol)
    )
    epochs, partitions, payloads = _fleet_grid(
        "adversary",
        f"adversary-{protocol.lower()}",
        ops=ops,
        epoch_ops=epoch_ops,
        objects=objects,
        fleet=fleet,
        key_dist_spec=dist_spec,
        seed=seed,
        common={
            "protocol": protocol,
            "n": n,
            "f": f,
            "num_writers": num_writers,
            "num_readers": num_readers,
            "value_size": value_size,
            "mean_gap": mean_gap,
            "window": window,
            "frontier_limit": frontier_limit,
            "cluster_kwargs": cluster_kwargs,
            "faults_spec": faults_spec,
            "stall_threshold": stall_threshold,
            "audit_sample": audit_sample,
            "audit_interval": audit_interval,
            "audit_confirm": audit_confirm,
            "audit_rounds": audit_rounds,
            "audit_start": audit_start,
            "max_events": None,
        },
    )

    epoch_rows: List[FleetEpochRow] = []
    object_rows: List[FleetAdversaryObjectRow] = []
    object_faults: List[Dict[str, object]] = []
    shards_by_object: List[List[ShardVerdict]] = [[] for _ in range(objects)]
    local_violations: List[Tuple[int, Violation]] = []
    offsets = {gid: EPOCH_GAP for gid in range(objects)}
    fleet_cpu_s = 0.0
    worker_rss = 0

    start = time.perf_counter()
    for cells in _iter_epochs(payloads, partitions=partitions, jobs=jobs):
        k = cells[0]["epoch"]
        epoch_ok = True
        merged = _merged_objects(cells)
        for payload in merged:
            gid = payload["object"]
            offset = offsets[gid]
            verdict: ShardVerdict = payload["verdict"]
            rebased = ShardVerdict(
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
            shards_by_object[gid].append(rebased)
            local_violations.extend((gid, v) for v in rebased.violations)
            epoch_ok = epoch_ok and payload["checker_ok"]
            object_faults.append({"epoch": k, **payload["faults"]})
            object_rows.append(
                FleetAdversaryObjectRow(
                    epoch=k,
                    object=gid,
                    seed=cells[0]["seed"],
                    allocated=payload["allocated"],
                    issued=payload["issued"],
                    completed=payload["completed"],
                    failed=payload["failed"],
                    writes=payload["writes"],
                    reads=payload["reads"],
                    checker_ok=payload["checker_ok"],
                    withheld=payload["withheld"],
                    surviving_elements=payload["surviving_elements"],
                    below_k=payload["below_k"],
                    isolated=payload["isolated"],
                    crashed=payload["crashed"],
                    min_estimate=payload["min_estimate"],
                    flagged=payload["flagged"],
                    first_flagged_at=payload["first_flagged_at"],
                    first_stall_at=payload["first_stall_at"],
                    stalled_reads=payload["stalled_reads"],
                    detected_before_stall=payload["detected_before_stall"],
                    false_flag=payload["false_flag"],
                    end_time=payload["end_time"],
                    offset=offset,
                )
            )
            offsets[gid] = offset + payload["end_time"] + EPOCH_GAP
        epoch_rows.append(
            FleetEpochRow(
                index=k,
                seed=cells[0]["seed"],
                ops=cells[0]["ops"],
                issued=sum(p["issued"] for p in merged),
                completed=sum(p["completed"] for p in merged),
                failed=sum(p["failed"] for p in merged),
                end_time=max(p["end_time"] for p in merged),
                events=sum(p["events"] for p in merged),
                max_resident=max(p["max_resident"] for p in merged),
                checker_ok=epoch_ok,
            )
        )
        fleet_cpu_s += max(cell["cpu_s"] for cell in cells)
        worker_rss = max(worker_rss, max(cell["max_rss_kb"] for cell in cells))
    verdict = merge_namespace_verdicts(shards_by_object, initial_value=None)
    wall_s = time.perf_counter() - start

    return FleetAdversaryReport(
        protocol=protocol,
        n=n,
        f=f,
        objects=objects,
        params={
            "ops": ops,
            "epoch_ops": epoch_ops,
            "epochs": epochs,
            "objects": objects,
            "key_dist": dist_spec,
            "faults": faults_spec,
            "stall_threshold": stall_threshold,
            "audit_sample": audit_sample,
            "audit_interval": audit_interval,
            "audit_confirm": audit_confirm,
            "audit_rounds": audit_rounds,
            "audit_start": audit_start,
            "n": n,
            "f": f,
            "num_writers": num_writers,
            "num_readers": num_readers,
            "value_size": value_size,
            "mean_gap": mean_gap,
            "window": window,
            "frontier_limit": frontier_limit,
            "seed": seed,
            **{
                f"protocol_{key}": value
                for key, value in sorted(cluster_kwargs.items())
            },
        },
        epochs=epoch_rows,
        object_rows=object_rows,
        verdict=verdict,
        local_violations=tuple(local_violations),
        object_faults=object_faults,
        stream_max_resident=max(row.max_resident for row in epoch_rows),
        fleet_cpu_s=fleet_cpu_s,
        wall_s=wall_s,
        fleet=fleet,
        jobs=jobs,
        worker_max_rss_kb=worker_rss,
    )


# ----------------------------------------------------------------------
# committed artefacts
# ----------------------------------------------------------------------
def fleet_artefact_paths(
    report: FleetLongRunReport, directory: Path
) -> Tuple[Path, Path]:
    stem = (
        f"fleet_{report.protocol.lower()}_"
        f"{report.objects}x{report.params['ops']}"
    )
    return directory / f"{stem}.json", directory / f"{stem}.csv"


def fleet_openloop_artefact_paths(
    report: FleetOpenLoopReport, directory: Path
) -> Tuple[Path, Path]:
    arrival_kind = str(report.params["arrival"]).split(":", 1)[0]
    stem = (
        f"fleet_openloop_{report.protocol.lower()}_{arrival_kind}"
        f"_{report.objects}x{report.params['ops']}"
    )
    return directory / f"{stem}.json", directory / f"{stem}.csv"


def fleet_adversary_artefact_paths(
    report: FleetAdversaryReport, directory: Path
) -> Tuple[Path, Path]:
    stem = (
        f"fleet_adversary_{report.protocol.lower()}_"
        f"{report.objects}x{report.params['ops']}"
    )
    return directory / f"{stem}.json", directory / f"{stem}.csv"


_PATHS_BY_KIND = {
    "fleet-longrun": fleet_artefact_paths,
    "fleet-openloop": fleet_openloop_artefact_paths,
    "fleet-adversary": fleet_adversary_artefact_paths,
}


def write_fleet_artefacts(report, directory: Path) -> Tuple[Path, Path]:
    """Write the deterministic JSON report and per-(epoch, object) CSV of
    any fleet report under ``directory``; byte-identical for every
    ``--fleet`` / ``--jobs`` combination (the CI ``fleet-smoke`` job
    diffs both axes)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    jsonable = report.to_jsonable()
    json_path, csv_path = _PATHS_BY_KIND[jsonable["kind"]](report, directory)
    json_path.write_text(json.dumps(jsonable, indent=2, sort_keys=True) + "\n")
    fieldnames = list(report.object_rows[0].as_dict()) if report.object_rows else []
    with csv_path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        for row in report.object_rows:
            writer.writerow(row.as_dict())
    return json_path, csv_path
