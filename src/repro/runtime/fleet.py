"""Fleet cells: one namespace partition simulated in one OS process.

The paper's registers are independent objects, so a namespace run
factorises: object ``g``'s event stream depends only on its own derived
seeds, never on which process — or which *simulation* — hosts it.  Fleet
mode exploits exactly that.  A namespace of ``N`` objects is split into
``P`` partitions (:func:`repro.workloads.keyed.partition_objects`), and
each **cell** — one ``(epoch, partition)`` pair — runs in its own spawned
pool worker, simulating its objects *sequentially, each on its own fresh
simulation*:

* the driver plan (operation split, per-object driver seeds, arrival
  shares) is drawn over the whole logical namespace via
  :func:`repro.workloads.keyed.plan_objects`, so every object receives
  the same budget and driver seed in every partitioning;
* each object's simulation seed is :func:`fleet_object_seed` — a pure
  function of ``(epoch_seed, object)``, in the style of
  :func:`repro.workloads.faults.fault_seed` — so its event stream never
  depends on which cell hosts it;
* fault legs and audit clients derive from the object's *global* index
  and the withhold victim draw runs over the logical namespace size
  (:meth:`~repro.runtime.namespace.MultiRegisterCluster.apply_fault_plan`
  with ``object_ids``/``namespace_size``), so each object's fault
  ground truth is partition-independent.

The result: every per-object payload a cell streams back is
**byte-identical for any ``--fleet P``** — partitioning is purely a
scheduling decision — which is what lets the analysis layer
(:mod:`repro.analysis.fleet`) merge cells into artefacts that diff clean
across every ``--fleet``/``--jobs`` combination.

Each cell also reports its own CPU time (:func:`time.process_time`
around the whole cell) and peak RSS: on a machine with at least ``P``
cores the fleet's wall-clock per epoch is the *maximum* of its cells'
CPU times, so the analysis layer can report the all-core sustained
throughput capacity from any host.

Objects of a cell do **not** interleave on one timeline: each runs on its
own clock, which is sound for atomicity, throughput, latency and
detection experiments precisely because objects never exchange messages
(and linearizability is a local property).
"""

from __future__ import annotations

import hashlib
import time
from typing import Dict, List, Optional, Tuple

from repro.analysis.pool import max_rss_kb
from repro.consistency.multiplex import ObjectCheckerMux
from repro.consistency.stream import OperationRecord, StreamObserver
from repro.runtime.audit import AuditConfig, AuditPool
from repro.runtime.namespace import MultiRegisterCluster, object_namespace
from repro.workloads.arrivals import parse_arrival
from repro.workloads.faults import fault_seed
from repro.workloads.keyed import parse_key_dist


def fleet_object_seed(epoch_seed: int, object_index: int) -> int:
    """The simulation seed of one fleet object: a stable hash of
    ``(epoch_seed, object)`` — same construction as
    :func:`repro.analysis.sweep.derive_seed` /
    :func:`repro.workloads.faults.fault_seed`, under its own tag so fleet
    simulations stay decorrelated from every other derived stream."""
    digest = hashlib.sha256(
        f"fleet:{epoch_seed}:object:{object_index}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "little") % (2**63 - 1)


class _StallTap(StreamObserver):
    """Per-object foreground stall detector.

    A read *stalls* at ``invoked_at + threshold``: either it completed
    with a latency above the threshold, or the epoch ended with it still
    pending at least ``threshold`` after invocation (a parked read whose
    client never came back).  ``first_stall_at`` is the earliest such
    instant — the moment a latency monitor would have paged — so the
    audit's ``first_flagged_at`` can be compared against it directly on
    the object's clock.
    """

    def __init__(self, threshold: float) -> None:
        self.threshold = threshold
        self.first_stall_at: Optional[float] = None
        self.stalled_reads = 0
        self._pending: Dict[str, float] = {}

    def _stall(self, at: float) -> None:
        self.stalled_reads += 1
        if self.first_stall_at is None or at < self.first_stall_at:
            self.first_stall_at = at

    def on_invoke(self, record: OperationRecord) -> None:
        if record.kind == "read":
            self._pending[record.op_id] = record.invoked_at

    def _settle(self, record: OperationRecord) -> None:
        invoked = self._pending.pop(record.op_id, None)
        if invoked is None or record.responded_at is None:
            return
        if record.responded_at - invoked > self.threshold:
            self._stall(invoked + self.threshold)

    def on_complete(self, record: OperationRecord) -> None:
        self._settle(record)

    def on_failed(self, record: OperationRecord) -> None:
        self._settle(record)

    def finish(self, end_time: float) -> None:
        """Count reads still parked at epoch end as stalled."""
        for invoked in self._pending.values():
            if invoked + self.threshold <= end_time:
                self._stall(invoked + self.threshold)
        self._pending = {}


def _require_complete(stats, context: str) -> None:
    """Same policy as the longrun engine: a truncated run describes a
    prefix of the requested workload and must abort the analysis."""
    if getattr(stats, "truncated", False):
        raise RuntimeError(
            f"{context} was truncated by its event budget "
            f"({stats.completed} operations completed); rerun with a larger "
            f"max_events instead of aggregating a partial cell"
        )


def _make_subset_cluster(
    payload: Dict[str, object], gid: int, recorder_factory=None
) -> MultiRegisterCluster:
    """One object of the logical namespace on its own fresh simulation."""
    return MultiRegisterCluster(
        payload["protocol"],
        payload["n"],
        payload["f"],
        objects=1,
        num_writers=payload["num_writers"],
        num_readers=payload["num_readers"],
        seed=fleet_object_seed(payload["epoch_seed"], gid),
        initial_value=payload["marker"],
        recorder_factory=recorder_factory,
        protocol_kwargs=dict(payload["cluster_kwargs"]),
        object_ids=[gid],
        namespace_size=payload["namespace_size"],
    )


def _closed_loop_object(payload: Dict[str, object], gid: int) -> Dict[str, object]:
    """One closed-loop object: streamed through a bounded recorder with
    its own online checker, exported as one shard verdict."""
    epoch = payload["epoch"]
    mux = ObjectCheckerMux(
        1,
        window=payload["window"],
        frontier_limit=payload["frontier_limit"],
        initial_value=payload["marker"],
    )
    cluster = _make_subset_cluster(payload, gid, recorder_factory=mux.recorder)
    if payload["faults_spec"] != "none":
        cluster.apply_fault_plan(payload["faults_spec"], seed=payload["epoch_seed"])
    stats = cluster.run_streamed(
        operations=payload["ops"],
        key_dist=parse_key_dist(payload["key_dist_spec"]),
        value_size=payload["value_size"],
        mean_gap=payload["mean_gap"],
        seed=payload["epoch_seed"] + 1,
        value_prefix=f"e{epoch}|",
        max_events=payload["max_events"],
    )
    _require_complete(stats, f"fleet epoch {epoch} object {gid}")
    mux.finish()
    verdict = mux.shard_verdict(epoch, 0)
    per_obj = stats.per_object[0]
    return {
        "object": gid,
        "allocated": stats.allocation[0],
        "issued": per_obj.issued,
        "completed": per_obj.completed,
        "failed": per_obj.failed,
        "writes": per_obj.writes,
        "reads": per_obj.reads,
        "distinct_writes": sum(
            1 for s in verdict.summaries if s.has_write and not s.initial
        ),
        "end_time": stats.end_time,
        "events": stats.events,
        "max_resident": mux.recorders[0].max_resident,
        "evicted": mux.recorders[0].evicted_count,
        "checker_ok": mux.object_ok(0),
        "verdict": verdict,
    }


def _open_loop_object(payload: Dict[str, object], gid: int) -> Dict[str, object]:
    """One open-loop object: its arrival process is the namespace process
    scaled by its popularity share, so the offered rate is
    partition-independent."""
    epoch = payload["epoch"]
    cluster = _make_subset_cluster(payload, gid)
    if payload["faults_spec"] != "none":
        cluster.apply_fault_plan(payload["faults_spec"], seed=payload["epoch_seed"])
    stats = cluster.run_open_loop(
        operations=payload["ops"],
        arrival=parse_arrival(payload["arrival_spec"]),
        key_dist=parse_key_dist(payload["key_dist_spec"]),
        read_fraction=payload["read_fraction"],
        policy=payload["policy"],
        queue_per_server=payload["queue_per_server"],
        op_timeout=payload["op_timeout"],
        value_size=payload["value_size"],
        seed=payload["epoch_seed"] + 1,
        value_prefix=f"e{epoch}|",
        keep_samples=False,
        max_events=payload["max_events"],
    )
    _require_complete(stats, f"fleet epoch {epoch} object {gid}")
    per_obj = stats.per_object[0]
    return {
        "object": gid,
        "allocated": stats.allocation[0],
        "arrived": per_obj.arrived,
        "admitted": per_obj.admitted,
        "issued": per_obj.issued,
        "completed": per_obj.completed,
        "failed": per_obj.failed,
        "rejected": per_obj.rejected,
        "shed_reads": per_obj.shed_reads,
        "timed_out": per_obj.timed_out,
        "writes": per_obj.writes,
        "reads": per_obj.reads,
        "queued_at_end": per_obj.queued_at_end,
        "stall_time": float(per_obj.stall_time),
        "end_time": float(stats.end_time),
        "events": stats.events,
        "read_latency": per_obj.read_latency,
        "write_latency": per_obj.write_latency,
    }


def _adversary_object(payload: Dict[str, object], gid: int) -> Dict[str, object]:
    """One adversarial object: its fault plan, a background audit client
    probing availability, and stall detection on the foreground reads."""
    epoch = payload["epoch"]
    epoch_seed = payload["epoch_seed"]
    mux = ObjectCheckerMux(
        1,
        window=payload["window"],
        frontier_limit=payload["frontier_limit"],
        initial_value=payload["marker"],
    )
    tap = mux.recorders[0].subscribe(_StallTap(payload["stall_threshold"]))
    cluster = _make_subset_cluster(payload, gid, recorder_factory=mux.recorder)
    applied = cluster.apply_fault_plan(payload["faults_spec"], seed=epoch_seed)
    obj = cluster.objects[0]
    pool = AuditPool(
        cluster.sim,
        [(gid, object_namespace(gid), obj.server_ids)],
        k=obj.code.k,
        config=AuditConfig(
            sample=payload["audit_sample"],
            interval=payload["audit_interval"],
            timeout=min(2.0, payload["audit_interval"]),
            confirm=payload["audit_confirm"],
            rounds=payload["audit_rounds"],
            start=payload["audit_start"],
        ),
        seeds=[fault_seed(epoch_seed, "audit", gid)],
    )
    pool.start()
    stats = cluster.run_streamed(
        operations=payload["ops"],
        key_dist=parse_key_dist(payload["key_dist_spec"]),
        value_size=payload["value_size"],
        mean_gap=payload["mean_gap"],
        seed=epoch_seed + 1,
        value_prefix=f"e{epoch}|",
        max_events=payload["max_events"],
    )
    _require_complete(stats, f"fleet adversary epoch {epoch} object {gid}")
    mux.finish()
    tap.finish(stats.end_time)
    verdict = mux.shard_verdict(epoch, 0)
    per_obj = stats.per_object[0]
    ground = applied.objects[0]
    audit = pool.clients[0].report()
    first_stall = tap.first_stall_at
    if ground.below_k:
        detected_before_stall = audit.flagged and (
            first_stall is None or audit.first_flagged_at <= first_stall
        )
        false_flag = False
    else:
        detected_before_stall = True  # nothing to detect
        false_flag = audit.flagged
    return {
        "object": gid,
        "allocated": stats.allocation[0],
        "issued": per_obj.issued,
        "completed": per_obj.completed,
        "failed": per_obj.failed,
        "writes": per_obj.writes,
        "reads": per_obj.reads,
        "end_time": stats.end_time,
        "events": stats.events,
        "max_resident": mux.recorders[0].max_resident,
        "checker_ok": mux.object_ok(0),
        "verdict": verdict,
        "faults": ground.to_jsonable(),
        "below_k": ground.below_k,
        "withheld": len(ground.withheld),
        "surviving_elements": ground.surviving_elements,
        "isolated": len(ground.isolated),
        "crashed": len(ground.crashed),
        "audit": audit.to_jsonable(),
        "min_estimate": audit.min_estimate,
        "flagged": audit.flagged,
        "first_flagged_at": audit.first_flagged_at,
        "first_stall_at": first_stall,
        "stalled_reads": tap.stalled_reads,
        "detected_before_stall": detected_before_stall,
        "false_flag": false_flag,
    }


_OBJECT_RUNNERS = {
    "longrun": _closed_loop_object,
    "openloop": _open_loop_object,
    "adversary": _adversary_object,
}


def fleet_cell_point(payload: Dict[str, object]) -> Tuple[int, Dict[str, object]]:
    """Worker entry for one fleet cell (module-level, spawn-picklable).

    Runs every object of the cell's partition sequentially, each on its
    own fresh simulation, and returns the per-object payloads plus the
    cell's own CPU-seconds (the critical-path input of the all-core
    capacity metric) and peak RSS.  The ``index`` is the cell's position
    in the ``epochs × partitions`` grid, consumed by the order-restoring
    cursor on the coordinator.
    """
    runner = _OBJECT_RUNNERS[payload["mode"]]
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    objects: List[Dict[str, object]] = [
        runner(payload, gid) for gid in payload["object_ids"]
    ]
    return payload["index"], {
        "epoch": payload["epoch"],
        "partition": payload["partition"],
        "seed": payload["epoch_seed"],
        "ops": payload["ops"],
        "objects": objects,
        "cpu_s": time.process_time() - cpu0,
        "wall_s": time.perf_counter() - wall0,
        "max_rss_kb": max_rss_kb(),
    }
