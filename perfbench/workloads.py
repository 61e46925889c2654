"""The benchmark's workloads and the body of one repeat.

A repeat runs one workload once, for one seed, inside a fresh process
(see ``repeat.py``), through the entry points the command line uses:
:func:`repro.analysis.longrun.run_longrun` behind ``experiment longrun``
and :func:`repro.analysis.fleet.run_fleet_openloop` behind ``experiment
openloop --fleet``.  Every workload runs SODA with the command-line
defaults n=6, f=2 (so k=4).

A repeat runs in one of three modes:

* ``plain`` — no spans; the run ``--trace 0`` measures;
* ``traced`` — spans around the public functions of every layer
  (:func:`install_spans`), for the per-layer shares;
* ``fleet`` — ``namespace_openloop`` only: the untraced ``fleet=2`` run
  whose cells execute in spawned pool workers.  Its ``plain`` and
  ``traced`` repeats use ``fleet=1, jobs=1``, which simulates the same
  cells in-process, so the wrappers reach them.

Every mode also runs the counting taps of :mod:`probes`, whose outputs
are deterministic for a seed and are compared across all repeats.
"""

from __future__ import annotations

import hashlib
import json
import resource
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from calibrate import host_speed
from probes import CellTap, Patches, RunTap, Tracer, percentile

N, F = 6, 2


@dataclass(frozen=True)
class Workload:
    name: str
    loop: str  # "closed" or "open"
    why: str
    params: Dict[str, object]
    #: Whether ``ops_per_s`` is scaled to the reference host speed.  Only
    #: where the run's speed follows the churn loop: over ten seeds it cut
    #: the spread of ``soda_small`` from 12% to 8% but raised that of the
    #: numpy-bound ``soda_large`` from 9% to 14% and of the two-process
    #: ``namespace_openloop`` from 9% to 10% (see README.md).
    host_scaled: bool = False

    @property
    def modes(self) -> List[str]:
        """The repeat modes of one ``--trace 1`` cycle; the first is the
        untraced mode ``--trace 0`` measures."""
        if self.loop == "open":
            return ["fleet", "plain", "traced"]
        return ["plain", "traced"]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "soda_small",
            "closed",
            "closed loop, 1 KiB values: the event loop, network and protocol "
            "do the work, so message-path and event-loop changes show here",
            {"ops": 2000, "epoch_ops": 500, "value_size": 1024},
            host_scaled=True,
        ),
        Workload(
            "soda_large",
            "closed",
            "closed loop, 256 KiB values over 6 epochs: the codec, value "
            "hashing and uncollected epoch garbage do the work; sim-only "
            "changes barely move it",
            {"ops": 600, "epoch_ops": 100, "value_size": 256 * 1024},
        ),
        Workload(
            "namespace_openloop",
            "open",
            "open loop, poisson:2 over 8 zipf:1.1 objects, 80% reads, one crash, "
            "fleet=2: the only workload through the pool, admission and failover",
            {
                "ops": 6000,
                "epoch_ops": 3000,
                "objects": 8,
                "key_dist": "zipf:1.1",
                "arrival": "poisson:2",
                "read_fraction": 0.8,
                "num_writers": 4,
                "num_readers": 4,
                "faults": "crash:1",
                "fleet": 2,
            },
        ),
    )
}


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def _encoded(args, result):
    values = [args[1]] if isinstance(args[1], bytes) else args[1]
    return len(values), sum(len(v) for v in values)


def _decoded(args, result):
    values = [result] if isinstance(result, bytes) else result
    return len(values), sum(len(v) for v in values)


def install_spans(tracer: Tracer, patches: Patches) -> None:
    """Wrap the public functions of every ``repro`` layer in spans."""
    import repro.analysis.longrun as longrun
    from repro.consistency.incremental import IncrementalAtomicityChecker
    from repro.consistency.stream import CheckerBatcher, HistorySink
    from repro.core.soda.reader import SodaReader
    from repro.core.soda.server import SodaServer
    from repro.core.soda.writer import SodaWriter
    from repro.erasure.batch import CachedDecoder, CachedEncoder
    from repro.erasure.linear import LinearCode
    from repro.metrics.costs import StorageTracker
    from repro.metrics.latency import LatencyHistogram
    from repro.runtime.cluster import RegisterCluster
    from repro.runtime.namespace import MultiRegisterCluster
    from repro.sim.network import Network
    from repro.sim.simulation import Simulation

    wrap = tracer.wrap
    wrap(patches, Simulation, "run", "sim.run")
    wrap(patches, Network, "send", "sim.send")
    for cls in (SodaServer, SodaReader, SodaWriter):
        wrap(patches, cls, "on_message", "core.on_message")
    wrap(patches, SodaReader, "start_read", "core.start")
    wrap(patches, SodaWriter, "start_write", "core.start")
    wrap(patches, LinearCode, "encode", "erasure.encode", _encoded)
    wrap(patches, LinearCode, "encode_many", "erasure.encode", _encoded)
    wrap(patches, LinearCode, "decode", "erasure.decode", _decoded)
    wrap(patches, LinearCode, "decode_many", "erasure.decode", _decoded)
    for attr in ("encode", "encode_many", "warm"):
        wrap(patches, CachedEncoder, attr, "erasure.cache")
    for attr in ("decode", "decode_many"):
        wrap(patches, CachedDecoder, attr, "erasure.cache")
    for attr in ("invoke", "respond", "mark_failed"):
        wrap(patches, HistorySink, attr, "consistency.record")
    wrap(patches, CheckerBatcher, "_flush", "consistency.flush")
    wrap(
        patches,
        IncrementalAtomicityChecker,
        "_check_crossings",
        "consistency.crossing",
    )
    for attr in ("merge_shard_verdicts", "shard_verdict_from_checker"):
        wrap(patches, longrun, attr, "consistency.merge")
    wrap(patches, RegisterCluster, "__init__", "runtime.build")
    wrap(patches, MultiRegisterCluster, "__init__", "runtime.build")
    wrap(patches, RegisterCluster, "warm_encode", "runtime.warm_encode")
    wrap(patches, LatencyHistogram, "record", "metrics.latency")
    wrap(patches, StorageTracker, "update", "metrics.storage")


# ----------------------------------------------------------------------
# one repeat
# ----------------------------------------------------------------------
def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def _latency(histograms) -> Dict[str, Dict[str, float]]:
    return {
        kind: {
            "count": h.count,
            "p50": percentile(h, 50.0),
            "p99": percentile(h, 99.0),
        }
        for kind, h in histograms.items()
    }


def _run_closed(
    w: Workload, seed: int, tracer: Optional[Tracer]
) -> Dict[str, object]:
    from repro.analysis.longrun import run_longrun

    tap = RunTap(closed_loop=True, count_meta=tracer is not None)
    with Patches() as patches:
        tap.install(patches)
        if tracer is not None:
            install_spans(tracer, patches)
        start = time.monotonic()
        report = run_longrun(
            "SODA",
            ops=w.params["ops"],
            epoch_ops=w.params["epoch_ops"],
            jobs=1,
            n=N,
            f=F,
            value_size=w.params["value_size"],
            seed=seed,
        )
        end = time.monotonic()
    return {
        "start": start,
        "end": end,
        "first_event": tap.first_event,
        "rss_kb": _own_rss_kb(),
        "attempted": w.params["ops"],
        "issued": report.issued,
        "completed": report.completed,
        "failed": report.failed,
        "rejected": 0,
        "timed_out": 0,
        "shed_reads": 0,
        "reads": report.reads,
        "writes": report.writes,
        "events": report.events,
        "atomic": report.ok,
        "stall_ms": 0.0,
        "max_resident": report.stream_max_resident,
        "latency": _latency(tap.histograms),
        "report_digest": _digest(report.to_jsonable()),
        "tap": tap,
        "cells": None,
    }


def _run_open(
    w: Workload, seed: int, tracer: Optional[Tracer], fleet: int
) -> Dict[str, object]:
    from repro.analysis.fleet import run_fleet_openloop

    p = w.params
    # Cells in spawned pool workers are out of the wrappers' reach.
    tap = None
    if fleet == 1:
        tap = RunTap(closed_loop=False, count_meta=tracer is not None)
    cells = CellTap()
    with Patches() as patches:
        cells.install(patches)
        if tap is not None:
            tap.install(patches)
        if tracer is not None:
            install_spans(tracer, patches)
        start = time.monotonic()
        report = run_fleet_openloop(
            "SODA",
            ops=p["ops"],
            epoch_ops=p["epoch_ops"],
            fleet=fleet,
            jobs=1,
            objects=p["objects"],
            key_dist=p["key_dist"],
            arrival=p["arrival"],
            read_fraction=p["read_fraction"],
            n=N,
            f=F,
            num_writers=p["num_writers"],
            num_readers=p["num_readers"],
            seed=seed,
            faults=p["faults"],
        )
        end = time.monotonic()
    first = tap.first_event if tap is not None else cells.first_cell_start()
    return {
        "start": start,
        "end": end,
        "first_event": first,
        "rss_kb": _own_rss_kb() + cells.pool_processes * report.worker_max_rss_kb,
        "attempted": p["ops"],
        "issued": report.issued,
        "completed": report.completed,
        "failed": report.failed,
        "rejected": report.rejected,
        "timed_out": report.timed_out,
        "shed_reads": report.shed_reads,
        "queued_at_end": sum(row.queued_at_end for row in report.epochs),
        "reads": report.reads,
        "writes": report.writes,
        "events": report.events,
        "atomic": None,
        "stall_ms": sum(row.stall_time for row in report.epochs),
        "max_resident": 0,
        "latency": _latency(
            {"read": report.read_latency, "write": report.write_latency}
        ),
        "report_digest": _digest(report.to_jsonable()),
        "tap": tap,
        "cells": {
            "pool_processes": cells.pool_processes,
            "cpu_s": [c["cpu_s"] for c in cells.cells],
            "wall_s": report.wall_s,
            "critical_cpu_s": report.fleet_cpu_s,
            "worker_rss_kb": report.worker_max_rss_kb,
        },
    }


def _own_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_repeat(name: str, seed: int, mode: str) -> Dict[str, object]:
    """Run ``name`` once and return its measurements (JSON-ready)."""
    w = WORKLOADS[name]
    if mode not in w.modes:
        raise ValueError(f"workload {name} has no mode {mode!r}")
    tracer = Tracer() if mode == "traced" else None
    if w.loop == "closed":
        raw = _run_closed(w, seed, tracer)
    else:
        raw = _run_open(w, seed, tracer, w.params["fleet"] if mode == "fleet" else 1)
    tap: Optional[RunTap] = raw.pop("tap")
    raw["host_speed"] = host_speed()
    raw["mode"] = mode
    raw["deterministic"] = deterministic_outputs(raw, tap)
    raw["violations"] = check_gates(raw, tap)
    raw["counts"] = _counts(tap)
    if tracer is not None:
        raw["spans"] = {
            "self_s": dict(tracer.self_s),
            "incl_s": dict(tracer.incl_s),
            "calls": dict(tracer.calls),
            "items": dict(tracer.items),
            "bytes": dict(tracer.bytes),
        }
    return raw


def deterministic_outputs(
    raw: Dict[str, object], tap: Optional[RunTap]
) -> Dict[str, object]:
    """Everything that must be identical across repeats of one seed."""
    out: Dict[str, object] = {
        "report": raw["report_digest"],
        "totals": {
            key: raw[key]
            for key in (
                "issued",
                "completed",
                "failed",
                "rejected",
                "timed_out",
                "shed_reads",
                "reads",
                "writes",
                "events",
            )
        },
        "latency": raw["latency"],
    }
    if tap is not None:
        out.update(tap.deterministic())
    return out


def _counts(tap: Optional[RunTap]) -> Dict[str, object]:
    """The per-layer counters of an in-process repeat."""
    if tap is None:
        return {}
    return {
        "messages": dict(tap.messages),
        "codec": dict(tap.codec),
        "md_meta_deliveries": tap.md_meta_deliveries,
        "md_meta_first": tap.md_meta_first,
        "read_cost_mean": _mean(tap.costs["read"]),
        "write_cost_mean": _mean(tap.costs["write"]),
        "storage_cost": max(tap.storage, default=0.0),
    }


def _mean(summary) -> float:
    return summary.total / summary.count if summary.count else 0.0


# ----------------------------------------------------------------------
# correctness gates
# ----------------------------------------------------------------------
def check_gates(raw: Dict[str, object], tap: Optional[RunTap]) -> List[str]:
    """Every broken correctness gate of one repeat, as a sentence."""
    from repro.analysis.theoretical import soda_storage_cost, soda_write_cost_bound

    broken: List[str] = []
    if raw["atomic"] is False:
        broken.append("atomicity verdict is not ATOMIC")
    accounted = (
        raw["completed"]
        + raw["failed"]
        + raw["rejected"]
        + raw["timed_out"]
        + raw["shed_reads"]
    )
    if accounted != raw["attempted"]:
        broken.append(
            f"attempted {raw['attempted']} != completed + failed + rejected + "
            f"timed-out + shed ({accounted})"
        )
    if raw.get("queued_at_end"):
        broken.append(f"{raw['queued_at_end']} arrivals still queued at the end")
    if tap is None:
        return broken
    storage = soda_storage_cost(N, F)
    wrong = [s for s in tap.storage if abs(s - storage) > 1e-9]
    if wrong:
        broken.append(f"storage cost {wrong[0]} != n/(n-f) = {storage}")
    write_bound = soda_write_cost_bound(N, F)
    writes = tap.costs["write"]
    if writes.count and writes.max > write_bound + 1e-9:
        broken.append(f"a write cost {writes.max} > 5f^2 = {write_bound}")
    # A read decodes from at least k elements of 1/k value units each.  The
    # paper's n/(n-f) is the cost of a read no write overlaps, not a floor:
    # a server whose READ-COMPLETE overtakes the READ-VALUE relay never
    # sends its element, so such reads cost (n-1)/(n-f).
    reads = tap.costs["read"]
    if reads.count and reads.min < 1.0 - 1e-9:
        broken.append(f"a read cost {reads.min} < 1 (k elements of 1/k)")
    return broken
