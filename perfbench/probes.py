"""Benchmark-side instrumentation: attribute patches, a span tracer and
counting taps.

Nothing here edits the program.  Every probe is a wrapper installed on a
class or module attribute for the duration of one repeat and removed
afterwards by :class:`Patches`, so the program runs exactly its own code
between repeats (``selftest.py`` checks the restore).

* :class:`Tracer` records spans around the public functions of each
  ``repro`` layer and keeps, per span name, the self time (span duration
  minus the time of the spans it caused), the inclusive time, the call
  count and optionally the bytes processed.  Spans are aggregated in
  memory as they close rather than stored one by one: a traced repeat of
  ``soda_small`` closes millions of them.
* :class:`RunTap` wraps the drivers ``experiment longrun`` and
  ``experiment openloop`` end in (``RegisterCluster.run_streamed`` and
  ``MultiRegisterCluster.run_open_loop``).  Around each call it stamps
  the first simulated event, counts sent messages by payload type through
  ``Network.on_send``, subscribes a :class:`LatencyObserver` next to the
  checker, and afterwards harvests costs, storage and codec counters from
  the cluster.  It runs in traced and untraced repeats alike, so the
  deterministic outputs of both can be compared.
* :class:`CellTap` wraps the spawn-pool iterator of the fleet engine and
  records every finished cell's CPU time, wall time and peak RSS.
"""

from __future__ import annotations

import functools
import math
import time
import weakref
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: The layers a span name may start with (``<layer>.<what>``).
LAYERS = ("sim", "core", "erasure", "consistency", "runtime", "metrics")


class Patches:
    """Attribute replacements, undone in reverse order by :meth:`restore`."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def replace(self, owner, name: str, new) -> None:
        own = vars(owner)
        self._undo.append((owner, name, name in own, own.get(name)))
        setattr(owner, name, new)

    @property
    def touched(self) -> List[tuple]:
        """``(owner, name)`` of every replacement in force."""
        return [(owner, name) for owner, name, _, _ in self._undo]

    def restore(self) -> None:
        while self._undo:
            owner, name, had, old = self._undo.pop()
            if had:
                setattr(owner, name, old)
            else:
                delattr(owner, name)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class Tracer:
    """Span recorder: self time, inclusive time, calls and bytes per name."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.items: Dict[str, int] = defaultdict(int)
        self.bytes: Dict[str, int] = defaultdict(int)
        # One slot per open span holding the time of its closed children
        # (slot 0 is the root, outside every span).
        self._stack: List[float] = [0.0]

    def span(self, fn: Callable, name: str, size: Optional[Callable] = None):
        """``fn`` wrapped in a span called ``name``.

        ``size(args, result)``, when given, returns ``(items, bytes)`` the
        call processed; they are added to :attr:`items` and :attr:`bytes`.
        """
        if name.split(".", 1)[0] not in LAYERS:
            raise ValueError(f"span {name!r} names no layer of {LAYERS}")
        stack = self._stack
        clock = time.perf_counter
        self_s, incl_s, calls = self.self_s, self.incl_s, self.calls
        items, nbytes = self.items, self.bytes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stack[-1] += elapsed
                self_s[name] += elapsed - children
                incl_s[name] += elapsed
                calls[name] += 1
            if size is not None:
                count, length = size(args, result)
                items[name] += count
                nbytes[name] += length
            return result

        return traced

    def wrap(self, patches: Patches, owner, attr: str, name: str, size=None) -> None:
        """Replace ``owner.attr`` by a traced version for the patch lifetime."""
        patches.replace(owner, attr, self.span(getattr(owner, attr), name, size))


class LatencyObserver:
    """Stream observer: op kinds, and (closed loop) simulated latencies.

    Subscribed to a cluster's history sink beside the checker.  It keeps
    the kind of every operation of the current run, so costs can be split
    into reads and writes, and records completion latencies (invocation to
    response) into the engine's own log-bucketed histograms.
    """

    def __init__(self, histograms: Optional[Dict[str, object]], record_fn) -> None:
        self.kinds: Dict[str, str] = {}
        self.histograms = histograms
        # LatencyHistogram.record as it was before any span was installed,
        # so this observer's own work is never charged to the metrics layer.
        self._record = record_fn

    def on_invoke(self, record) -> None:
        self.kinds[record.op_id] = record.kind

    def on_complete(self, record) -> None:
        if self.histograms is not None:
            self._record(
                self.histograms[record.kind], record.responded_at - record.invoked_at
            )

    def on_failed(self, record) -> None:
        pass


class CostSummary:
    """count / sum / min / max of per-operation costs in value units."""

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    def jsonable(self) -> Dict[str, float]:
        if not self.count:
            return {"count": 0, "total": 0.0, "min": None, "max": None}
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }


class RunTap:
    """Counters around every driver call of one repeat (see module doc)."""

    def __init__(self, *, closed_loop: bool, count_meta: bool) -> None:
        from repro.metrics.latency import LatencyHistogram

        self.closed_loop = closed_loop
        self.count_meta = count_meta
        self.first_event: Optional[float] = None
        self.messages: Dict[str, int] = defaultdict(int)
        self._record = LatencyHistogram.record
        self.histograms = (
            {"read": LatencyHistogram(), "write": LatencyHistogram()}
            if closed_loop
            else None
        )
        self.costs = {"read": CostSummary(), "write": CostSummary()}
        self.storage: List[float] = []
        self.codec: Dict[str, int] = defaultdict(int)
        self.md_meta_deliveries = 0
        self.md_meta_first = 0
        # Weak, so the tap never keeps a finished epoch's cluster alive.
        self._networks = weakref.WeakSet()

    # -- installation ------------------------------------------------------
    def install(self, patches: Patches) -> None:
        from repro.runtime.cluster import RegisterCluster
        from repro.runtime.namespace import MultiRegisterCluster

        if self.closed_loop:
            patches.replace(
                RegisterCluster,
                "run_streamed",
                self._around(RegisterCluster.run_streamed, lambda c: [c]),
            )
        else:
            patches.replace(
                MultiRegisterCluster,
                "run_open_loop",
                self._around(MultiRegisterCluster.run_open_loop, lambda c: c.objects),
            )

    def _around(self, run: Callable, objects_of: Callable):
        tap = self

        @functools.wraps(run)
        def tapped(cluster, *args, **kwargs):
            objects = objects_of(cluster)
            observers = [tap._attach(obj) for obj in objects]
            if tap.first_event is None:
                tap.first_event = time.monotonic()
            try:
                return run(cluster, *args, **kwargs)
            finally:
                for obj, observer in zip(objects, observers):
                    tap._harvest(obj, observer)

        return tapped

    def _attach(self, cluster) -> LatencyObserver:
        network = cluster.sim.network
        if network not in self._networks:
            self._networks.add(network)
            network.on_send(self._on_send)
            if self.count_meta:
                network.on_deliver(self._meta_receipts())
        return cluster.history.subscribe(
            LatencyObserver(self.histograms, self._record)
        )

    def _on_send(self, record) -> None:
        self.messages[type(record.payload).__name__] += 1

    def _meta_receipts(self) -> Callable:
        """Delivery listener counting MD-META deliveries and first receipts
        of each ``(destination, mid)`` on one network."""
        from repro.core.messages import MDMeta

        seen = set()

        def on_deliver(record) -> None:
            payload = record.payload
            if type(payload) is MDMeta:
                self.md_meta_deliveries += 1
                key = (record.dst, payload.mid)
                if key not in seen:
                    seen.add(key)
                    self.md_meta_first += 1

        return on_deliver

    def _harvest(self, cluster, observer: LatencyObserver) -> None:
        cluster.history.unsubscribe(observer)
        kinds = observer.kinds
        for op_id, units in cluster.costs.costs().items():
            kind = kinds.get(op_id)
            if kind is not None:
                self.costs[kind].add(units)
        self.storage.append(cluster.storage_peak())
        for key, count in cluster.codec_stats().items():
            self.codec[key] += count

    def deterministic(self) -> Dict[str, object]:
        """The outputs that must repeat exactly for a seed."""
        out: Dict[str, object] = {
            "messages": dict(sorted(self.messages.items())),
            "costs": {kind: s.jsonable() for kind, s in self.costs.items()},
            "storage": self.storage,
        }
        if self.histograms is not None:
            out["latency"] = {k: h.to_jsonable() for k, h in self.histograms.items()}
        return out


class CellTap:
    """Records every fleet cell's CPU and wall time as the spawn pool hands
    it back."""

    def __init__(self) -> None:
        self.cells: List[Dict[str, float]] = []
        self.pool_processes = 0

    def install(self, patches: Patches) -> None:
        import repro.analysis.fleet as fleet

        original = fleet.iter_unordered
        tap = self

        def tapped(fn, payloads, *, jobs=1):
            payloads = list(payloads)
            tap.pool_processes = (
                min(jobs, len(payloads)) if jobs > 1 and len(payloads) > 1 else 0
            )
            for index, cell in original(fn, payloads, jobs=jobs):
                tap.cells.append(
                    {
                        "arrived": time.monotonic(),
                        "cpu_s": cell["cpu_s"],
                        "wall_s": cell["wall_s"],
                    }
                )
                yield index, cell

        patches.replace(fleet, "iter_unordered", tapped)

    def first_cell_start(self) -> Optional[float]:
        """Earliest monotonic instant a cell began (arrival minus its wall)."""
        if not self.cells:
            return None
        return min(c["arrived"] - c["wall_s"] for c in self.cells)


def percentile(histogram, p: float) -> float:
    """The ``p``-th percentile of a ``LatencyHistogram``, interpolated.

    The engine's own ``percentile`` answers with a bucket midpoint, so it
    moves in 1.1% steps.  This reads the same bucket counts but places the
    target rank log-linearly inside its bucket, giving a value that moves
    continuously with the data; clamped to the exact min and max.
    """
    if histogram.count == 0:
        return math.nan
    target = histogram.count * p / 100.0
    growth = math.log(2.0) / histogram.subbuckets
    floor = histogram.floor
    cumulative = 0
    for index in sorted(histogram.counts):
        count = histogram.counts[index]
        if cumulative + count >= target:
            if index == 0:
                value = floor
            else:
                fraction = (target - cumulative) / count
                value = floor * math.exp((index - 1 + fraction) * growth)
            return min(max(value, histogram.min), histogram.max)
        cumulative += count
    return histogram.max
