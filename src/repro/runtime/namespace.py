"""Multi-object register namespaces: many keys, one simulation.

The paper's protocols emulate a *single* atomic register; a production
namespace serves many keys.  Because atomicity is a per-register property,
the natural composition is N independent protocol instances — and because
contention, failures and load skew only interact through *time*, the
instances must share one clock.  :class:`MultiRegisterCluster` does exactly
that: it owns one :class:`~repro.sim.simulation.Simulation` (one event
queue, one delay model, one RNG) and instantiates one full protocol stack
per object under a pid namespace (object ``j``'s servers are ``o3/s0`` …,
its clients ``o3/w0`` / ``o3/r0`` …), so all objects' messages interleave
on the shared timeline exactly as traffic to different keys interleaves in
a real deployment.

Per-object protocol state stays fully isolated: each object has its own
servers, erasure coder, storage tracker, failure injector and history sink
(pass ``recorder_factory`` to give each object a bounded
:class:`~repro.consistency.stream.StreamingRecorder` with an incremental
checker subscribed — see :class:`repro.consistency.multiplex.ObjectCheckerMux`).
Communication cost accounting is shared (one network, one tracker) and
attributed per operation id, which stays unambiguous because operation ids
embed the namespaced client pid.

:meth:`MultiRegisterCluster.run_streamed` is the namespace counterpart of
the single-register closed loop: a
:class:`~repro.workloads.keyed.KeyDistribution` splits the operation
budget over objects (Zipf-skewed hot keys or uniform), each object arms
its own closed-loop driver, and one shared simulation run drives them all
concurrently.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.baselines.registry import make_cluster
from repro.consistency.history import OperationRecord
from repro.consistency.stream import HistorySink
from repro.metrics.costs import CommunicationCostTracker
from repro.metrics.latency import LatencyHistogram
from repro.runtime.cluster import RegisterCluster, StreamedRunStats
from repro.runtime.config import RunConfig, resolve_config
from repro.runtime.openloop import OpenLoopStats
from repro.sim.failures import CrashSchedule
from repro.sim.network import DelayModel
from repro.sim.simulation import EventBudgetExceeded, Simulation
from repro.workloads.arrivals import ArrivalProcess
from repro.workloads.keyed import KeyDistribution, plan_objects


def object_namespace(index: int) -> str:
    """The pid prefix of object ``index`` (``"o3/"``)."""
    return f"o{index}/"


@dataclass
class NamespaceStreamedStats:
    """Outcome of one namespace-wide closed-loop streamed run."""

    requested: int
    allocation: List[int] = field(default_factory=list)
    per_object: List[StreamedRunStats] = field(default_factory=list)
    end_time: float = 0.0
    events: int = 0
    #: True when the shared run exhausted its event budget — every
    #: object's stats then describe a prefix, not a completed run.
    truncated: bool = False

    @property
    def issued(self) -> int:
        return sum(s.issued for s in self.per_object)

    @property
    def completed(self) -> int:
        return sum(s.completed for s in self.per_object)

    @property
    def failed(self) -> int:
        return sum(s.failed for s in self.per_object)

    @property
    def writes(self) -> int:
        return sum(s.writes for s in self.per_object)

    @property
    def reads(self) -> int:
        return sum(s.reads for s in self.per_object)


@dataclass
class NamespaceOpenLoopStats:
    """Outcome of one namespace-wide open-loop run.

    ``allocation`` is the multinomial split of the operation budget over
    objects; each object's :class:`~repro.runtime.openloop.OpenLoopStats`
    carries its own admission counters and latency histograms.  The
    summed counters and merged histograms (always folded in object order,
    so they are deterministic) give the namespace-wide view.
    """

    requested: int
    allocation: List[int] = field(default_factory=list)
    per_object: List[OpenLoopStats] = field(default_factory=list)
    end_time: float = 0.0
    events: int = 0
    truncated: bool = False

    def _sum(self, attribute: str) -> int:
        return sum(getattr(s, attribute) for s in self.per_object)

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
    def queued_at_end(self) -> int:
        return self._sum("queued_at_end")

    @property
    def stall_time(self) -> float:
        return sum(s.stall_time for s in self.per_object)

    @property
    def read_latency(self) -> LatencyHistogram:
        merged = LatencyHistogram()
        for s in self.per_object:
            merged.merge(s.read_latency)
        return merged

    @property
    def write_latency(self) -> LatencyHistogram:
        merged = LatencyHistogram()
        for s in self.per_object:
            merged.merge(s.write_latency)
        return merged

    def latency(self) -> LatencyHistogram:
        return self.read_latency.merge(self.write_latency)

    @property
    def samples(self) -> Optional[Dict[str, List[float]]]:
        if not any(s.samples is not None for s in self.per_object):
            return None
        merged: Dict[str, List[float]] = {"read": [], "write": []}
        for s in self.per_object:
            if s.samples is not None:
                merged["read"].extend(s.samples["read"])
                merged["write"].extend(s.samples["write"])
        return merged


class MultiRegisterCluster:
    """N independent atomic registers multiplexed over one simulation.

    Parameters mirror :class:`~repro.runtime.cluster.RegisterCluster`; the
    extra ones are ``objects`` (how many registers this cluster hosts),
    ``recorder_factory`` (``obj_index -> HistorySink`` so each object can
    record through its own bounded sink) and ``protocol_kwargs``
    (protocol-specific constructor arguments such as CASGC's ``delta``,
    applied to every object).

    ``object_ids`` / ``namespace_size`` make the cluster a *subset view*
    of a larger logical namespace: the hosted registers carry the given
    global indices (pid namespaces, fault-leg seed derivations and driver
    plans all use the global index), while allocation and fault-victim
    draws consume their rng over ``namespace_size`` — so a fleet of
    subset clusters, each simulating a slice of the namespace, reproduces
    exactly the per-object inputs of the full-namespace cluster.  Both
    default to the hosted count, which is byte-identical to the
    pre-subset behaviour.
    """

    def __init__(
        self,
        protocol: str,
        n: int,
        f: int,
        *,
        objects: int,
        num_writers: int = 1,
        num_readers: int = 1,
        seed: int = 0,
        delay_model: Optional[DelayModel] = None,
        initial_value: bytes = b"",
        keep_message_trace: bool = False,
        recorder_factory=None,
        protocol_kwargs: Optional[Dict[str, object]] = None,
        object_ids: Optional[Sequence[int]] = None,
        namespace_size: Optional[int] = None,
    ) -> None:
        if objects < 1:
            raise ValueError("need at least one object")
        if object_ids is None:
            ids = list(range(objects))
        else:
            ids = [int(g) for g in object_ids]
            if len(ids) != objects:
                raise ValueError(
                    f"object_ids names {len(ids)} objects, expected {objects}"
                )
            if len(set(ids)) != len(ids):
                raise ValueError("object_ids must be distinct")
        size = (
            int(namespace_size)
            if namespace_size is not None
            else (max(ids) + 1 if ids else objects)
        )
        if any(g < 0 or g >= size for g in ids):
            raise ValueError(
                f"object_ids must lie within [0, {size}) (namespace_size)"
            )
        self.object_ids: List[int] = ids
        self.namespace_size = size
        self.protocol = protocol
        self.n = n
        self.f = f
        self.sim = Simulation(
            seed=seed, delay_model=delay_model, keep_message_trace=keep_message_trace
        )
        self.costs = CommunicationCostTracker().attach(self.sim.network)
        self.objects: List[RegisterCluster] = []
        for j, gid in enumerate(ids):
            recorder: Optional[HistorySink] = (
                recorder_factory(j) if recorder_factory is not None else None
            )
            self.objects.append(
                make_cluster(
                    protocol,
                    n,
                    f,
                    num_writers=num_writers,
                    num_readers=num_readers,
                    initial_value=initial_value,
                    recorder=recorder,
                    sim=self.sim,
                    namespace=object_namespace(gid),
                    costs=self.costs,
                    **dict(protocol_kwargs or {}),
                )
            )
        self.protocol_name = self.objects[0].protocol_name

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.objects)

    def object(self, index: int) -> RegisterCluster:
        """The protocol instance serving object ``index``."""
        return self.objects[index]

    def server_ids_by_object(self) -> List[List[str]]:
        return [list(obj.server_ids) for obj in self.objects]

    # ------------------------------------------------------------------
    # blocking operations (shared clock: other objects progress too)
    # ------------------------------------------------------------------
    def write(
        self, index: int, value: bytes, writer: Union[int, str] = 0
    ) -> OperationRecord:
        return self.object(index).write(value, writer)

    def read(self, index: int, reader: Union[int, str] = 0) -> OperationRecord:
        return self.object(index).read(reader)

    def run(self, *, max_events: int = 10_000_000) -> None:
        """Run the shared simulation to quiescence."""
        self.sim.run(max_events=max_events)

    # ------------------------------------------------------------------
    # closed-loop streaming over the whole namespace
    # ------------------------------------------------------------------
    def run_streamed(
        self,
        *,
        operations: int,
        key_dist: Optional[KeyDistribution] = None,
        value_size: Optional[int] = None,
        mean_gap: Optional[float] = None,
        start_window: Optional[float] = None,
        seed: int = 0,
        value_prefix: str = "",
        warm_batch: Optional[int] = None,
        max_events: Optional[int] = None,
        config: Optional[RunConfig] = None,
        faults=None,
    ) -> NamespaceStreamedStats:
        """Drive ``operations`` keyed client operations through the
        namespace in one shared simulation run.

        The operation budget is split over objects by one deterministic
        multinomial draw from ``key_dist`` (uniform by default); each
        object then runs its own closed loop — one pending invocation per
        client, per-object derived seeds, per-object unique value prefixes
        (``{value_prefix}o{j}|…``) — concurrently on the shared clock.
        Everything derives from ``seed``, so the run is reproducible
        event-for-event and independent of how many worker processes a
        sharded analysis fans epochs over.

        Driver knobs may come from a shared
        :class:`~repro.runtime.config.RunConfig` (``config``); explicit
        keyword values override it per call.  ``faults`` accepts a
        :class:`~repro.workloads.faults.FaultPlan` (or its spec string)
        applied namespace-wide before the run via
        :meth:`apply_fault_plan`.
        """
        if operations < 0:
            raise ValueError("operations cannot be negative")
        cfg = resolve_config(
            config,
            value_size=value_size,
            mean_gap=mean_gap,
            start_window=start_window,
            warm_batch=warm_batch,
        )
        if faults is not None:
            self.apply_fault_plan(faults, seed=seed)
        dist = key_dist if key_dist is not None else KeyDistribution.uniform()
        # Drawn over the whole logical namespace, so a subset cluster
        # reproduces the full-namespace per-object budgets and driver seeds.
        plan = plan_objects(dist, operations, self.namespace_size, seed)
        allocation = [plan.allocation[g] for g in self.object_ids]
        events_before = self.sim.events_processed

        stats = NamespaceStreamedStats(requested=operations, allocation=allocation)
        finalizers = []
        for gid, obj, ops_j in zip(self.object_ids, self.objects, allocation):
            per_obj, finalize = obj._begin_streamed(
                operations=ops_j,
                seed=plan.object_seeds[gid],
                value_prefix=f"{value_prefix}o{gid}|",
                config=cfg,
            )
            stats.per_object.append(per_obj)
            finalizers.append(finalize)

        budget = max_events if max_events is not None else max(
            10_000_000, operations * 2_000
        )
        try:
            self.sim.run(max_events=budget)
        except EventBudgetExceeded:
            stats.truncated = True
            for per_obj in stats.per_object:
                per_obj.truncated = True
            warnings.warn(
                f"namespace streamed run truncated: event budget of {budget} "
                f"exhausted after {stats.completed}/{operations} completed "
                f"operations",
                RuntimeWarning,
                stacklevel=2,
            )
        finally:
            for finalize in finalizers:
                finalize()
        stats.end_time = self.sim.now
        stats.events = self.sim.events_processed - events_before
        return stats

    # ------------------------------------------------------------------
    # open-loop traffic over the whole namespace
    # ------------------------------------------------------------------
    def run_open_loop(
        self,
        *,
        operations: int,
        arrival: ArrivalProcess,
        key_dist: Optional[KeyDistribution] = None,
        read_fraction: Optional[float] = None,
        policy: Optional[str] = None,
        queue_per_server: Optional[int] = None,
        op_timeout: Optional[float] = None,
        value_size: Optional[int] = None,
        seed: int = 0,
        value_prefix: str = "",
        warm_batch: Optional[int] = None,
        keep_samples: Optional[bool] = None,
        max_events: Optional[int] = None,
        config: Optional[RunConfig] = None,
        faults=None,
    ) -> NamespaceOpenLoopStats:
        """Drive ``operations`` open-loop arrivals through the namespace.

        The operation budget is split over objects by one deterministic
        multinomial draw from ``key_dist`` (uniform by default), and the
        arrival process is rescaled per object by its popularity
        (:meth:`~repro.workloads.arrivals.ArrivalProcess.scaled`), so the
        namespace-wide offered rate matches ``arrival`` while the hot key
        sees proportionally more traffic.  Each object arms its own
        open-loop driver (bounded admission queue, policy, timeout) with a
        derived seed, and one shared simulation run drives them all —
        reproducible event-for-event for any shard fan-out.  Trace
        arrivals replay only on a single-object namespace (share 1) and
        raise ``ValueError`` otherwise.

        Driver knobs may come from a shared
        :class:`~repro.runtime.config.RunConfig` (``config``); explicit
        keyword values override it per call.  ``faults`` accepts a
        :class:`~repro.workloads.faults.FaultPlan` (or its spec string)
        applied namespace-wide before the run via
        :meth:`apply_fault_plan`.
        """
        if operations < 0:
            raise ValueError("operations cannot be negative")
        cfg = resolve_config(
            config,
            read_fraction=read_fraction,
            policy=policy,
            queue_per_server=queue_per_server,
            op_timeout=op_timeout,
            value_size=value_size,
            warm_batch=warm_batch,
            keep_samples=keep_samples,
        )
        if faults is not None:
            self.apply_fault_plan(faults, seed=seed)
        dist = key_dist if key_dist is not None else KeyDistribution.uniform()
        # Drawn over the whole logical namespace, so a subset cluster
        # reproduces the full-namespace per-object budgets, arrival shares
        # and driver seeds.
        plan = plan_objects(dist, operations, self.namespace_size, seed)
        allocation = [plan.allocation[g] for g in self.object_ids]
        events_before = self.sim.events_processed

        stats = NamespaceOpenLoopStats(requested=operations, allocation=allocation)
        finalizers = []
        for gid, obj, ops_j in zip(self.object_ids, self.objects, allocation):
            per_obj, finalize = obj._begin_open_loop(
                operations=ops_j,
                arrival=arrival.scaled(plan.probabilities[gid]),
                seed=plan.object_seeds[gid],
                value_prefix=f"{value_prefix}o{gid}|",
                config=cfg,
            )
            stats.per_object.append(per_obj)
            finalizers.append(finalize)

        budget = max_events if max_events is not None else max(
            10_000_000, operations * 2_000
        )
        try:
            self.sim.run(max_events=budget)
        except EventBudgetExceeded:
            stats.truncated = True
            for per_obj in stats.per_object:
                per_obj.truncated = True
            warnings.warn(
                f"namespace open-loop run truncated: event budget of "
                f"{budget} exhausted after {stats.completed}/{operations} "
                f"completed operations",
                RuntimeWarning,
                stacklevel=2,
            )
        finally:
            for finalize in finalizers:
                finalize()
        stats.end_time = self.sim.now
        stats.events = self.sim.events_processed - events_before
        return stats

    # ------------------------------------------------------------------
    # failures
    # ------------------------------------------------------------------
    def crash_server(self, index: int, which: Union[int, str], at_time: float) -> None:
        self.object(index).crash_server(which, at_time)

    def apply_crash_schedule(self, schedule: CrashSchedule) -> None:
        """Apply a namespace-wide schedule, enforcing each object's ``f``.

        Events are routed to their object by pid prefix, so every
        register's fault budget is validated independently (crashing f
        servers of the hot object must not eat into a cold object's
        budget).
        """
        by_object: Dict[int, CrashSchedule] = {}
        known = {
            pid: j
            for j, obj in enumerate(self.objects)
            for pid in (*obj.server_ids, *obj.writer_ids, *obj.reader_ids)
        }
        for event in schedule:
            j = known.get(event.pid)
            if j is None:
                raise ValueError(
                    f"crash schedule names {event.pid!r}, which belongs to no "
                    f"object of this namespace"
                )
            by_object.setdefault(j, CrashSchedule()).add(event.pid, event.time)
        for j, sub in sorted(by_object.items()):
            self.object(j).apply_crash_schedule(sub)

    def apply_fault_plan(self, plan, *, seed: int = 0):
        """Materialise a :class:`~repro.workloads.faults.FaultPlan` on the
        whole namespace.

        Crash and slow legs apply per object (each from its own derived
        rng, each object's ``f`` budget validated independently); the
        withholding leg picks its victim objects (``objects = 0`` hits all
        of them) and its withholding servers per object; the partition leg
        cuts each object's server set along its own seeded cut.  All
        per-object adversary windows merge into **one** composite
        installed on the shared network — valid because objects never
        exchange cross-object messages — and the slow sets merge into one
        :class:`~repro.sim.network.SlowDisk` wrap instead of nesting one
        layer per object.  Returns the materialised
        :class:`~repro.workloads.faults.AppliedFaultPlan` ground truth.
        """
        from repro.sim.adversary import (
            CompositeAdversary,
            DelayAdversary,
            PartitionAdversary,
            WithholdingAdversary,
        )
        from repro.sim.network import SlowDisk
        from repro.workloads.faults import (
            AppliedFaultPlan,
            AppliedObjectFaults,
            FaultPlan,
            fault_seed,
            parse_faults,
        )

        if isinstance(plan, str):
            plan = parse_faults(plan)
        if not isinstance(plan, FaultPlan):
            raise TypeError(
                f"expected a FaultPlan or fault spec string, got {type(plan).__name__}"
            )
        # Every per-object rng derives from the object's *global* index,
        # and the withhold victim draw runs over the *logical* namespace
        # size — so a subset cluster materialises exactly the faults its
        # objects would see in the full namespace (for a full
        # cluster both reduce to the hosted count).
        count = self.namespace_size
        if not plan:
            applied = AppliedFaultPlan(plan_spec=plan.spec())
            self.applied_faults = applied
            return applied

        per_object: Dict[int, Dict[str, object]] = {
            j: {} for j in range(len(self.objects))
        }
        slow_union: List[str] = []
        withheld_windows: Dict[str, tuple] = {}
        isolated_windows: Dict[str, tuple] = {}
        adversaries = []

        if plan.crash is not None and plan.crash.count:
            for j, (gid, obj) in enumerate(zip(self.object_ids, self.objects)):
                rng = np.random.default_rng(fault_seed(seed, "crash", gid))
                schedule = plan.crash.materialise(obj.server_ids, rng)
                obj.apply_crash_schedule(schedule)
                per_object[j]["crashed"] = tuple(
                    (e.pid, e.time) for e in schedule
                )
        if plan.slow is not None and plan.slow.count:
            for j, (gid, obj) in enumerate(zip(self.object_ids, self.objects)):
                rng = np.random.default_rng(fault_seed(seed, "slow", gid))
                chosen = plan.slow.choose(obj.server_ids, rng)
                per_object[j]["slow"] = chosen
                slow_union.extend(chosen)
            network = self.sim.network
            network.delay_model = SlowDisk(
                network.delay_model,
                slow_union,
                extra=plan.slow.extra,
                jitter=plan.slow.jitter,
            )
        if plan.delay_adversary is not None:
            leg = plan.delay_adversary
            adversaries.append(
                DelayAdversary(factor=leg.factor, start=leg.start, end=leg.end)
            )
        if plan.withhold is not None:
            leg = plan.withhold
            if leg.objects and leg.objects < count:
                rng = np.random.default_rng(
                    fault_seed(seed, "withhold-objects", 0)
                )
                victims = set(
                    int(i)
                    for i in rng.choice(count, size=leg.objects, replace=False)
                )
            else:
                victims = set(range(count))
            window = (leg.start, leg.end)
            for j, (gid, obj) in enumerate(zip(self.object_ids, self.objects)):
                if gid not in victims:
                    continue
                rng = np.random.default_rng(fault_seed(seed, "withhold", gid))
                withheld = leg.choose(obj.server_ids, obj.code.k, rng)
                surviving = obj.n - len(withheld)
                per_object[j]["withheld"] = withheld
                per_object[j]["withhold_window"] = window
                per_object[j]["surviving_elements"] = surviving
                per_object[j]["below_k"] = surviving < obj.code.k
                for pid in withheld:
                    withheld_windows[pid] = window
            adversaries.append(WithholdingAdversary(withheld_windows))
        if plan.partition is not None:
            leg = plan.partition
            window = (leg.start, leg.end)
            for j, (gid, obj) in enumerate(zip(self.object_ids, self.objects)):
                rng = np.random.default_rng(fault_seed(seed, "partition", gid))
                isolated = leg.choose(obj.server_ids, rng)
                per_object[j]["isolated"] = isolated
                per_object[j]["partition_window"] = window
                for pid in isolated:
                    isolated_windows[pid] = window
            adversaries.append(PartitionAdversary(isolated_windows))
        if adversaries:
            network = self.sim.network
            existing = network._adversary
            if existing is not None:
                adversaries = [existing, *adversaries]
            network.install_adversary(
                adversaries[0]
                if len(adversaries) == 1
                else CompositeAdversary(adversaries)
            )

        applied = AppliedFaultPlan(
            plan_spec=plan.spec(),
            objects=tuple(
                AppliedObjectFaults(
                    object_index=gid,
                    crashed=per_object[j].get("crashed", ()),
                    slow=per_object[j].get("slow", ()),
                    withheld=per_object[j].get("withheld", ()),
                    withhold_window=per_object[j].get("withhold_window"),
                    surviving_elements=per_object[j].get("surviving_elements"),
                    below_k=per_object[j].get("below_k", False),
                    isolated=per_object[j].get("isolated", ()),
                    partition_window=per_object[j].get("partition_window"),
                )
                for j, gid in enumerate(self.object_ids)
            ),
        )
        self.applied_faults = applied
        return applied

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def operation_cost(self, op_id: str) -> float:
        """Communication cost of any operation, whichever object served it
        (operation ids embed the namespaced client pid)."""
        return self.costs.cost_of(op_id)

    def storage_peak(self) -> float:
        """Sum of per-object storage peaks (the objects' peaks need not be
        simultaneous, so this is the worst-case provisioning bound)."""
        return sum(obj.storage_peak() for obj in self.objects)

    def storage_current(self) -> float:
        return sum(obj.storage_current() for obj in self.objects)

    def codec_stats(self) -> Dict[str, int]:
        """Namespace-wide codec counters: the per-object
        :meth:`~repro.runtime.cluster.RegisterCluster.codec_stats` summed
        key-wise (every object runs the same protocol, so the objects
        expose the same keys)."""
        totals: Dict[str, int] = {}
        for obj in self.objects:
            for key, count in obj.codec_stats().items():
                totals[key] = totals.get(key, 0) + count
        return totals

    def max_resident_records(self) -> int:
        """Peak resident records over the objects' bounded recorders (0 if
        an object records through a plain in-memory History)."""
        return max(
            (
                getattr(obj.history, "max_resident", 0)
                for obj in self.objects
            ),
            default=0,
        )

    def summary(self) -> Dict[str, object]:
        return {
            "protocol": self.protocol_name,
            "objects": len(self.objects),
            "n": self.n,
            "f": self.f,
            "storage_peak": self.storage_peak(),
            "events_processed": self.sim.events_processed,
        }
