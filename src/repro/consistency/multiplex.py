"""Per-object checker multiplexing for multi-register namespaces.

Atomicity is a per-register property: a namespace execution is correct iff
every object's projected history is linearizable on its own.  The
:class:`ObjectCheckerMux` therefore gives each object of a
:class:`~repro.runtime.namespace.MultiRegisterCluster` its own bounded
:class:`~repro.consistency.stream.StreamingRecorder` with its own
:class:`~repro.consistency.incremental.IncrementalAtomicityChecker`
subscribed — operations recorded by object ``j``'s clients flow only
through checker ``j``, so a violation on one object can never mask, nor be
masked by, the traffic of another (the isolation tests inject a violation
on a single object and assert exactly that object's checker flags it).

For epoch-sharded namespace runs the mux also packages its checkers into
per-object :class:`~repro.consistency.shardmerge.ShardVerdict` exports;
:func:`repro.consistency.shardmerge.merge_namespace_verdicts` then merges
each object's shards independently and aggregates the per-object verdicts
into one namespace verdict.  The namespace engine
(:mod:`repro.runtime.fleet`) builds one single-object mux per simulated
object; the mux itself checks any number of objects sharing one
simulation.  Checkers sit behind
:class:`~repro.consistency.stream.CheckerBatcher` shims, so crossing tests
run once per event-loop drain.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.consistency.incremental import IncrementalAtomicityChecker, Violation
from repro.consistency.shardmerge import ShardVerdict, shard_verdict_from_checker
from repro.consistency.stream import (
    CheckerBatcher,
    HistorySink,
    StreamingRecorder,
)


class ObjectCheckerMux:
    """One bounded recorder + online checker per namespace object.

    Use the mux's :meth:`recorder` as the ``recorder_factory`` of a
    :class:`~repro.runtime.namespace.MultiRegisterCluster`::

        mux = ObjectCheckerMux(objects=8, window=256)
        cluster = MultiRegisterCluster("SODA", 6, 2, objects=8,
                                       recorder_factory=mux.recorder)
        ... run ...
        mux.finish()
        assert mux.ok, mux.violations()

    :meth:`finish` flushes any checking still batched for the current
    event-loop drain; call it before reading verdicts.
    """

    def __init__(
        self,
        objects: int,
        *,
        window: int = 256,
        frontier_limit: int = 256,
        initial_value: bytes = b"",
        unknown_values: str = "flag",
        max_violations: int = 16,
    ) -> None:
        if objects < 1:
            raise ValueError("need at least one object")
        self.recorders: List[StreamingRecorder] = [
            StreamingRecorder(window=window) for _ in range(objects)
        ]
        self.checkers: List[IncrementalAtomicityChecker] = []
        self._batchers: List[CheckerBatcher] = []
        for recorder in self.recorders:
            checker = IncrementalAtomicityChecker(
                initial_value=initial_value,
                frontier_limit=frontier_limit,
                unknown_values=unknown_values,
                max_violations=max_violations,
            )
            # The batcher stays unbound until the object's RegisterCluster
            # binds it to the simulation's micro-task hook (pass-through
            # per-op checking until then).
            self._batchers.append(recorder.subscribe(CheckerBatcher(checker)))
            self.checkers.append(checker)
        self._violations_cache: Optional[List[Tuple[int, Violation]]] = None
        self._violations_key = -1
        self._flagged_cache: Optional[List[int]] = None
        self._flagged_key = -1

    def __len__(self) -> int:
        return len(self.recorders)

    # ------------------------------------------------------------------
    # per-object access
    # ------------------------------------------------------------------
    def recorder(self, index: int) -> HistorySink:
        """Object ``index``'s sink (shaped as a ``recorder_factory``)."""
        return self.recorders[index]

    def checker(self, index: int) -> IncrementalAtomicityChecker:
        return self.checkers[index]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def finish(self) -> None:
        """Flush all pending checking.  Idempotent."""
        for batcher in self._batchers:
            batcher.flush()

    # ------------------------------------------------------------------
    # aggregate verdicts
    # ------------------------------------------------------------------
    def object_ok(self, index: int) -> bool:
        return self.checkers[index].ok

    def object_violations(self, index: int) -> Tuple[Violation, ...]:
        return tuple(self.checkers[index].violations)

    @property
    def ok(self) -> bool:
        return all(self.object_ok(index) for index in range(len(self)))

    def violations(self) -> List[Tuple[int, Violation]]:
        """Every online violation, tagged with its object index.

        Cached: longrun drivers poll this per epoch, so rebuilding the
        full list on every access is wasted work on the (overwhelmingly
        common) unchanged-count path.  The cache key is the total
        violation count — violation lists are append-only, so an unchanged
        count means an unchanged list.
        """
        key = self._violation_count()
        if self._violations_cache is None or key != self._violations_key:
            self._violations_cache = [
                (index, violation)
                for index in range(len(self))
                for violation in self.object_violations(index)
            ]
            self._violations_key = key
        return self._violations_cache

    def flagged_objects(self) -> List[int]:
        key = self._violation_count()
        if self._flagged_cache is None or key != self._flagged_key:
            self._flagged_cache = [
                index for index in range(len(self)) if not self.object_ok(index)
            ]
            self._flagged_key = key
        return self._flagged_cache

    def _violation_count(self) -> int:
        return sum(len(checker.violations) for checker in self.checkers)

    @property
    def max_resident(self) -> int:
        """Peak resident records across the per-object recorders — the
        namespace's bounded-memory gauge."""
        return max(recorder.max_resident for recorder in self.recorders)

    @property
    def evicted_count(self) -> int:
        return sum(recorder.evicted_count for recorder in self.recorders)

    @property
    def ops_seen(self) -> int:
        return sum(checker.ops_seen for checker in self.checkers)

    # ------------------------------------------------------------------
    # shard exports
    # ------------------------------------------------------------------
    def shard_verdict(self, shard_index: int, index: int) -> ShardVerdict:
        """Object ``index``'s contribution (shard ``shard_index``) to a
        sharded namespace check."""
        return shard_verdict_from_checker(shard_index, self.checkers[index])

    def shard_verdicts(self, shard_index: int) -> List[ShardVerdict]:
        """Package every object's checker state as that object's
        contribution (shard ``shard_index``) to a sharded namespace check."""
        return [
            self.shard_verdict(shard_index, index) for index in range(len(self))
        ]


def project_violations(
    violations: Sequence[Tuple[int, Violation]], index: int
) -> List[Violation]:
    """The subset of object-tagged ``violations`` belonging to ``index``."""
    return [violation for obj, violation in violations if obj == index]
