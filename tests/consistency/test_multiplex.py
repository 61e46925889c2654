"""Tests for the per-object checker mux and the namespace verdict merge."""

import pytest

from repro.consistency.multiplex import ObjectCheckerMux, project_violations
from repro.consistency.shardmerge import merge_namespace_verdicts
from repro.consistency.stream import READ, WRITE


def feed_clean_history(recorder, *, prefix, base=0.0):
    """A tiny linearizable history: w(v1) -> r/v1 -> w(v2) -> r/v2."""
    v1, v2 = f"{prefix}-v1".encode(), f"{prefix}-v2".encode()
    recorder.invoke(f"{prefix}w1", WRITE, "w0", base + 0.0, value=v1)
    recorder.respond(f"{prefix}w1", base + 1.0)
    recorder.invoke(f"{prefix}r1", READ, "r0", base + 2.0)
    recorder.respond(f"{prefix}r1", base + 3.0, value=v1)
    recorder.invoke(f"{prefix}w2", WRITE, "w0", base + 4.0, value=v2)
    recorder.respond(f"{prefix}w2", base + 5.0)
    recorder.invoke(f"{prefix}r2", READ, "r0", base + 6.0)
    recorder.respond(f"{prefix}r2", base + 7.0, value=v2)


def inject_stale_read(recorder, *, prefix, base=8.0):
    """Read the overwritten v1 after both writes completed: a violation."""
    recorder.invoke(f"{prefix}bad", READ, "r0", base + 0.0)
    recorder.respond(f"{prefix}bad", base + 1.0, value=f"{prefix}-v1".encode())


class TestIsolation:
    """The satellite acceptance: a violation injected on object k flags
    exactly object k, never its neighbours."""

    @pytest.mark.parametrize("victim", [0, 1, 2])
    def test_violation_flags_only_the_injected_object(self, victim):
        mux = ObjectCheckerMux(3, window=16)
        for j in range(3):
            feed_clean_history(mux.recorder(j), prefix=f"o{j}")
        inject_stale_read(mux.recorder(victim), prefix=f"o{victim}")
        assert not mux.ok
        assert mux.flagged_objects() == [victim]
        for j in range(3):
            assert mux.checker(j).ok == (j != victim)
        tagged = mux.violations()
        assert {obj for obj, _ in tagged} == {victim}
        assert project_violations(tagged, victim) and not project_violations(
            tagged, (victim + 1) % 3
        )

    def test_phantom_read_on_one_object(self):
        mux = ObjectCheckerMux(2, window=16)
        feed_clean_history(mux.recorder(0), prefix="o0")
        feed_clean_history(mux.recorder(1), prefix="o1")
        recorder = mux.recorder(1)
        recorder.invoke("o1phantom", READ, "r0", 20.0)
        recorder.respond("o1phantom", 21.0, value=b"\xffnever-written\xff")
        assert mux.flagged_objects() == [1]
        kinds = [v.kind for _, v in mux.violations()]
        assert kinds == ["unwritten-value"]

    def test_same_value_on_two_objects_is_not_a_duplicate(self):
        """Write values only need to be distinct per register: the mux must
        not cross-contaminate value digests between objects."""
        mux = ObjectCheckerMux(2, window=16)
        for j in range(2):
            recorder = mux.recorder(j)
            recorder.invoke(f"o{j}w", WRITE, "w0", 0.0, value=b"shared-value")
            recorder.respond(f"o{j}w", 1.0)
        assert mux.ok


class TestMuxAccounting:
    def test_counters_and_residency(self):
        mux = ObjectCheckerMux(2, window=2)
        feed_clean_history(mux.recorder(0), prefix="o0")
        assert mux.ops_seen == 4
        assert mux.checker(0).ops_seen == 4
        assert mux.checker(1).ops_seen == 0
        assert mux.max_resident >= 2
        assert mux.evicted_count >= 1  # window 2, four retirements
        assert len(mux) == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one object"):
            ObjectCheckerMux(0)


class TestNamespaceMerge:
    def test_merges_per_object_and_aggregates(self):
        mux = ObjectCheckerMux(3, window=16)
        for j in range(3):
            feed_clean_history(mux.recorder(j), prefix=f"o{j}")
        inject_stale_read(mux.recorder(2), prefix="o2")
        verdicts = mux.shard_verdicts(0)
        assert len(verdicts) == 3
        merged = merge_namespace_verdicts([[v] for v in verdicts])
        assert not merged.ok
        assert merged.objects == 3
        assert merged.flagged_objects() == [2]
        assert merged.per_object[0].ok and merged.per_object[1].ok
        assert not merged.per_object[2].ok
        assert {obj for obj, _ in merged.violations()} == {2}
        # Aggregates sum over objects.
        assert merged.ops_seen == sum(v.ops_seen for v in verdicts)
        assert merged.clusters == sum(
            v.clusters for v in merged.per_object
        )

    def test_jsonable_shape(self):
        mux = ObjectCheckerMux(2, window=16)
        for j in range(2):
            feed_clean_history(mux.recorder(j), prefix=f"o{j}")
        merged = merge_namespace_verdicts([[v] for v in mux.shard_verdicts(0)])
        payload = merged.to_jsonable()
        assert payload["ok"] is True
        assert payload["objects"] == 2
        assert payload["flagged_objects"] == []
        assert len(payload["per_object"]) == 2
        assert all(entry["ok"] for entry in payload["per_object"])

    def test_empty_namespace(self):
        merged = merge_namespace_verdicts([])
        assert merged.ok
        assert merged.objects == 0
        assert merged.shards == 0


class TestVerdictCaching:
    def test_violations_cache_reuses_until_count_changes(self):
        mux = ObjectCheckerMux(2, window=16)
        feed_clean_history(mux.recorder(0), prefix="o0")
        feed_clean_history(mux.recorder(1), prefix="o1")
        first = mux.violations()
        assert first == []
        assert mux.violations() is first  # unchanged count: cached list
        flagged = mux.flagged_objects()
        assert flagged == []
        assert mux.flagged_objects() is flagged
        inject_stale_read(mux.recorder(1), prefix="o1")
        second = mux.violations()
        assert second is not first
        assert [obj for obj, _ in second] == [1]
        assert mux.violations() is second
        assert mux.flagged_objects() == [1]
