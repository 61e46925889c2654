"""Tests for the sharded streaming long-run engine."""

import json
import warnings

import pytest

from repro.analysis.longrun import (
    EPOCH_GAP,
    artefact_paths,
    longrun_epoch_point,
    run_longrun,
    write_longrun_artefacts,
)
from repro.consistency.incremental import check_history_incrementally
from repro.consistency.wgl import check_linearizability

#: An initial value nothing in a long run ever writes or reads — the merged
#: replay history models every epoch's initial state as an explicit marker
#: write, so the register effectively has no distinguished initial value.
GENESIS = b"<genesis>"


def small_run(**overrides):
    defaults = dict(protocol="SODA", ops=240, epoch_ops=80, jobs=1, seed=11)
    defaults.update(overrides)
    return run_longrun(defaults.pop("protocol"), **defaults)


class TestJobsDeterminism:
    """The acceptance property: the merged verdict (and every other
    deterministic field of the report) is byte-identical for any --jobs."""

    def test_report_identical_for_jobs_1_and_2(self):
        serial = small_run(ops=320, epoch_ops=80, jobs=1)
        sharded = small_run(ops=320, epoch_ops=80, jobs=2)
        assert json.dumps(serial.to_jsonable(), sort_keys=True) == json.dumps(
            sharded.to_jsonable(), sort_keys=True
        )
        assert serial.ok and sharded.ok

    def test_artefact_bytes_identical_across_jobs(self, tmp_path):
        for jobs, sub in ((1, "j1"), (3, "j3")):
            report = small_run(ops=320, epoch_ops=80, jobs=jobs)
            write_longrun_artefacts(report, tmp_path / sub)
        for suffix in (".json", ".csv"):
            first = (tmp_path / "j1" / f"longrun_soda_320{suffix}").read_bytes()
            second = (tmp_path / "j3" / f"longrun_soda_320{suffix}").read_bytes()
            assert first == second


class TestVerdictCrossValidation:
    def test_merged_verdict_matches_monolithic_checkers(self):
        """Rebuild the merged global history of a small run and feed it to
        the single-stream incremental checker and WGL: all three verdict
        paths must agree that the real cluster execution is atomic."""
        report = small_run(ops=180, epoch_ops=60, keep_records=True)
        history = report.full_history()
        assert len(history) == report.issued + len(report.epochs)  # + markers
        assert report.ok
        assert bool(check_history_incrementally(history, initial_value=GENESIS))
        assert bool(check_linearizability(history, initial_value=GENESIS))

    def test_epoch_timelines_are_disjoint(self):
        report = small_run(ops=240, epoch_ops=80, keep_records=True)
        spans = []
        for row in report.epochs:
            spans.append((row.offset, row.offset + row.end_time))
        for (start, end), (next_start, _) in zip(spans, spans[1:]):
            assert end + EPOCH_GAP <= next_start + 1e-9
        # Every replayed record falls inside its epoch's global span.
        for op in report.full_history().operations():
            assert op.invoked_at >= spans[0][0] - EPOCH_GAP

    @pytest.mark.parametrize("protocol", ["SODA", "SODAerr", "ABD", "CAS", "CASGC"])
    def test_every_protocol_streams_atomically(self, protocol):
        report = run_longrun(protocol, ops=120, epoch_ops=60, jobs=1, seed=23)
        assert report.ok, (
            report.verdict.violations,
            report.local_violations,
        )
        assert report.issued == 120
        assert report.completed == 120
        assert report.verdict.shards == 2

    def test_online_checkers_run_per_epoch(self):
        report = small_run()
        assert all(row.checker_ok for row in report.epochs)
        assert report.verdict.ops_seen == report.issued
        assert report.distinct_writes == report.writes


class TestBoundedMemory:
    def test_resident_records_stay_near_window(self):
        report = small_run(ops=400, epoch_ops=100, window=32)
        # window + one in-flight op per client (4 clients here).
        assert report.stream_max_resident <= 32 + 4
        assert report.params["window"] == 32

    def test_eviction_happens(self):
        report = small_run(ops=400, epoch_ops=100, window=16)
        assert all(row.evicted > 0 for row in report.epochs)


class TestWholeHistoryGuard:
    def test_full_history_raises_like_a_streaming_sink(self):
        """Satellite fix: the sharded run raises the same clear error as a
        single-process streaming cluster instead of an AttributeError."""
        report = small_run()
        with pytest.raises(TypeError, match="StreamingRecorder"):
            report.full_history()
        with pytest.raises(TypeError, match="stream observer"):
            report.latency_tracker()

    def test_keep_records_unlocks_whole_history_analyses(self):
        report = small_run(ops=120, epoch_ops=60, keep_records=True)
        tracker = report.latency_tracker()
        assert tracker.stats("write").count == report.writes + len(report.epochs)


class TestArtefacts:
    def test_written_files_and_paths(self, tmp_path):
        report = small_run()
        json_path, csv_path = write_longrun_artefacts(report, tmp_path)
        assert (json_path, csv_path) == artefact_paths(report, tmp_path)
        payload = json.loads(json_path.read_text())
        assert payload["schema_version"] == 1
        assert payload["kind"] == "longrun"
        assert payload["protocol"] == "SODA"
        assert payload["verdict"]["ok"] is True
        assert payload["totals"]["issued"] == 240
        assert len(payload["epochs"]) == 3
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("index,seed,ops,")
        assert len(lines) == 1 + 3

    def test_jsonable_excludes_wall_clock(self):
        payload = small_run().to_jsonable()
        flat = json.dumps(payload)
        assert "wall" not in flat
        assert "ops_per_s" not in flat


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(ValueError, match="ops must be positive"):
            run_longrun("SODA", ops=0)
        with pytest.raises(ValueError, match="epoch_ops must be positive"):
            run_longrun("SODA", ops=10, epoch_ops=0)

    def test_last_epoch_takes_the_remainder(self):
        report = small_run(ops=250, epoch_ops=100)
        assert [row.ops for row in report.epochs] == [100, 100, 50]
        assert report.issued == 250

    def test_epoch_truncation_raises(self):
        # Regression: a silently truncated epoch used to be aggregated as
        # if it had completed.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(RuntimeError, match="truncated"):
                longrun_epoch_point(
                    protocol="SODA",
                    n=5,
                    f=2,
                    num_writers=4,
                    num_readers=4,
                    epoch_index=0,
                    ops=200,
                    value_size=16,
                    mean_gap=1.0,
                    window=64,
                    frontier_limit=64,
                    keep_records=False,
                    cluster_kwargs={},
                    seed=3,
                    max_events=100,
                )
