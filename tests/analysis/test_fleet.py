"""Tests for the namespace engine: multi-object runs partitioned across
processes (closed loop, open loop and adversarial).

The load-bearing property is the byte-identity contract: partitioning is
a *scheduling* choice, so every artefact byte must be independent of
``fleet`` (how many partitions) and ``jobs`` (how many epochs in flight).
The remaining classes pin each mode's own behaviour: namespace verdicts
and keyed load (closed loop), admission totals and histogram percentiles
(open loop), and the detection contract (adversarial).
"""

import json
import os
import time
import warnings

import numpy as np
import pytest

from repro.analysis.fleet import (
    _fleet_grid,
    fleet_adversary_artefact_paths,
    fleet_artefact_paths,
    fleet_openloop_artefact_paths,
    run_fleet_adversary,
    run_fleet_longrun,
    run_fleet_openloop,
    write_fleet_artefacts,
)
from repro.analysis.pool import in_order, iter_unordered, resolve_workers
from repro.runtime.fleet import fleet_cell_point, fleet_object_seed
from repro.runtime.namespace import MultiRegisterCluster
from repro.workloads.arrivals import parse_arrival


def small_fleet_run(**overrides):
    defaults = dict(
        protocol="SODA",
        ops=240,
        epoch_ops=120,
        fleet=1,
        jobs=1,
        objects=4,
        key_dist="zipf:1.1",
        n=5,
        seed=11,
    )
    defaults.update(overrides)
    return run_fleet_longrun(defaults.pop("protocol"), **defaults)


def small_openloop_run(**overrides):
    defaults = dict(
        protocol="SODA",
        ops=400,
        epoch_ops=100,
        objects=1,
        arrival="poisson:2",
        n=5,
        f=2,
        num_writers=4,
        num_readers=4,
        seed=11,
    )
    defaults.update(overrides)
    return run_fleet_openloop(defaults.pop("protocol"), **defaults)


ADVERSARY = dict(
    ops=600,
    epoch_ops=300,
    objects=2,
    faults="withhold:1:8:20;partition:2:2:5",
    audit_rounds=30,
    seed=11,
)


@pytest.fixture(scope="module")
def adversary_report():
    return run_fleet_adversary("SODA", **ADVERSARY)


def canonical(report):
    return json.dumps(report.to_jsonable(), sort_keys=True)


def _die_on_one(payload):
    """Pool payload that kills its worker process on payload 1."""
    if payload == 1:
        os._exit(3)
    return payload


def _sleep_then_return(seconds):
    time.sleep(seconds)
    return seconds


def _raise_on_two(payload):
    if payload == 2:
        raise KeyError(f"payload {payload}")
    return payload


class TestFleetDeterminism:
    """Artefact bytes are identical for any --fleet/--jobs."""

    def test_longrun_identical_across_the_matrix(self):
        reference = canonical(small_fleet_run())
        for fleet, jobs in ((2, 1), (4, 2), (1, 2)):
            report = small_fleet_run(fleet=fleet, jobs=jobs)
            assert canonical(report) == reference, f"fleet={fleet} jobs={jobs}"
            assert report.ok

    def test_openloop_identical_across_partitions(self):
        def run(fleet, jobs=1):
            return run_fleet_openloop(
                "SODA",
                ops=240,
                epoch_ops=120,
                fleet=fleet,
                jobs=jobs,
                objects=4,
                key_dist="zipf:1.1",
                arrival="poisson:4",
                n=5,
                seed=11,
            )

        reference = canonical(run(1))
        assert canonical(run(2)) == reference
        assert canonical(run(4, jobs=2)) == reference

    def test_bursty_openloop_identical_across_jobs(self):
        config = dict(
            ops=240, epoch_ops=120, objects=3, key_dist="zipf:1.1",
            arrival="burst:6:0.5:10:20",
        )
        assert canonical(small_openloop_run(jobs=1, **config)) == canonical(
            small_openloop_run(jobs=2, **config)
        )

    def test_adversary_identical_across_partitions(self):
        def run(fleet):
            return run_fleet_adversary(
                "SODA",
                ops=240,
                epoch_ops=120,
                fleet=fleet,
                objects=4,
                key_dist="zipf:1.1",
                n=6,
                seed=11,
            )

        first, second = run(1), run(2)
        assert canonical(first) == canonical(second)
        # The detection contract itself must hold, not just determinism:
        # every withheld-below-k register flagged before any foreground
        # stall, no healthy register ever flagged.
        assert first.ok
        assert all(
            row.detected_before_stall for row in first.object_rows if row.below_k
        )
        assert not any(row.false_flag for row in first.object_rows)

    def test_adversary_identical_across_jobs(self, adversary_report):
        sharded = run_fleet_adversary("SODA", jobs=2, **ADVERSARY)
        assert canonical(sharded) == canonical(adversary_report)

    def test_artefact_bytes_identical_across_fleet(self, tmp_path):
        for fleet, sub in ((1, "f1"), (3, "f3")):
            write_fleet_artefacts(small_fleet_run(fleet=fleet), tmp_path / sub)
        for suffix in (".json", ".csv"):
            first = (tmp_path / "f1" / f"fleet_soda_4x240{suffix}").read_bytes()
            second = (tmp_path / "f3" / f"fleet_soda_4x240{suffix}").read_bytes()
            assert first == second

    def test_openloop_artefact_bytes_identical_across_jobs(self, tmp_path):
        for jobs, sub in ((1, "j1"), (3, "j3")):
            write_fleet_artefacts(small_openloop_run(jobs=jobs), tmp_path / sub)
        name = "fleet_openloop_soda_poisson_1x400"
        for suffix in (".json", ".csv"):
            first = (tmp_path / "j1" / f"{name}{suffix}").read_bytes()
            second = (tmp_path / "j3" / f"{name}{suffix}").read_bytes()
            assert first == second

    def test_jsonable_excludes_scheduling_and_wall_clock(self):
        flat = json.dumps(small_fleet_run(fleet=2).to_jsonable())
        for needle in ("wall", "ops_per_s", "cpu_s", "rss", '"fleet":', '"jobs":'):
            assert needle not in flat, needle


class TestNamespaceVerdict:
    def test_namespace_verdict_shape(self):
        report = small_fleet_run(objects=3, key_dist="zipf:1.0", epoch_ops=80)
        verdict = report.verdict
        assert verdict.objects == 3
        assert verdict.shards == len(report.epochs) == 3
        assert len(verdict.per_object) == 3
        assert all(v.ok for v in verdict.per_object)
        assert verdict.ops_seen == report.issued
        assert verdict.flagged_objects() == []

    @pytest.mark.parametrize("protocol", ["SODA", "ABD", "CAS"])
    def test_other_protocols_stream_atomically(self, protocol):
        report = run_fleet_longrun(
            protocol,
            ops=120,
            epoch_ops=60,
            objects=2,
            key_dist="uniform",
            seed=23,
        )
        assert report.ok, report.verdict.violations()
        assert report.issued == 120
        assert report.completed == 120

    def test_resident_records_stay_near_window(self):
        report = small_fleet_run(ops=300, epoch_ops=100, objects=3, window=16)
        # Per-object recorders: window + one in-flight op per client
        # (1 writer + 1 reader per object here).
        assert report.stream_max_resident <= 16 + 2
        assert report.params["window"] == 16


class TestKeyedLoad:
    def test_zipf_concentrates_on_the_hot_object(self):
        report = small_fleet_run(key_dist="zipf:2.0", ops=400, epoch_ops=100)
        totals = [t["issued"] for t in report.object_totals()]
        assert sum(totals) == 400
        assert totals[0] > totals[-1]
        assert totals[0] > 400 // 4

    def test_uniform_spreads_the_load(self):
        report = small_fleet_run(key_dist="uniform", ops=400, epoch_ops=100)
        totals = [t["issued"] for t in report.object_totals()]
        assert sum(totals) == 400
        assert max(totals) < 2 * min(totals) + 40  # no systematic hot key

    def test_params_record_the_canonical_dist(self):
        report = small_fleet_run(key_dist="ZIPF:1.10")
        assert report.params["key_dist"] == "zipf:1.1"


class TestOpenLoop:
    def test_totals_and_epochs_consistent(self):
        report = small_openloop_run()
        assert len(report.epochs) == 4
        assert report.arrived == 400
        assert report.completed == sum(r.completed for r in report.epochs)
        assert report.completed > 0
        payload = report.to_jsonable()
        assert payload["kind"] == "fleet-openloop"
        assert payload["totals"]["completed"] == report.completed
        assert payload["params"]["arrival"] == "poisson:2"
        assert len(payload["epochs"]) == 4

    def test_artefact_paths_stem(self, tmp_path):
        report = small_openloop_run(ops=200, epoch_ops=100)
        json_path, csv_path = write_fleet_artefacts(report, tmp_path)
        assert (json_path, csv_path) == fleet_openloop_artefact_paths(
            report, tmp_path
        )
        assert json_path.name == "fleet_openloop_soda_poisson_1x200.json"
        assert csv_path.name == "fleet_openloop_soda_poisson_1x200.csv"

    def test_trace_replays_on_a_single_object(self):
        report = small_openloop_run(ops=3, epoch_ops=3, arrival="trace:1,2,3")
        assert report.arrived == 3
        assert report.params["arrival"] == "trace:1,2,3"

    def test_trace_cannot_split_over_objects(self):
        with pytest.raises(ValueError, match="cannot be rescaled"):
            small_openloop_run(ops=3, objects=2, arrival="trace:1,2,3")

    def test_percentiles_cross_validate_against_exact_samples(self):
        cluster = MultiRegisterCluster(
            "SODA", 5, 2, objects=1, num_writers=4, num_readers=4, seed=11
        )
        stats = cluster.run_open_loop(
            operations=2_000,
            arrival=parse_arrival("poisson:2"),
            seed=12,
            keep_samples=True,
        )
        samples = np.array(stats.samples["read"] + stats.samples["write"])
        assert len(samples) == stats.completed
        latency = stats.latency()
        for p in (50.0, 99.0):
            exact = float(np.percentile(samples, p))
            approx = latency.percentile(p)
            assert abs(approx - exact) / exact < 0.03, (p, exact, approx)
        # SLO attainment against the exact sample fraction.
        exact_att = float((samples <= 10.0).mean())
        assert latency.attainment(10.0) == pytest.approx(exact_att, abs=0.02)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError, match="unknown arrival"):
            small_openloop_run(arrival="bogus")
        with pytest.raises(ValueError, match="slo"):
            small_openloop_run(slo=0.0)

    def test_truncated_cell_raises(self):
        # A truncated object run must fail the cell, not fold partial
        # counters into the report.
        _, _, payloads = _fleet_grid(
            "openloop",
            "openloop-soda",
            ops=200,
            epoch_ops=200,
            objects=1,
            fleet=1,
            key_dist_spec="uniform",
            seed=3,
            common={
                "protocol": "SODA",
                "n": 5,
                "f": 2,
                "num_writers": 4,
                "num_readers": 4,
                "arrival_spec": "poisson:2",
                "read_fraction": 0.5,
                "policy": "drop",
                "queue_per_server": 4,
                "op_timeout": None,
                "value_size": 16,
                "cluster_kwargs": {},
                "faults_spec": "none",
                "max_events": 100,
            },
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(RuntimeError, match="truncated"):
                fleet_cell_point(payloads[0])


class TestAdversaryDetection:
    def test_every_below_k_register_is_flagged_before_stall(
        self, adversary_report
    ):
        below = [row for row in adversary_report.object_rows if row.below_k]
        assert below, "the planted withhold leg must push objects below k"
        for row in below:
            assert row.flagged
            assert row.detected_before_stall
            assert row.min_estimate < adversary_report.n - adversary_report.f
        assert adversary_report.detection_ok
        assert adversary_report.ok

    def test_no_false_flags_from_partition_within_f(self, adversary_report):
        # The partition leg isolates exactly f servers — k stay reachable,
        # so sound rows must never be flagged.
        sound = [row for row in adversary_report.object_rows if not row.below_k]
        assert all(not row.false_flag for row in sound)
        assert adversary_report.detection_summary()["false_flags"] == 0

    def test_ground_truth_matches_withhold_arithmetic(self, adversary_report):
        n, k = adversary_report.n, adversary_report.n - adversary_report.f
        for row in adversary_report.object_rows:
            if row.below_k:
                assert row.withheld == n - k + 1
                assert row.surviving_elements == k - 1

    def test_summary_is_consistent_with_rows(self, adversary_report):
        summary = adversary_report.detection_summary()
        below = [row for row in adversary_report.object_rows if row.below_k]
        assert summary["below_k_rows"] == len(below)
        assert summary["detected"] == sum(1 for r in below if r.flagged)
        assert summary["missed"] == len(below) - summary["detected"]
        assert (
            summary["all_detected_before_stall"] == adversary_report.detection_ok
        )

    def test_checker_verdict_holds_under_faults(self, adversary_report):
        assert adversary_report.checker_ok
        assert adversary_report.verdict.ok
        assert not adversary_report.local_violations

    def test_epochs_redraw_victims(self, adversary_report):
        # Faults derive from each epoch's seed, so two epochs of the same
        # object almost surely withhold different server subsets.
        specs = {
            (entry["epoch"], tuple(entry["withheld"]))
            for entry in adversary_report.object_faults
            if entry["withheld"]
        }
        assert {epoch for epoch, _ in specs} == {0, 1}

    def test_params_carry_canonical_spec(self, adversary_report):
        assert (
            adversary_report.params["faults"]
            == "withhold:1:8:20:0;partition:2:2:5"
        )

    def test_write_and_rewrite(self, adversary_report, tmp_path):
        json_path, csv_path = write_fleet_artefacts(adversary_report, tmp_path)
        assert (json_path, csv_path) == fleet_adversary_artefact_paths(
            adversary_report, tmp_path
        )
        assert json_path.name == "fleet_adversary_soda_2x600.json"
        payload = json.loads(json_path.read_text())
        assert payload["kind"] == "fleet-adversary"
        assert payload["detection"]["all_detected_before_stall"] is True
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 1 + len(adversary_report.object_rows)
        first = json_path.read_bytes()
        write_fleet_artefacts(adversary_report, tmp_path)
        assert json_path.read_bytes() == first


class TestSeedDerivation:
    def test_fleet_object_seed_is_stable_and_spread(self):
        # The published derivation contract: sha256("fleet:{seed}:object:{gid}").
        assert fleet_object_seed(7, 0) == fleet_object_seed(7, 0)
        seeds = {fleet_object_seed(7, gid) for gid in range(64)}
        assert len(seeds) == 64
        assert all(0 <= s < 2**63 - 1 for s in seeds)
        assert fleet_object_seed(8, 0) != fleet_object_seed(7, 0)


class TestCapacityAccounting:
    def test_capacity_fields_populate(self):
        report = small_fleet_run(fleet=2)
        assert report.fleet_cpu_s > 0
        assert report.wall_s > 0
        assert report.fleet_ops_per_s > 0
        assert report.fleet_events_per_s > 0
        assert report.worker_max_rss_kb >= 0
        assert report.fleet == 2

    def test_artefact_paths_and_kind(self, tmp_path):
        report = small_fleet_run()
        json_path, csv_path = write_fleet_artefacts(report, tmp_path)
        assert (json_path, csv_path) == fleet_artefact_paths(report, tmp_path)
        payload = json.loads(json_path.read_text())
        assert payload["kind"] == "fleet-longrun"
        assert payload["params"]["objects"] == 4
        assert payload["totals"]["issued"] == 240
        assert len(payload["object_rows"]) == 2 * 4  # epochs x objects
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("epoch,object,seed,")
        assert len(lines) == 1 + 2 * 4


class TestPoolHelpers:
    def test_in_order_restores_grid_order(self):
        shuffled = [(2, "c"), (0, "a"), (3, "d"), (1, "b")]
        assert list(in_order(shuffled)) == ["a", "b", "c", "d"]

    def test_in_order_raises_on_a_gap(self):
        with pytest.raises(RuntimeError, match="gap at index 1"):
            list(in_order([(0, "a"), (2, "c")]))

    def test_iter_unordered_serial_preserves_payload_order(self):
        assert list(iter_unordered(str, [3, 1, 2], jobs=1)) == ["3", "1", "2"]

    def test_iter_unordered_pool_yields_every_result(self):
        assert sorted(iter_unordered(abs, [-3, 1, -2, 4, -5], jobs=2)) == [
            1, 2, 3, 4, 5,
        ]

    def test_iter_unordered_validates_jobs(self):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            list(iter_unordered(str, [1], jobs=0))

    def test_iter_unordered_pool_yields_in_completion_order(self):
        assert list(iter_unordered(_sleep_then_return, [2.0, 0.0], jobs=2)) == [
            0.0,
            2.0,
        ]

    def test_worker_exception_propagates_unchanged(self):
        with pytest.raises(KeyError, match="payload 2"):
            list(iter_unordered(_raise_on_two, [0, 1, 2, 3], jobs=2))

    def test_dead_worker_fails_fast_naming_the_payload(self):
        start = time.monotonic()
        with pytest.raises(RuntimeError, match=r"died while running .*\b1\b"):
            list(iter_unordered(_die_on_one, [0, 1, 2, 3], jobs=2))
        assert time.monotonic() - start < 30.0

    def test_resolve_workers_validates(self):
        with pytest.raises(ValueError, match="at least one worker"):
            resolve_workers(0)

    def test_resolve_workers_degrades_inside_daemonic_workers(self, monkeypatch):
        import multiprocessing

        class FakeProcess:
            daemon = True

        monkeypatch.setattr(multiprocessing, "current_process", FakeProcess)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert resolve_workers(4, what="fleet cells") == 1
        assert any(
            issubclass(w.category, RuntimeWarning)
            and "fleet cells" in str(w.message)
            for w in caught
        )

    def test_resolve_workers_passes_through_outside_daemons(self):
        assert resolve_workers(4) == 4


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(ValueError, match="ops must be positive"):
            run_fleet_longrun("SODA", ops=0, objects=2)
        with pytest.raises(ValueError, match="objects must be positive"):
            run_fleet_longrun("SODA", ops=10, objects=0)
        with pytest.raises(ValueError, match="fleet must be positive"):
            run_fleet_longrun("SODA", ops=10, objects=2, fleet=0)
        with pytest.raises(ValueError, match="unknown key distribution"):
            run_fleet_longrun("SODA", ops=10, objects=2, key_dist="hotcold")

    def test_bad_adversary_parameters(self):
        with pytest.raises(ValueError):
            run_fleet_adversary("SODA", ops=0)
        with pytest.raises(ValueError):
            run_fleet_adversary("SODA", stall_threshold=0.0)
        with pytest.raises(ValueError):
            run_fleet_adversary("SODA", faults="meteor:1")
