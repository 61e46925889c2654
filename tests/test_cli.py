"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "SODA" in out and "ABD" in out

    def test_table1(self, capsys):
        assert main(["table1", "--n", "4", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Algorithm" in out
        assert "SODA" in out

    def test_demo_soda(self, capsys):
        assert main(["demo", "--protocol", "SODA", "--n", "5", "--f", "2"]) == 0
        out = capsys.readouterr().out
        assert "storage peak" in out
        assert "hello from the SODA reproduction" in out

    def test_demo_sodaerr(self, capsys):
        assert main(["demo", "--protocol", "SODAerr", "--n", "7", "--f", "2"]) == 0
        assert "SODAerr" in capsys.readouterr().out

    def test_demo_casgc(self, capsys):
        assert main(["demo", "--protocol", "CASGC", "--n", "6", "--f", "2"]) == 0
        assert "CASGC" in capsys.readouterr().out


class TestExperiments:
    def test_storage(self, capsys):
        assert main(["experiment", "storage", "--n", "6"]) == 0
        assert "predicted" in capsys.readouterr().out

    def test_read_cost(self, capsys):
        assert main(["experiment", "read-cost", "--n", "6", "--f", "2"]) == 0
        assert "bound" in capsys.readouterr().out

    def test_latency(self, capsys):
        assert main(["experiment", "latency", "--n", "5", "--f", "2"]) == 0
        assert "write latency" in capsys.readouterr().out

    def test_atomicity_exit_code(self, capsys):
        assert main(["experiment", "atomicity", "--protocol", "ABD",
                     "--executions", "1", "--n", "5", "--f", "2"]) == 0
        assert "linearizable" in capsys.readouterr().out

    def test_tradeoff(self, capsys):
        assert main(["experiment", "tradeoff"]) == 0
        assert "CASGC" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "nonsense"]) == 2


class TestLongrunCommand:
    def test_longrun_writes_artefacts_and_reports_verdict(self, capsys, tmp_path):
        assert (
            main(
                [
                    "experiment",
                    "longrun",
                    "--protocol",
                    "SODA",
                    "--ops",
                    "120",
                    "--epoch-ops",
                    "60",
                    "--jobs",
                    "1",
                    "--seed",
                    "3",
                    "--results-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "merged verdict  : ATOMIC" in out
        assert "stream_max_resident" in out
        assert (tmp_path / "longrun_soda_120.json").exists()
        assert (tmp_path / "longrun_soda_120.csv").exists()

    def test_longrun_no_artefacts(self, capsys, tmp_path):
        assert (
            main(
                [
                    "experiment",
                    "longrun",
                    "--ops",
                    "60",
                    "--epoch-ops",
                    "60",
                    "--results-dir",
                    str(tmp_path),
                    "--no-artefacts",
                ]
            )
            == 0
        )
        assert list(tmp_path.iterdir()) == []


class TestMultiObjectLongrunCommand:
    def test_parser_accepts_objects_and_key_dist(self):
        args = build_parser().parse_args(
            ["experiment", "longrun", "--objects", "8", "--key-dist", "zipf:1.1"]
        )
        assert args.objects == 8
        assert args.key_dist == "zipf:1.1"

    def test_parser_defaults_to_single_object(self):
        args = build_parser().parse_args(["experiment", "longrun"])
        assert args.objects == 1
        assert args.key_dist == "uniform"

    def test_multiobj_run_writes_artefacts_and_reports_verdicts(
        self, capsys, tmp_path
    ):
        assert (
            main(
                [
                    "experiment",
                    "longrun",
                    "--protocol",
                    "SODA",
                    "--ops",
                    "120",
                    "--epoch-ops",
                    "60",
                    "--objects",
                    "3",
                    "--key-dist",
                    "zipf:1.5",
                    "--seed",
                    "3",
                    "--results-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "namespace       : ATOMIC" in out
        assert "hottest object  : o0" in out
        assert "object o0" in out and "object o2" in out
        assert (tmp_path / "fleet_soda_3x120.json").exists()
        assert (tmp_path / "fleet_soda_3x120.csv").exists()

    def test_fleet_partitions_write_identical_artefacts(self, tmp_path):
        argv = [
            "experiment", "longrun", "--ops", "120", "--epoch-ops", "60",
            "--objects", "3", "--key-dist", "zipf:1.5", "--seed", "3",
        ]
        assert main(argv + ["--results-dir", str(tmp_path / "f1")]) == 0
        assert (
            main(argv + ["--fleet", "2", "--results-dir", str(tmp_path / "f2")])
            == 0
        )
        for suffix in (".json", ".csv"):
            name = f"fleet_soda_3x120{suffix}"
            assert (tmp_path / "f1" / name).read_bytes() == (
                tmp_path / "f2" / name
            ).read_bytes()

    def test_single_object_stays_on_the_register_engine(self, capsys, tmp_path):
        assert (
            main(
                [
                    "experiment", "longrun", "--ops", "60", "--epoch-ops", "60",
                    "--objects", "1", "--fleet", "2",
                    "--results-dir", str(tmp_path),
                ]
            )
            == 0
        )
        assert "merged verdict  : ATOMIC" in capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "longrun_soda_60.csv",
            "longrun_soda_60.json",
        ]

    def test_parser_defaults_to_one_partition(self):
        args = build_parser().parse_args(["experiment", "longrun"])
        assert args.fleet == 1

    @pytest.mark.parametrize("name", ["longrun", "openloop", "adversary"])
    def test_zero_fleet_exits_2(self, capsys, name):
        assert (
            main(["experiment", name, "--ops", "20", "--objects", "2",
                  "--fleet", "0", "--no-artefacts"])
            == 2
        )
        assert "--fleet must be at least 1" in capsys.readouterr().err

    def test_zero_objects_exits_2(self, capsys):
        assert (
            main(["experiment", "longrun", "--ops", "20", "--objects", "0"]) == 2
        )
        assert "--objects must be at least 1" in capsys.readouterr().err

    def test_key_dist_without_objects_exits_2(self, capsys):
        assert (
            main(
                [
                    "experiment",
                    "longrun",
                    "--ops",
                    "20",
                    "--key-dist",
                    "zipf:1.1",
                ]
            )
            == 2
        )
        assert "no effect on a single register" in capsys.readouterr().err

    def test_invalid_key_dist_exits_2(self, capsys):
        assert (
            main(
                [
                    "experiment",
                    "longrun",
                    "--ops",
                    "20",
                    "--objects",
                    "2",
                    "--key-dist",
                    "hotcold",
                    "--no-artefacts",
                ]
            )
            == 2
        )
        assert "unknown key distribution" in capsys.readouterr().err


class TestOpenloopCommand:
    def test_trace_replay_on_one_object(self, capsys, tmp_path):
        assert (
            main(
                [
                    "experiment", "openloop", "--objects", "1",
                    "--arrival", "trace:1,2,3", "--ops", "3",
                    "--results-dir", str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "3 arrivals (trace:1,2,3)" in out
        assert "3 admitted" in out
        assert (tmp_path / "fleet_openloop_soda_trace_1x3.json").exists()

    def test_trace_over_a_namespace_exits_2(self, capsys):
        assert (
            main(
                [
                    "experiment", "openloop", "--objects", "2",
                    "--arrival", "trace:1,2,3", "--ops", "3", "--no-artefacts",
                ]
            )
            == 2
        )
        assert "cannot be rescaled" in capsys.readouterr().err


class TestAdversaryCommand:
    def test_detects_and_writes_artefacts(self, capsys, tmp_path):
        assert (
            main(
                [
                    "experiment", "adversary", "--objects", "2", "--ops", "200",
                    "--epoch-ops", "100", "--results-dir", str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "namespace       : ATOMIC" in out
        assert "0 missed, 0 false flags" in out
        assert (tmp_path / "fleet_adversary_soda_2x200.json").exists()


class TestSweepCommand:
    def test_list_sweeps(self, capsys):
        assert main(["experiment", "sweep", "--list"]) == 0
        out = capsys.readouterr().out
        assert "storage" in out and "slow-disk" in out

    def test_no_name_lists_sweeps(self, capsys):
        assert main(["experiment", "sweep"]) == 0
        assert "Available sweeps" in capsys.readouterr().out

    def test_run_storage_sweep(self, capsys):
        assert main(["experiment", "sweep", "storage", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "measured=" in out and "predicted=" in out

    def test_run_sweep_with_jobs(self, capsys):
        assert main(["experiment", "sweep", "tradeoff", "--jobs", "2"]) == 0
        assert "casgc_storage=" in capsys.readouterr().out

    def test_unknown_sweep(self, capsys):
        assert main(["experiment", "sweep", "nonsense"]) == 2
        assert "unknown sweep" in capsys.readouterr().err

    def test_stray_positional_rejected_for_non_sweep(self, capsys):
        assert main(["experiment", "atomicity", "CASGC", "--executions", "1"]) == 2
        assert "unexpected argument" in capsys.readouterr().err
