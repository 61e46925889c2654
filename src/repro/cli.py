"""Command-line interface for the SODA reproduction.

Usage examples::

    python -m repro.cli list
    python -m repro.cli table1 --n 6 --delta 2
    python -m repro.cli demo --protocol SODA --n 5 --f 2
    python -m repro.cli experiment storage --n 10
    python -m repro.cli experiment read-cost --n 6 --f 2
    python -m repro.cli experiment latency --delta 1.0
    python -m repro.cli experiment sodaerr --n 10 --f 2
    python -m repro.cli experiment atomicity --protocol SODA --executions 3
    python -m repro.cli experiment sweep storage --jobs 4
    python -m repro.cli experiment sweep --list

The CLI is a thin wrapper over :mod:`repro.analysis`; anything it prints can
also be obtained programmatically (see EXPERIMENTS.md for the mapping to the
paper's tables and theorems, and docs/sweeps.md for the sweep registry).

``experiment sweep <name> --jobs N`` runs any registered sweep sharded over
``N`` worker processes; results are identical for every jobs count (each
point derives its own seed), so ``--jobs`` is purely a wall-clock knob.

``experiment longrun --ops N --jobs J --protocol P`` streams one long
real-cluster simulation of a single register through bounded recorders
with the incremental atomicity checker attached online, sharded into
epochs over ``J`` processes; the merged verdict and the JSON/CSV
artefacts written under ``--results-dir`` are byte-identical for every
jobs count.

Multi-object runs all go through one namespace engine
(:mod:`repro.analysis.fleet`): ``experiment longrun --objects N
--key-dist zipf:1.1`` (N > 1), ``experiment openloop`` and ``experiment
adversary``.  N independent registers share the keyed load (object 0 is
the hottest key); each object simulates on its own clock and is checked
by its own online checker, merged into per-object + aggregate namespace
verdicts.  ``--fleet P`` (default 1) partitions every epoch's namespace
into ``P`` slices (LPT on the key-popularity shares), each slice
simulating its objects in its own spawned process; ``--fleet 1 --jobs 1``
runs in-process.  Every object's event stream is a pure function of
``(seed, object)``, so the ``results/fleet_*`` artefacts are
byte-identical for any ``--fleet``/``--jobs`` combination; the summary
reports the modelled all-core capacity (``issued / fleet CPU critical
path``) next to this host's measured wall-clock rate.

``experiment openloop --arrival poisson:4`` drives the namespace
open-loop: arrivals follow a seeded arrival process (Poisson, diurnal,
burst, or trace replay on a single object) independent of completions, a
bounded admission queue applies ``--admission`` (drop, shed-reads,
backpressure), and latency percentiles come from bounded-memory
mergeable histograms.

``--faults`` accepts the unified fault-plan spec
(:func:`repro.workloads.faults.parse_faults`) on ``longrun``,
``openloop`` and ``adversary`` alike; ``experiment adversary`` adds a
background availability-audit pool and reports whether every register
driven below ``k`` surviving coded elements was flagged before any
foreground read stalled.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis import experiments as exp
from repro.analysis.fleet import (
    run_fleet_adversary,
    run_fleet_longrun,
    run_fleet_openloop,
    write_fleet_artefacts,
)
from repro.analysis.longrun import run_longrun, write_longrun_artefacts
from repro.analysis.sweeps import available_sweeps, rows_as_dicts, run_named_sweep
from repro.analysis.tables import format_table, generate_table1
from repro.baselines.registry import available_protocols, make_cluster
from repro.erasure.gf import GF_BACKENDS, set_default_backend
from repro.metrics.latency import format_latency
from repro.runtime.openloop import ADMISSION_POLICIES


def _cmd_list(args: argparse.Namespace) -> int:
    print("Available protocols:")
    for name in available_protocols():
        print(f"  {name}")
    print("\nExperiments: storage, write-cost, read-cost, latency, sodaerr, "
          "atomicity, tradeoff, sweep, longrun, openloop (see `experiment -h`)")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    entries = generate_table1(n=args.n, delta=args.delta, seed=args.seed)
    print(format_table(entries))
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    kwargs = {}
    if args.protocol.upper() == "CASGC":
        kwargs["delta"] = 2
    if args.protocol.upper() == "SODAERR":
        kwargs["e"] = 1
    cluster = make_cluster(args.protocol, args.n, args.f, seed=args.seed, **kwargs)
    value = args.value.encode()
    w = cluster.write(value)
    r = cluster.read()
    cluster.run()
    print(f"protocol        : {cluster.protocol_name} (n={args.n}, f={args.f})")
    print(f"write           : tag={w.tag}, cost={cluster.operation_cost(w.op_id):.3f}, "
          f"latency={w.duration:.2f}")
    print(f"read            : value={r.value!r}, cost={cluster.operation_cost(r.op_id):.3f}, "
          f"latency={r.duration:.2f}")
    print(f"storage peak    : {cluster.storage_peak():.3f} value units")
    return 0


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        # nan means "no completed operations" (see LatencyStats.empty);
        # format_latency renders the sentinel as '-' instead of 'nan'.
        return format_latency(value)
    return str(value)


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.list or not args.sweep_name:
        print("Available sweeps (experiment sweep <name>):")
        for name in available_sweeps():
            print(f"  {name}")
        return 0
    try:
        rows = run_named_sweep(args.sweep_name, seed=args.seed, jobs=args.jobs)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    for row in rows_as_dicts(rows):
        print("  ".join(f"{key}={_format_cell(value)}" for key, value in row.items()))
    return 0


def _print_fleet_capacity(report, args: argparse.Namespace) -> None:
    """The capacity lines shared by all three namespace commands: the
    modelled one-core-per-partition rate next to this host's measured
    wall-clock rate."""
    print(
        f"capacity (model): {report.fleet_ops_per_s:.0f} ops/s sustained with "
        f"one core per partition ({report.fleet_cpu_s:.1f} CPU-s critical "
        f"path, {report.fleet_events_per_s:.0f} events/s)"
    )
    print(
        f"this host       : {report.ops_per_s:.0f} ops/s wall "
        f"({report.events} simulated events in {report.wall_s:.1f}s, "
        f"--fleet {args.fleet} --jobs {args.jobs})"
    )


def _cmd_namespace_longrun(args: argparse.Namespace) -> int:
    try:
        report = run_fleet_longrun(
            args.protocol,
            ops=args.ops,
            epoch_ops=args.epoch_ops,
            fleet=args.fleet,
            jobs=args.jobs,
            objects=args.objects,
            key_dist=args.key_dist,
            n=args.n,
            f=args.f,
            seed=args.seed,
            faults=args.faults,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(
        f"{report.protocol} namespace longrun: {report.issued} ops over "
        f"{report.objects} objects ({report.params['key_dist']}) in "
        f"{args.fleet} partitions, {len(report.epochs)} epochs, "
        f"{report.completed} completed, {report.failed} failed"
    )
    _print_fleet_capacity(report, args)
    print(
        f"memory gauge    : stream_max_resident={report.stream_max_resident} "
        f"records per object recorder (window {report.params['window']})"
    )
    verdict = report.verdict
    print(
        f"namespace       : {'ATOMIC' if report.ok else 'VIOLATIONS'} "
        f"({verdict.clusters} clusters, {verdict.crossings_tested} crossings "
        f"tested, {verdict.shards} shards per object)"
    )
    hot = max(
        enumerate(report.object_totals()), key=lambda pair: pair[1]["issued"]
    )
    print(
        f"hottest object  : o{hot[0]} with {hot[1]['issued']} ops "
        f"({hot[1]['writes']} writes / {hot[1]['reads']} reads)"
    )
    for j, merged in enumerate(verdict.per_object):
        status = "atomic" if merged.ok else "VIOLATIONS"
        print(
            f"  object o{j:<3}: {status} ({merged.clusters} clusters, "
            f"{merged.ops_seen} ops)"
        )
        for violation in merged.violations[:3]:
            print(f"    merged : [{violation.kind}] {violation.description}")
    for obj, violation in report.local_violations[:5]:
        print(f"  online o{obj}: {violation}")
    if not args.no_artefacts:
        json_path, csv_path = write_fleet_artefacts(report, Path(args.results_dir))
        print(f"artefacts       : {json_path} {csv_path}")
    return 0 if report.ok else 1


def _cmd_openloop(args: argparse.Namespace) -> int:
    if args.objects < 1:
        print(f"--objects must be at least 1, got {args.objects}", file=sys.stderr)
        return 2
    num_writers = max(1, args.clients // 2)
    num_readers = max(1, args.clients - num_writers)
    try:
        report = run_fleet_openloop(
            args.protocol,
            ops=args.ops,
            epoch_ops=args.epoch_ops,
            fleet=args.fleet,
            jobs=args.jobs,
            objects=args.objects,
            key_dist=args.key_dist,
            arrival=args.arrival,
            read_fraction=args.read_fraction,
            policy=args.admission,
            queue_per_server=args.queue_per_server,
            op_timeout=args.op_timeout if args.op_timeout > 0 else None,
            slo=args.slo,
            n=args.n,
            f=args.f,
            num_writers=num_writers,
            num_readers=num_readers,
            seed=args.seed,
            faults=args.faults,
        )
    except ValueError as exc:
        print(f"openloop: {exc}", file=sys.stderr)
        return 2
    summary = report.latency().summary()
    print(
        f"{report.protocol} openloop: {report.arrived} arrivals "
        f"({report.params['arrival']}) over {report.objects} objects in "
        f"{args.fleet} partitions, {len(report.epochs)} epochs, "
        f"policy {report.params['policy']}"
    )
    print(
        f"admission       : {report.admitted} admitted, {report.rejected} "
        f"rejected, {report.shed_reads} reads shed, {report.timed_out} timed out"
    )
    in_flight = report.issued - report.completed - report.failed
    print(
        f"outcome         : {report.completed} completed "
        f"({report.writes} writes / {report.reads} reads), "
        f"{report.failed} failed, {in_flight} in flight at end"
    )
    _print_fleet_capacity(report, args)
    print(
        f"sustained       : {report.sim_ops_per_s:.0f} ops/s of simulated time"
    )
    print(
        f"latency (ms)    : p50={format_latency(report.p50)} "
        f"p99={format_latency(report.p99)} p999={format_latency(report.p999)} "
        f"mean={format_latency(summary['mean'])}"
    )
    print(
        f"slo             : {format_latency(100.0 * report.slo_attainment(), precision=2)}% "
        f"of completed ops within {report.slo:g} ms"
    )
    if not args.no_artefacts:
        json_path, csv_path = write_fleet_artefacts(report, Path(args.results_dir))
        print(f"artefacts       : {json_path} {csv_path}")
    return 0


def _cmd_adversary(args: argparse.Namespace) -> int:
    # 'none' (the shared flag default) means "the canonical adversarial
    # plan" here — an adversary run with no faults has nothing to detect.
    faults = (
        args.faults
        if args.faults != "none"
        else "withhold:1:40:30;partition:2:10:12"
    )
    try:
        report = run_fleet_adversary(
            args.protocol,
            ops=args.ops,
            epoch_ops=args.epoch_ops,
            fleet=args.fleet,
            jobs=args.jobs,
            objects=args.objects,
            key_dist=args.key_dist,
            faults=faults,
            n=args.n,
            f=args.f,
            seed=args.seed,
            stall_threshold=args.stall_threshold,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    detection = report.detection_summary()
    print(
        f"{report.protocol} adversary run: {report.issued} ops over "
        f"{report.objects} objects under {report.params['faults']!r} in "
        f"{args.fleet} partitions, {len(report.epochs)} epochs, "
        f"{report.completed} completed, {report.failed} failed"
    )
    _print_fleet_capacity(report, args)
    verdict = report.verdict
    print(
        f"namespace       : {'ATOMIC' if report.checker_ok else 'VIOLATIONS'} "
        f"({verdict.clusters} clusters, {verdict.crossings_tested} crossings "
        f"tested, {verdict.shards} shards per object)"
    )
    print(
        f"audit detection : {detection['detected']}/{detection['below_k_rows']} "
        f"below-k registers flagged "
        f"({detection['detected_before_stall']} before any foreground stall), "
        f"{detection['missed']} missed, {detection['false_flags']} false flags, "
        f"{detection['stalled_reads']} stalled reads"
    )
    for row in report.object_rows:
        if row.below_k and not row.detected_before_stall:
            print(
                f"  MISSED e{row.epoch}/o{row.object}: "
                f"{row.surviving_elements} surviving elements, "
                f"flagged_at={row.first_flagged_at}, "
                f"first_stall_at={row.first_stall_at}"
            )
    for obj, violation in report.local_violations[:5]:
        print(f"  online o{obj}: {violation}")
    if not args.no_artefacts:
        json_path, csv_path = write_fleet_artefacts(report, Path(args.results_dir))
        print(f"artefacts       : {json_path} {csv_path}")
    return 0 if report.ok else 1


def _cmd_longrun(args: argparse.Namespace) -> int:
    if args.objects < 1:
        print(f"--objects must be at least 1, got {args.objects}", file=sys.stderr)
        return 2
    if args.objects > 1:
        return _cmd_namespace_longrun(args)
    if args.key_dist != "uniform":
        print(
            f"--key-dist {args.key_dist!r} has no effect on a single register; "
            f"pass --objects N (N > 1) for a keyed namespace run",
            file=sys.stderr,
        )
        return 2
    try:
        report = run_longrun(
            args.protocol,
            ops=args.ops,
            epoch_ops=args.epoch_ops,
            jobs=args.jobs,
            n=args.n,
            f=args.f,
            seed=args.seed,
            faults=args.faults,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(
        f"{report.protocol} longrun: {report.issued} ops issued over "
        f"{len(report.epochs)} epochs ({args.jobs} jobs), "
        f"{report.completed} completed, {report.failed} failed"
    )
    print(
        f"throughput      : {report.ops_per_s:.0f} ops/s wall "
        f"({report.events} simulated events in {report.wall_s:.1f}s)"
    )
    print(
        f"memory gauge    : stream_max_resident={report.stream_max_resident} "
        f"records (window {report.params['window']})"
    )
    verdict = report.verdict
    print(
        f"merged verdict  : {'ATOMIC' if report.ok else 'VIOLATIONS'} "
        f"({verdict.clusters} clusters, {verdict.crossings_tested} crossings "
        f"tested, {verdict.shards} shards)"
    )
    for violation in report.local_violations[:5]:
        print(f"  online  : {violation}")
    for violation in verdict.violations[:5]:
        print(f"  merged  : [{violation.kind}] {violation.description}")
    if not args.no_artefacts:
        json_path, csv_path = write_longrun_artefacts(
            report, Path(args.results_dir)
        )
        print(f"artefacts       : {json_path} {csv_path}")
    return 0 if report.ok else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    name = args.name.replace("_", "-")
    if name == "sweep":
        return _cmd_sweep(args)
    if args.sweep_name is not None:
        print(
            f"unexpected argument {args.sweep_name!r}: only 'experiment sweep' "
            f"takes a second name",
            file=sys.stderr,
        )
        return 2
    if name in ("longrun", "openloop", "adversary") and args.fleet < 1:
        print(f"--fleet must be at least 1, got {args.fleet}", file=sys.stderr)
        return 2
    if name == "longrun":
        return _cmd_longrun(args)
    if name == "openloop":
        return _cmd_openloop(args)
    if name == "adversary":
        return _cmd_adversary(args)
    if name == "storage":
        for p in exp.storage_cost_vs_f(n=args.n, seed=args.seed, jobs=args.jobs):
            print(f"f={p.f}: measured={p.measured:.3f} predicted={p.predicted:.3f}")
    elif name == "write-cost":
        for p in exp.write_cost_vs_f(seed=args.seed, jobs=args.jobs):
            print(f"f={p.f} n={p.n}: measured={p.measured:.2f} bound={p.bound:.0f}")
    elif name == "read-cost":
        for p in exp.read_cost_vs_concurrency(n=args.n, f=args.f, seed=args.seed, jobs=args.jobs):
            print(
                f"concurrent={p.concurrent_writes} delta_w={p.measured_delta_w}: "
                f"cost={p.measured_cost:.2f} bound={p.bound:.2f}"
            )
    elif name == "latency":
        r = exp.latency_experiment(
            n=args.n, f=args.f, delta=args.delta, seed=args.seed, jobs=args.jobs
        )
        print(
            f"max write latency={format_latency(r.max_write_latency, precision=2)} "
            f"(bound {r.write_bound:.2f})"
        )
        print(
            f"max read  latency={format_latency(r.max_read_latency, precision=2)} "
            f"(bound {r.read_bound:.2f})"
        )
    elif name == "sodaerr":
        for p in exp.sodaerr_experiment(n=args.n, f=args.f, seed=args.seed, jobs=args.jobs):
            print(
                f"e={p.e}: correct={p.reads_correct} errors={p.errors_injected} "
                f"storage={p.measured_storage:.3f}/{p.predicted_storage:.3f} "
                f"read={p.measured_read_cost:.3f}/{p.predicted_read_cost:.3f}"
            )
    elif name == "atomicity":
        r = exp.atomicity_experiment(
            args.protocol,
            n=args.n,
            f=args.f,
            executions=args.executions,
            seed=args.seed,
            jobs=args.jobs,
        )
        print(
            f"{r.protocol}: {r.linearizable_executions}/{r.executions} executions "
            f"linearizable, {r.incomplete_operations} incomplete ops, "
            f"{r.lemma_violations} Lemma 2.1 violations, "
            f"{r.incremental_agreements}/{r.executions} incremental agreements"
        )
        return 0 if r.linearizable_executions == r.executions else 1
    elif name == "tradeoff":
        for p in exp.tradeoff_experiment(n=args.n, f=args.f, seed=args.seed, jobs=args.jobs):
            print(
                f"delta={p.delta}: CASGC storage={p.casgc_storage:.2f} "
                f"read={p.casgc_read_cost:.2f} | SODA storage={p.soda_storage:.2f} "
                f"read={p.soda_read_cost:.2f}"
            )
    else:
        print(f"unknown experiment {args.name!r}", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soda-repro",
        description="Reproduction of the SODA storage-optimized atomic register algorithms",
    )
    parser.add_argument(
        "--gf-backend",
        choices=GF_BACKENDS,
        default=None,
        help="GF(2^8) kernel backend for erasure coding (default: the "
        "REPRO_GF_BACKEND env var, else numpy; 'native' needs cffi plus a "
        "C toolchain and fails fast when unavailable)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list protocols and experiments")
    p_list.set_defaults(func=_cmd_list)

    p_table = sub.add_parser("table1", help="regenerate the paper's Table I")
    p_table.add_argument("--n", type=int, default=6, help="number of servers (even)")
    p_table.add_argument("--delta", type=int, default=2, help="CASGC concurrency bound")
    p_table.add_argument("--seed", type=int, default=0)
    p_table.set_defaults(func=_cmd_table1)

    p_demo = sub.add_parser("demo", help="run a single write/read against a protocol")
    p_demo.add_argument("--protocol", default="SODA", choices=available_protocols())
    p_demo.add_argument("--n", type=int, default=5)
    p_demo.add_argument("--f", type=int, default=2)
    p_demo.add_argument("--value", default="hello from the SODA reproduction")
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.set_defaults(func=_cmd_demo)

    p_exp = sub.add_parser("experiment", help="run one of the paper experiments")
    p_exp.add_argument(
        "name",
        help="storage | write-cost | read-cost | latency | sodaerr | atomicity | "
        "tradeoff | sweep (sweep runs any registered sweep, sharded) | "
        "longrun (streamed real-cluster run with sharded online checking) | "
        "openloop (open-loop traffic engine with admission control and "
        "bounded-memory latency percentiles) | "
        "adversary (namespace run under a fault plan with "
        "availability-audit reads and detection verdicts)",
    )
    p_exp.add_argument(
        "sweep_name",
        nargs="?",
        default=None,
        help="with 'sweep': the registered sweep to run (see --list)",
    )
    p_exp.add_argument("--n", type=int, default=6)
    p_exp.add_argument("--f", type=int, default=2)
    p_exp.add_argument("--delta", type=float, default=1.0)
    p_exp.add_argument("--protocol", default="SODA")
    p_exp.add_argument("--executions", type=int, default=3)
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="shard the sweep's points over N worker processes "
        "(results are identical for any value)",
    )
    p_exp.add_argument(
        "--list", action="store_true", help="with 'sweep': list registered sweeps"
    )
    p_exp.add_argument(
        "--ops",
        type=int,
        default=1_000_000,
        help="with 'longrun': total operations to stream",
    )
    p_exp.add_argument(
        "--epoch-ops",
        type=int,
        default=25_000,
        help="with 'longrun': operations per epoch (the sharding grain; "
        "the verdict is identical for any value of --jobs)",
    )
    p_exp.add_argument(
        "--objects",
        type=int,
        default=1,
        help="number of register objects in the namespace; with 'longrun', "
        ">1 runs the namespace engine (per-object checking, results/fleet_*) "
        "and 1 the single-register engine; 'openloop' and 'adversary' "
        "always run the namespace engine",
    )
    p_exp.add_argument(
        "--key-dist",
        default="uniform",
        help="with a namespace run: key popularity, 'uniform' or "
        "'zipf:<theta>' (object 0 is the hottest key)",
    )
    p_exp.add_argument(
        "--results-dir",
        default="results",
        help="with 'longrun': directory for the committed JSON/CSV artefacts",
    )
    p_exp.add_argument(
        "--no-artefacts",
        action="store_true",
        help="with 'longrun': skip writing artefact files",
    )
    p_exp.add_argument(
        "--fleet",
        type=int,
        default=1,
        help="with a namespace run: partition the namespace's objects into "
        "this many partitions, each epoch's partitions simulating in their "
        "own spawned processes (composes with --jobs: up to jobs x fleet "
        "processes; 1 with --jobs 1 runs in-process); artefacts are "
        "byte-identical for any --fleet/--jobs combination",
    )
    p_exp.add_argument(
        "--arrival",
        default="poisson:4",
        help="with 'openloop': arrival process, 'poisson[:rate]', "
        "'diurnal[:rate[:amplitude[:period]]]', "
        "'burst[:rate_on[:rate_off[:mean_on[:mean_off]]]]' or "
        "'trace:t1,t2,...' (rates are arrivals per simulated ms; a trace "
        "replays on a single object only)",
    )
    p_exp.add_argument(
        "--admission",
        default="drop",
        choices=ADMISSION_POLICIES,
        help="with 'openloop': what to do when the admission queue is full",
    )
    p_exp.add_argument(
        "--queue-per-server",
        type=int,
        default=4,
        help="with 'openloop': admission queue capacity per server "
        "(total capacity = this x n)",
    )
    p_exp.add_argument(
        "--op-timeout",
        type=float,
        default=0.0,
        help="with 'openloop': expire queued operations older than this many "
        "simulated ms at dispatch time (0 disables timeouts)",
    )
    p_exp.add_argument(
        "--read-fraction",
        type=float,
        default=0.5,
        help="with 'openloop': fraction of arrivals that are reads",
    )
    p_exp.add_argument(
        "--slo",
        type=float,
        default=10.0,
        help="with 'openloop': latency SLO threshold in simulated ms",
    )
    p_exp.add_argument(
        "--clients",
        type=int,
        default=16,
        help="with 'openloop': virtual clients per object "
        "(split evenly between writers and readers)",
    )
    p_exp.add_argument(
        "--faults",
        default="none",
        help="with 'longrun'/'openloop'/'adversary': unified fault plan, "
        "';'-separated legs 'crash[:count[:start_lo[:start_hi[:width]]]]', "
        "'slow[:count[:extra[:jitter]]]', "
        "'delayadv[:factor[:start[:duration]]]', "
        "'withhold[:short[:start[:duration[:objects]]]]', "
        "'partition[:isolated[:start[:duration]]]' or 'none' "
        "(e.g. 'withhold:1:40:30;partition:2:10:12'); every leg derives "
        "from the epoch seed",
    )
    p_exp.add_argument(
        "--stall-threshold",
        type=float,
        default=25.0,
        help="with 'adversary': a foreground read counts as stalled once "
        "its latency exceeds this many simulated ms; audit flags must "
        "come earlier",
    )
    p_exp.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.gf_backend is not None:
        set_default_backend(args.gf_backend)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
