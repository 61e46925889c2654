"""Analysis layer: closed-form costs, Table I, and the sharded sweep engine.

* :mod:`repro.analysis.theoretical` — the paper's closed-form cost
  expressions (Theorems 5.3-5.7, 6.3 and Table I).
* :mod:`repro.analysis.tables` — regenerates Table I by *measuring* the
  costs of ABD, CASGC and SODA on simulated executions and printing them
  next to the paper's predictions.
* :mod:`repro.analysis.sweep` — the sharded sweep engine: declarative
  :class:`SweepSpec` grids over picklable point functions, executed
  serially or across a spawn-based multiprocessing pool with per-point
  derived seeds (results independent of the jobs count).
* :mod:`repro.analysis.sweeps` — the registry of named sweeps (E2-E8 plus
  the scenario sweeps) behind ``repro.cli experiment sweep``.
* :mod:`repro.analysis.experiments` — one runner per experiment in
  DESIGN.md (storage sweep, write-cost sweep, read-cost vs concurrency,
  latency, SODAerr, atomicity, trade-off ablation, scenario sweeps); each
  is a thin wrapper over the sweep engine, used by both the benchmark
  harness and the CLI.
* :mod:`repro.analysis.longrun` — the scaled streaming-run engine: one
  long real-cluster execution sharded into epochs over the sweep pool,
  checked online under bounded memory, with per-shard verdicts merged by
  :mod:`repro.consistency.shardmerge` (``experiment longrun``).
* :mod:`repro.analysis.fleet` — the namespace engine behind every
  multi-object run (``experiment longrun --objects N``, ``openloop``,
  ``adversary``): per-object simulations partitioned over processes,
  per-object verdicts merged into one namespace verdict.
"""

from repro.analysis import theoretical
from repro.analysis.longrun import (
    LongRunReport,
    run_longrun,
    write_longrun_artefacts,
)
from repro.analysis.tables import format_table, generate_table1
from repro.analysis.sweep import SweepPoint, SweepSpec, derive_seed, run_sweep
from repro.analysis.experiments import (
    atomicity_experiment,
    crash_burst_experiment,
    latency_experiment,
    latency_sweep,
    read_cost_vs_concurrency,
    skew_experiment,
    slow_disk_experiment,
    sodaerr_experiment,
    storage_cost_vs_f,
    tradeoff_experiment,
    write_cost_vs_f,
)

__all__ = [
    "theoretical",
    "generate_table1",
    "format_table",
    "LongRunReport",
    "run_longrun",
    "write_longrun_artefacts",
    "SweepPoint",
    "SweepSpec",
    "derive_seed",
    "run_sweep",
    "storage_cost_vs_f",
    "write_cost_vs_f",
    "read_cost_vs_concurrency",
    "latency_experiment",
    "latency_sweep",
    "sodaerr_experiment",
    "atomicity_experiment",
    "tradeoff_experiment",
    "skew_experiment",
    "crash_burst_experiment",
    "slow_disk_experiment",
]
