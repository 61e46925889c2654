"""(Re)capture the golden determinism fixtures in this directory.

Run only when a deliberate, reviewed semantic change to the simulation
core makes the committed fixtures stale:

    PYTHONPATH=src python tests/golden/capture_goldens.py

See README.md; the scenarios here must stay in lockstep with
tests/sim/test_golden_trace.py and tests/analysis/test_golden_longrun.py.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent

#: Golden event-trace scenario (mirrored by tests/sim/test_golden_trace.py).
TRACE_SCENARIO = dict(
    protocol="SODA",
    n=5,
    f=2,
    num_writers=2,
    num_readers=2,
    seed=123,
    initial_value="golden",
    writes_per_writer=6,
    reads_per_reader=6,
    window=20.0,
    value_size=64,
    workload_seed=123,
)

#: Golden long-run scenarios (mirrored by tests/analysis/test_golden_longrun.py).
LONGRUN_SCENARIO = dict(ops=1200, epoch_ops=400, n=5, f=2, seed=11)
FLEET_SCENARIO = dict(
    ops=600, epoch_ops=200, objects=4, key_dist="zipf:1.1", n=5, f=2, seed=11
)


def record_event_trace() -> list:
    from repro.core.soda.cluster import SodaCluster
    from repro.workloads.generator import WorkloadSpec, run_workload

    s = TRACE_SCENARIO
    cluster = SodaCluster(
        n=s["n"],
        f=s["f"],
        num_writers=s["num_writers"],
        num_readers=s["num_readers"],
        seed=s["seed"],
        initial_value=s["initial_value"].encode(),
        keep_message_trace=True,
    )
    trace: list = []
    cluster.sim.event_hook = lambda ev: trace.append([ev.time, ev.seq, ev.label])
    run_workload(
        cluster,
        WorkloadSpec(
            writes_per_writer=s["writes_per_writer"],
            reads_per_reader=s["reads_per_reader"],
            window=s["window"],
            value_size=s["value_size"],
            seed=s["workload_seed"],
        ),
    )
    return trace


def main() -> None:
    from repro.analysis.fleet import run_fleet_longrun, write_fleet_artefacts
    from repro.analysis.longrun import run_longrun, write_longrun_artefacts

    trace = record_event_trace()
    (GOLDEN_DIR / "golden_event_trace.json").write_text(
        json.dumps({"scenario": TRACE_SCENARIO, "events": trace}) + "\n"
    )
    print(f"captured event trace: {len(trace)} events")

    report = run_longrun("SODA", jobs=1, **LONGRUN_SCENARIO)
    assert report.ok
    print("captured:", *write_longrun_artefacts(report, GOLDEN_DIR))

    fleet = run_fleet_longrun("SODA", jobs=1, fleet=1, **FLEET_SCENARIO)
    assert fleet.ok
    print("captured:", *write_fleet_artefacts(fleet, GOLDEN_DIR))


if __name__ == "__main__":
    main()
