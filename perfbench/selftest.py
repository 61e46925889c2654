"""Quick self-test of the benchmark itself (a few seconds, no workload run).

From the repository root::

    python3 perfbench/selftest.py

checks that

* ``BENCHMARK.json`` agrees with ``metrics.py`` and ``workloads.py`` and
  keeps the contract's limits: names match ``[A-Za-z0-9_.-]+``, at most 16
  end-to-end and 128 per-layer metrics, bounds at most 0.25 with
  ``setup_s`` the largest, and every run fits the time budget;
* the layer shares plus ``unattributed_share`` sum to 1 for synthetic
  nested spans, through :func:`metrics.traced_layers`;
* the tracer and the taps put every wrapped function back afterwards.

Exits with 1 and names the failed check when one fails.
"""

from __future__ import annotations

import json
import math
import re
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from metrics import END_TO_END, PER_LAYER, traced_layers  # noqa: E402
from probes import LAYERS, CellTap, Patches, RunTap, Tracer  # noqa: E402
from workloads import WORKLOADS, install_spans  # noqa: E402

KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: The benchmark contract: an evaluation makes 4 + 22 x workloads runs and
#: allows 3420 s for all of them.
RUN_BUDGET_S = 3420
#: Start-up, the last repeat's overrun and the result, on top of run_seconds.
RUN_OVERHEAD_S = 12


class CheckFailed(Exception):
    pass


def require(condition: bool, message: object) -> None:
    if not condition:
        raise CheckFailed(message)


def check_benchmark_json() -> None:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    require(set(doc) == KEYS, f"BENCHMARK.json keys: {sorted(doc)}")
    e2e, layers = doc["end_to_end"], doc["per_layer"]
    require(1 <= len(e2e) <= 16, f"{len(e2e)} end-to-end metrics")
    require(1 <= len(layers) <= 128, f"{len(layers)} per-layer metrics")
    names = [m["name"] for m in e2e + layers] + [w["name"] for w in doc["workloads"]]
    require(len(names) == len(set(names)), "a name is used twice")
    for name in names:
        require(NAME.fullmatch(name), f"bad name {name!r}")
    for m in e2e + layers:
        require(UNIT.fullmatch(m["unit"]), f"bad unit {m['unit']!r}")
        require(m["better"] in ("higher", "lower"), m)
    require(
        {m["name"]: (m["unit"], m["better"], m["bound"]) for m in e2e} == END_TO_END,
        "end_to_end differs from metrics.END_TO_END",
    )
    require(
        {m["name"]: (m["unit"], m["better"]) for m in layers} == PER_LAYER,
        "per_layer differs from metrics.PER_LAYER",
    )
    bounds = {m["name"]: m["bound"] for m in e2e}
    require(all(0 < b <= 0.25 for b in bounds.values()), bounds)
    require(
        bounds["setup_s"] == max(bounds.values()), "setup_s needs the largest bound"
    )
    require(
        {w["name"]: w["why"] for w in doc["workloads"]}
        == {w.name: w.why for w in WORKLOADS.values()},
        "workloads differ from workloads.py",
    )
    require(all(len(w["why"]) <= 200 for w in doc["workloads"]), "a why is too long")
    require(2 <= len(doc["workloads"]) <= 8, "need 2 to 8 workloads")
    seconds = doc["run_seconds"]
    require(isinstance(seconds, int) and 1 <= seconds <= 60, f"run_seconds {seconds}")
    runs = 4 + 22 * len(doc["workloads"])
    require(runs * (seconds + RUN_OVERHEAD_S) <= RUN_BUDGET_S, f"{runs} runs too long")


def busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def check_shares() -> None:
    tracer = Tracer()
    leaf = tracer.span(lambda: busy(0.02), "erasure.leaf")

    def middle():
        busy(0.02)
        leaf()

    middle_span = tracer.span(middle, "core.middle")

    def outer():
        busy(0.02)
        middle_span()
        middle_span()

    outer_span = tracer.span(outer, "sim.outer")
    start = time.perf_counter()
    outer_span()
    busy(0.01)  # outside every span: unattributed
    wall = time.perf_counter() - start
    for name, expected in (("sim.outer", 0.02), ("core.middle", 0.04)):
        got = tracer.self_s[name]
        require(abs(got - expected) < 0.01, f"{name} self {got:.4f} s != {expected}")
    result = {
        "start": 0.0,
        "end": wall,
        "completed": 10,
        "attempted": 10,
        "failed": 0,
        "rejected": 0,
        "timed_out": 0,
        "shed_reads": 0,
        "reads": 5,
        "writes": 5,
        "events": 100,
        "max_resident": 0,
        "stall_ms": 0.0,
        "spans": {
            "self_s": dict(tracer.self_s),
            "incl_s": dict(tracer.incl_s),
            "calls": dict(tracer.calls),
            "items": {},
            "bytes": {},
        },
        "counts": {
            "messages": {"MDMeta": 3},
            "codec": {},
            "md_meta_deliveries": 3,
            "md_meta_first": 1,
            "read_cost_mean": 1.5,
            "write_cost_mean": 8.0,
            "storage_cost": 1.5,
        },
    }
    layers = traced_layers(result)
    shares = [layers[f"{layer}.self_share"] for layer in LAYERS]
    unattributed = layers["unattributed_share"]
    require(
        math.isclose(sum(shares) + unattributed, 1.0, abs_tol=1e-9),
        f"shares sum to {sum(shares) + unattributed}",
    )
    require(all(share >= 0.0 for share in shares), f"negative share in {shares}")
    require(0.0 < unattributed < 0.3, f"unattributed share {unattributed}")
    require(
        abs(layers["erasure.self_share"] * wall - 0.04) < 0.01,
        "erasure self time is off",
    )


def check_restore() -> None:
    def install(patches: Patches) -> None:
        RunTap(closed_loop=True, count_meta=True).install(patches)
        RunTap(closed_loop=False, count_meta=True).install(patches)
        CellTap().install(patches)
        install_spans(Tracer(), patches)

    probe = Patches()
    install(probe)
    touched = probe.touched
    probe.restore()
    before = {(id(o), n): vars(o).get(n, None) for o, n in touched}
    with Patches() as patches:
        install(patches)
        for owner, name in touched:
            now = vars(owner).get(name, None)
            require(now is not before[(id(owner), name)], f"{name} was not wrapped")
    for owner, name in touched:
        after = vars(owner).get(name, None)
        require(after is before[(id(owner), name)], f"{owner!r}.{name} not restored")
        require(
            (name in vars(owner)) == (before[(id(owner), name)] is not None),
            f"{owner!r}.{name} left behind",
        )


def main() -> int:
    checks = (check_benchmark_json, check_shares, check_restore)
    for check in checks:
        try:
            check()
        except CheckFailed as exc:
            print(f"selftest: {check.__name__} failed: {exc}", file=sys.stderr)
            return 1
        print(f"selftest: {check.__name__} ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
