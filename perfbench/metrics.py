"""Metric definitions and how each is computed from repeat results.

``END_TO_END`` and ``PER_LAYER`` are the single source of the names,
units and directions ``BENCHMARK.json`` lists (``selftest.py`` checks the
two agree).  ``end_to_end`` reduces the untraced repeats of one run;
``per_layer`` reduces the traced ones (and, for the ``analysis`` layer,
the untraced ``fleet`` repeats).  Timings are medians over repeats; the
simulated latencies and every count are identical across repeats by the
determinism check, so any repeat gives them.
"""

from __future__ import annotations

from statistics import median
from typing import Dict, List

from probes import LAYERS

#: name -> (unit, better, bound)
END_TO_END: Dict[str, tuple] = {
    "ops_per_s": ("ops/s", "higher", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.25),
    "completed_frac": ("ratio", "higher", 0.02),
    "read_p50_ms": ("sim_ms", "lower", 0.1),
    "read_p99_ms": ("sim_ms", "lower", 0.25),
    "write_p50_ms": ("sim_ms", "lower", 0.1),
    "write_p99_ms": ("sim_ms", "lower", 0.25),
}

#: Payload types of SODA's messages; anything else counts as ``other``.
MESSAGE_TYPES = (
    "MDMeta",
    "MDValueFull",
    "MDValueCoded",
    "ReadGetRequest",
    "ReadGetResponse",
    "ReadValueResponse",
    "WriteGetRequest",
    "WriteGetResponse",
    "WriteAck",
)

#: name -> (unit, better)
PER_LAYER: Dict[str, tuple] = {
    "sim.events_per_op": ("count", "lower"),
    "sim.msgs_per_op": ("count", "lower"),
    **{f"sim.msgs_per_op.{t}": ("count", "lower") for t in MESSAGE_TYPES},
    "sim.msgs_per_op.other": ("count", "lower"),
    "sim.self_share": ("ratio", "lower"),
    "sim.send_share": ("ratio", "lower"),
    "core.handler_calls_per_op": ("count", "lower"),
    "core.self_share": ("ratio", "lower"),
    "core.md_meta_useful_frac": ("ratio", "higher"),
    "erasure.self_share": ("ratio", "lower"),
    "erasure.encode_mb_per_s": ("MB/s", "higher"),
    "erasure.decode_mb_per_s": ("MB/s", "higher"),
    "erasure.encoder_hit_ratio": ("ratio", "higher"),
    "erasure.decoder_hit_ratio": ("ratio", "higher"),
    "erasure.encodes_per_write": ("count", "lower"),
    "erasure.decodes_per_read": ("count", "lower"),
    "consistency.self_share": ("ratio", "lower"),
    "consistency.crossings_per_op": ("count", "lower"),
    "consistency.max_resident": ("count", "lower"),
    "runtime.self_share": ("ratio", "lower"),
    "runtime.warm_encode_share": ("ratio", "lower"),
    "runtime.failed_frac": ("ratio", "lower"),
    "runtime.rejected_frac": ("ratio", "lower"),
    "runtime.stall_ms": ("sim_ms", "lower"),
    "metrics.self_share": ("ratio", "lower"),
    "metrics.read_cost": ("value", "lower"),
    "metrics.write_cost": ("value", "lower"),
    "metrics.storage_cost": ("value", "lower"),
    "analysis.pool_overhead_s": ("s", "lower"),
    "analysis.parallel_efficiency": ("ratio", "higher"),
    "analysis.worker_peak_rss_mb": ("MB", "lower"),
    "unattributed_share": ("ratio", "lower"),
    "trace_overhead": ("ratio", "lower"),
}


def _failed(r: Dict[str, object]) -> int:
    return r["failed"] + r["rejected"] + r["timed_out"] + r["shed_reads"]


def end_to_end(
    results: List[Dict[str, object]], host_scaled: bool
) -> Dict[str, float]:
    """End-to-end metrics of one run from its untraced repeats.

    ``setup_s`` is interpreter-bound everywhere, so it is always scaled to
    the reference host speed measured around each repeat
    (``calibrate.host_speed``); ``ops_per_s`` only when ``host_scaled``.
    """
    first = results[0]
    latency = first["latency"]
    rates = [r["completed"] / (r["end"] - r["first_event"]) for r in results]
    if host_scaled:
        rates = [rate / r["host_speed"] for rate, r in zip(rates, results)]
    return {
        "ops_per_s": median(rates),
        "setup_s": median([r["setup_s"] * r["host_speed"] for r in results]),
        "peak_rss_mb": median([r["rss_kb"] / 1024 for r in results]),
        "completed_frac": first["completed"] / first["attempted"],
        "read_p50_ms": latency["read"]["p50"],
        "read_p99_ms": latency["read"]["p99"],
        "write_p50_ms": latency["write"]["p50"],
        "write_p99_ms": latency["write"]["p99"],
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced_layers(r: Dict[str, object]) -> Dict[str, float]:
    """Per-layer metrics of one traced repeat."""
    spans = r["spans"]
    counts = r["counts"]
    wall = r["end"] - r["start"]
    ops = r["completed"]
    layer_s = dict.fromkeys(LAYERS, 0.0)
    for name, seconds in spans["self_s"].items():
        layer_s[name.split(".", 1)[0]] += seconds
    messages = counts["messages"]
    total = sum(messages.values())
    known = sum(messages.get(t, 0) for t in MESSAGE_TYPES)
    codec = counts["codec"]
    incl, calls, items, nbytes = (
        spans["incl_s"],
        spans["calls"],
        spans["items"],
        spans["bytes"],
    )
    out = {
        "sim.events_per_op": r["events"] / ops,
        "sim.msgs_per_op": total / ops,
        **{f"sim.msgs_per_op.{t}": messages.get(t, 0) / ops for t in MESSAGE_TYPES},
        "sim.msgs_per_op.other": (total - known) / ops,
        "sim.send_share": spans["self_s"].get("sim.send", 0.0) / wall,
        "core.handler_calls_per_op": (
            calls.get("core.on_message", 0) + calls.get("core.start", 0)
        )
        / ops,
        "core.md_meta_useful_frac": _ratio(
            counts["md_meta_first"], counts["md_meta_deliveries"]
        ),
        "erasure.encode_mb_per_s": _ratio(
            nbytes.get("erasure.encode", 0) / 1e6, incl.get("erasure.encode", 0.0)
        ),
        "erasure.decode_mb_per_s": _ratio(
            nbytes.get("erasure.decode", 0) / 1e6, incl.get("erasure.decode", 0.0)
        ),
        "erasure.encoder_hit_ratio": _ratio(
            codec.get("encoder_hits", 0),
            codec.get("encoder_hits", 0) + codec.get("encoder_misses", 0),
        ),
        "erasure.decoder_hit_ratio": _ratio(
            codec.get("decoder_hits", 0),
            codec.get("decoder_hits", 0) + codec.get("decoder_misses", 0),
        ),
        "erasure.encodes_per_write": _ratio(
            items.get("erasure.encode", 0), r["writes"]
        ),
        "erasure.decodes_per_read": _ratio(items.get("erasure.decode", 0), r["reads"]),
        "consistency.crossings_per_op": calls.get("consistency.crossing", 0) / ops,
        "consistency.max_resident": r["max_resident"],
        "runtime.warm_encode_share": incl.get("runtime.warm_encode", 0.0) / wall,
        "runtime.failed_frac": _failed(r) / r["attempted"],
        "runtime.rejected_frac": r["rejected"] / r["attempted"],
        "runtime.stall_ms": r["stall_ms"],
        "metrics.read_cost": counts["read_cost_mean"],
        "metrics.write_cost": counts["write_cost_mean"],
        "metrics.storage_cost": counts["storage_cost"],
    }
    for layer, seconds in layer_s.items():
        out[f"{layer}.self_share"] = seconds / wall
    out["unattributed_share"] = 1.0 - sum(layer_s.values()) / wall
    return out


def pool_layer(r: Dict[str, object]) -> Dict[str, float]:
    """``analysis.*`` metrics of one untraced ``fleet`` repeat."""
    cells = r["cells"]
    processes = cells["pool_processes"]
    wall = cells["wall_s"]
    return {
        "analysis.pool_overhead_s": wall - cells["critical_cpu_s"],
        "analysis.parallel_efficiency": _ratio(sum(cells["cpu_s"]), processes * wall),
        "analysis.worker_peak_rss_mb": cells["worker_rss_kb"] / 1024,
    }


NO_POOL = {
    "analysis.pool_overhead_s": 0.0,
    "analysis.parallel_efficiency": 0.0,
    "analysis.worker_peak_rss_mb": 0.0,
}


def per_layer(results: List[Dict[str, object]]) -> Dict[str, float]:
    """Per-layer metrics of one ``--trace 1`` run (medians over repeats)."""
    traced = [r for r in results if r["mode"] == "traced"]
    plain = [r for r in results if r["mode"] == "plain"]
    fleet = [r for r in results if r["mode"] == "fleet"]
    per_repeat = [traced_layers(r) for r in traced]
    out = {name: median([m[name] for m in per_repeat]) for name in per_repeat[0]}
    if fleet:
        pools = [pool_layer(r) for r in fleet]
        out.update({name: median([p[name] for p in pools]) for name in NO_POOL})
    else:
        out.update(NO_POOL)
    out["trace_overhead"] = median([r["end"] - r["start"] for r in traced]) / median(
        [r["end"] - r["start"] for r in plain]
    )
    return out
