"""Benchmark driver for the SODA reproduction.

From the repository root::

    python3 perfbench/run.py --workload soda_small --seed 1 --seconds 30 --trace 0

runs the workload's repeats, each in a fresh interpreter (``repeat.py``)
with a wall-clock limit, until ``--seconds`` of repeats have run (at
least three with ``--trace 0``).  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones (see ``README.md``).  Every
repeat is checked: the correctness gates of
:func:`workloads.check_gates` must hold, and the deterministic outputs
must be identical across all repeats of the seed, traced or not.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A broken gate or a
determinism mismatch prints ``"correct": false`` and exits with 1; a
repeat that crashes or overruns its limit exits with 2 and prints no
result.  Host calibration goes to standard error.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from calibrate import churn_rate, host_speed, loop_rate, software  # noqa: E402
from metrics import END_TO_END, PER_LAYER, end_to_end, per_layer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: The whole run ends well inside the 180 s the benchmark is allowed.
DEADLINE_S = 165.0
#: Wall-clock limit of one repeat.
REPEAT_LIMIT_S = 120.0
#: Untraced repeats a ``--trace 0`` run makes at least (for the medians).
MIN_REPEATS = 3
#: How long a finished repeat's leftover processes may take to exit.
REAP_GRACE_S = 10.0
PR_SET_CHILD_SUBREAPER = 36

START = time.monotonic()


class BenchError(RuntimeError):
    """A repeat that crashed, hung or printed no result."""


def become_subreaper() -> None:
    """Adopt orphaned descendants (pool workers, resource trackers), so
    :func:`reap_descendants` can wait for every process a repeat left."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):  # pragma: no cover - non-Linux hosts
        pass


def reap_descendants(group: int, label: str) -> None:
    """Wait until every descendant has exited; kill the group if they linger."""
    deadline = time.monotonic() + REAP_GRACE_S
    killed = False
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            if killed:
                raise BenchError(f"{label}: processes survived SIGKILL")
            kill_group(group)
            killed = True
            deadline = time.monotonic() + REAP_GRACE_S
        time.sleep(0.02)


def kill_group(group: int) -> None:
    try:
        os.killpg(group, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_repeat(name: str, seed: int, mode: str, index: int) -> Dict[str, object]:
    """One repeat in a fresh interpreter; returns its measurements."""
    label = f"workload {name} repeat {index} ({mode})"
    limit = min(REPEAT_LIMIT_S, DEADLINE_S - (time.monotonic() - START))
    if limit <= 1.0:
        raise BenchError(f"{label}: no time left before the run's deadline")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    speed_before = host_speed()
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "repeat.py"), name, str(seed), mode],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        proc.communicate()
        raise BenchError(f"{label}: still running after its {limit:.0f} s limit")
    finally:
        if proc.poll() is None:
            kill_group(proc.pid)
            proc.wait()
        reap_descendants(proc.pid, label)
    if proc.returncode != 0:
        tail = "\n".join(err.strip().splitlines()[-15:])
        raise BenchError(f"{label}: exited with code {proc.returncode}\n{tail}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{label}: printed no result")
    result = json.loads(lines[-1])
    result["setup_s"] = result["first_event"] - spawned
    # The repeat measured the host right after its run; this run measured
    # it right before.  Their mean is the speed the repeat ran at.
    result["host_speed"] = (speed_before + result["host_speed"]) / 2
    run_s = result["end"] - result["first_event"]
    print(
        f"perfbench: {label}: setup {result['setup_s']:.3f} s, run {run_s:.2f} s, "
        f"{result['completed'] / run_s:.1f} ops/s at host speed "
        f"{result['host_speed']:.3f}, peak RSS {result['rss_kb'] / 1024:.0f} MB",
        file=sys.stderr,
    )
    return result


def first_difference(a, b, path: str = "") -> str:
    """Path of the first place two JSON values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if a.get(key) != b.get(key):
                return first_difference(a.get(key), b.get(key), f"{path}.{key}")
    return f"{path[1:] or '<value>'}: {a!r} != {b!r}"


def determinism_errors(name: str, results: List[Dict[str, object]]) -> List[str]:
    """Each deterministic output must equal its value in the first repeat
    that reported it (untraced ``fleet`` repeats report fewer sections)."""
    errors = []
    first: Dict[str, tuple] = {}
    for index, result in enumerate(results):
        for key, value in result["deterministic"].items():
            if key not in first:
                first[key] = (index, value)
                continue
            ref, expected = first[key]
            if value != expected:
                errors.append(
                    f"{name} repeat {index} ({result['mode']}) differs from "
                    f"repeat {ref} ({results[ref]['mode']}) in "
                    f"{first_difference(expected, value, key)}"
                )
    return errors


def calibration() -> Dict[str, object]:
    """Cheap host facts printed with every run (see ``calibrate.py``)."""
    return {
        **software(),
        "loop_rate_per_s": loop_rate(0.2),
        "churn_rate_per_s": churn_rate(0.2),
    }


def measure(
    name: str, seed: int, seconds: float, trace: bool
) -> List[Dict[str, object]]:
    """Run cycles of repeats until ``seconds`` of them have run."""
    w = WORKLOADS[name]
    cycle = w.modes if trace else [w.modes[0]]
    minimum = 1 if trace else MIN_REPEATS
    results: List[Dict[str, object]] = []
    began = time.monotonic()
    cycles = 0
    while True:
        for mode in cycle:
            results.append(run_repeat(name, seed, mode, len(results)))
        cycles += 1
        elapsed = time.monotonic() - began
        per_cycle = elapsed / cycles
        if cycles >= minimum and elapsed + per_cycle > seconds:
            return results
        if time.monotonic() - START + 1.5 * per_cycle > DEADLINE_S:
            if cycles < minimum:
                raise BenchError(
                    f"workload {name}: only {cycles} of {minimum} repeats fit "
                    f"in the run's {DEADLINE_S:.0f} s deadline"
                )
            return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    become_subreaper()
    print(json.dumps({"calibration": calibration()}), file=sys.stderr)
    try:
        results = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    errors = determinism_errors(args.workload, results)
    for index, r in enumerate(results):
        errors.extend(
            f"{args.workload} repeat {index} ({r['mode']}): {violation}"
            for violation in r["violations"]
        )
    if args.trace:
        values = per_layer(results)
        units = {k: v[0] for k, v in PER_LAYER.items()}
    else:
        values = end_to_end(results, WORKLOADS[args.workload].host_scaled)
        units = {k: v[0] for k, v in END_TO_END.items()}
    for message in errors:
        print(f"perfbench: {message}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(
                    r["failed"] + r["rejected"] + r["timed_out"] + r["shed_reads"]
                    for r in results
                ),
                "metrics": {
                    name: {"value": values[name], "unit": units[name]} for name in units
                },
            }
        )
    )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
