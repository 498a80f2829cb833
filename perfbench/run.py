"""Repository benchmark: µs per delivered message on four canonical workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload link-faulty --seed 1 --seconds 25 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every per-layer
metric (see ``BENCHMARK.json`` and ``perfbench/README.md``).  Lines starting
with ``#`` are the environment stamp and a human-readable summary; the last
line of standard output is the JSON result.  Any wrong output of the program
ends the run with exit code 1 and no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPAN_DIR = os.path.join(ROOT, ".perfbench")

#: Fresh-interpreter set-up probes per run (their median is setup_s).
SETUP_PROBES = 9

#: Per-layer metric reporting each tracer layer's self time.
SELF_METRICS = {
    "core.tmrm": "core.tmrm_self_s",
    "core.codec": "core.codec_self_s",
    "channel": "channel.self_s",
    "adversary": "adversary.self_s",
    "sim.run": "sim.run_self_s",
    "kernel": "kernel.self_s",
    "checkers.trace_append": "checkers.trace_append_self_s",
    "checkers.observe": "checkers.observe_self_s",
    "checkers.e2e": "checkers.e2e_self_s",
    "transport.route": "transport.route_self_s",
    "transport.fabric": "transport.fabric_self_s",
    "transport.hop": "transport.hop_self_s",
    "live.wire": "live.wire_self_s",
    "bench": "bench.unattributed_self_s",
}

from hostspeed import REFERENCE_S, reference_s  # noqa: E402  (on sys.path)
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, BenchFailure, Unit, Workload, unit_seeds  # noqa: E402


def _import_program() -> None:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise BenchFailure(f"program sources not found under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def _check_repeat(first: Dict[int, Unit], j: int, unit: Unit, what: str) -> None:
    """Deterministic counters must repeat exactly for the same input."""
    seen = first.setdefault(j, unit)
    if seen is not unit and seen.exact != unit.exact:
        raise BenchFailure(
            f"{what}: work counters of input {j} changed between runs: "
            f"{seen.exact} != {unit.exact}"
        )


def _timed(workload: Workload, seed: int):
    inputs = workload.build(seed)
    # Garbage left by the previous unit is collected before the clock
    # starts, so units do not pay for each other's allocations.
    gc.collect()
    started = perf_counter()
    result = workload.run(inputs)
    return result, perf_counter() - started


def collect(workload: Workload, seeds: List[int], seconds: float):
    """Untraced units until ``seconds`` have passed (at least one repeat).

    The host-speed reference loop runs before the first unit and after
    every unit; each unit's slowdown is the mean of the two around it over
    :data:`REFERENCE_S`.  Returns the per-unit wall µs/msg and slowdowns,
    the first unit of each input, and the messages attempted.
    """
    first: Dict[int, Unit] = {}
    walls: List[float] = []
    slowdowns: List[float] = []
    attempted = 0
    started = perf_counter()
    before = reference_s()
    i = 0
    while i <= len(seeds) or perf_counter() - started < seconds:
        j = i % len(seeds)
        result, wall = _timed(workload, seeds[j])
        after = reference_s()
        unit = workload.summarize(result)
        _check_repeat(first, j, unit, workload.name)
        walls.append(wall * 1e6 / unit.delivered)
        slowdowns.append((before + after) / (2 * REFERENCE_S))
        attempted += unit.attempted
        before = after
        i += 1
    return walls, slowdowns, [first[j] for j in range(len(seeds))], attempted


def collect_traced(workload: Workload, seeds: List[int], seconds: float):
    """Cycles of (untraced, traced) units over every input.

    Each cycle runs every input once untraced and once traced and checks
    that the traced run repeats the untraced counters exactly.  Returns
    per-cycle records and the tracer holding the last traced unit's spans.
    """
    tracer = Tracer()
    points = workload.trace_points()
    first: Dict[int, Unit] = {}
    cycles = []
    attempted = 0
    started = perf_counter()
    cycle_s = 0.0
    # A cycle starts only if it should end within ``seconds``.
    while not cycles or perf_counter() - started + cycle_s < seconds:
        cycle_started = perf_counter()
        tracer.reset_totals()
        cycle = {"untraced_s": 0.0, "traced_s": 0.0, "units": [], "traced": []}
        for j, seed in enumerate(seeds):
            result, wall = _timed(workload, seed)
            unit = workload.summarize(result)
            _check_repeat(first, j, unit, workload.name)
            cycle["untraced_s"] += wall
            cycle["units"].append(unit)
            inputs = workload.build(seed)
            tracer.clear_spans()
            tracer.op = j
            gc.collect()
            with tracer.installed(points):
                t0 = perf_counter()
                with tracer.span():
                    result = workload.run(inputs)
                wall = perf_counter() - t0
            traced = workload.summarize(result)
            if traced.exact != unit.exact:
                raise BenchFailure(
                    f"{workload.name}: traced run changed the work counters: "
                    f"{unit.exact} != {traced.exact}"
                )
            cycle["traced_s"] += wall
            cycle["traced"].append(traced)
            attempted += unit.attempted + traced.attempted
        cycle["self_s"] = tracer.layer_self_s()
        cycle["calls"] = tracer.layer_calls()
        cycles.append(cycle)
        cycle_s = perf_counter() - cycle_started
    return cycles, tracer, attempted


def _quartiles(values: List[float]) -> List[float]:
    """[p25, p50, p75, max] of ``values`` for the summary line."""
    if len(values) < 2:
        values = values * 2
    low, mid, high = statistics.quantiles(values, n=4)
    return [round(v, 4) for v in (low, mid, high, max(values))]


def _sum(units: List[Unit], key: str) -> float:
    return sum(u.total(key) for u in units)


def _peak(units: List[Unit], key: str) -> float:
    return max(u.peaks.get(key, 0) for u in units)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _per(units: List[Unit], key: str, scale: float = 1.0) -> float:
    delivered = sum(u.delivered for u in units)
    return _sum(units, key) * scale / delivered


def setup_probe(name: str, seed: int) -> Tuple[float, float]:
    """Seconds to import the program and build the first unit's inputs,
    and the host slowdown the reference loop measures right after."""
    started = perf_counter()
    _import_program()
    workload = WORKLOADS[name]()
    workload.load()
    workload.build(unit_seeds(name, seed, 1)[0])
    setup = perf_counter() - started
    return setup, reference_s() / REFERENCE_S


def measure_setup(name: str, seed: int, probes: int) -> List[Tuple[float, float]]:
    """(set-up seconds, slowdown) of ``probes`` fresh interpreters."""
    results = []
    for _ in range(probes):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", name, "--seed", str(seed), "--seconds", "0"],
            check=True, capture_output=True, text=True, timeout=120,
        )
        setup, slowdown = out.stdout.split()
        results.append((float(setup), float(slowdown)))
    return results


def stop_children() -> None:
    """End every process this run started, and wait for each.

    Campaign pools shut down without waiting for their workers, and the
    resource tracker lives until its last holder closes it.
    """
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(10)
        if child.is_alive():
            child.terminate()
            child.join()
    resource_tracker._resource_tracker._stop()


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any child it waited for."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def env_stamp(mmsg=None) -> dict:
    """Host facts that make numbers from different hosts incomparable."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "kernel": platform.release(),
        "machine": platform.machine(),
        "mmsg": "n/a" if mmsg is None else bool(mmsg),
        "note": "live traffic crosses loopback only; compare only same-host numbers",
    }


def end_to_end(workload: Workload, seed: int, seconds: float, probes: int):
    seeds = unit_seeds(workload.name, seed, workload.distinct)
    walls, slowdowns, units, attempted = collect(workload, seeds, seconds)
    # Read before the set-up probes, which are children too.
    rss = peak_rss_mb()
    scaled = [wall / slowdown for wall, slowdown in zip(walls, slowdowns)]
    setups = measure_setup(workload.name, seed, probes)
    metrics = {
        "us_per_msg": (statistics.median(scaled), "us"),
        "packets_per_msg": (_per(units, "packets"), "count"),
        "ticks_per_msg": (_per(units, workload.tick_key), "count"),
        "bits_per_msg": (_per(units, "bits"), "bit"),
        "storage_peak_bits": (_peak(units, "storage_peak_bits"), "bit"),
    }
    for name, value in workload.counting_pass(seeds[0]).items():
        metrics[name] = (value, metrics[name][1])
    metrics["peak_rss_mb"] = (rss, "MB")
    metrics["setup_s"] = (
        statistics.median(setup / slowdown for setup, slowdown in setups), "s"
    )
    summary = {
        "samples": len(scaled),
        "us_per_msg": _quartiles(scaled),
        "wall_us_per_msg": _quartiles(walls),
        "host_slowdown": _quartiles(slowdowns),
        "setup_wall_s": _quartiles([setup for setup, _ in setups]),
        "distinct_inputs": len(units),
        "crash_aborted": _sum(units, "crash_aborted"),
        "exact": [u.exact for u in units],
    }
    mmsg = units[0].info.get("mmsg")
    return metrics, summary, attempted, mmsg


def per_layer(workload: Workload, seed: int, seconds: float):
    seeds = unit_seeds(workload.name, seed, workload.distinct)
    cycles, tracer, attempted = collect_traced(workload, seeds, seconds)
    units = cycles[0]["units"]
    delivered = sum(u.delivered for u in units)

    def med(values) -> float:
        return statistics.median(list(values))

    selfs = {
        metric: med(c["self_s"].get(layer, 0.0) for c in cycles)
        for layer, metric in SELF_METRICS.items()
    }
    calls = {
        layer: med(c["calls"].get(layer, 0) for c in cycles) / delivered
        for layer in ("core.tmrm", "core.codec", "transport.route")
    }
    campaign_wall = _sum(units, "campaign_wall_s")
    dispatch = 0.0
    if campaign_wall:
        # Campaign workers are forked: their spans would die with them.
        # Worker busy time is the runs' own loop wall; the rest of the root
        # span is the parent's dispatch, set-up and report transport.
        busy = med(_sum(c["traced"], "run_wall_s") for c in cycles)
        selfs["sim.run_self_s"] = busy
        dispatch = selfs["bench.unattributed_self_s"] - busy
        selfs["bench.unattributed_self_s"] = 0.0
    dup_drops = _sum(units, "dup_drops")
    metrics = {name: (value, "s") for name, value in selfs.items()}
    metrics.update({
        "core.tmrm_calls_per_msg": (calls["core.tmrm"], "count/msg"),
        "core.codec_calls_per_msg": (calls["core.codec"], "count/msg"),
        "core.nonce_ext_per_kmsg": (_per(units, "extensions", 1000), "count/kmsg"),
        "core.rng_bits_per_msg": (_per(units, "rng_bits"), "bit/msg"),
        "channel.delivery_ratio": (
            _sum(units, "packets_delivered") / _sum(units, "packets"), "ratio"
        ),
        "adversary.moves_per_msg": (_per(units, "moves"), "count/msg"),
        "sim.steps_per_msg": (_per(units, "steps"), "count/msg"),
        "checkers.events_per_msg": (_per(units, "events"), "count/msg"),
        "checkers.checker_s_per_msg": (_per(units, "checker_s"), "s/msg"),
        "resilience.dispatch_frac": (
            1.0 - _ratio(_sum(units, "run_wall_s"), campaign_wall) if campaign_wall
            else 0.0,
            "ratio",
        ),
        "resilience.dispatch_self_s": (dispatch, "s"),
        "resilience.runs_per_s": (_ratio(_sum(units, "runs"), campaign_wall), "1/s"),
        "transport.route_calls": (calls["transport.route"] * 1000, "count/kmsg"),
        "transport.reroutes_per_kmsg": (_per(units, "reroutes", 1000), "count/kmsg"),
        "transport.retransmits_per_kmsg": (_per(units, "retransmits", 1000), "count/kmsg"),
        "transport.dropped_down_per_kmsg": (_per(units, "dropped_down", 1000), "count/kmsg"),
        "transport.dropped_overflow": (_sum(units, "dropped_overflow"), "count"),
        # Only the fabric deduplicates (it counts dup_drops).
        "transport.dedup_useful_ratio": (
            delivered / (delivered + dup_drops)
            if "dup_drops" in units[0].counts else 0.0,
            "ratio",
        ),
        "live.datagrams_per_send_batch": (
            _ratio(_sum(units, "datagrams_sent"), _sum(units, "send_batches")), "count"
        ),
        "live.datagrams_per_recv_batch": (
            _ratio(_sum(units, "datagrams_received"), _sum(units, "recv_batches")), "count"
        ),
        "live.proxy_forwarded_per_msg": (_per(units, "forwarded"), "count/msg"),
        "live.pool_high_water": (_peak(units, "pool_high_water"), "count"),
        "live.resequencer_high_water": (_peak(units, "resequencer_high_water"), "count"),
        "trace.untraced_wall_s": (med(c["untraced_s"] for c in cycles), "s"),
        "trace.wall_s": (med(c["traced_s"] for c in cycles), "s"),
        "trace.overhead_s": (med(c["traced_s"] - c["untraced_s"] for c in cycles), "s"),
    })
    summary = {
        "cycles": len(cycles),
        "delivered_per_cycle": delivered,
        "spans_kept": len(tracer.col_id),
        "exact": [u.exact for u in units],
    }
    mmsg = units[0].info.get("mmsg")
    return metrics, summary, attempted, mmsg, tracer


def benchmark(name: str, seed: int, seconds: float, trace: bool,
              scale: float = 1.0, probes: int = SETUP_PROBES,
              span_dir: str = SPAN_DIR) -> dict:
    """Run one workload; returns the result object (raises BenchFailure)."""
    _import_program()
    # The campaign supervisor makes a scratch directory per campaign; keep
    # it inside the checkout.
    tempfile.tempdir = os.path.join(span_dir, "tmp")
    os.makedirs(tempfile.tempdir, exist_ok=True)
    workload = WORKLOADS[name](scale)
    workload.load()
    workload.start()
    if trace:
        metrics, summary, attempted, mmsg, tracer = per_layer(
            workload, seed, seconds
        )
        env = env_stamp(mmsg)
        path = os.path.join(span_dir, f"spans-{name}-seed{seed}.npz")
        tracer.dump(path, env)
        summary["spans_file"] = os.path.relpath(path, ROOT)
    else:
        metrics, summary, attempted, mmsg = end_to_end(
            workload, seed, seconds, probes
        )
        env = env_stamp(mmsg)
    return {
        "env": env,
        "summary": summary,
        "result": {
            "correct": True,
            "attempted": int(attempted),
            # Any operation that fails its check ends the run without a
            # result, so a printed result never counts a failure.
            "failed": 0,
            "metrics": {
                key: {"value": float(value), "unit": unit}
                for key, (value, unit) in metrics.items()
            },
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            print(*setup_probe(args.workload, args.seed))
            return 0
        out = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchFailure as failure:
        print(f"perfbench: {failure}", file=sys.stderr)
        return 1
    finally:
        stop_children()
    print("# env " + json.dumps(out["env"], sort_keys=True))
    print("# summary " + json.dumps(out["summary"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
