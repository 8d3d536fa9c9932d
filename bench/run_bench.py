#!/usr/bin/env python3
"""nemosim benchmark: host wall time, set-up time and peak memory of three
batch workloads, with every simulated output checked against pinned values.
With --trace 1 it reports the per-layer split from a traced run instead.

    python3 bench/run_bench.py --workload congested-sweep --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  One operation is one
simulation run; a run fails if it raises or if any output check fails.
See bench/NOTES.md for why each workload and metric is there.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402
from calibrate import adjusted  # noqa: E402

# wall_s is the median over passes, and at least two.  A congested sweep
# takes 11-22 s, so its runs outlast --seconds.
MIN_PASSES = 2
# Fresh set-up processes timed before each pass, so that setup_s, their
# median, samples the whole run rather than one moment of it.
SETUP_PROBES_PER_PASS = 5
SUBSTRATE = ("engine", "diffserv", "nodes", "network")


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0


def checked_pass(workload, seed, speeds, pins, tally, probe=None, calibrated=False):
    """One pass with its output checks counted; None when the pass raised."""
    expected = len(wl.expected_runs(workload, speeds))
    tally.attempted += expected
    try:
        result = wl.timed_pass(workload, seed, speeds, probe, calibrated)
    except Exception:  # a raising run is a failed operation; report and go on
        traceback.print_exc()
        tally.failed += expected
        return None
    failed, messages = wl.check_pass(workload, seed, speeds, result.outputs, pins)
    tally.failed += failed
    for message in messages:
        print(message, file=sys.stderr)
    return result


def setup_probes(workload: str, count: int) -> list[float]:
    """Set-up seconds at reference speed of `count` fresh processes, each
    scaled by the reference load timed in the same process (setup_probe.py)."""
    cmd = [sys.executable, str(wl.BENCH_DIR / "setup_probe.py")]
    scenario = wl.SETUP_SCENARIO[workload]
    if scenario is not None:
        cmd.append(str(scenario))
    setups = []
    for _ in range(count):
        out = subprocess.run(cmd, cwd=wl.ROOT, capture_output=True, text=True,
                             timeout=120, check=True).stdout.split()
        setups.append(adjusted([float(out[-2])], [float(out[-1])] * 2))
    return setups


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def end_to_end(workload, seed, seconds, pins, tally) -> dict:
    setup_probes(workload, 1)   # fills the bytecode cache; not counted
    # An untimed, checked warm-up pass (the sweeps at one speed): the first
    # pass in a process ran about 7% slower than the ones after it.
    if checked_pass(workload, seed, (wl.TRACE_SPEED,), pins, tally) is None:
        raise RuntimeError(f"the warm-up pass of {workload} raised")
    setups, walls, host = [], [], []
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < seconds:
        setups += setup_probes(workload, SETUP_PROBES_PER_PASS)
        result = checked_pass(workload, seed, wl.SPEEDS, pins, tally, calibrated=True)
        if result is None:
            break
        walls.append(result.adjusted)
        host.append(result.wall)
    if not walls:
        raise RuntimeError(f"no pass of {workload} completed")
    print(f"{workload}: {len(walls)} passes, wall_s at reference speed " +
          " ".join(f"{w:.3f}" for w in walls) + ", host seconds " +
          " ".join(f"{w:.3f}" for w in host), file=sys.stderr)
    return {"wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB")}


def layer_metrics(tracer, recorded, function_s) -> dict:
    """Counts from the traced pass; self times from the sampled one."""
    from tracer import MODULES
    c, calls = tracer.counters, tracer.call_count
    dequeues = calls("diffserv.PriorityScheduler.dequeue")
    m = {
        "engine.events": (c["engine.events"], "count"),
        "engine.scheduled": (calls("engine.Engine.schedule"), "count"),
        "engine.heap_peak": (c["engine.heap_peak"], "count"),
        "engine.trace_lines": (sum(run.trace_lines for run in recorded), "count"),
        "network.hops": (calls("network.LinkQueue.send"), "count"),
        "network.tx_done": (calls("network.LinkQueue._on_tx_done"), "count"),
        "diffserv.enqueue.calls": (calls("diffserv.PriorityScheduler.enqueue"), "count"),
        "diffserv.dequeue.calls": (dequeues, "count"),
        "diffserv.dequeue.useful_ratio":
            (c["diffserv.dequeue.useful"] / dequeues if dequeues else 0.0, "ratio"),
        "diffserv.classify.calls": (calls("diffserv.SlaTable.classify_and_mark"), "count"),
        "diffserv.red_draws": (calls("engine.RngStream.uniform"), "count"),
        "simulation.forward.calls": (calls("simulation.Simulation.forward"), "count"),
        "simulation.owner_of.calls": (calls("simulation.Simulation.owner_of"), "count"),
        "nodes.dispatch.calls": (tracer.calls_from("engine.Engine.run_until", "nodes."),
                                 "count"),
        "nodes.bg_packets": (c["nodes.bg_packets"], "count"),
        "packets.encapsulate.calls": (calls("packets.encapsulate"), "count"),
        "packets.rewrites": (calls("packets.apply_type2_routing",
                                   "packets.apply_home_address_option"), "count"),
        "packets.trace_str.calls": (calls("packets.Packet.trace_str"), "count"),
        "fsm.steps": (calls("fsm.fsm_step", "fsm.reg_step"), "count"),
    }
    self_s = dict.fromkeys(MODULES, 0.0)
    for name, seconds in function_s.items():
        self_s[name.split(".", 1)[0]] += seconds
    for short in MODULES:
        m[f"{short}.self_s"] = (self_s[short], "s")
    total = sum(self_s.values())
    m["substrate.self_share"] = (sum(self_s[s] for s in SUBSTRATE) / total, "ratio")
    return m


def write_functions(path: Path, calls: dict, function_s: dict) -> None:
    """Calls (traced pass) and sampled self time (untraced pass) per function."""
    names = sorted(set(calls) | set(function_s), key=lambda n: -function_s.get(n, 0.0))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name\tcalls\tsampled_self_s\n")
        for name in names:
            fh.write(f"{name}\t{calls.get(name, '')}\t{function_s.get(name, 0.0):.6f}\n")


def per_layer(workload, seed, seconds, pins, tally) -> dict:
    """Rounds of an untraced pass under the sampler, for self times and the
    base of trace_overhead, and a traced pass, for counts and spans."""
    from micro import micro_metrics
    from sampler import Sampler
    from tracer import Tracer
    metrics = {name: (ns, "ns") for name, ns in micro_metrics().items()}
    speeds = (wl.TRACE_SPEED,)
    base, traced, layers = [], [], []
    start = time.perf_counter()
    while not layers or time.perf_counter() - start < seconds:
        sampler, tracer = Sampler(), Tracer()
        plain = checked_pass(workload, seed, speeds, pins, tally, sampler)
        with_spans = checked_pass(workload, seed, speeds, pins, tally, tracer)
        if plain is None or with_spans is None:
            break
        if [(o.row, o.digests) for o in plain.outputs] != [(o.row, o.digests) for o in with_spans.outputs]:
            print(f"{workload}: traced outputs differ from untraced ones", file=sys.stderr)
            tally.failed = min(tally.failed + len(with_spans.outputs), tally.attempted)
        function_s = sampler.seconds(plain.wall)
        if not layers:
            stem = f"{workload}-seed{seed}"
            tracer.write_spans(wl.RUN_DIR / f"spans-{stem}.tsv")
            write_functions(wl.RUN_DIR / f"functions-{stem}.tsv", tracer.calls(), function_s)
        base.append(plain.wall)
        traced.append(with_spans.wall)
        layers.append(layer_metrics(tracer, with_spans.recorded, function_s))
    if not layers:
        raise RuntimeError(f"no traced pass of {workload} completed")
    for name, (value, unit) in layers[0].items():
        if unit == "count" and any(l[name][0] != value for l in layers):
            print(f"{workload}: {name} differs between traced passes", file=sys.stderr)
        values = [l[name][0] for l in layers]
        metrics[name] = (value if unit == "count" else statistics.median(values), unit)
    metrics["trace_overhead"] = (statistics.median(traced) / statistics.median(base), "ratio")
    metrics["trace_overhead.base_s"] = (statistics.median(base), "s")
    metrics["trace_overhead.traced_s"] = (statistics.median(traced), "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="benchmark seed; selects one of the pinned scenario seeds")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        wl.import_nemosim()
        pins = wl.load_pins()
    except (wl.SetupError, ImportError) as exc:
        print(f"run_bench: {exc}", file=sys.stderr)
        return 2
    seed = wl.scenario_seed(args.seed)
    tally = Tally()
    measure = per_layer if args.trace else end_to_end
    metrics = measure(args.workload, seed, args.seconds, pins, tally)
    try:
        wl.RUN_DIR.rmdir()   # left only when the traced run wrote its spans
    except OSError:
        pass
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
