"""Micro-benchmarks of the hot functions, in nanoseconds per operation.

Each one times a batch of operations with `time.perf_counter_ns`, repeats the
batch, and reports the median.  Inputs are fixed, so they need no seed.
"""

from __future__ import annotations

import statistics
import time

REPEATS = 5
BATCH = 20_000


def _median_ns(measure) -> float:
    """Median over REPEATS of `measure()`, which returns (elapsed_ns, ops)."""
    per_op = []
    for _ in range(REPEATS):
        elapsed, ops = measure()
        per_op.append(elapsed / ops)
    return statistics.median(per_op)


def _engine_schedule():
    from nemosim.engine import TIMER_EXPIRY, Engine, SimEvent
    engine = Engine(seed=1)
    # A spread of fire times, so that pushes sift through a realistic heap.
    events = [SimEvent((i * 7919) % 1_000_003, "x", TIMER_EXPIRY) for i in range(BATCH)]
    schedule = engine.schedule
    start = time.perf_counter_ns()
    for ev in events:
        schedule(ev)
    return time.perf_counter_ns() - start, BATCH


def _engine_run_until():
    from nemosim.engine import TIMER_EXPIRY, Engine, SimEvent
    engine = Engine(seed=1)
    engine.register("x", lambda ev: None)
    for i in range(BATCH):
        engine.schedule(SimEvent((i * 7919) % 1_000_003, "x", TIMER_EXPIRY))
    start = time.perf_counter_ns()
    processed = engine.run_until(2_000_000)
    return time.perf_counter_ns() - start, processed


def _be_packets(n):
    from nemosim.packets import Address, Packet
    src, dst = Address(1, 1, 1), Address(1, 2, 1)
    return [Packet(src=src, dst=dst, size_bytes=2000, seq=i, flow="bg") for i in range(n)]


def _scheduler(op: str):
    """Enqueue or dequeue time of best-effort packets, the class behind five
    empty ones, in bursts that stay under RED's minimum threshold."""
    from nemosim.diffserv import PriorityScheduler, RedParams
    from nemosim.engine import RngStream
    burst = 4
    scheduler = PriorityScheduler(RedParams())
    rng = RngStream(1)
    packets = _be_packets(burst)
    enqueue, dequeue = scheduler.enqueue, scheduler.dequeue
    clock = time.perf_counter_ns
    spent = 0
    for _ in range(BATCH // burst):
        t0 = clock()
        for pkt in packets:
            enqueue(pkt, rng)
        t1 = clock()
        for _ in packets:
            dequeue()
        t2 = clock()
        spent += (t1 - t0) if op == "enqueue" else (t2 - t1)
    return spent, BATCH


def _linkqueue_hop():
    """send on an idle link, the tx-done event and the arrival event."""
    from nemosim.diffserv import RedParams
    from nemosim.engine import Engine
    from nemosim.network import Link, LinkQueue
    engine = Engine(seed=1)
    engine.register("b", lambda ev: None)
    queue = LinkQueue(engine, Link("a", "b", 100_000_000, 1000), "a", "b", RedParams(),
                      lambda pkt, where: None)
    packets = _be_packets(BATCH)
    send, run_until = queue.send, engine.run_until
    end = 10 ** 12
    start = time.perf_counter_ns()
    for pkt in packets:
        send(pkt)
        run_until(end)
    return time.perf_counter_ns() - start, BATCH


def _sla_classify():
    from nemosim.diffserv import SlaTable
    from nemosim.packets import Packet
    from nemosim.scenario import ScenarioConfig, default_sla_rules, default_topology
    topo = default_topology(ScenarioConfig())
    table = SlaTable(default_sla_rules(topo))
    pkt = Packet(src=topo.addresses["cn"], dst=topo.mnn_addr, size_bytes=1000, flow="cbr")
    classify = table.classify_and_mark
    start = time.perf_counter_ns()
    for t in range(0, BATCH * 80_000, 80_000):
        classify(pkt, t)
    return time.perf_counter_ns() - start, BATCH


def micro_metrics() -> dict[str, float]:
    return {
        "micro.engine_schedule_ns": _median_ns(_engine_schedule),
        "micro.engine_run_until_ns": _median_ns(_engine_run_until),
        "micro.scheduler_enqueue_ns": _median_ns(lambda: _scheduler("enqueue")),
        "micro.scheduler_dequeue_ns": _median_ns(lambda: _scheduler("dequeue")),
        "micro.linkqueue_hop_ns": _median_ns(_linkqueue_hop),
        "micro.sla_classify_ns": _median_ns(_sla_classify),
    }
