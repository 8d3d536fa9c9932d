"""Host-speed calibration: a fixed reference load timed next to the code
under test, so that times can be given at one reference host speed.

On a shared host other tenants slow a process by up to 2x, in stretches of
seconds to minutes, and process CPU time slows with it.  Dividing each timed
stretch by the reference load timed just before and just after it cancels
most of that slowdown.  The reference load is a small discrete-event network
written in the simulator's style (a heap of (time, seq, event) tuples,
handlers registered per node name, slotted dataclass events, frozen
dataclass addresses as dict keys, enum event kinds, per-class FIFO queues,
seeded random drops) and touches no nemosim code, so no change to nemosim
moves it.  Over five minutes of interleaved runs on a loaded 2-vCPU host,
30-second medians of one simulation run's host time ranged over 46%; divided
by a load of this kind they ranged over 6%, and over 14% when divided by a
plainer heapq loop with slotted classes and no handler dispatch.

Changing the reference load, REF_EVENTS or REF_S rescales every adjusted
time: do it only together with a new baseline.
"""

from __future__ import annotations

import gc
import heapq
import random
import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

REF_EVENTS = 25_000
REF_NODES = 16
# Adjusted times are seconds on a host where one reference load takes REF_S.
REF_S = 0.1


class _Kind(Enum):
    GEN = "gen"
    TX = "tx"
    RX = "rx"


@dataclass(frozen=True, order=True, slots=True)
class _Addr:
    net: int
    host: int


@dataclass(slots=True)
class _Event:
    fire_at: int
    target: str
    kind: _Kind
    payload: object = None
    seq: int = -1


@dataclass
class _Packet:
    src: _Addr
    dst: _Addr
    size: int
    dscp: int
    hops: list = field(default_factory=list)


class _Engine:
    def __init__(self, seed: int):
        self.now = 0
        self.rng = random.Random(seed)
        self.heap: list = []
        self.seq = 0
        self.handlers: dict = {}

    def schedule_in(self, delay: int, target: str, kind: _Kind, payload=None) -> None:
        event = _Event(self.now + delay, target, kind, payload, self.seq)
        self.seq += 1
        heapq.heappush(self.heap, (event.fire_at, event.seq, event))

    def run(self, events: int) -> None:
        for _ in range(events):
            self.now, _, event = heapq.heappop(self.heap)
            handler = self.handlers.get(event.target)
            if handler is not None:
                handler(event)


class _Node:
    def __init__(self, engine: _Engine, index: int, nodes: int):
        self.engine, self.index, self.nodes = engine, index, nodes
        self.name = f"n{index}"
        self.addr = _Addr(index % 4, index)
        self.queues = [deque() for _ in range(3)]
        self.busy = False
        self.routes: dict = {}
        self.delivered: dict = {}
        engine.handlers[self.name] = self.dispatch

    def dispatch(self, event: _Event) -> None:
        if event.kind is _Kind.GEN:
            self.on_gen()
        elif event.kind is _Kind.TX:
            self.on_tx()
        else:
            self.enqueue(event.payload)

    def enqueue(self, packet: _Packet) -> None:
        queue = self.queues[0 if packet.dscp >= 46 else 1 if packet.dscp >= 10 else 2]
        if len(queue) >= 30 and self.engine.rng.random() < 0.5:
            return
        queue.append(packet)
        if not self.busy:
            self.busy = True
            self.engine.schedule_in(packet.size // 8, self.name, _Kind.TX)

    def head(self):
        for queue in self.queues:
            if queue:
                return queue
        return None

    def on_gen(self) -> None:
        rng = self.engine.rng
        self.engine.schedule_in(60 + rng.randrange(100), self.name, _Kind.GEN)
        dst = rng.randrange(self.nodes)
        self.enqueue(_Packet(self.addr, _Addr(dst % 4, dst), 200 + rng.randrange(1000),
                             (0, 10, 46)[rng.randrange(3)]))

    def on_tx(self) -> None:
        queue = self.head()
        if queue is None:
            self.busy = False
            return
        packet = queue.popleft()
        packet.hops.append(self.name)
        hop = self.routes.get(packet.dst)
        if hop is None:
            hop = self.routes[packet.dst] = f"n{(self.index + 1 + packet.dst.host) % self.nodes}"
        if packet.dst != self.addr and len(packet.hops) < 4:
            self.engine.schedule_in(10, hop, _Kind.RX, packet)
        else:
            key = (packet.src, packet.dst)
            self.delivered[key] = self.delivered.get(key, 0) + packet.size
        queue = self.head()
        if queue is None:
            self.busy = False
        else:
            self.engine.schedule_in(queue[0].size // 8, self.name, _Kind.TX)


def reference_load(events: int = REF_EVENTS) -> int:
    """Process `events` events of a fixed packet network; returns bytes delivered."""
    engine = _Engine(12345)
    nodes = [_Node(engine, i, REF_NODES) for i in range(REF_NODES)]
    for node in nodes:
        engine.schedule_in(node.index, node.name, _Kind.GEN)
    engine.run(events)
    delivered = sum(sum(node.delivered.values()) for node in nodes)
    # The handlers tie engine and nodes into a cycle; cut it, so that the
    # load leaves no garbage for the cyclic collector.
    engine.handlers.clear()
    return delivered


def time_reference() -> float:
    """Host seconds of one reference load.  The cyclic collector is off
    while it runs: the load's objects then never reach an older generation,
    so it does not change when the collector next frees the code under
    test's garbage, nor with it that code's time and peak memory."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_load()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def adjusted(stretches: list[float], refs: list[float]) -> float:
    """Seconds at reference speed of stretches timed between reference loads:
    stretch k ran between refs[k] and refs[k + 1]."""
    if len(refs) != len(stretches) + 1:
        raise ValueError(f"{len(stretches)} stretches need {len(stretches) + 1} references")
    return REF_S * sum(s / ((refs[k] + refs[k + 1]) / 2) for k, s in enumerate(stretches))
