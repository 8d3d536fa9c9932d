"""Deterministic discrete-event core: global clock, ordered queue, seeded randomness."""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Optional, TextIO

from .packets import Packet

# Simulation time is integer microseconds since run start.  Integer time keeps
# event ordering exact across platforms; all configured delays are expressed
# in these units.
SimTime = int

MS = 1_000
SEC = 1_000_000


class PastEvent(Exception):
    """An event was scheduled behind the engine clock."""


# Event payload kinds.
PACKET_ARRIVAL = "packet_arrival"
TIMER_EXPIRY = "timer_expiry"
L2_TRIGGER = "l2_trigger"
L2_LINK_DOWN = "l2_link_down"
APP_START = "app_start"
APP_STOP = "app_stop"


@dataclass(slots=True)
class SimEvent:
    """An event handed to `Engine.schedule`; on the heap it becomes an entry."""

    fire_at: SimTime
    target: str
    kind: str
    payload: object = None
    insertion_seq: int = -1


# A heap entry, and what a handler receives: (fire_at, insertion_seq, target,
# kind, payload).  A plain tuple is built and unpacked in C.
Entry = tuple[SimTime, int, str, str, object]


# Lines the engine renders before it hands them to its trace sink: enough to
# make each write one large call, small enough that a traced run's memory
# stays flat.
TRACE_BLOCK_LINES = 4096


class TraceWriter:
    """A trace sink that writes each block of lines it is handed to an open
    text file, one line per event.  `len()` is the number of lines written."""

    def __init__(self, fh: TextIO):
        self._fh = fh
        self._written = 0

    def extend(self, lines: list[str]) -> None:
        self._fh.write("\n".join(lines) + "\n")
        self._written += len(lines)

    def __len__(self) -> int:
        return self._written


class RngStream:
    """Seeded pseudo-random stream; identical seeds yield identical draw sequences."""

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = random.Random(seed)

    def uniform(self) -> float:
        return self._rng.random()

    def randrange(self, n: int) -> int:
        return self._rng.randrange(n)


class Engine:
    """Single-threaded event engine.

    Events are processed in strict (fire_at, insertion_seq) order, so two
    events at the same instant pop in FIFO insertion order.  Each event is
    held as the plain tuple `(fire_at, insertion_seq, target, kind, payload)`
    (`Entry`), whether it came from `schedule(SimEvent(...))` or from
    `schedule_in`, and the handler registered for its target receives that
    tuple as its one argument.  One seeded RngStream feeds every random
    decision in a run.  When `trace` is given (any object with
    `extend(lines)`: a list, or a TraceWriter), each event is rendered before
    its handler runs, into a block of lines that goes to the sink when it is
    full and when `run_until` returns or raises, so a failed run's trace ends
    with the line of the event that failed.  Each payload renders through
    `trace_detail`.  A packet is formatted once, by `Packet.trace_str`, and
    every later event that carries it reads the kept text; with the same
    trace bytes, that took `traced-run` from about 3.2 s to about 2.5 s
    (`BENCH_10.json`).  A one-word timer token (`('bg',)`, a third of a
    congested trace) is formatted once per process, and any other token
    (a plain tuple) through `str()`; that took `traced-run` from about
    2.37 s to about 2.15 s (`BENCH_17.json`).

    The traced event stream is the one the golden outputs pin.  An untraced
    run processes the same events with the same results, less the ones only
    a trace would record: a background packet's arrival at the station that
    discards it is never scheduled (`LinkQueue.bg_station`).
    """

    def __init__(self, seed: int = 0, trace: Optional[list[str] | TraceWriter] = None):
        self.now: SimTime = 0
        self.rng = RngStream(seed)
        self.trace = trace
        self._heap: list[Entry] = []
        self._seq = 0
        self._handlers: dict[str, Callable[[Entry], None]] = {}

    def register(self, node_id: str, handler: Callable[[Entry], None]) -> None:
        self._handlers[node_id] = handler

    def schedule(self, event: SimEvent) -> None:
        fire_at = event.fire_at
        if fire_at < self.now:
            raise PastEvent(f"fire_at {fire_at} < clock {self.now}")
        seq = self._seq
        event.insertion_seq = seq
        self._seq = seq + 1
        heappush(self._heap, (fire_at, seq, event.target, event.kind, event.payload))

    def schedule_in(self, delay: SimTime, target: str, kind: str, payload: object = None) -> None:
        if delay < 0:
            raise PastEvent(f"delay {delay} < 0 at clock {self.now}")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (self.now + delay, seq, target, kind, payload))

    def pending(self) -> int:
        return len(self._heap)

    def run_until(self, end: SimTime) -> int:
        """Process every event with fire_at <= end; returns the count processed.

        Afterwards the clock sits at the last processed fire_at, or at `end`
        when nothing fired.
        """
        heap, handlers, sink = self._heap, self._handlers, self.trace
        # Read once per call, so that a test that swaps the module's
        # renderer sees every payload.
        detail = trace_detail
        block: list[str] = []
        append = block.append
        processed = 0
        try:
            # Events run in blocks of TRACE_BLOCK_LINES, so the full block
            # goes to the sink without a length test per event.
            while heap and heap[0][0] <= end:
                for _ in range(TRACE_BLOCK_LINES):
                    if not heap or heap[0][0] > end:
                        break
                    entry = heappop(heap)
                    fire_at, _, target, kind, payload = entry
                    self.now = fire_at
                    processed += 1
                    if sink is not None:
                        append(f"{fire_at}\t{target}\t{kind}\t{detail(payload)}")
                    handler = handlers.get(target)
                    if handler is not None:
                        handler(entry)
                if block:
                    sink.extend(block)
                    block.clear()
        finally:
            if block:
                sink.extend(block)
        self.now = end if processed == 0 else min(end, self.now)
        return processed

    def clear(self) -> None:
        """Drop the handler table and every pending event."""
        self._handlers.clear()
        self._heap.clear()


# The text of each one-word timer token rendered so far.  A run uses a
# handful, so each is formatted once per process.
_TOKEN_TEXT: dict[tuple[str], str] = {}


def trace_detail(payload: object) -> str:
    """The trace text of an event's payload: one lookup for a packet or a
    one-word timer token rendered before."""
    if type(payload) is Packet:
        return payload._trace_text or payload.trace_str()
    # A timer token is a plain tuple.  Only a 1-tuple of str is cached: a
    # token holding an L2Plan cannot be hashed, and equal tuples can print
    # differently (`Address(1, 2, 3)` and `(1, 2, 3)`, `1` and `True`).
    if type(payload) is tuple:
        if len(payload) == 1 and type(payload[0]) is str:
            text = _TOKEN_TEXT.get(payload)
            if text is None:
                text = _TOKEN_TEXT[payload] = str(payload)
            return text
        return str(payload)
    if payload is None:
        return "-"
    render = getattr(payload, "trace_str", None)
    if render is not None:
        return render()
    return str(payload)
