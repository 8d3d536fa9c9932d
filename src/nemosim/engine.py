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


class Livelock(Exception):
    """Events kept firing at one instant, past the engine's budget."""


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


# A heap entry, and what a handler receives: (fire_at, insertion_seq, target,
# kind, payload).  A plain tuple is built and unpacked in C.
Entry = tuple[SimTime, int, str, str, object]


# Lines the engine renders before it hands them to its trace sink: enough to
# make each write one large call, small enough that a traced run's memory
# stays flat.
TRACE_BLOCK_LINES = 4096

# Consecutive full blocks of events at one instant after which `run_until`
# raises `Livelock`.  No pinned run holds more than five events at one
# microsecond (the boot events at 0), so 32,768 is far past any run that
# moves on.
LIVELOCK_BLOCKS = 8


class TraceWriter:
    """A trace sink that writes each block of lines it is handed to an open
    text file, one line per event.  `len()` is the number of lines written."""

    def __init__(self, fh: TextIO):
        self._fh = fh
        self._written = 0

    def extend(self, lines: list[str]) -> None:
        # Two writes, so the block is not copied once more to end it.
        self._fh.write("\n".join(lines))
        self._fh.write("\n")
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
    every later event that carries it reads the kept text.  A one-word timer
    token (`('bg',)`, a third of a congested trace) is formatted once per
    process, and any other token (a plain tuple) through `str()`.

    The traced event stream is the one the golden outputs pin.  An untraced
    run gives the same results with fewer events.  A background packet's
    arrival at the station that discards it is never scheduled
    (`LinkQueue.bg_station`), so an access router's background source sends
    one packet object at every tick; a traced run builds a numbered one per
    tick, as the trace prints each number.  A link keeps time with a clock,
    so a transmit completion is an event only when a packet waits behind the
    one on the wire, and it pops under the insertion number that the
    transmission reserved when it started (`reserve_seq`,
    `schedule_reserved`); `now_seq` is the number of the running event, by
    which a link tells whether its transmission has ended at `now`.  An
    arrival, though, takes its number when serialization starts, so it can
    pop before an event at the same microsecond that the traced run would
    process first.

    Events that fall at one instant, one after another, can share one heap
    entry as lanes: each lane reserves the number its event would take
    (`reserve_seq`) where it would be scheduled, only the first lane's
    entry goes on the heap, and its handler runs the later lanes in order.
    Before each later lane it asks `run_reserved`: the lane runs inline,
    under its own number as `now_seq`, unless a pending event at `now` holds
    a smaller number; then the lane and those after it go back on the heap
    under that number.  Every lane thus runs at the same (time, insertion
    number) as its own event would, traced or not.  A traced run renders an
    inline lane's line into the running block, in its turn, as if the lane
    had popped, so the trace is the same line for line; `run_until` counts
    only the events it pops.  The background source's ticks
    (`ArNode.dispatch`) are the one such batch.

    When `run_until` returns, the clock sits at its `end`, not at the last
    event it ran, so a run stepped from outside stands at the same instant
    traced and untraced.
    """

    def __init__(self, seed: int = 0, trace: Optional[list[str] | TraceWriter] = None):
        self.now: SimTime = 0
        self.rng = RngStream(seed)
        self.trace = trace
        # The insertion number of the running event; after `run_until`
        # returns, one past every number handed out, as every event at `now`
        # has run.
        self.now_seq = -1
        self._heap: list[Entry] = []
        # The trace lines not yet handed to the sink, rendered by `run_until`
        # and by `run_reserved`.
        self._block: list[str] = []
        self._seq = 0
        self._handlers: dict[str, Callable[[Entry], None]] = {}

    def register(self, node_id: str, handler: Callable[[Entry], None]) -> None:
        self._handlers[node_id] = handler

    def schedule(self, event: SimEvent) -> None:
        fire_at = event.fire_at
        if fire_at < self.now:
            raise PastEvent(f"fire_at {fire_at} < clock {self.now}")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (fire_at, seq, event.target, event.kind, event.payload))

    def schedule_in(self, delay: SimTime, target: str, kind: str, payload: object = None) -> None:
        if delay < 0:
            raise PastEvent(f"delay {delay} < 0 at clock {self.now}")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (self.now + delay, seq, target, kind, payload))

    def reserve_seq(self) -> int:
        """An insertion number, taken now, for an event that may be scheduled
        later with `schedule_reserved`."""
        seq = self._seq
        self._seq = seq + 1
        return seq

    def schedule_reserved(self, fire_at: SimTime, seq: int, target: str, kind: str,
                          payload: object = None) -> None:
        """Schedule an event under a number from `reserve_seq`, so that it
        pops where it would have had it been scheduled when the number was
        taken."""
        if fire_at < self.now:
            raise PastEvent(f"fire_at {fire_at} < clock {self.now}")
        heappush(self._heap, (fire_at, seq, target, kind, payload))

    def run_reserved(self, seq: int, target: str, kind: str, payload: object = None) -> bool:
        """Whether the running handler may run, inside its own event, the
        event it reserved as `seq` for `now`.  Yes, with `now_seq` set to
        `seq`, when no pending event at `now` has a smaller number, so that
        the event would pop next; a traced run then renders its line, as
        `run_until` would, and hands the block to the sink if the line fills
        it.  Otherwise it is scheduled at `now` under `seq`, to pop in its
        turn, and the handler must leave it to that entry."""
        heap = self._heap
        if heap and heap[0][0] == self.now and heap[0][1] < seq:
            heappush(heap, (self.now, seq, target, kind, payload))
            return False
        self.now_seq = seq
        sink = self.trace
        if sink is not None:
            block = self._block
            block.append(f"{self.now}\t{target}\t{kind}\t{trace_detail(payload)}")
            if len(block) >= TRACE_BLOCK_LINES:
                sink.extend(block)
                block.clear()
        return True

    def pending(self) -> int:
        return len(self._heap)

    def run_until(self, end: SimTime) -> int:
        """Process every event with fire_at <= end; returns the count processed.

        Afterwards the clock sits at `end` (or stays where it was, if that
        is later), whether or not an event fired, so a run stepped from
        outside acts at the same instant traced and untraced.  Raises
        `Livelock` once LIVELOCK_BLOCKS full blocks in a row have all run at
        one instant.
        """
        heap, handlers, sink = self._heap, self._handlers, self.trace
        # Read once per call, so that a test that swaps the module's
        # renderer sees every payload.
        detail = trace_detail
        block = self._block
        append = block.append
        processed = 0
        stuck = 0
        try:
            # Events run in blocks of TRACE_BLOCK_LINES, so the full block
            # goes to the sink without a length test per event, and the clock
            # is tested for a livelock once per block.  The lines of inline
            # lanes join the block too; `run_reserved` hands it over early
            # when one fills it, so no block is longer.
            while heap and heap[0][0] <= end:
                start = heap[0][0]
                if start != self.now:
                    stuck = 0
                for _ in range(TRACE_BLOCK_LINES):
                    if not heap or heap[0][0] > end:
                        break
                    entry = heappop(heap)
                    fire_at, seq, target, kind, payload = entry
                    self.now = fire_at
                    self.now_seq = seq
                    processed += 1
                    if sink is not None:
                        append(f"{fire_at}\t{target}\t{kind}\t{detail(payload)}")
                    handler = handlers.get(target)
                    if handler is not None:
                        handler(entry)
                else:
                    # A full block: count it if it never left the instant
                    # of the blocks counted before it.
                    stuck = stuck + 1 if fire_at == start else 0
                    if stuck >= LIVELOCK_BLOCKS:
                        raise Livelock(f"{stuck * TRACE_BLOCK_LINES} events in a row at "
                                       f"{fire_at} us; the last was {kind} for {target}")
                if block:
                    sink.extend(block)
                    block.clear()
        finally:
            if block:
                sink.extend(block)
                block.clear()
        if end > self.now:
            self.now = end
        self.now_seq = self._seq
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
