import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nemosim.engine import (LIVELOCK_BLOCKS, MS, SEC, TRACE_BLOCK_LINES, Engine, Livelock,
                            PastEvent, RngStream, SimEvent, TraceWriter)


def collect(engine):
    seen = []
    engine.register("n", lambda ev: seen.append(ev[4]))
    return seen


def test_pop_order_by_time():
    eng = Engine()
    seen = collect(eng)
    eng.schedule(SimEvent(5 * MS, "n", "timer_expiry", "a"))
    eng.schedule(SimEvent(3 * MS, "n", "timer_expiry", "b"))
    eng.run_until(SEC)
    assert seen == ["b", "a"]


def test_fifo_tie_break_at_same_instant():
    eng = Engine()
    seen = collect(eng)
    eng.schedule(SimEvent(7 * MS, "n", "timer_expiry", "A"))
    eng.schedule(SimEvent(7 * MS, "n", "timer_expiry", "B"))
    eng.run_until(SEC)
    assert seen == ["A", "B"]


def test_schedule_in_the_past_rejected():
    eng = Engine()
    eng.schedule(SimEvent(2 * MS, "n", "timer_expiry"))
    eng.run_until(2 * MS)
    with pytest.raises(PastEvent):
        eng.schedule(SimEvent(1 * MS, "n", "timer_expiry"))


def test_negative_schedule_in_delay_rejected():
    eng = Engine()
    eng.run_until(5 * MS)
    with pytest.raises(PastEvent):
        eng.schedule_in(-1, "n", "timer_expiry")
    assert eng.pending() == 0


def test_fifo_tie_break_across_schedule_and_schedule_in():
    eng = Engine()
    seen = collect(eng)
    eng.run_until(5 * MS)
    for i, tag in enumerate("ABCDEF"):
        if i % 2 == 0:
            eng.schedule(SimEvent(7 * MS, "n", "timer_expiry", tag))
        else:
            eng.schedule_in(2 * MS, "n", "timer_expiry", tag)
    eng.schedule_in(0, "n", "timer_expiry", "now")
    eng.run_until(SEC)
    assert seen == ["now", "A", "B", "C", "D", "E", "F"]


def test_schedule_and_schedule_in_deliver_the_same_entry():
    eng = Engine()
    entries = []
    eng.register("n", entries.append)
    eng.schedule(SimEvent(3 * MS, "n", "timer_expiry", "a"))
    eng.run_until(1 * MS)
    eng.schedule_in(2 * MS, "n", "packet_arrival", "b")
    eng.run_until(SEC)
    assert entries == [(3 * MS, 0, "n", "timer_expiry", "a"),
                       (3 * MS, 1, "n", "packet_arrival", "b")]
    assert [type(entry) for entry in entries] == [tuple, tuple]


def test_run_until_empty_queue_advances_clock():
    eng = Engine()
    assert eng.run_until(200 * SEC) == 0
    assert eng.now == 200 * SEC


def test_run_until_boundary_leaves_future_events():
    eng = Engine()
    seen = collect(eng)
    for t in (10 * SEC, 20 * SEC, 30 * SEC):
        eng.schedule(SimEvent(t, "n", "timer_expiry", t))
    assert eng.run_until(25 * SEC) == 2
    # The clock sits at the end of the window, not at its last event.
    assert eng.now == 25 * SEC
    assert eng.pending() == 1
    assert seen == [10 * SEC, 20 * SEC]


def test_clock_monotone_and_no_event_lost():
    eng = Engine()
    stamps = []
    eng.register("n", lambda ev: stamps.append(eng.now))
    times = [5, 1, 9, 1, 7, 3, 3]
    for t in times:
        eng.schedule(SimEvent(t * MS, "n", "timer_expiry"))
    assert eng.run_until(SEC) == len(times)
    assert stamps == sorted(stamps)
    assert len(stamps) == len(times)


def test_handler_can_schedule_followups_within_window():
    eng = Engine()
    seen = []

    def handler(ev):
        payload = ev[4]
        seen.append(payload)
        if payload < 3:
            eng.schedule(SimEvent(eng.now + MS, "n", "timer_expiry", payload + 1))

    eng.register("n", handler)
    eng.schedule(SimEvent(0, "n", "timer_expiry", 0))
    eng.run_until(SEC)
    assert seen == [0, 1, 2, 3]


def test_rng_stream_repeatable():
    a = [RngStream(42).uniform() for _ in range(5)]
    b = [RngStream(42).uniform() for _ in range(5)]
    c = [RngStream(43).uniform() for _ in range(5)]
    assert a == b
    assert a != c


def test_identical_seeds_identical_traces():
    def run():
        eng = Engine(seed=7, trace=[])
        eng.register("n", lambda ev: eng.rng.uniform())
        for t in (4, 2, 2, 9):
            eng.schedule(SimEvent(t * MS, "n", "timer_expiry", t))
        eng.run_until(SEC)
        return eng.trace

    assert run() == run()


def test_trace_writer_holds_at_most_one_block():
    # The engine renders each event into a block that reaches the sink when
    # it is full: at any event, at most one block of lines waits in memory.
    fh = io.StringIO()
    writer = TraceWriter(fh)
    eng = Engine(trace=writer)
    count = 3 * TRACE_BLOCK_LINES + 5
    lines = [f"{i}\tn\ttimer_expiry\t({i},)" for i in range(count)]

    def handler(ev):
        written = fh.getvalue().count("\n")
        assert written == len(writer)
        assert 0 <= ev[0] - written < TRACE_BLOCK_LINES

    eng.register("n", handler)
    for i in range(count):
        eng.schedule(SimEvent(i, "n", "timer_expiry", (i,)))
    assert eng.run_until(count) == count
    assert len(writer) == count
    assert fh.getvalue() == "\n".join(lines) + "\n"


def test_inline_lanes_never_grow_a_block_past_its_size():
    # An inline lane's line joins the block being filled, in its turn; the
    # line that fills the block sends it to the sink at once.
    blocks = []

    class Sink:
        def extend(self, lines):
            blocks.append(list(lines))

    eng = Engine(trace=Sink())
    count = TRACE_BLOCK_LINES
    lanes = {}
    for i in range(count):
        eng.schedule_in(i, "n", "timer_expiry", (i,))
        lanes[i] = [eng.reserve_seq() for _ in range(3)]

    def handler(ev):
        for lane in lanes[ev[0]]:
            assert eng.run_reserved(lane, "n", "timer_expiry", "lane")

    eng.register("n", handler)
    assert eng.run_until(count) == count
    assert max(map(len, blocks)) == TRACE_BLOCK_LINES and len(blocks) == 4
    assert [line for block in blocks for line in block] == [
        f"{i}\tn\ttimer_expiry\t{tag}" for i in range(count) for tag in (f"({i},)", *["lane"] * 3)]


def test_handler_that_reschedules_itself_at_once_raises_livelock():
    trace = []
    eng = Engine(trace=trace)
    eng.register("n", lambda ev: eng.schedule_in(0, "n", "timer_expiry", ("spin",)))
    eng.schedule_in(5, "n", "timer_expiry", ("spin",))
    with pytest.raises(Livelock, match=r"at 5 us; the last was timer_expiry for n"):
        eng.run_until(SEC)
    # The trace ends with the last event processed.
    assert len(trace) == LIVELOCK_BLOCKS * TRACE_BLOCK_LINES
    assert trace[-1] == "5\tn\ttimer_expiry\t('spin',)"
    assert eng.now == 5


def test_full_blocks_at_successive_instants_are_no_livelock():
    eng = Engine()
    eng.register("n", lambda ev: None)
    count = (LIVELOCK_BLOCKS + 1) * TRACE_BLOCK_LINES
    for i in range(count):
        eng.schedule_in(i // TRACE_BLOCK_LINES, "n", "timer_expiry")
    assert eng.run_until(SEC) == count


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=10 ** 7),
                          st.integers(min_value=0, max_value=99)),
                min_size=1, max_size=60))
def test_processing_order_is_stable_sort(entries):
    eng = Engine()
    seen = []
    eng.register("n", lambda ev: seen.append(ev[4]))
    for i, (t, tag) in enumerate(entries):
        eng.schedule(SimEvent(t, "n", "timer_expiry", (t, i, tag)))
    eng.run_until(10 ** 7)
    assert seen == sorted(seen, key=lambda p: (p[0], p[1]))
    assert len(seen) == len(entries)



def lane_engine(trace=None, before_lane=False):
    """An engine whose event "A" at 5 ms is followed by a reserved lane
    number, as a batch's first lane is; with `before_lane`, an event "B" at
    the same instant takes the number between them.  An event "C" at that
    instant is scheduled after the reservation.  Returns the engine and the
    lane's number."""
    eng = Engine(trace=trace)
    eng.schedule_in(5 * MS, "n", "timer_expiry", "A")
    if before_lane:
        eng.schedule_in(5 * MS, "n", "timer_expiry", "B")
    lane = eng.reserve_seq()
    eng.schedule_in(5 * MS, "n", "timer_expiry", "C")
    return eng, lane


def run_lane_after_a(eng, lane):
    """Run `eng` to 1 s; at "A" the handler asks to run the lane inline.
    Returns the events processed, the payloads in the order they ran, the
    entries popped, and (now, now_seq) wherever the lane ran."""
    seen, popped, ran = [], [], []

    def handler(ev):
        popped.append(ev)
        seen.append(ev[4])
        if ev[4] == "lane":
            ran.append((eng.now, eng.now_seq))
        elif ev[4] == "A" and eng.run_reserved(lane, "n", "timer_expiry", "lane"):
            seen.append("lane")
            ran.append((eng.now, eng.now_seq))
    eng.register("n", handler)
    return eng.run_until(SEC), seen, popped, ran


def test_reserved_lane_runs_inline_when_nothing_precedes_it():
    eng, lane = lane_engine()
    processed, seen, popped, ran = run_lane_after_a(eng, lane)
    # The lane is no event of its own, but runs in its turn, under its number.
    assert processed == len(popped) == 2
    assert seen == ["A", "lane", "C"]
    assert ran == [(5 * MS, lane)]


def test_reserved_lane_yields_to_an_earlier_entry_at_the_same_instant():
    eng, lane = lane_engine(before_lane=True)
    processed, seen, popped, ran = run_lane_after_a(eng, lane)
    assert processed == 4
    assert seen == ["A", "B", "lane", "C"]
    assert popped[2] == (5 * MS, lane, "n", "timer_expiry", "lane")
    assert ran == [(5 * MS, lane)]


def test_reserved_lane_runs_inline_and_prints_its_line_in_its_turn_under_a_trace_sink():
    trace = []
    eng, lane = lane_engine(trace=trace)
    processed, seen, popped, ran = run_lane_after_a(eng, lane)
    # The lane pops no entry of its own, yet its line stands where it would.
    assert processed == len(popped) == 2
    assert seen == ["A", "lane", "C"]
    assert ran == [(5 * MS, lane)]
    assert trace == [f"{5 * MS}\tn\ttimer_expiry\t{tag}" for tag in ("A", "lane", "C")]


def test_reserved_lane_keeps_its_number_while_it_sends():
    # What an inline lane schedules takes fresh numbers, past its own, so it
    # pops after every event already due at `now`.
    eng, lane = lane_engine()
    numbers, seen = [], []

    def handler(ev):
        seen.append(ev[4])
        if ev[4] == "A" and eng.run_reserved(lane, "n", "timer_expiry", "lane"):
            numbers.append(eng.now_seq)
            eng.schedule_in(0, "n", "timer_expiry", "sent")
            numbers.append(eng.now_seq)
    eng.register("n", handler)
    eng.run_until(SEC)
    assert numbers == [lane, lane]
    assert seen == ["A", "C", "sent"]
