import itertools
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from nemosim.engine import MS, SEC, TIMER_EXPIRY, Engine, RngStream, SimEvent
from nemosim.network import (Link, LinkQueue, MobilityTrack, WirelessCell,
                             build_l2_plan, cell_crossings, position_at,
                             serialization_us, strongest_bs, transmit)
from nemosim.metrics import FLOW_BG
from nemosim.packets import DATA, SIGNAL, Address, Packet
from nemosim.diffserv import (ACCEPT, AF11, AF21, BE, EF, NUM_CLASSES, PriorityScheduler,
                              RedParams, af, service_class)
from nemosim.scenario import ScenarioConfig, build_track, default_topology
from nemosim.simulation import Simulation
from probes import backlogged


def test_transmit_serialization_plus_propagation():
    # 1000 bytes at 1 Mb/s serializes in 8 ms; plus 2 ms propagation.
    link = Link("a", "b", 1_000_000, 2 * MS)
    pkt = Packet(src=Address(0, 0, 0), dst=Address(0, 0, 1), size_bytes=1000, kind=DATA)
    assert transmit(link, pkt, depart=0) == 10 * MS


def test_transmit_fast_link():
    # 1000 bytes at 100 Mb/s is 80 us on the wire.
    link = Link("a", "b", 100_000_000, 20 * MS)
    pkt = Packet(src=Address(0, 0, 0), dst=Address(0, 0, 1), size_bytes=1000, kind=DATA)
    assert transmit(link, pkt, depart=0) == 20 * MS + 80


def test_transmit_zero_size_is_propagation_only():
    link = Link("a", "b", 1_000_000, 3 * MS)
    probe = Packet(src=Address(0, 0, 0), dst=Address(0, 0, 1), size_bytes=0, kind=DATA)
    assert transmit(link, probe, depart=5) == 5 + 3 * MS


def test_serialization_rounds_up():
    assert serialization_us(1040, 100_000_000) == 84   # 83.2 rounds up


def test_position_advances_at_speed():
    track = MobilityTrack([(0.0, 0.0), (100.0, 0.0)], speed_mps=1.0)
    x, y = position_at(track, 10 * SEC)
    assert math.isclose(x, 10.0) and y == 0.0


def test_position_clamps_at_final_waypoint():
    track = MobilityTrack([(0.0, 0.0), (20.0, 0.0)], speed_mps=2.0)
    assert position_at(track, 60 * SEC) == (20.0, 0.0)


def test_strongest_bs_out_of_range():
    cells = [WirelessCell("bs1", (0.0, 0.0), 50.0), WirelessCell("bs2", (80.0, 0.0), 50.0)]
    assert strongest_bs((200.0, 0.0), cells) is None


def test_strongest_bs_nearest_wins():
    cells = [WirelessCell("bs1", (0.0, 0.0), 50.0), WirelessCell("bs2", (75.0, 0.0), 50.0)]
    assert strongest_bs((30.0, 0.0), cells) == "bs1"
    assert strongest_bs((45.0, 0.0), cells) == "bs2"


def test_strongest_bs_tie_breaks_on_node_id():
    cells = [WirelessCell("bs2", (0.0, 0.0), 50.0), WirelessCell("bs1", (80.0, 0.0), 50.0)]
    assert strongest_bs((40.0, 0.0), cells) == "bs1"


def test_cell_crossings_default_walk():
    # Walking track from x=29 at 1 m/s enters the first cell (edge at x=50)
    # 21 seconds in and leaves it (x=150) at 121 s.
    cfg = ScenarioConfig(dmr_speed_kmh=3.6)
    topo = default_topology(cfg)
    track = build_track(cfg)
    events = cell_crossings(track, topo.cells, 200 * SEC)
    assert events[0] == (21 * SEC, "bs1", "enter")
    assert (121 * SEC, "bs1", "exit") in events
    assert (101 * SEC, "bs2", "enter") in events  # overlap entry at x=130


def test_l2_plan_trigger_lead_and_switch():
    cfg = ScenarioConfig(dmr_speed_kmh=3.6)
    topo = default_topology(cfg)
    plan = build_l2_plan(build_track(cfg), topo.cells, 200 * SEC,
                         cfg.lead_us, cfg.l2_switch_us, predictive=True)
    kinds = [(p.kind, p.bs or p.new_bs) for p in plan]
    assert kinds[0] == ("attach", "bs1")
    trigger = next(p for p in plan if p.kind == "trigger")
    down = next(p for p in plan if p.kind == "down")
    assert trigger.new_bs == "bs2" and trigger.old_bs == "bs1"
    assert down.at == 121 * SEC + 1            # settles one quantum late
    assert trigger.at == 121 * SEC - cfg.lead_us
    attach2 = [p for p in plan if p.kind == "attach"][1]
    assert attach2.bs == "bs2"
    assert attach2.at == down.at + cfg.l2_switch_us


def test_l2_plan_reactive_suppresses_triggers():
    cfg = ScenarioConfig(dmr_speed_kmh=3.6)
    topo = default_topology(cfg)
    plan = build_l2_plan(build_track(cfg), topo.cells, 200 * SEC,
                         cfg.lead_us, cfg.l2_switch_us, predictive=False)
    assert not [p for p in plan if p.kind == "trigger"]


def test_l2_plan_starts_attached_inside_cell():
    cfg = ScenarioConfig(waypoints=[(100.0, 0.0)])
    topo = default_topology(cfg)
    plan = build_l2_plan(build_track(cfg), topo.cells, 200 * SEC,
                         cfg.lead_us, cfg.l2_switch_us, predictive=True)
    assert plan[0].kind == "attach" and plan[0].bs == "bs1"
    assert plan[0].at == cfg.l2_switch_us


def test_uncongested_chain_delay_matches_analytic_sum():
    """End-to-end delay over two idle queued links equals the per-hop sum."""
    eng = Engine()
    l1 = Link("a", "b", 1_000_000, 2 * MS)
    l2 = Link("b", "c", 10_000_000, 5 * MS)
    drops = []
    q1 = LinkQueue(eng, l1, "a", "b", RedParams(), lambda p, w: drops.append(w))
    q2 = LinkQueue(eng, l2, "b", "c", RedParams(), lambda p, w: drops.append(w))
    arrivals = {}
    eng.register("b", lambda ev: q2.send(ev[4]))
    eng.register("c", lambda ev: arrivals.setdefault(ev[4].seq, eng.now))
    pkt = Packet(src=Address(0, 0, 0), dst=Address(0, 0, 1), size_bytes=1000,
                 kind=DATA, seq=1)
    q1.send(pkt)
    eng.run_until(SEC)
    expected = (serialization_us(1000, 1_000_000) + 2 * MS
                + serialization_us(1000, 10_000_000) + 5 * MS)
    assert arrivals[1] == expected
    assert not drops


@pytest.mark.parametrize("trace, arrivals", [(None, 0), ([], 1)])
def test_background_packet_to_station_arrives_only_when_traced(trace, arrivals):
    eng = Engine(trace=trace)
    station = Address(2, 1, 2)
    queue = LinkQueue(eng, Link("ar1", "bs1", 1_000_000, 2 * MS), "ar1", "bs1",
                      RedParams(), lambda p, w: None)
    queue.bg_station = station
    arrived = []
    eng.register("bs1", lambda ev: arrived.append((ev[0], ev[4])))
    # An untraced background source sends one packet object at every tick,
    # so the second send of it queues behind the first.
    pkt = Packet(Address(2, 1, 1), station, 2000, DATA, 0, FLOW_BG)
    queue.send(pkt)
    queue.send(pkt)
    # Traced, each copy's transmit completion and its arrival are events.
    # Untraced, the link keeps time with its clock, so only the wake-up that
    # starts the second copy is an event, and the station's discard needs no
    # arrival.
    assert eng.run_until(SEC) == (4 if arrivals else 1)
    assert arrived == [(18 * MS, pkt), (34 * MS, pkt)] * arrivals
    assert trace is not None or queue.free_at == 32 * MS
    # Any other packet to the station, here a signal, still arrives.
    signal = Packet(Address(2, 1, 1), station, 64, SIGNAL)
    queue.send(signal)
    eng.run_until(2 * SEC)
    assert arrived[-1][1] is signal


@given(st.floats(min_value=0.1, max_value=40.0),
       st.integers(min_value=0, max_value=250 * SEC))
def test_position_stays_on_track_segment_ends(speed, t):
    track = MobilityTrack([(29.0, 0.0), (385.0, 0.0), (55.0, 0.0)], speed_mps=speed)
    x, y = position_at(track, t)
    assert 29.0 <= x <= 385.0 and y == 0.0


def run_train(bandwidth_bps, train, trace, send_at, chained):
    """Send `train`, a list of (size, dscp, gap, at_end, ahead), through one
    link; returns the arrivals as (seq, instant) in order, and the instant
    of each send.

    Send k is an event at `send_at[k]` when that is given.  Otherwise it
    comes `gap` after send k-1 or, for `at_end`, at the instant the packet
    then on the wire finishes serializing (the untraced queue's `free_at`).
    An event pops after the completion of a transmission that started
    before the event was scheduled, and before that of one started after.
    Unless `chained`, every send is scheduled before the run.  Chained, each
    send is made by the event of the one before it: in that same event when
    it is due at once, else scheduled there, after that send or, for
    `ahead`, before it."""
    eng = Engine(trace=trace)
    link = Link("a", "b", bandwidth_bps, 2 * MS)
    queue = LinkQueue(eng, link, "a", "b", RedParams(), lambda p, w: dropped.append(p))
    dropped, arrivals, sent = [], [], []
    eng.register("b", lambda ev: arrivals.append((ev[4].seq, eng.now)))

    def due(seq):
        if send_at is not None:
            return send_at[seq]
        _, _, gap, at_end, _ = train[seq]
        return queue.free_at if at_end and queue.free_at > eng.now else eng.now + gap

    def on_send(event):
        seq = event[4]
        while True:
            size, dscp, _, _, ahead = train[seq]
            nxt = seq + 1 if chained and seq + 1 < len(train) else None
            if nxt is not None and ahead:
                eng.schedule_in(due(nxt) - eng.now, "src", TIMER_EXPIRY, nxt)
            sent.append(eng.now)
            queue.send(Packet(Address(0, 0, 0), Address(0, 0, 1), size, DATA, seq, dscp=dscp))
            if nxt is None or ahead:
                return
            at = due(nxt)
            if at > eng.now:
                eng.schedule_in(at - eng.now, "src", TIMER_EXPIRY, nxt)
                return
            seq = nxt

    eng.register("src", on_send)
    for seq in range(1 if chained else len(train)):
        eng.schedule(SimEvent(send_at[seq] if send_at else train[0][2], "src",
                              TIMER_EXPIRY, seq))
    eng.run_until(10 * SEC)
    assert not dropped
    return arrivals, sent


def check_service(link, train, arrivals, sent):
    """Each arrival is `transmit`'s, for a transmitter that is never idle
    while a packet waits and takes the waiting packets in strict priority,
    first come first served within a class."""
    assert sorted(seq for seq, _ in arrivals) == list(range(len(train)))
    rank = {seq: (service_class(train[seq][1]), seq) for seq in range(len(train))}
    served, free_at = set(), -1
    for seq, arrive in arrivals:
        size = train[seq][0]
        depart = max(sent[seq], free_at)
        assert arrive == transmit(link, Packet(Address(0, 0, 0), Address(0, 0, 1), size),
                                  depart)
        # A packet sent earlier and still waiting: the link was busy until
        # now, and this one outranks it.
        for other, at in enumerate(sent):
            if other not in served and other != seq and at < depart:
                assert depart == free_at and rank[seq] < rank[other]
        served.add(seq)
        free_at = depart + serialization_us(size, link.bandwidth_bps)


@given(st.sampled_from([1_000_000, 2_000_000, 10_000_000, 100_000_000]),
       st.lists(st.tuples(st.one_of(st.sampled_from([64, 104, 1000, 1040, 2000]),
                                    st.integers(min_value=1, max_value=3000)),
                          st.sampled_from([EF, AF11, BE]),
                          st.one_of(st.just(0), st.integers(min_value=0, max_value=30 * MS)),
                          st.booleans(), st.booleans()),
                min_size=1, max_size=12))
# A best-effort packet sent at the instant the one before it finishes, after
# the completion, takes the free link; an expedited one sent in the same
# event waits behind it.
@example(1_000_000, [(1000, BE, 0, False, False), (1000, BE, 0, True, False),
                     (1000, EF, 0, False, False)])
def test_linkqueue_arrivals_match_transmit(bandwidth_bps, train):
    """Mixed sizes and codepoints, some queued behind others, some sent
    together and some at the very instant a transmission ends.  A traced
    run's transmitter is driven by completion events and an untraced one's
    by its clock: both give the same arrivals, in the same order, and each
    is `transmit`'s."""
    link = Link("a", "b", bandwidth_bps, 2 * MS)
    # The untraced run places the at_end sends on its clock; every other
    # run replays those instants.
    arrivals, send_at = run_train(bandwidth_bps, train, None, None, chained=True)
    for chained in (True, False):
        runs = [run_train(bandwidth_bps, train, trace, send_at, chained)
                for trace in (None, [])]
        assert runs[0] == runs[1]
        if chained:
            assert runs[0] == (arrivals, send_at)
        check_service(link, train, *runs[0])


RED_PARAMS = st.builds(
    lambda min_th, span, max_p, w_q, capacity: RedParams(min_th, min_th + span, max_p,
                                                         w_q, capacity),
    st.floats(0, 20), st.floats(0.5, 20), st.floats(0, 1), st.floats(0.001, 1),
    st.integers(1, 60))


@given(RED_PARAMS, st.lists(st.floats(0, 40), min_size=NUM_CLASSES, max_size=NUM_CLASSES),
       st.lists(st.integers(0, 100), min_size=NUM_CLASSES, max_size=NUM_CLASSES),
       st.sampled_from([EF, AF11, AF21, BE, 13, 63, 64, -1]), st.integers(0, 2 ** 32))
def test_free_link_admission_matches_enqueue_then_dequeue(red, avg, since_drop, dscp, seed):
    """An untraced send to a free link puts the packet on the wire without
    queueing it.  Its verdict and RED state, and the next draw, are those of
    enqueueing it in an empty scheduler and dequeuing it at once."""
    def scheduler():
        sched = PriorityScheduler(red)
        sched._red_avg, sched._since_drop = list(avg), list(since_drop)
        return sched

    def packet():
        pkt = Packet(Address(0, 0, 0), Address(0, 0, 1), 1000, DATA)
        pkt.dscp = dscp
        return pkt

    eng = Engine(seed=seed)
    drops = []
    queue = LinkQueue(eng, Link("a", "b", 1_000_000, MS), "a", "b", red,
                      lambda p, w: drops.append(p))
    queue.scheduler = scheduler()
    pkt = packet()
    queue.send(pkt)
    sent = [payload for _, _, _, _, payload in eng._heap]

    model, rng = scheduler(), RngStream(seed)
    accepted = model.enqueue(packet(), rng) == ACCEPT
    assert (model.dequeue() is not None) == accepted
    assert (sent, drops) == (([pkt], []) if accepted else ([], [pkt]))
    assert not backlogged(queue.scheduler)
    assert queue.scheduler._red_avg == model._red_avg
    assert queue.scheduler._since_drop == model._since_drop
    assert eng.rng.uniform() == rng.uniform()


# One codepoint of each service class, in service order.
SIX_CLASSES = [EF, af(1, 1), af(2, 2), af(3, 1), af(4, 3), BE]
STATION = Address(0, 0, 1)


def run_loaded_link(trace, seed, red, ef_capacity, bursts):
    """One link fed by `bursts`, each a gap since the burst before and the
    packets (size, dscp, flow, addressed to the background station) sent
    together, traced or untraced.  Returns the non-background arrivals and
    the refused packets, each as (seq, time), in order, which give every
    packet's verdict; the scheduler's RED state; and the next draw of the
    engine."""
    eng = Engine(seed=seed, trace=trace)
    arrivals, drops = [], []
    queue = LinkQueue(eng, Link("a", "b", 1_000_000, 2 * MS), "a", "b", red,
                      lambda pkt, where: drops.append((pkt.seq, eng.now)))
    queue.scheduler.ef_capacity = ef_capacity
    queue.bg_station = STATION

    def arrive(ev):
        pkt = ev[4]
        if pkt.dst is not STATION or pkt.flow != FLOW_BG:
            arrivals.append((pkt.seq, eng.now))
    eng.register("b", arrive)
    seqs = itertools.count()

    def send_burst(ev):
        # Each burst schedules the next, so the sends' insertion numbers
        # interleave with the link's own.
        index = ev[4]
        for size, dscp, flow, to_station in bursts[index][1]:
            dst = STATION if to_station else Address(0, 0, 2)
            queue.send(Packet(Address(0, 0, 0), dst, size, DATA, next(seqs), flow, dscp))
        if index + 1 < len(bursts):
            eng.schedule_in(bursts[index + 1][0], "src", TIMER_EXPIRY, index + 1)
    eng.register("src", send_burst)
    eng.schedule(SimEvent(bursts[0][0], "src", TIMER_EXPIRY, 0))
    eng.run_until(sum(gap for gap, _ in bursts) + SEC)
    sched = queue.scheduler
    return (arrivals, drops, sched._red_avg, sched._since_drop, eng.rng.uniform())


# Thresholds low enough, and averages quick enough, that bursts of a dozen
# packets meet every RED verdict.
TIGHT_RED = st.builds(
    lambda min_th, span, max_p, w_q, capacity: RedParams(min_th, min_th + span, max_p,
                                                         w_q, capacity),
    st.floats(0, 4), st.floats(0.5, 6), st.floats(0, 1), st.floats(0.05, 1),
    st.integers(1, 12))

LINK_PACKET = st.tuples(st.sampled_from([64, 104, 1000, 1040]), st.sampled_from(SIX_CLASSES),
                        st.sampled_from([FLOW_BG, "cbr", ""]), st.booleans())
# At once, at the instant one or two 1000 or 1040 byte packets end, inside
# a transmission, after an idle gap.
BURST_GAP = st.one_of(st.sampled_from([0, 8 * MS, 8320, 16 * MS, 16640]),
                      st.integers(0, 12 * MS), st.just(200 * MS))


@given(st.integers(0, 2 ** 32), TIGHT_RED, st.integers(1, 8),
       st.lists(st.tuples(BURST_GAP, st.lists(LINK_PACKET, min_size=1, max_size=12)),
                min_size=1, max_size=12))
# Two packets make a busy spell that ends at 16 ms.  The next burst was
# scheduled for that instant before the spell's last transmission started,
# so it finds the link busy, and its expedited packet leaves first.
@example(1, RedParams(), 8, [(0, [(1000, BE, "cbr", False)] * 2),
                             (16 * MS, [(1000, BE, "cbr", False), (64, EF, "", False)])])
def test_traced_and_clocked_links_agree_under_load(seed, red, ef_capacity, bursts):
    """Background and foreground bursts over all six classes, through busy
    spells, drops and idle gaps.  The traced transmitter, driven by
    completion events, and the untraced one, driven by its clock and woken
    only when a packet waits, deliver every packet but the station's
    background at the same instants and in the same order, refuse the same
    packets at the same instants, leave the same RED state, and leave the
    engine's stream at the same draw."""
    traced = run_loaded_link([], seed, red, ef_capacity, bursts)
    clocked = run_loaded_link(None, seed, red, ef_capacity, bursts)
    assert traced == clocked


def prefix_scan_owner(topo, dst):
    """The owner lookup as a scan of the topology's prefixes, in rank order."""
    if topo.home_prefix.matches(dst) or topo.mnp.matches(dst):
        return "ha"
    if dst.domain == 0:
        return "cn" if dst == topo.addresses["cn"] else "er"
    for map_id, prefix in topo.map_prefix.items():
        if prefix.matches(dst):
            return map_id
    for ar_id, prefix in topo.ar_prefix.items():
        if prefix.matches(dst):
            return ar_id
    return None


def first_hop(links, here, target):
    """The neighbour of `here` whose side of the tree holds `target`, or None."""
    adjacency = {}
    for link in links:
        adjacency.setdefault(link.a, []).append(link.b)
        adjacency.setdefault(link.b, []).append(link.a)
    for nbr in adjacency[here]:
        stack, seen = [nbr], {here, nbr}
        while stack:
            node = stack.pop()
            if node == target:
                return nbr
            fresh = [n for n in adjacency[node] if n not in seen]
            seen.update(fresh)
            stack += fresh
    return None


def test_owner_table_agrees_with_prefix_scan():
    """`owner_of` agrees with a scan of the prefixes, and `forward` from every
    wired node sends each address where the routing rule says: to the first
    hop toward its owner, or down to the station at the owning access router."""
    sim = Simulation(ScenarioConfig())
    topo = sim.topo
    grid = [Address(domain, site, node)
            for domain in range(5) for site in range(4) for node in range(4)]
    unowned = 0
    for dst in grid:
        expected = prefix_scan_owner(topo, dst)
        assert sim.owner_of(dst) == expected, dst
        unowned += expected is None
    # Domain 4 and the sites no router serves (1.2, 1.3, 2.3, 3.3) are unowned.
    assert unowned == 4 * (4 + 4)

    wired = {node for link in topo.links for node in (link.a, link.b)}
    # A tree, so each node's first hop toward any other is unique.
    assert len(topo.links) == len(wired) - 1
    prefixes = [topo.home_prefix, topo.mnp, *topo.map_prefix.values(),
                *topo.ar_prefix.values()]
    addresses = {*grid, *topo.addresses.values(),
                 *(prefix.address(1) for prefix in prefixes),
                 # Care-of addresses, as the mobile router forms them.
                 *(prefix.address(100) for prefix in prefixes[2:]),
                 Address(4, 0, 1)}
    seen = []
    sim.drop = lambda pkt, where: seen.append(where)
    for queue in sim.linkqueues.values():
        queue.send = lambda pkt, queue=queue: seen.append(queue)
    for here in sorted(wired):
        for dst in sorted(addresses):
            owner = sim.owner_of(dst)
            if owner is None:
                expected = f"unroutable@{here}"
            elif owner == here:
                expected = (sim.linkqueues[(here, topo.bs_of_ar(here))]
                            if here in topo.ar_prefix else f"undeliverable@{here}")
            else:
                expected = sim.linkqueues[(here, first_hop(topo.links, here, owner))]
            sim.forward(here, Packet(topo.addresses["cn"], dst, 100, DATA))
            assert seen == [expected], (here, dst)
            seen.clear()
