import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nemosim.engine import MS, SEC, Engine, SimEvent
from nemosim.network import (Link, LinkQueue, MobilityTrack, WirelessCell,
                             build_l2_plan, cell_crossings, position_at,
                             serialization_us, strongest_bs, transmit)
from nemosim.metrics import FLOW_BG
from nemosim.packets import DATA, SIGNAL, Address, Packet
from nemosim.diffserv import RedParams
from nemosim.scenario import ScenarioConfig, build_track, default_topology
from nemosim.simulation import Simulation


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
    eng.register("bs1", lambda ev: arrived.append(ev[4]))
    queue.send(Packet(Address(2, 1, 1), station, 2000, DATA, 0, FLOW_BG))
    assert eng.run_until(SEC) == 1 + arrivals
    assert len(arrived) == arrivals
    # Any other packet to the station, here a signal, still arrives.
    signal = Packet(Address(2, 1, 1), station, 64, SIGNAL)
    queue.send(signal)
    eng.run_until(2 * SEC)
    assert arrived[-1] is signal


@given(st.floats(min_value=0.1, max_value=40.0),
       st.integers(min_value=0, max_value=250 * SEC))
def test_position_stays_on_track_segment_ends(speed, t):
    track = MobilityTrack([(29.0, 0.0), (385.0, 0.0), (55.0, 0.0)], speed_mps=speed)
    x, y = position_at(track, t)
    assert 29.0 <= x <= 385.0 and y == 0.0


@given(st.sampled_from([1_000_000, 2_000_000, 10_000_000, 100_000_000]),
       st.lists(st.tuples(st.one_of(st.sampled_from([64, 104, 1000, 1040, 2000]),
                                    st.integers(min_value=1, max_value=3000)),
                          st.integers(min_value=0, max_value=30 * MS)),
                min_size=1, max_size=12))
def test_linkqueue_arrivals_match_transmit(bandwidth_bps, sends):
    """Mixed sizes, some queued behind others: each packet leaves when the
    one before it has serialized, and arrives when `transmit` says."""
    eng = Engine()
    link = Link("a", "b", bandwidth_bps, 2 * MS)
    queue = LinkQueue(eng, link, "a", "b", RedParams(capacity=50), lambda p, w: None)
    arrivals = {}
    eng.register("b", lambda ev: arrivals.setdefault(ev[4].seq, eng.now))
    expected, free_at = {}, 0
    for seq, (size, gap) in enumerate(sends):
        eng.run_until(eng.now + gap)
        pkt = Packet(src=Address(0, 0, 0), dst=Address(0, 0, 1), size_bytes=size,
                     kind=DATA, seq=seq)
        arrive = transmit(link, pkt, depart=max(eng.now, free_at))
        free_at = arrive - link.prop_delay_us
        expected[seq] = arrive
        queue.send(pkt)
    eng.run_until(10 * SEC)
    assert arrivals == expected


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


def test_owner_table_agrees_with_prefix_scan():
    sim = Simulation(ScenarioConfig())
    unowned = 0
    for domain in range(5):
        for site in range(4):
            for node in range(4):
                dst = Address(domain, site, node)
                expected = prefix_scan_owner(sim.topo, dst)
                assert sim.owner_of(dst) == expected, dst
                unowned += expected is None
    # Domain 4 and the sites no router serves (1.2, 1.3, 2.3, 3.3) are unowned.
    assert unowned == 4 * (4 + 4)
