"""Baseline protocol units: movement detection, interception, tunnel endpoints."""

import pytest

from nemosim.engine import SEC
from nemosim.fsm import MrState
from nemosim.nemo_bs import DAD_DELAY_US, BaselineMr, HomeAgent
from nemosim.packets import (DATA, Address, Packet, Prefix, SignalKind,
                             encapsulate, make_signal)

HOA = Address(1, 1, 1)
MNN = Address(1, 1, 2)
MNP = Prefix(1, 1)
HA_ADDR = Address(1, 0, 1)
CN = Address(0, 0, 0)
COA1 = Prefix(2, 1).address(100)


def make_mr(fake_sim, attached="bs1"):
    fake_sim.dmr_attached = attached
    return BaselineMr(fake_sim, "dmr")


def ra(prefix, ar="ar1"):
    return make_signal(SignalKind.RA, Address(2, 1, 1), HOA, t=0,
                       info={"prefix": prefix, "map_id": "map1",
                             "map_prefix": Prefix(2, 0)})


def checked_mr(fake_sim):
    """A router that has checked COA1 and sent its home binding update."""
    mr = make_mr(fake_sim)
    mr.on_signal(ra(Prefix(2, 1)))
    mr.on_timer(fake_sim.timers[-1][2])
    return mr


def ba_for(coa):
    return make_signal(SignalKind.BA, HA_ADDR, coa, t=0, info={"coa": coa})


def registered_mr(fake_sim):
    mr = checked_mr(fake_sim)
    mr.on_signal(ba_for(COA1))
    assert mr.state is MrState.REGISTERED
    return mr


def test_same_prefix_advertisement_is_a_noop(fake_sim):
    mr = registered_mr(fake_sim)
    fake_sim.sent_signals.clear()
    fake_sim.timers.clear()
    mr.on_router_advertisement(ra(Prefix(2, 1)))
    assert not fake_sim.sent_signals and not fake_sim.timers
    assert mr.state is MrState.REGISTERED


def test_new_prefix_starts_dad_then_binding_update(fake_sim):
    mr = make_mr(fake_sim)
    mr.on_router_advertisement(ra(Prefix(2, 1)))
    assert mr.state is MrState.DAD
    assert fake_sim.signals_of(SignalKind.NS)
    node, delay, token = fake_sim.timers[0]
    assert delay == DAD_DELAY_US
    mr.on_timer(token)
    assert mr.coa == COA1 and mr.state is MrState.REGISTERING
    bu = fake_sim.signals_of(SignalKind.BU)
    assert len(bu) == 1
    assert bu[0][4]["hoa"] == HOA and bu[0][4]["coa"] == COA1
    assert bu[0][4]["mnps"] == [MNP]


def test_dad_collision_retries_with_next_node_component(fake_sim):
    mr = make_mr(fake_sim)
    mr.on_router_advertisement(ra(Prefix(2, 1)))
    mr.on_signal(make_signal(SignalKind.NA, Address(2, 1, 1), HOA, t=0))
    assert mr.node_component == 101
    # Stale first timer must not commit; the second one does.
    first, second = fake_sim.timers[0], fake_sim.timers[1]
    mr.on_timer(first[2])
    assert mr.coa is None and mr.state is MrState.DAD
    mr.on_timer(second[2])
    assert mr.coa == Prefix(2, 1).address(101)


def test_home_agent_installs_binding_and_acknowledges(fake_sim):
    agent = HomeAgent(fake_sim, "ha")
    bu = make_signal(SignalKind.BU, COA1, HA_ADDR, t=0,
                     info={"hoa": HOA, "coa": COA1, "mnps": [MNP]})
    agent.handle_binding_update(bu)
    assert agent.cache[HOA].coa == COA1 and agent.cache[MNP] is agent.cache[HOA]
    ba = fake_sim.signals_of(SignalKind.BA)
    assert ba and ba[0][3] == COA1


def test_intercept_tunnels_to_registered_care_of(fake_sim):
    agent = HomeAgent(fake_sim, "ha")
    agent.bind(HOA, COA1, [MNP], 60 * SEC)
    pkt = Packet(src=CN, dst=MNN, size_bytes=1000, kind=DATA)
    agent.intercept(pkt)
    origin, outer = fake_sim.forwarded[0]
    assert outer.dst == COA1 and outer.size_bytes == 1040
    assert outer.inner is pkt


def test_intercept_without_binding_counts_loss(fake_sim):
    agent = HomeAgent(fake_sim, "ha")
    pkt = Packet(src=CN, dst=MNN, size_bytes=1000, kind=DATA, flow="cbr")
    agent.intercept(pkt)
    assert fake_sim.dropped and fake_sim.dropped[0][1].startswith("no_binding")


def test_intercept_expired_binding_counts_loss(fake_sim):
    agent = HomeAgent(fake_sim, "ha")
    agent.bind(HOA, COA1, [MNP], lifetime=10)
    fake_sim.now = 9
    agent.intercept(Packet(src=CN, dst=MNN, size_bytes=1000, kind=DATA, flow="cbr"))
    assert fake_sim.forwarded and not fake_sim.dropped
    fake_sim.now = 10
    agent.intercept(Packet(src=CN, dst=MNN, size_bytes=1000, kind=DATA, flow="cbr"))
    assert len(fake_sim.forwarded) == 1 and fake_sim.dropped[0][1] == "no_binding@ha"


def test_reverse_tunnel_endpoint_unwraps(fake_sim):
    agent = HomeAgent(fake_sim, "ha")
    inner = Packet(src=MNN, dst=CN, size_bytes=1000, kind=DATA)
    agent.handle_tunneled(encapsulate(inner, COA1, HA_ADDR))
    assert fake_sim.forwarded[0][1] is inner


def test_mr_decapsulates_downstream_for_its_network(fake_sim):
    mr = checked_mr(fake_sim)
    inner = Packet(src=CN, dst=MNN, size_bytes=1000, kind=DATA)
    mr.on_packet(encapsulate(inner, HA_ADDR, COA1))
    assert fake_sim.mnn_inbox == [inner]


def test_mr_upstream_reverse_tunnels_when_registered(fake_sim):
    mr = registered_mr(fake_sim)
    up = Packet(src=MNN, dst=CN, size_bytes=1000, kind=DATA)
    mr.on_upstream(up)
    outer = fake_sim.dmr_outbox[0]
    assert outer.dst == HA_ADDR and outer.size_bytes == 1040


def test_mr_upstream_dropped_when_unregistered(fake_sim):
    mr = make_mr(fake_sim)
    mr.on_upstream(Packet(src=MNN, dst=CN, size_bytes=1000, kind=DATA, flow="up"))
    assert fake_sim.dropped and fake_sim.dropped[0][1] == "mr_not_registered"


def test_every_baseline_delivery_traverses_the_home_agent():
    from nemosim.engine import SEC
    from nemosim.scenario import ScenarioConfig
    from nemosim.simulation import Simulation
    cfg = ScenarioConfig(protocol="nemo-bs", sim_end_us=40 * SEC)
    cfg.cbr.stop_us = 40 * SEC
    sim = Simulation(cfg)
    report = sim.run()
    assert report.delivered > 0
    assert all("ha" in path for path in report.per_packet_path)


def test_access_router_answers_colliding_dad_probe():
    """The access router answers a colliding probe with an NA, and the router
    retries with the next node component."""
    from nemosim.scenario import FaultConfig, ScenarioConfig
    from nemosim.simulation import Simulation
    cfg = ScenarioConfig(protocol="nemo-bs", sim_end_us=25 * SEC,
                         faults=FaultConfig(dad_collision_handovers=(0,)))
    cfg.cbr.stop_us = 25 * SEC
    sim = Simulation(cfg)
    sim.run()
    mr = sim.nodes["dmr"]
    assert mr.node_component == 101
    assert mr.coa == mr.prefix.address(101)
    assert sim.metrics.unexpected_signals == 0


def test_stale_binding_during_handover_loses_at_old_station():
    from nemosim.scenario import ScenarioConfig
    from nemosim.simulation import Simulation
    report = Simulation(ScenarioConfig(protocol="nemo-bs")).run()
    reasons = {d.where for d in report.drops_detail}
    assert any(r.startswith("detached@bs") or r.startswith("air_lost@bs")
               for r in reasons)
    assert any(r.startswith("no_binding@ha") for r in reasons)


def test_baseline_upstream_also_rides_the_home_tunnel():
    from nemosim.engine import SEC
    from nemosim.scenario import ScenarioConfig
    from nemosim.simulation import Simulation
    cfg = ScenarioConfig(protocol="nemo-bs", sim_end_us=30 * SEC)
    cfg.cbr.stop_us = 30 * SEC
    sim = Simulation(cfg)
    sim.engine.run_until(25 * SEC)
    sim.nodes["mnn"].send_to_cn(seq=1)
    sim.engine.run_until(30 * SEC)
    received = sim.nodes["cn"].upstream_received
    assert received and received[0].seq == 1
    assert "ha" in received[0].path_log


def test_foreign_destination_never_reaches_mobile_network(fake_sim):
    mr = checked_mr(fake_sim)
    stray = Packet(src=CN, dst=Address(3, 2, 9), size_bytes=1000, kind=DATA, flow="cbr")
    mr.on_packet(encapsulate(stray, HA_ADDR, COA1))
    assert not fake_sim.mnn_inbox
    assert fake_sim.dropped


def test_stale_binding_acknowledgement_is_unexpected(fake_sim):
    """A BA for an earlier care-of address neither registers the router nor
    passes unseen."""
    mr = registered_mr(fake_sim)
    mr.on_signal(ra(Prefix(2, 2)))
    mr.on_timer(fake_sim.timers[-1][2])
    assert mr.state is MrState.REGISTERING
    mr.on_signal(ba_for(COA1))
    assert mr.state is MrState.REGISTERING and mr.upstream_coa() is None
    assert fake_sim.metrics.unexpected_signals == 1


def test_upstream_waits_for_the_new_address_to_be_bound(fake_sim):
    """From the start of a new prefix's check until the home agent
    acknowledges the new address, upstream traffic is dropped."""
    mr = registered_mr(fake_sim)
    coa2 = Prefix(2, 2).address(100)

    def send_up():
        mr.on_upstream(Packet(src=MNN, dst=CN, size_bytes=1000, kind=DATA, flow="up"))

    mr.on_signal(ra(Prefix(2, 2)))
    send_up()
    mr.on_timer(fake_sim.timers[-1][2])
    send_up()
    assert [where for _, where in fake_sim.dropped] == ["mr_not_registered"] * 2
    assert not fake_sim.dmr_outbox
    mr.on_signal(ba_for(coa2))
    send_up()
    outer = fake_sim.dmr_outbox[0]
    assert outer.src == coa2 and outer.dst == HA_ADDR
    assert fake_sim.metrics.unexpected_signals == 0


def test_unhandled_signal_kind_is_unexpected(fake_sim):
    mr = registered_mr(fake_sim)
    mr.on_signal(make_signal(SignalKind.FBACK, HA_ADDR, COA1, t=0, info={}))
    assert fake_sim.metrics.unexpected_signals == 1
    assert mr.state is MrState.REGISTERED
