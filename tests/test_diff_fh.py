"""Fast hierarchical scheme: anticipation, forwarding, buffering, recovery."""

from types import SimpleNamespace

import pytest

from census import SIGNAL_KINDS, cbr_held
from nemosim.diff_fh import FBU_DELAY_US, FhDmr, MapAgent
from nemosim.engine import MS, SEC
from nemosim.fsm import DmrState, MapState, NarState, RegState
from nemosim.nemo_bs import BINDING_LIFETIME_US, BINDING_REFRESH_US
from nemosim.nodes import ArNode
from nemosim.packets import DATA, Address, Packet, Prefix, SignalKind, make_signal
from nemosim.scenario import CbrConfig, FaultConfig, ScenarioConfig
from nemosim.simulation import Simulation

HOA = Address(1, 1, 1)
MNN = Address(1, 1, 2)
MNP = Prefix(1, 1)
HA_ADDR = Address(1, 0, 1)
CN = Address(0, 0, 0)
LCOA1 = Prefix(2, 1).address(100)
LCOA2 = Prefix(2, 2).address(100)
RCOA1 = Prefix(2, 0).address(100)
RCOA2 = Prefix(3, 0).address(100)


def make_fh(fake_sim, attached=True):
    dmr = FhDmr(fake_sim, "dmr")
    if attached:
        dmr.lcoa = LCOA1
        dmr.rcoa = RCOA1
        dmr.serving_map = "map1"
    return dmr


def trigger_plan(old="bs1", new="bs2"):
    return SimpleNamespace(old_bs=old, new_bs=new, handover_index=0,
                           predicted_down=0)


def prrtadv(nar="ar2", nar_map="map1"):
    """A proxied advertisement, which carries the new access router's RA info."""
    topo_prefix = {"ar2": Prefix(2, 2), "ar3": Prefix(3, 1)}[nar]
    map_prefix = {"map1": Prefix(2, 0), "map2": Prefix(3, 0)}[nar_map]
    return make_signal(SignalKind.PR_RT_ADV, Address(2, 1, 1), LCOA1, t=0,
                       info={"prefix": topo_prefix, "map_id": nar_map,
                             "map_prefix": map_prefix})


def test_prrtadv_micro_configures_only_on_link_address(fake_sim):
    dmr = make_fh(fake_sim)
    dmr.on_l2_trigger(trigger_plan())
    dmr.on_packet(prrtadv("ar2", "map1"))
    assert dmr.ctx["nlcoa"] == LCOA2
    assert dmr.ctx["nrcoa"] is None
    assert not dmr.ctx["macro"]
    assert dmr.rcoa == RCOA1          # regional address untouched
    assert dmr.fsm_state == DmrState.CONFIGURED_NCOA


def test_prrtadv_macro_configures_both_addresses(fake_sim):
    dmr = make_fh(fake_sim)
    dmr.on_l2_trigger(trigger_plan(new="bs3"))
    dmr.on_packet(prrtadv("ar3", "map2"))
    assert dmr.ctx["macro"]
    assert dmr.ctx["nlcoa"] == Prefix(3, 1).address(100)
    assert dmr.ctx["nrcoa"] == RCOA2


def test_prrtadv_for_current_attachment_is_noop(fake_sim):
    dmr = make_fh(fake_sim)
    dmr.on_l2_trigger(trigger_plan())
    adv = make_signal(SignalKind.PR_RT_ADV, Address(2, 1, 1), LCOA1, t=0,
                      info={"prefix": Prefix(2, 1), "map_id": "map1",
                            "map_prefix": Prefix(2, 0)})
    dmr.on_packet(adv)
    assert dmr.ctx["nlcoa"] is None
    assert dmr.fsm_state == DmrState.SENT_RTSOLPR


def test_fbu_emitted_after_configured_delay(fake_sim):
    dmr = make_fh(fake_sim)
    dmr.on_l2_trigger(trigger_plan())
    dmr.on_packet(prrtadv())
    timers = [t for t in fake_sim.timers if t[2][0] == "fh"]
    assert timers and timers[0][1] == FBU_DELAY_US
    dmr.on_timer(timers[0][2])
    fbu = fake_sim.signals_of(SignalKind.FBU)
    assert len(fbu) == 1
    info = fbu[0][4]
    assert info["plcoa"] == LCOA1 and info["nlcoa"] == LCOA2
    assert dmr.fsm_state == DmrState.SENT_FBU


@pytest.mark.parametrize("macro", [False, True])
def test_local_acknowledgement_ends_the_handover(fake_sim, macro):
    """The LBAck row itself leaves the router Idle with no handover open; a
    macro move also sends the home binding update."""
    dmr = make_fh(fake_sim)
    dmr.on_l2_trigger(trigger_plan())
    dmr.ctx["macro"] = macro
    dmr.fsm_state = DmrState.LOCAL_REGISTERED
    dmr.on_signal(make_signal(SignalKind.LBACK, RCOA1, LCOA1, t=0))
    assert dmr.fsm_state is DmrState.IDLE and dmr.ctx is None
    assert len(fake_sim.signals_of(SignalKind.BU)) == macro
    assert fake_sim.metrics.unexpected_signals == 0


def home_ba(coa):
    return make_signal(SignalKind.BA, HA_ADDR, coa, t=0, info={"coa": coa})


def test_stale_home_acknowledgement_starts_no_return_routability(fake_sim):
    """A home agent's BA for an earlier regional address is counted as
    unexpected and sends no probe; the one for the current address does."""
    dmr = make_fh(fake_sim)
    dmr.send_home_bu()
    dmr.rcoa = RCOA2          # a macro handover moved on before the BA came
    dmr.on_signal(home_ba(RCOA1))
    assert fake_sim.metrics.unexpected_signals == 1
    assert not fake_sim.signals_of(SignalKind.HOTI)
    assert dmr.reg_state is RegState.IDLE
    dmr.send_home_bu()
    dmr.on_signal(home_ba(RCOA2))
    assert dmr.reg_state is RegState.RR and fake_sim.metrics.unexpected_signals == 1
    hoti = fake_sim.signals_of(SignalKind.HOTI)
    assert len(hoti) == 1 and hoti[0][5] == HA_ADDR
    assert [s[2] for s in fake_sim.signals_of(SignalKind.COTI)] == [RCOA2]


# -- anchor-point forwarding ---------------------------------------------------

def map_agent(fake_sim, node="map1"):
    return MapAgent(fake_sim, node)


def install_handover(fake_sim, agent):
    fbu = make_signal(SignalKind.FBU, LCOA1, agent.address, t=0,
                      info={"plcoa": LCOA1, "nlcoa": LCOA2, "nar": "ar2",
                            "macro": False, "new_map": None, "nrcoa": None})
    agent.on_packet(fbu)
    agent.on_packet(make_signal(SignalKind.HACK, Address(2, 2, 1), agent.address,
                              t=0, info={"from_role": "nar"}))


def test_map_diverts_regional_traffic_into_tunnel(fake_sim):
    agent = map_agent(fake_sim)
    agent.bind(RCOA1, LCOA1, lifetime=200 * SEC)
    install_handover(fake_sim, agent)
    assert agent.fh_state == MapState.FORWARDING
    pkt = Packet(src=CN, dst=RCOA1, size_bytes=1000, kind=DATA)
    assert agent.intercept(pkt)
    origin, outer = fake_sim.forwarded[-1]
    assert outer.dst == LCOA2 and outer.inner is pkt


def test_map_forwarding_is_exclusive_after_cut(fake_sim):
    agent = map_agent(fake_sim)
    agent.bind(RCOA1, LCOA1, lifetime=200 * SEC)
    install_handover(fake_sim, agent)
    lbu = make_signal(SignalKind.LBU, LCOA2, agent.address, t=0,
                      info={"rcoa": RCOA1, "lcoa": LCOA2, "mnp": MNP,
                            "old_map": "map1", "old_rcoa": RCOA1})
    agent.on_packet(lbu)
    assert agent.fh_state == MapState.IDLE and LCOA1 not in agent.cache
    pkt = Packet(src=CN, dst=RCOA1, size_bytes=1000, kind=DATA)
    assert agent.intercept(pkt)
    origin, outer = fake_sim.forwarded[-1]
    assert outer.dst == LCOA2 and outer.inner is pkt     # direct, not via tunnel
    assert fake_sim.signals_of(SignalKind.LBACK)


def test_map_without_binding_drops_regional_traffic(fake_sim):
    agent = map_agent(fake_sim)
    pkt = Packet(src=CN, dst=RCOA1, size_bytes=1000, kind=DATA, flow="cbr")
    assert agent.intercept(pkt)
    assert fake_sim.dropped and "no_binding" in fake_sim.dropped[0][1]


def test_map_drops_regional_traffic_once_its_binding_expires(fake_sim):
    agent = map_agent(fake_sim)
    agent.bind(RCOA1, LCOA1, lifetime=10)
    fake_sim.now = 10
    assert agent.intercept(Packet(src=CN, dst=RCOA1, size_bytes=1000, kind=DATA, flow="cbr"))
    assert [where for _, where in fake_sim.dropped] == ["no_binding@map1"]


def test_map_diverts_a_forwarded_address_only_once(fake_sim):
    # A packet for a forwarded address takes that one binding; only a
    # regional address follows its care-of address into a forwarding binding.
    agent = map_agent(fake_sim)
    agent.bind(LCOA1, LCOA2)
    agent.bind(LCOA2, LCOA1)
    pkt = Packet(src=CN, dst=LCOA1, size_bytes=1000, kind=DATA)
    assert agent.intercept(pkt)
    assert fake_sim.forwarded[-1][1].dst == LCOA2
    assert not agent.intercept(Packet(src=CN, dst=Address(2, 3, 100), size_bytes=1000))


def test_forwarding_binding_left_behind_expires(fake_sim):
    """A forwarding binding that no LBU ends lapses with a binding's
    lifetime: then neither the previous on-link address nor the regional
    address that follows it is tunnelled into the new access router."""
    agent = map_agent(fake_sim)
    agent.bind(RCOA1, LCOA1, lifetime=2 * BINDING_LIFETIME_US)
    install_handover(fake_sim, agent)
    assert agent.fh_state is MapState.FORWARDING
    for dst in (LCOA1, RCOA1):
        assert agent.intercept(Packet(src=CN, dst=dst, size_bytes=1000, kind=DATA))
        assert fake_sim.forwarded[-1][1].dst == LCOA2
    fake_sim.now = BINDING_LIFETIME_US
    assert not agent.intercept(Packet(src=CN, dst=LCOA1, size_bytes=1000, kind=DATA))
    assert agent.intercept(Packet(src=CN, dst=RCOA1, size_bytes=1000, kind=DATA))
    assert fake_sim.forwarded[-1][1].dst == LCOA1


def test_new_handover_ends_the_forwarding_of_the_one_it_replaces(fake_sim):
    """An FBU for another next address, from another previous one, opens a
    handover afresh and removes the forwarding binding the first one left."""
    agent = map_agent(fake_sim)
    install_handover(fake_sim, agent)
    assert agent.fh_state is MapState.FORWARDING and LCOA1 in agent.cache
    fbu = make_signal(SignalKind.FBU, LCOA2, agent.address, t=0,
                      info={"plcoa": LCOA2, "nlcoa": LCOA1, "nar": "ar1",
                            "macro": False, "new_map": None, "nrcoa": None})
    agent.on_packet(fbu)
    assert agent.fh_state is MapState.SENT_HI and agent.fh_ctx["plcoa"] == LCOA2
    assert LCOA1 not in agent.cache


def test_teardown_relay_clears_old_anchor(fake_sim):
    agent = map_agent(fake_sim)
    agent.bind(RCOA1, LCOA1, lifetime=200 * SEC)
    install_handover(fake_sim, agent)
    teardown = make_signal(SignalKind.LBU, Address(3, 0, 1), agent.address, t=0,
                           info={"teardown": True, "old_rcoa": RCOA1})
    agent.on_packet(teardown)
    assert not agent.cache


# -- new access router ------------------------------------------------------------

def nar_agent(fake_sim):
    return ArNode(fake_sim, "ar2")


def hi_signal(fake_sim, macro=False):
    return make_signal(SignalKind.HI, fake_sim.topo.addresses["map1"],
                       fake_sim.topo.addresses["ar2"], t=0,
                       info={"plcoa": LCOA1, "nlcoa": LCOA2, "macro": macro,
                             "old_map": "map1", "new_map": "map2" if macro else None,
                             "nar": "ar2", "nrcoa": RCOA2 if macro else None})


def test_nar_buffers_until_announcement_then_flushes_in_order(fake_sim):
    nar = nar_agent(fake_sim)
    nar.on_packet(hi_signal(fake_sim))
    assert nar.state == NarState.DAD_RUNNING
    nar.on_timer(("nar_dad",))
    assert nar.state == NarState.TUNNEL_UP_BUFFERING
    packets = [Packet(src=CN, dst=LCOA2, size_bytes=1000, kind=DATA, seq=i)
               for i in range(3)]
    for p in packets:
        assert nar.intercept(p)
    assert not fake_sim.forwarded
    nar.on_packet(make_signal(SignalKind.FNA, LCOA2, nar.address, t=0))
    flushed = [pkt for _, pkt in fake_sim.forwarded]
    assert flushed == packets                      # order preserved
    assert nar.buffer == []                        # released exactly once
    assert not nar.intercept(packets[0])           # pass-through afterwards


def test_nar_with_no_buffer_drops_each_held_packet(fake_sim):
    fake_sim.config.nar_buffer_capacity = 0
    nar = nar_agent(fake_sim)
    nar.on_packet(hi_signal(fake_sim))
    pkt = Packet(src=CN, dst=LCOA2, size_bytes=1000, kind=DATA, seq=0, flow="cbr")
    assert nar.intercept(pkt)
    assert nar.buffer == []
    assert fake_sim.dropped == [(pkt, "nar_overflow@ar2")]


def test_nar_overflow_drops_oldest(fake_sim):
    fake_sim.config.nar_buffer_capacity = 2
    nar = nar_agent(fake_sim)
    nar.on_packet(hi_signal(fake_sim))
    nar.on_timer(("nar_dad",))
    packets = [Packet(src=CN, dst=LCOA2, size_bytes=1000, kind=DATA, seq=i, flow="cbr")
               for i in range(3)]
    for p in packets:
        nar.intercept(p)
    assert [p.seq for p in nar.buffer] == [1, 2]
    assert fake_sim.dropped == [(packets[0], "nar_overflow@ar2")]


def test_macro_hi_fans_out_to_new_anchor(fake_sim):
    nar = nar_agent(fake_sim)
    nar.on_packet(hi_signal(fake_sim, macro=True))
    relayed = fake_sim.signals_of(SignalKind.HI)
    assert relayed and relayed[0][3] == fake_sim.topo.addresses["map2"]


def test_reactive_fna_collision_gets_alternative(fake_sim):
    nar = nar_agent(fake_sim)
    fbu = make_signal(SignalKind.FBU, LCOA2, fake_sim.topo.addresses["map1"], t=0,
                      info={"plcoa": LCOA1, "nlcoa": LCOA2, "nar": "ar2",
                            "macro": False, "new_map": None, "nrcoa": None,
                            "handover": 0, "attempt": 0})
    fna = Packet(src=LCOA2, dst=nar.address, size_bytes=104, kind="signal",
                 signal=SignalKind.FNA, inner=fbu,
                 info=fbu.info)
    fake_sim.dad_collides = lambda h, a: a == 0
    nar.on_packet(fna)
    naack = fake_sim.signals_of(SignalKind.NAACK)
    assert naack and naack[0][4]["alternative"] == Prefix(2, 2).address(101)
    assert not fake_sim.signals_of(SignalKind.FBU)   # inner discarded


def test_reactive_fna_forwards_binding_update(fake_sim):
    nar = nar_agent(fake_sim)
    fbu = make_signal(SignalKind.FBU, LCOA2, fake_sim.topo.addresses["map1"], t=0,
                      info={"plcoa": LCOA1, "nlcoa": LCOA2, "nar": "ar2",
                            "macro": False, "new_map": None, "nrcoa": None,
                            "handover": 0, "attempt": 0})
    fna = Packet(src=LCOA2, dst=nar.address, size_bytes=104, kind="signal",
                 signal=SignalKind.FNA, inner=fbu,
                 info=fbu.info)
    nar.on_packet(fna)
    assert nar.state == NarState.FLUSHED
    forwarded = [pkt for _, pkt in fake_sim.forwarded]
    assert forwarded and forwarded[0].signal == SignalKind.FBU
    assert forwarded[0].info["relayed_by_nar"]


# -- unexpected events ------------------------------------------------------------

def unexpected_hack(sim):
    agent = map_agent(sim)
    agent.on_packet(make_signal(SignalKind.HACK, Address(2, 2, 1), agent.address, t=0,
                              info={"from_role": "nar"}))


# One event per machine that its Idle state has no transition for.
@pytest.mark.parametrize("poke", [
    unexpected_hack,
    lambda sim: map_agent(sim).on_timer(("rcoa_dad",)),
    lambda sim: nar_agent(sim).on_timer(("nar_dad",)),
    lambda sim: make_fh(sim).on_timer(("fh", "lbu_gap", 0)),
], ids=["anchor-hack", "new-anchor-dad", "access-router-dad", "router-lbu-gap"])
def test_idle_machine_counts_unexpected_event_and_sends_nothing(fake_sim, poke):
    poke(fake_sim)
    assert fake_sim.metrics.unexpected_signals == 1
    assert not fake_sim.sent_signals and not fake_sim.forwarded and not fake_sim.timers


# -- integration ---------------------------------------------------------------

def run_fh(speed=30, **kwargs):
    cfg = ScenarioConfig(protocol="diff-fh-nemo", dmr_speed_kmh=speed, **kwargs)
    sim = Simulation(cfg)
    return sim, sim.run()


def test_regional_address_invariant_under_micro_handover():
    cfg = ScenarioConfig(protocol="diff-fh-nemo",
                         waypoints=[(60.0, 0.0), (220.0, 0.0)])
    sim = Simulation(cfg)
    proto = sim.nodes["dmr"]
    sim.engine.run_until(100 * SEC)
    rcoa_before = proto.rcoa
    sim.engine.run_until(cfg.sim_end_us)
    assert proto.rcoa == rcoa_before == Prefix(2, 0).address(100)
    assert proto.lcoa == Prefix(2, 2).address(100)


def test_reattachment_during_first_address_check_starts_discovery_afresh():
    # The router attaches to bs1 at 50 ms and, leaving its cell, to bs2 at
    # 410 ms, before the first check of its bs1 address ends.  That check's
    # timer used to fire at 557.5 ms and adopt the bs1 address, whose binding
    # acknowledgement went out through bs1 and was lost, and every RA from
    # ar2 was then ignored: not one packet was delivered.
    cfg = ScenarioConfig(protocol="diff-fh-nemo", dmr_speed_kmh=100, sim_end_us=30 * SEC,
                         cbr=CbrConfig(start_us=2 * SEC),
                         waypoints=[(140.0, 0.0), (200.0, 0.0)])
    sim = Simulation(cfg)
    report = sim.run()
    assert (report.sent, report.delivered) == (350, 350)
    assert sim.metrics.unexpected_signals == 0
    assert sim.nodes["dmr"].lcoa == Prefix(2, 2).address(100)


def test_fast_binding_update_timer_after_link_down_is_ignored():
    # At a 40 ms lead the link goes down before the FBU timer armed by PrRtAdv
    # fires.  The FBU then rides the FNA, so the timer has nothing to do; it
    # used to count 9 unexpected signals in this run.
    cfg = ScenarioConfig(protocol="diff-fh-nemo", lead_us=40 * MS, dmr_speed_kmh=60,
                         sim_end_us=60 * SEC)
    sim = Simulation(cfg)
    report = sim.run()
    assert sim.metrics.unexpected_signals == 0
    assert report.delivered == 489


def test_fast_binding_update_timer_after_reattachment_is_ignored():
    # At a 10 ms lead and a 1 ms switch the router is on the new link before
    # the FBU timer armed by PrRtAdv fires.  The timer carries the epoch of the
    # attachment that armed it, so it now lapses; it used to step the machine
    # in SentFNA or LocalRegistered, 9 unexpected signals in this run.
    cfg = ScenarioConfig(protocol="diff-fh-nemo", lead_us=10 * MS, l2_switch_us=1 * MS,
                         dmr_speed_kmh=60, sim_end_us=60 * SEC)
    sim = Simulation(cfg)
    report = sim.run()
    assert sim.metrics.unexpected_signals == 0
    assert report.delivered == 492


def test_a_lost_handover_initiation_is_abandoned_at_the_next_trigger():
    # With the first HI lost, the first handover never gets its FBack and the
    # router is still outside Idle when the next trigger comes; it used to be
    # reset there without a trace.
    cfg = ScenarioConfig(protocol="diff-fh-nemo", dmr_speed_kmh=60, sim_end_us=60 * SEC,
                         faults=FaultConfig(drop_first_signals=("HI",)))
    sim = Simulation(cfg)
    report = sim.run()
    assert sim.metrics.abandoned_handovers == 1
    assert sim.metrics.unexpected_signals == 0
    assert (report.delivered, report.sent) == (492, 500)


def test_zero_loss_predictive_micro_handover_no_duplicates():
    cfg = ScenarioConfig(protocol="diff-fh-nemo",
                         waypoints=[(60.0, 0.0), (220.0, 0.0)])
    sim = Simulation(cfg)
    report = sim.run()
    assert report.dropped == 0
    assert cbr_held(sim) == report.sent - report.delivered
    seqs = list(report.seqs)
    assert len(seqs) == len(set(seqs))


def test_micro_handover_sends_no_anchor_updates():
    """Within one anchor domain the home agent and correspondent stay silent:
    each home or correspondent BU the router sends in the handover's window
    belongs to a registration that a periodic refresh began."""
    cfg = ScenarioConfig(protocol="diff-fh-nemo",
                         waypoints=[(60.0, 0.0), (220.0, 0.0)])
    sim = Simulation(cfg, trace=[])
    dmr, ha, cn = sim.nodes["dmr"], sim.topo.addresses["ha"], sim.topo.addresses["cn"]
    sent = []       # (instant, destination, registration) of each BU the router sends
    send = sim.send_signal_packet

    def record(origin, pkt, via=None):
        if origin == "dmr" and pkt.signal is SignalKind.BU:
            sent.append((sim.now, pkt.dst, dmr.reg_seq))
        send(origin, pkt, via)

    sim.send_signal_packet = record
    sim.run()
    exit_at = 90 * SEC      # boundary crossing of the first cell at x=150
    in_window = lambda t: exit_at <= t <= exit_at + 5 * SEC
    window = [line for line in sim.trace if in_window(int(line.split("\t")[0]))]
    assert [l for l in window if l.endswith("\tl2_link_down\tdown/bs1")]
    refreshes = {int(l.split("\t")[0]) for l in sim.trace if "\t('reg_refresh', " in l}
    refreshed = {seq for t, dst, seq in sent if dst == ha and t in refreshes}
    assert not [(t, dst) for t, dst, seq in sent
                if dst in (ha, cn) and in_window(t) and seq not in refreshed]


def test_macro_handover_reregisters_with_anchors():
    sim, report = run_fh(speed=30)
    proto = sim.nodes["dmr"]
    assert proto.rcoa.domain in (2, 3)
    assert "macro" in report.handover_kinds
    ha_cache = sim.nodes["ha"].cache
    assert ha_cache[sim.topo.hoa].coa == proto.rcoa
    cn_cache = sim.nodes["cn"].cache
    assert cn_cache[sim.topo.hoa].coa == proto.rcoa


def test_macro_rebind_route_excludes_home_agent_and_old_anchor():
    sim, report = run_fh(speed=30)
    # The run ends with the router parked under the second anchor domain.
    assert sim.nodes["dmr"].serving_map == "map2"
    tail = report.per_packet_path[-10:]
    assert tail
    for path in tail:
        assert "ha" not in path and "map1" not in path
        assert "map2" in path


def test_fback_loss_recovered_by_retransmission():
    sim, report = run_fh(speed=30,
                         faults=FaultConfig(drop_first_signals=("FBack", "FBack")))
    assert report.delivered > 2100
    assert report.handover_latencies_us


def test_forced_reactive_single_handover():
    cfg = ScenarioConfig(protocol="diff-fh-nemo", mode="reactive",
                         waypoints=[(60.0, 0.0), (220.0, 0.0)])
    sim = Simulation(cfg, trace=[])
    report = sim.run()
    assert not [l for l in sim.trace if "RtSolPr" in l]
    assert cbr_held(sim) == report.sent - report.delivered - report.dropped
    assert report.handover_latencies_us


def test_upstream_goes_direct_once_correspondent_bound():
    cfg = ScenarioConfig(protocol="diff-fh-nemo", sim_end_us=30 * SEC,
                         waypoints=[(100.0, 0.0)])
    sim = Simulation(cfg)
    sim.engine.run_until(25 * SEC)
    sim.nodes["mnn"].send_to_cn(seq=9)
    sim.engine.run_until(30 * SEC)
    received = sim.nodes["cn"].upstream_received
    assert received and received[0].src == sim.topo.mnn_addr
    assert "ha" not in received[0].path_log


def test_correspondent_acknowledgement_is_known_by_its_source(fake_sim):
    """The correspondent's BA carries no info: its source alone marks it, so
    it binds the regional address and arms the next registration refresh."""
    dmr = make_fh(fake_sim)
    dmr.send_home_bu()
    dmr.on_signal(make_signal(SignalKind.BA, HA_ADDR, RCOA1, t=0, info={"coa": RCOA1}))
    assert dmr.reg_state is RegState.RR and dmr.cn_bound_coa is None
    for kind, token in ((SignalKind.HOT, 1), (SignalKind.COT, 2), (SignalKind.NPT, 3)):
        dmr.on_signal(make_signal(kind, CN, HOA, t=0, info={"token": token}))
    assert dmr.reg_state is RegState.SENT_BU_CN
    dmr.on_signal(make_signal(SignalKind.BA, CN, RCOA1, t=0))
    assert dmr.reg_state is RegState.DONE and dmr.cn_bound_coa == RCOA1
    assert fake_sim.timers[-1] == ("dmr", BINDING_REFRESH_US, ("reg_refresh", dmr.reg_seq))
    assert fake_sim.metrics.unexpected_signals == 0


def test_upstream_goes_direct_only_from_the_bound_regional_address(fake_sim):
    dmr = make_fh(fake_sim)
    dmr.on_signal(make_signal(SignalKind.BA, CN, RCOA1, t=0))
    dmr.on_upstream(Packet(src=MNN, dst=CN, size_bytes=1000, kind=DATA))
    direct = fake_sim.dmr_outbox[-1]
    assert direct.src == RCOA1 and direct.home_addr_option == MNN and direct.inner is None
    # A macro handover moves the regional address before the correspondent
    # has bound the new one, which would discard a home address option from it.
    dmr.rcoa = RCOA2
    dmr.on_upstream(Packet(src=MNN, dst=CN, size_bytes=1000, kind=DATA))
    tunneled = fake_sim.dmr_outbox[-1]
    assert tunneled.src == RCOA2 and tunneled.dst == HA_ADDR
    assert tunneled.inner.src == MNN and tunneled.inner.home_addr_option is None


def test_signaling_rides_expedited_class_and_survives_congestion():
    cfg = ScenarioConfig(protocol="diff-fh-nemo", dmr_speed_kmh=60,
                         background_load_bps=1_200_000)
    sim = Simulation(cfg, trace=[])
    report = sim.run()
    assert report.handover_latencies_us
    # Only signals ride the expedited class, and no queue refuses one.
    assert not [(what, where) for what, where in report.drops
                if what in SIGNAL_KINDS and where.startswith("queue:")]
    for kind in ("FBU/", "LBU/", "BU/"):
        lines = [l for l in sim.trace if kind in l]
        assert lines and all("dscp46" in l for l in lines)


def test_reactive_collision_completes_with_substituted_address():
    cfg = ScenarioConfig(protocol="diff-fh-nemo", mode="reactive",
                         waypoints=[(60.0, 0.0), (220.0, 0.0)],
                         faults=FaultConfig(dad_collision_handovers=(0,)))
    sim = Simulation(cfg)
    report = sim.run()
    proto = sim.nodes["dmr"]
    assert proto.lcoa == Prefix(2, 2).address(101)
    assert report.delivered > 0
    deliveries_after = [t for t in report.delivered_at_us if t > 95 * SEC]
    assert deliveries_after, "traffic never resumed after the collision"


# At a 50 ms lead the FBU leaves just before the link drops, and the router's
# FNA reached the new access router during its address check, which ignored
# it: the router never got its FBack, and the next handover's FBU to the old
# anchor added a second forwarding binding, until the two anchors diverted one
# care-of address to each other and a packet looped between them, gaining a
# tunnel header per pass, and aborted the run with `DepthExceeded` (ROADMAP
# item 1).  The new access router now flushes on that FNA, and an anchor drops
# the forwarding binding of a handover that a new one replaces.
def test_short_lead_handover_does_not_loop_between_anchors():
    cfg = ScenarioConfig(protocol="diff-fh-nemo", dmr_speed_kmh=60, lead_us=50 * MS,
                         sim_end_us=60 * SEC)
    sim = Simulation(cfg)
    report = sim.run()
    assert cbr_held(sim) == report.sent - report.delivered - report.dropped


# A reactive router that lost its one announcement (the FNA carrying its
# binding update) stayed in SentFNA for the rest of the run: nothing re-sent
# it, and every later signal was unexpected.  Both reactive rows that send the
# announcement now arm the retransmission timer that the predictive one does.
def test_reactive_router_recovers_from_a_lost_announcement():
    cfg = ScenarioConfig(protocol="diff-fh-nemo", mode="reactive", dmr_speed_kmh=60,
                         sim_end_us=60 * SEC,
                         faults=FaultConfig(drop_first_signals=("FBU",)))
    sim = Simulation(cfg)
    report = sim.run()
    assert sim.metrics.unexpected_signals == 0
    assert report.delivered >= 0.9 * report.sent


# At a 90 ms lead the router's FNA reaches the new access router while that
# router's check of the new care-of address still runs (`DadRunning`); its
# machine used to count the FNA as unexpected, 9 such signals at 60 km/h.
def test_new_access_router_expects_an_fna_during_its_address_check():
    cfg = ScenarioConfig(protocol="diff-fh-nemo", seed=1, dmr_speed_kmh=60, lead_us=90 * MS,
                         sim_end_us=60_000_000)
    sim = Simulation(cfg)
    sim.run()
    assert sim.metrics.unexpected_signals == 0
