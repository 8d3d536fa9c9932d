"""Route-optimized variant: registration, return routability, proxy rewrites."""

import pytest

from nemosim.fsm import MrState, RegState
from nemosim.diff_nemo import (RR_RETRIES, RR_TIMEOUT_US, TOKEN_LIFETIME_US, CorrespondentAgent,
                               ProxyDmr)
from nemosim.engine import SEC
from nemosim.metrics import MetricsCollector
from nemosim.nemo_bs import MobileRouter
from nemosim.packets import (DATA, Address, Packet, Prefix, SignalKind,
                             make_signal)
from nemosim.scenario import FaultConfig, ScenarioConfig
from nemosim.simulation import Simulation

HOA = Address(1, 1, 1)
MNN = Address(1, 1, 2)
MNP = Prefix(1, 1)
HA_ADDR = Address(1, 0, 1)
CN = Address(0, 0, 0)
COA = Prefix(2, 1).address(100)


def make_proxy(fake_sim):
    """A proxy that has checked COA and sent its home binding update."""
    fake_sim.dmr_attached = "bs1"
    proxy = ProxyDmr(fake_sim, "dmr")
    proxy.on_signal(make_signal(SignalKind.RA, Address(2, 1, 1), HOA, t=0,
                                info={"prefix": Prefix(2, 1)}))
    proxy.on_timer(fake_sim.timers[-1][2])
    return proxy


def ba_from_ha():
    return make_signal(SignalKind.BA, HA_ADDR, COA, t=0, info={"coa": COA})


def token_signal(kind, token):
    return make_signal(kind, CN, HOA, t=0, info={"token": token})


def registered_proxy(fake_sim):
    """A proxy whose home binding update has just been acknowledged."""
    proxy = make_proxy(fake_sim)
    proxy.on_signal(ba_from_ha())
    return proxy


def test_registration_triggers_return_routability(fake_sim):
    proxy = registered_proxy(fake_sim)
    assert proxy.state is MrState.REGISTERED
    assert [s[3] for s in fake_sim.signals_of(SignalKind.BU)] == [HA_ADDR]
    hoti = fake_sim.signals_of(SignalKind.HOTI)
    coti = fake_sim.signals_of(SignalKind.COTI)
    assert len(hoti) == 1 and len(coti) == 1
    assert hoti[0][5] == HA_ADDR        # tunneled through the home agent
    assert coti[0][5] is None           # direct


def test_stale_home_acknowledgement_starts_no_return_routability(fake_sim):
    """A home agent's BA for an earlier care-of address is counted as
    unexpected, and neither registers the proxy nor sends a probe."""
    proxy = make_proxy(fake_sim)
    stale = make_signal(SignalKind.BA, HA_ADDR, COA, t=0,
                        info={"coa": Prefix(2, 2).address(100)})
    proxy.on_signal(stale)
    assert proxy.state is MrState.REGISTERING
    assert proxy.reg_state is RegState.IDLE and proxy.reg_seq == 1
    assert not fake_sim.signals_of(SignalKind.HOTI)
    assert fake_sim.metrics.unexpected_signals == 1


def test_token_before_the_home_acknowledgement_counts_as_unexpected(fake_sim):
    """`Node.drive` counts an event the registration table has no row for,
    and leaves the state as it is: Idle, waiting for the home agent."""
    proxy = make_proxy(fake_sim)
    assert proxy.reg_state == RegState.IDLE and proxy.reg_seq == 1
    proxy.on_signal(token_signal(SignalKind.HOT, ("hot", HOA, 1)))
    assert proxy.reg_state == RegState.IDLE and not proxy.tokens
    assert fake_sim.metrics.unexpected_signals == 1


def cn_binding_updates(fake_sim):
    return [s for s in fake_sim.signals_of(SignalKind.BU) if s[3] == CN]


def test_tokens_complete_exchange_and_register_with_cn(fake_sim):
    proxy = registered_proxy(fake_sim)
    proxy.on_signal(token_signal(SignalKind.HOT, ("hot", HOA, 1)))
    proxy.on_signal(token_signal(SignalKind.NPT, ("npt", HOA, 2)))
    assert proxy.reg_state == RegState.RR and set(proxy.tokens) == {"hot", "npt"}
    assert not cn_binding_updates(fake_sim)
    proxy.on_signal(token_signal(SignalKind.COT, ("cot", COA, 3)))
    assert proxy.reg_state == RegState.SENT_BU_CN
    bu = cn_binding_updates(fake_sim)
    assert len(bu) == 1 and bu[0][2] == COA
    assert bu[0][4]["tokens"] == {"hot": ("hot", HOA, 1), "cot": ("cot", COA, 3),
                                  "npt": ("npt", HOA, 2)}


def test_exhausted_retries_fall_back_and_ignore_late_tokens(fake_sim):
    proxy = registered_proxy(fake_sim)
    for retries in range(RR_RETRIES):
        proxy.on_timer(("rr_timeout", 1, retries))
        assert len(fake_sim.signals_of(SignalKind.HOTI)) == retries + 2
    proxy.on_timer(("rr_timeout", 1, RR_RETRIES))
    assert proxy.reg_state == RegState.FALLBACK
    assert len(fake_sim.signals_of(SignalKind.HOTI)) == RR_RETRIES + 1
    proxy.on_signal(token_signal(SignalKind.HOT, ("hot", HOA, 1)))
    proxy.on_signal(token_signal(SignalKind.COT, ("cot", COA, 2)))
    proxy.on_signal(token_signal(SignalKind.NPT, ("npt", HOA, 3)))
    assert proxy.reg_state == RegState.FALLBACK
    assert not cn_binding_updates(fake_sim)


def test_home_refresh_after_done_reruns_return_routability(fake_sim):
    proxy = registered_proxy(fake_sim)
    for kind, token in ((SignalKind.HOT, 1), (SignalKind.COT, 2), (SignalKind.NPT, 3)):
        proxy.on_signal(token_signal(kind, token))
    proxy.on_signal(make_signal(SignalKind.BA, CN, COA, t=0))
    assert proxy.reg_state == RegState.DONE and proxy.cn_bound_coa == COA
    assert len(fake_sim.signals_of(SignalKind.HOTI)) == 1
    proxy.on_timer(("bu_refresh", proxy.epoch))
    proxy.on_signal(ba_from_ha())
    hoti = fake_sim.signals_of(SignalKind.HOTI)
    coti = fake_sim.signals_of(SignalKind.COTI)
    assert len(hoti) == 2 and len(coti) == 2
    assert hoti[1][5] == HA_ADDR and coti[1][5] is None
    assert ("rr_timeout", 2, 0) in [t[2] for t in fake_sim.timers]


def test_correspondent_issues_tokens_and_accepts_fresh_binding(fake_sim):
    agent = CorrespondentAgent(fake_sim, "cn")
    agent.on_hoti(make_signal(SignalKind.HOTI, HOA, CN, t=0))
    agent.on_coti(make_signal(SignalKind.COTI, COA, CN, t=0, info={"hoa": HOA}))
    issued = agent.issued[HOA]
    tokens = {k: issued[k][0] for k in ("hot", "cot", "npt")}
    bu = make_signal(SignalKind.BU, COA, CN, t=0,
                     info={"hoa": HOA, "coa": COA, "mnps": [MNP], "tokens": tokens})
    agent.on_binding_update(bu)
    assert HOA in agent.cache
    assert agent.cache[HOA].coa == COA
    assert fake_sim.signals_of(SignalKind.BA)


def test_rogue_binding_update_never_mutates_cache(fake_sim):
    agent = CorrespondentAgent(fake_sim, "cn")
    rogue = make_signal(SignalKind.BU, COA, CN, t=0,
                        info={"hoa": HOA, "coa": COA, "mnps": [MNP],
                              "tokens": {"hot": "x", "cot": "y", "npt": "z"}})
    agent.on_binding_update(rogue)
    assert not agent.cache
    assert fake_sim.dropped == [(rogue, "rejected@cn")]
    no_tokens = make_signal(SignalKind.BU, COA, CN, t=0,
                            info={"hoa": HOA, "coa": COA, "mnps": [MNP]})
    agent.on_binding_update(no_tokens)
    assert not agent.cache
    assert fake_sim.dropped == [(rogue, "rejected@cn"), (no_tokens, "rejected@cn")]


def test_stale_tokens_rejected_by_clock_arithmetic(fake_sim):
    agent = CorrespondentAgent(fake_sim, "cn")
    agent.on_hoti(make_signal(SignalKind.HOTI, HOA, CN, t=0))
    agent.on_coti(make_signal(SignalKind.COTI, COA, CN, t=0, info={"hoa": HOA}))
    tokens = {k: agent.issued[HOA][k][0] for k in ("hot", "cot", "npt")}
    fake_sim.now = TOKEN_LIFETIME_US + 1
    bu = make_signal(SignalKind.BU, COA, CN, t=0,
                     info={"hoa": HOA, "coa": COA, "mnps": [MNP], "tokens": tokens})
    agent.on_binding_update(bu)
    assert not agent.cache
    assert fake_sim.dropped == [(bu, "rejected@cn")]


def test_downstream_proxy_rewrite_delivers_home_address(fake_sim):
    proxy = make_proxy(fake_sim)
    pkt = Packet(src=CN, dst=COA, size_bytes=1000, kind=DATA, rh2_home_addr=MNN)
    proxy.on_packet(pkt)
    delivered = fake_sim.mnn_inbox[0]
    assert delivered.dst == MNN and delivered.src == CN
    assert delivered.rh2_home_addr is None


def test_upstream_proxy_tags_home_address_when_bound(fake_sim):
    proxy = registered_proxy(fake_sim)   # the correspondent binds only after the home agent
    proxy.cn_bound_coa = COA
    proxy.on_upstream(Packet(src=MNN, dst=CN, size_bytes=1000, kind=DATA))
    out = fake_sim.dmr_outbox[0]
    assert out.src == COA and out.home_addr_option == MNN
    assert out.dst == CN


def test_upstream_falls_back_to_home_tunnel_without_cn_binding(fake_sim):
    proxy = registered_proxy(fake_sim)
    proxy.on_upstream(Packet(src=MNN, dst=CN, size_bytes=1000, kind=DATA))
    out = fake_sim.dmr_outbox[0]
    assert out.dst == HA_ADDR and out.inner is not None


# -- integration ---------------------------------------------------------------

def test_lost_care_of_test_retries_and_recovers():
    cfg = ScenarioConfig(protocol="diff-nemo", dmr_speed_kmh=30, sim_end_us=30 * SEC,
                         faults=FaultConfig(drop_first_signals=("CoT",)))
    sim = Simulation(cfg)
    sim.run()
    agent = sim.nodes["cn"]
    assert agent.bound_at, "binding never completed despite the retry"
    # The retry fires one timeout after the initial probes.
    assert agent.bound_at[0] > RR_TIMEOUT_US


def test_delivered_packets_keep_application_addresses(monkeypatch):
    addresses = []
    record = MetricsCollector.record_delivery
    def spy(self, pkt, t):
        addresses.append((pkt.src, pkt.dst))
        record(self, pkt, t)
    monkeypatch.setattr(MetricsCollector, "record_delivery", spy)
    cfg = ScenarioConfig(protocol="diff-nemo", sim_end_us=40 * SEC)
    sim = Simulation(cfg)
    report = sim.run()
    assert report.delivered > 0 and len(addresses) == report.delivered
    for src, dst in addresses:
        assert src == sim.topo.addresses["cn"]
        assert dst == sim.topo.mnn_addr


def test_tunnel_overhead_disappears_after_registration():
    """Pre-registration deliveries ride the anchored tunnel and pay for it."""
    cfg = ScenarioConfig(protocol="diff-nemo", sim_end_us=40 * SEC)
    sim = Simulation(cfg)
    report = sim.run()
    t_bind = sim.nodes["cn"].bound_at[0]
    # A packet's creation instant is its delivery instant less its delay.
    rows = list(zip(report.delivered_at_us, report.delays_us))
    pre = [delay for t, delay in rows if t - delay < t_bind]
    post = [delay for t, delay in rows if t - delay >= t_bind]
    assert pre and post
    assert min(pre) > max(post)


def test_rr_probe_routing_home_leg_vs_direct_leg(monkeypatch):
    """Home tests ride the anchor tunnel; care-of tests go straight across."""
    # Nodes bind their signal handlers when built, so spy on the classes first.
    paths = {}
    def spy(cls, name, label):
        orig = getattr(cls, name)
        def wrapper(self, pkt):
            paths.setdefault(label(pkt), list(pkt.path_log))
            orig(self, pkt)
        monkeypatch.setattr(cls, name, wrapper)
    spy(CorrespondentAgent, "on_hoti", lambda p: "hoti")
    spy(CorrespondentAgent, "on_coti", lambda p: "coti")
    # Every signal the router takes passes `on_signal`, the tokens among them.
    spy(MobileRouter, "on_signal", lambda p: p.signal.value.lower())

    cfg = ScenarioConfig(protocol="diff-nemo", sim_end_us=25 * SEC)
    Simulation(cfg).run()
    assert "ha" in paths["hoti"]
    assert "ha" not in paths["coti"]
    assert "ha" in paths["hot"] and "ha" in paths["npt"]
    assert "ha" not in paths["cot"]


def test_upstream_direct_and_transparent_once_bound():
    cfg = ScenarioConfig(protocol="diff-nemo", sim_end_us=30 * SEC)
    sim = Simulation(cfg)
    sim.engine.run_until(25 * SEC)
    sim.nodes["mnn"].send_to_cn(seq=5)
    sim.engine.run_until(30 * SEC)
    received = sim.nodes["cn"].upstream_received
    assert received and received[0].seq == 5
    assert received[0].src == sim.topo.mnn_addr      # home address restored
    assert "ha" not in received[0].path_log
