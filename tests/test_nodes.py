"""Node dispatch: every timer a run fires reaches a handler of its node, and
every signal a node sends leaves through the simulation's one exit."""

from collections import Counter

import pytest

from nemosim import fsm
from nemosim.engine import PACKET_ARRIVAL, SEC, TIMER_EXPIRY
from nemosim.fsm import MapState, NarState, NewMapState
from nemosim.nemo_bs import HomeAgent
from nemosim.nodes import BG_TICK, ArNode, Node
from nemosim.packets import Address, SignalKind, make_signal
from nemosim.scenario import FaultConfig, ScenarioConfig
from nemosim.simulation import Simulation
from probes import innermost

RUNS = {
    "nemo-bs": {"protocol": "nemo-bs"},
    "diff-nemo": {"protocol": "diff-nemo"},
    "diff-fh-nemo": {"protocol": "diff-fh-nemo"},
    "diff-fh-nemo-reactive": {"protocol": "diff-fh-nemo", "mode": "reactive"},
    "diff-fh-nemo-drops": {"protocol": "diff-fh-nemo",
                           "faults": FaultConfig(drop_first_signals=("FBack", "CoT"))},
}


@pytest.mark.parametrize("background_bps", [0, 1_200_000], ids=["idle", "congested"])
@pytest.mark.parametrize("run", sorted(RUNS))
def test_every_fired_timer_reaches_a_handler(run, background_bps):
    # 60 s at 60 km/h crosses cells under both anchors.
    cfg = ScenarioConfig(dmr_speed_kmh=60, sim_end_us=60 * SEC, background_load_bps=background_bps,
                         **RUNS[run])
    sim = Simulation(cfg)
    fired, unhandled, bg_ticks = Counter(), Counter(), Counter()

    def spy(handler):
        def deliver(ev):
            _, _, target, kind, token = ev
            node = sim.nodes.get(target)
            if kind == TIMER_EXPIRY and node is not None:
                if token is BG_TICK:   # a batch of background lanes (`ArNode.dispatch`)
                    bg_ticks[target] += 1
                else:
                    fired[target, token[0]] += 1
                    if token[0] not in node.timer_handlers:
                        unhandled[target, token[0]] += 1
            handler(ev)
        return deliver

    for target, handler in list(sim.engine._handlers.items()):
        sim.engine.register(target, spy(handler))
    sim.run()

    assert not unhandled, f"timers with no handler: {dict(unhandled)}"
    # The access routers' ticks are one batch, whose event is the first
    # router's: at 1.2 Mb/s no event ever falls due between two lanes.
    assert set(bg_ticks) == ({"ar1"} if background_bps else set())
    # Every table entry is reached too, except the address checks of the new
    # access router and anchor: every scheme registers them, but only a
    # predictive fast handover anticipates an address for them to verify.
    entries = {name for node in sim.nodes.values() for name in node.timer_handlers}
    unreached = entries - {name for _, name in fired}
    predictive_fh = cfg.protocol == "diff-fh-nemo" and cfg.mode == "predictive"
    assert unreached == (set() if predictive_fh else {"nar_dad", "rcoa_dad"})


@pytest.mark.parametrize("run", sorted(RUNS))
def test_every_arriving_tunnel_logs_into_its_innermost_packet(run):
    """`Node.dispatch` and the air receivers log each hop in the arriving
    packet's own `path_log`; for a tunnelled packet that is the list of its
    innermost packet, where the sink reads the route."""
    cfg = ScenarioConfig(dmr_speed_kmh=60, sim_end_us=60 * SEC, **RUNS[run])
    sim = Simulation(cfg)
    shared = Counter()

    def spy(handler):
        def deliver(ev):
            pkt = ev[4]
            if ev[3] == PACKET_ARRIVAL and pkt.inner is not None:
                shared[pkt.path_log is innermost(pkt).path_log] += 1
            handler(ev)
        return deliver

    for target, handler in list(sim.engine._handlers.items()):
        sim.engine.register(target, spy(handler))
    sim.run()
    assert shared[True] > 0 and not shared[False]


def test_signals_with_no_handler_are_the_known_two(monkeypatch):
    """`Node.on_signal` takes a signal addressed to its node by the machine
    `fsm.RECEIVE` gives it among the node's roles, else by the node's
    handler.  Over the runs above every signal that arrives with no handler
    is one the table declares as stepping nothing, and each declared one
    arrives: the new access router's NS, sent to its own station (ROADMAP
    item 1's missing DAD), and the new anchor's HAck to the new access
    router."""
    untaken, undeclared = Counter(), Counter()
    on_packet = Node.on_packet

    def spy(self, pkt):
        if pkt.dst == self.address and pkt.signal is not None \
                and pkt.signal not in self.signal_handlers:
            rows = [(role, fsm.RECEIVE[pkt.signal, role]) for role in self.roles
                    if (pkt.signal, role) in fsm.RECEIVE]
            if not rows:
                undeclared[type(self).__name__, pkt.signal.value] += 1
            for role, row in rows:
                if row is None:
                    untaken[pkt.signal, role] += 1
        on_packet(self, pkt)
    monkeypatch.setattr(Node, "on_packet", spy)
    for run in RUNS.values():
        Simulation(ScenarioConfig(dmr_speed_kmh=60, sim_end_us=60 * SEC, **run)).run()
    assert not undeclared
    assert set(untaken) == {key for key, row in fsm.RECEIVE.items() if row is None}
    assert len(untaken) == 2


def test_a_signal_no_row_or_handler_takes_is_unexpected_at_any_node(fake_sim):
    # The home agent has neither a `fsm.RECEIVE` row nor a handler for an FBack.
    ha = HomeAgent(fake_sim, "ha")
    ha.on_packet(make_signal(SignalKind.FBACK, Address(2, 0, 1), ha.address, t=0))
    assert fake_sim.metrics.unexpected_signals == 1
    assert not fake_sim.sent_signals and not fake_sim.forwarded and not fake_sim.dropped


# The access router's own signals, and an announcement that carries a binding
# update, each in the one run that sends it; one collision fault makes the
# access router answer with an NA, or the fast scheme's with a NAACK.
DROPS = {
    "RA": {},
    "PrRtAdv": {},
    "NA": {"protocol": "nemo-bs", "faults": FaultConfig(drop_first_signals=("NA",),
                                                       dad_collision_handovers=(0,))},
    "FNA": {"mode": "reactive"},
    "NAACK": {"mode": "reactive", "faults": FaultConfig(drop_first_signals=("NAACK",),
                                                       dad_collision_handovers=(0,))},
}


@pytest.mark.parametrize("kind", sorted(DROPS))
def test_every_listed_signal_kind_is_dropped_at_its_exit(kind, monkeypatch):
    run = {"faults": FaultConfig(drop_first_signals=(kind,)), **DROPS[kind]}
    cfg = ScenarioConfig(dmr_speed_kmh=60, sim_end_us=60 * SEC, **run)
    dropped = []
    send = Simulation.send_signal_packet

    def spy(self, origin, pkt, via=None):
        before = Counter(self.metrics.drops)
        send(self, origin, pkt, via)
        lost = Counter(self.metrics.drops) - before
        if lost:
            dropped.append((pkt.signal.value, origin, lost))
    monkeypatch.setattr(Simulation, "send_signal_packet", spy)
    sim = Simulation(cfg)
    sim.run()
    assert sim._drop_faults == []
    [(sent, origin, lost)] = dropped
    assert sent == kind and lost == {(kind, f"fault@{origin}"): 1}


@pytest.mark.parametrize("mode", ["predictive", "reactive"])
@pytest.mark.parametrize("protocol", ["nemo-bs", "diff-nemo", "diff-fh-nemo"])
def test_sent_signal_kinds_match_the_table(protocol, mode, monkeypatch):
    # `validate` rejects a drop fault for a kind outside
    # `ScenarioConfig.sent_signals`, so the table must hold every kind the
    # scheme sends, inner layers included, and no kind it never sends.
    cfg = ScenarioConfig(protocol=protocol, mode=mode, dmr_speed_kmh=60, sim_end_us=60 * SEC)
    sent = set()
    send = Simulation.send_signal_packet

    def spy(self, origin, pkt, via=None):
        layer = pkt
        while layer is not None:
            if layer.signal is not None:
                sent.add(layer.signal.value)
            layer = layer.inner
        send(self, origin, pkt, via)
    monkeypatch.setattr(Simulation, "send_signal_packet", spy)
    Simulation(cfg).run()
    assert sent == cfg.sent_signals()


def test_only_the_mobile_router_depends_on_the_scheme():
    roles = [{node_id: type(node) for node_id, node
              in Simulation(ScenarioConfig(protocol=protocol)).nodes.items()}
             for protocol in ("nemo-bs", "diff-nemo", "diff-fh-nemo")]
    assert roles[0].keys() == roles[1].keys() == roles[2].keys()
    assert {node_id for node_id in roles[0] if len({r[node_id] for r in roles}) > 1} == {"dmr"}


@pytest.mark.parametrize("background_bps", [0, 1_200_000], ids=["idle", "congested"])
@pytest.mark.parametrize("protocol", ["nemo-bs", "diff-nemo"])
def test_fast_handover_duties_stay_idle_without_the_fast_router(protocol, background_bps,
                                                                monkeypatch):
    # The anchors and access routers carry the fast scheme's duties in every
    # scheme, but only the fast router signals them; nor does any other
    # router form an address in an anchor's prefix.
    cfg = ScenarioConfig(protocol=protocol, dmr_speed_kmh=60, sim_end_us=60 * SEC,
                         background_load_bps=background_bps)
    wheres = []
    drop = Simulation.drop

    def spy(self, pkt, where):
        wheres.append(where)
        drop(self, pkt, where)
    monkeypatch.setattr(Simulation, "drop", spy)
    sim = Simulation(cfg)
    sim.run()

    anchors = [sim.nodes["map1"], sim.nodes["map2"]]
    routers = [node for node in sim.nodes.values() if isinstance(node, ArNode)]
    assert len(routers) == 4
    assert all(not a.cache and a.fh_ctx is None
               and a.fh_state is MapState.IDLE and a.newmap_state is NewMapState.IDLE
               for a in anchors)
    assert all(not r.buffer and r.ctx is None and r.state is NarState.IDLE for r in routers)
    assert not [w for w in wheres if w.startswith(("no_binding@map", "nar_overflow@"))]
