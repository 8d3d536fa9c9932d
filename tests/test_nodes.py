"""Node dispatch: every timer a run fires reaches a handler of its node, and
every signal a node sends leaves through the simulation's one exit."""

from collections import Counter

import pytest

from nemosim.engine import SEC, TIMER_EXPIRY
from nemosim.nodes import BG_TICK, ArNode
from nemosim.scenario import CbrConfig, FaultConfig, ScenarioConfig
from nemosim.simulation import Simulation

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
    cfg = ScenarioConfig(dmr_speed_kmh=60, sim_end_us=60 * SEC, cbr=CbrConfig(stop_us=60 * SEC),
                         background_load_bps=background_bps, **RUNS[run])
    sim = Simulation(cfg)
    fired, unhandled, bg_ticks = Counter(), Counter(), Counter()

    def spy(handler):
        def deliver(ev):
            _, _, target, kind, token = ev
            node = sim.nodes.get(target)
            if kind == TIMER_EXPIRY and node is not None:
                if token is BG_TICK:   # `ArNode.dispatch`'s fast path
                    bg_ticks[isinstance(node, ArNode)] += 1
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
    assert set(bg_ticks) == ({True} if background_bps else set())
    # Every table entry is reached too, except that a reactive handover
    # anticipates nothing, so no access router or anchor verifies an address.
    entries = {name for node in sim.nodes.values() for name in node.timer_handlers}
    unreached = entries - {name for _, name in fired}
    assert unreached == ({"nar_dad", "rcoa_dad"} if cfg.mode == "reactive" else set())


# The access router's own signals, and an announcement that carries a binding
# update, each in the one run that sends it.
DROPS = {
    "RA": {},
    "PrRtAdv": {},
    "NA": {"protocol": "nemo-bs", "faults": FaultConfig(drop_first_signals=("NA",),
                                                       dad_collision_handovers=(0,))},
    "FNA": {"mode": "reactive"},
}


@pytest.mark.parametrize("kind", sorted(DROPS))
def test_every_listed_signal_kind_is_dropped_at_its_exit(kind, monkeypatch):
    run = {"faults": FaultConfig(drop_first_signals=(kind,)), **DROPS[kind]}
    cfg = ScenarioConfig(dmr_speed_kmh=60, sim_end_us=60 * SEC, cbr=CbrConfig(stop_us=60 * SEC),
                         **run)
    dropped = []
    send = Simulation.send_signal_packet

    def spy(self, origin, pkt, via=None):
        before = self.metrics.signal_drops
        send(self, origin, pkt, via)
        if self.metrics.signal_drops != before:
            dropped.append((pkt.signal.value, self.metrics.signal_drops - before))
    monkeypatch.setattr(Simulation, "send_signal_packet", spy)
    sim = Simulation(cfg)
    sim.run()
    assert sim._drop_faults == []
    assert dropped == [(kind, 1)]
