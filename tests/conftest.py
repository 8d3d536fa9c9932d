"""Shared fixtures: a recording stand-in for the simulation facade."""

from types import SimpleNamespace

import pytest

from nemosim.metrics import MetricsCollector
from nemosim.packets import SignalKind, encapsulate, make_signal
from nemosim.scenario import ScenarioConfig, default_topology


class FakeSim:
    """Captures everything a node asks the simulation to do.  Every signal,
    whether built by `send_signal` or handed whole to `send_signal_packet`
    (the one exit, with its optional `via` neighbour), lands in
    `sent_signals`, a tunnelled one under its outermost signal layer with
    the tunnel's far end; no fault drops one."""

    def __init__(self, config=None):
        self.config = config or ScenarioConfig()
        self.topo = default_topology(self.config)
        self.metrics = MetricsCollector(self.config.protocol, self.config.mode,
                                        self.config.dmr_speed_kmh, self.config.seed, {})
        self.engine = SimpleNamespace(register=lambda node_id, handler: None)
        self.now = 0
        self.sent_signals = []      # (origin, kind, src, dst, info, tunnel end or None)
        self.forwarded = []         # (origin, packet)
        self.timers = []            # (node, delay, token)
        self.mnn_inbox = []
        self.dmr_outbox = []
        self.dropped = []           # (packet, where)
        self.dmr_attached = None

    def timer(self, node_id, delay, token):
        self.timers.append((node_id, delay, token))

    def send_signal(self, origin, kind, src, dst, info=None, via=None):
        self.send_signal_packet(origin, self.make_signal(kind, src, dst, info=info), via)

    def make_signal(self, kind, src, dst, info=None):
        return make_signal(kind, src, dst, self.now, info=info)

    def send_signal_packet(self, origin, pkt, via=None):
        layer = pkt
        while layer.signal is None:
            layer = layer.inner
        tunnel = None if layer is pkt else pkt.dst
        self.sent_signals.append((origin, layer.signal, layer.src, layer.dst, layer.info, tunnel))

    def forward(self, origin, pkt):
        self.forwarded.append((origin, pkt))

    def dmr_send(self, pkt):
        self.dmr_outbox.append(pkt)

    def send_to_mnn(self, pkt):
        self.mnn_inbox.append(pkt)

    def drop(self, pkt, where):
        self.dropped.append((pkt, where))

    def condition_data(self, node_id, pkt):
        pass

    def dad_collides(self, handover, attempt):
        return False

    def fna_collides(self, handover, attempt):
        return False

    def signals_of(self, kind):
        return [s for s in self.sent_signals if s[1] == kind]


@pytest.fixture
def fake_sim():
    return FakeSim()
