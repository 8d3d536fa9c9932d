"""Node behaviours: routers, base stations, access routers, anchors, endpoints."""

from __future__ import annotations

from .engine import (APP_START, APP_STOP, L2_LINK_DOWN, L2_TRIGGER,
                     PACKET_ARRIVAL, TIMER_EXPIRY, Entry)
from .metrics import FLOW_BG, FLOW_CBR
from .packets import DATA, Packet, SignalKind, apply_home_address_option

# Payload of every background tick; `ArNode.dispatch` tests it by identity.
BG_TICK = ("bg",)


def air_receiver(sim, bs: str, hop: str, deliver):
    """The handler of packets arriving over `bs`'s air link: each is lost
    unless the router is attached to `bs`, else logged at `hop` and delivered."""
    def receive(ev: Entry) -> None:
        pkt: Packet = ev[4]
        if sim.dmr_attached != bs:
            sim.drop(pkt, f"air_lost@{bs}")
            return
        log = pkt.innermost().path_log
        if log is not None:
            log.append(hop)
        deliver(pkt)
    return receive


class Node:
    """A node of the topology.  A packet addressed to it goes to the handler
    that its `signal_handlers` table holds for the packet's signal kind, where
    the `None` key takes a tunnel or data packet; any other packet is offered
    to `intercept`, then forwarded."""

    signal_handlers: dict = {}

    def __init__(self, sim, node_id: str):
        self.sim = sim
        self.node_id = node_id
        self.address = sim.topo.addresses.get(node_id)
        sim.engine.register(node_id, self.dispatch)

    def dispatch(self, ev: Entry) -> None:
        _, _, _, kind, payload = ev
        if kind == PACKET_ARRIVAL:
            log = payload.innermost().path_log
            if log is not None:
                log.append(self.node_id)
            self.on_packet(payload)
        elif kind == TIMER_EXPIRY:
            self.on_timer(payload)
        elif kind in (APP_START, APP_STOP):
            self.on_app(kind)

    def on_packet(self, pkt: Packet) -> None:
        if pkt.dst == self.address:
            handler = self.signal_handlers.get(pkt.signal)
            if handler is not None:
                handler(pkt)
        elif not self.intercept(pkt):
            self.sim.forward(self.node_id, pkt)

    def intercept(self, pkt: Packet) -> bool:
        """Take a packet in transit instead of forwarding it; True when taken."""
        return False

    def on_timer(self, token) -> None:
        pass

    def on_app(self, kind: str) -> None:
        pass


class HaNode(Node):
    """Home agent: binding cache, interception, reverse-tunnel endpoint."""

    def __init__(self, sim, node_id: str):
        super().__init__(sim, node_id)
        from .nemo_bs import HomeAgent
        agent = self.agent = HomeAgent(sim, node_id, self.address)
        self.signal_handlers = {None: agent.handle_tunneled,
                                SignalKind.BU: agent.handle_binding_update}

    def intercept(self, pkt: Packet) -> bool:
        topo = self.sim.topo
        if topo.home_prefix.matches(pkt.dst) or topo.mnp.matches(pkt.dst):
            self.agent.intercept(pkt)
            return True
        return False


class MapNode(Node):
    """Anchor point; regional bindings and fast-handover forwarding when the
    scheme uses them, a plain router otherwise."""

    def __init__(self, sim, node_id: str, with_agent: bool):
        super().__init__(sim, node_id)
        self.agent = None
        if with_agent:
            from .diff_fh import MapAgent
            agent = self.agent = MapAgent(sim, node_id, self.address)
            self.signal_handlers = {SignalKind.FBU: agent.on_fbu,
                                    SignalKind.HACK: agent.on_hack,
                                    SignalKind.LBU: agent.on_lbu,
                                    SignalKind.HI: agent.on_hi_as_new_map}
            self.intercept = agent.route_hook

    def on_timer(self, token) -> None:
        if self.agent is not None:
            self.agent.on_timer(token)


class ArNode(Node):
    """Access router: advertisements, proxied discovery, fast-handover duties,
    and the optional best-effort background source on its downlink."""

    def __init__(self, sim, node_id: str, with_nar: bool):
        super().__init__(sim, node_id)
        self.bs_id = sim.topo.bs_of_ar(node_id)
        self.prefix = sim.topo.ar_prefix[node_id]
        self.map_id = sim.topo.ar_to_map[node_id]
        self.nar = None
        self.signal_handlers = {SignalKind.RS: lambda pkt: self.send_ra(pkt.src),
                                SignalKind.RT_SOL_PR: self._proxy_advertisement,
                                SignalKind.NS: self._dad_check}
        if with_nar:
            from .diff_fh import NarAgent
            nar = self.nar = NarAgent(sim, node_id, self.address)
            self.signal_handlers.update({SignalKind.HI: nar.on_hi, SignalKind.FNA: nar.on_fna})
            self.intercept = nar.intercept
        self._bg_seq = 0

    # -- control -------------------------------------------------------------
    def ra_info(self) -> dict:
        return {"prefix": self.prefix, "map_id": self.map_id,
                "map_prefix": self.sim.topo.map_prefix[self.map_id]}

    def send_ra(self, dst) -> None:
        ra = self.sim.make_signal(SignalKind.RA, self.address, dst, info=self.ra_info())
        self.sim.send_via(self.node_id, self.bs_id, ra)

    def _proxy_advertisement(self, pkt: Packet) -> None:
        target_bs = pkt.info["target_bs"]
        nar = self.sim.topo.bs_to_ar[target_bs]
        nar_map = self.sim.topo.ar_to_map[nar]
        adv = self.sim.make_signal(
            SignalKind.PR_RT_ADV, self.address, pkt.src,
            info={"nar_prefix": self.sim.topo.ar_prefix[nar], "nar_map": nar_map,
                  "nar_map_prefix": self.sim.topo.map_prefix[nar_map]})
        self.sim.send_via(self.node_id, self.bs_id, adv)

    def _dad_check(self, pkt: Packet) -> None:
        info = pkt.info or {}
        if self.sim.dad_collides(info.get("handover", -1), info.get("attempt", 0)):
            na = self.sim.make_signal(SignalKind.NA, self.address, pkt.src, info={})
            self.sim.send_via(self.node_id, self.bs_id, na)

    def on_timer(self, token) -> None:
        if token[0] == "beacon":
            if self.sim.dmr_attached == self.bs_id:
                self.send_ra(self.sim.topo.addresses["dmr"])
            self.sim.timer(self.node_id, self.sim.config.beacon_interval_us, ("beacon",))
        elif self.nar is not None:
            self.nar.on_timer(token)

    def dispatch(self, ev: Entry) -> None:
        if ev[4] is BG_TICK:
            self._bg_tick()
        else:
            super().dispatch(ev)

    # -- background load -------------------------------------------------------
    def _bg_tick(self) -> None:
        engine = self.sim.engine
        pkt = Packet(self.address, self._bg_dst, self._bg_bytes, DATA, self._bg_seq, FLOW_BG)
        pkt.created_at = engine.now
        self._bg_seq += 1
        self._bg_queue.send(pkt)
        engine.schedule_in(self._bg_interval_us, self.node_id, TIMER_EXPIRY, BG_TICK)

    def on_app(self, kind: str) -> None:
        cfg = self.sim.config
        if kind == APP_START and cfg.background_load_bps > 0:
            self._bg_dst = self.sim.topo.addresses[self.bs_id]
            self._bg_bytes = cfg.bg_packet_bytes
            self._bg_queue = self.sim.linkqueues[(self.node_id, self.bs_id)]
            self._bg_queue.bg_station = self._bg_dst
            self._bg_interval_us = cfg.bg_interval_us
            self._bg_tick()


class BsNode(Node):
    """Base station: layer-2 relay between its wired uplink and the air link."""

    def __init__(self, sim, node_id: str):
        super().__init__(sim, node_id)
        sim.engine.register(f"{node_id}@air", air_receiver(
            sim, node_id, node_id, lambda pkt: sim.forward(node_id, pkt)))

    def intercept(self, pkt: Packet) -> bool:
        if self.sim.dmr_attached == self.node_id:
            self.sim.wireless_to_dmr(self.node_id, pkt)
        else:
            self.sim.drop(pkt, f"detached@{self.node_id}")
        return True


class CnNode(Node):
    """Correspondent: constant-bit-rate source plus, for the QoS schemes, the
    binding cache and return-routability responder."""

    def __init__(self, sim, node_id: str, with_agent: bool):
        super().__init__(sim, node_id)
        self.agent = None
        self.signal_handlers = {None: self._receive_upstream}
        if with_agent:
            from .diff_nemo import CorrespondentAgent
            agent = self.agent = CorrespondentAgent(sim, node_id, self.address)
            self.signal_handlers.update({SignalKind.HOTI: agent.on_hoti,
                                         SignalKind.COTI: agent.on_coti,
                                         SignalKind.BU: agent.on_binding_update})
        self.seq = 0
        self.upstream_received: list[Packet] = []

    def _receive_upstream(self, pkt: Packet) -> None:
        if pkt.home_addr_option is not None:
            pkt = apply_home_address_option(pkt)
        self.upstream_received.append(pkt)

    def on_app(self, kind: str) -> None:
        if kind == APP_START:
            self._cbr_tick()

    def on_timer(self, token) -> None:
        if token[0] == "cbr":
            self._cbr_tick()

    def _cbr_tick(self) -> None:
        cbr = self.sim.config.cbr
        if self.sim.now >= cbr.stop_us:
            return
        mnn = self.sim.topo.mnn_addr
        pkt = Packet(src=self.address, dst=mnn, size_bytes=cbr.packet_bytes,
                     kind=DATA, seq=self.seq, flow=FLOW_CBR,
                     created_at=self.sim.now, path_log=[self.node_id])
        binding = self.agent.lookup(mnn) if self.agent is not None else None
        if binding is not None:
            pkt.dst = binding.coa
            pkt.rh2_home_addr = mnn
        self.seq += 1
        self.sim.metrics.record_sent(pkt)
        self.sim.condition_data(self.node_id, pkt)
        self.sim.forward(self.node_id, pkt)
        if self.sim.now + cbr.interval_us < cbr.stop_us:
            self.sim.timer(self.node_id, cbr.interval_us, ("cbr",))


class MnnNode(Node):
    """Fixed node behind the mobile router; the sink of the measured flow."""

    def on_packet(self, pkt: Packet) -> None:
        if pkt.kind == DATA and pkt.flow == FLOW_CBR:
            self.sim.metrics.record_delivery(pkt, self.sim.now)

    def send_to_cn(self, size_bytes: int = 1000, seq: int = 0) -> None:
        """Inject one upstream datagram toward the correspondent."""
        pkt = Packet(src=self.address, dst=self.sim.topo.addresses["cn"],
                     size_bytes=size_bytes, kind=DATA, seq=seq, flow="up",
                     created_at=self.sim.now, path_log=[self.node_id])
        self.sim.linkqueues[("mnn", "dmr_local")].send(pkt)


class DmrNode(Node):
    """Mobile router chassis: attachment bookkeeping plus the active scheme."""

    def __init__(self, sim, node_id: str):
        super().__init__(sim, node_id)
        self.proto = None
        for bs in sim.topo.bs_to_ar:
            sim.engine.register(f"dmr@{bs}", air_receiver(sim, bs, "dmr", self.on_packet))
        sim.engine.register("dmr_local", self.dispatch_local)

    def dispatch_local(self, ev: Entry) -> None:
        # Traffic from the mobile network side.
        _, _, _, kind, payload = ev
        if kind == PACKET_ARRIVAL:
            self.proto.on_upstream(payload)

    def dispatch(self, ev: Entry) -> None:
        _, _, _, kind, payload = ev
        if kind == L2_TRIGGER:
            self.proto.on_l2_trigger(payload)
        elif kind == L2_LINK_DOWN:
            self.sim.dmr_attached = None
            self.proto.on_link_down(payload)
        elif kind == TIMER_EXPIRY and payload[0] == "l2_attach":
            plan = payload[1]
            self.sim.dmr_attached = plan.bs
            self.proto.on_link_up(plan.bs)
        else:
            super().dispatch(ev)

    def on_timer(self, token) -> None:
        self.proto.on_timer(token)

    def on_packet(self, pkt: Packet) -> None:
        self.proto.on_packet(pkt)
