"""NEMO basic support: home-agent interception, the data plane all three
mobile routers share, and the baseline mobile router.

All mobile-network traffic rides a bidirectional tunnel between the mobile
router and its home agent; handovers re-register the care-of address with a
plain binding update after movement detection and duplicate address detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .engine import L2_LINK_DOWN, L2_TRIGGER, MS, PACKET_ARRIVAL, SEC, Entry, SimTime
from .nodes import Node, air_receiver
from .packets import (SIGNAL, Address, Packet, Prefix, SignalKind, add_home_address_option,
                      apply_type2_routing, decapsulate, encapsulate)

# Protocol constants every scheme shares: the wait of a duplicate address
# check and the lifetime a binding update asks for.
DAD_DELAY_US = 500 * MS
BINDING_LIFETIME_US = 60 * SEC


@dataclass
class BindingCacheEntry:
    hoa: Address
    coa: Address
    mnps: list[Prefix]
    expires_at: SimTime

    def live(self, t: SimTime) -> bool:
        return t < self.expires_at

    def covers(self, dst: Address) -> bool:
        return dst == self.hoa or any(p.matches(dst) for p in self.mnps)


class BindingCacheAgent(Node):
    """A node with a binding cache: the home agent and the correspondent."""

    def __init__(self, sim, node_id: str):
        super().__init__(sim, node_id)
        self.cache: dict[Address, BindingCacheEntry] = {}

    def bind(self, info: dict) -> None:
        """Cache the binding a BU's `info` carries, for its lifetime or `BINDING_LIFETIME_US`."""
        self.cache[info["hoa"]] = BindingCacheEntry(
            hoa=info["hoa"], coa=info["coa"], mnps=list(info["mnps"]),
            expires_at=self.sim.now + info.get("lifetime", BINDING_LIFETIME_US))

    def lookup(self, dst: Address) -> Optional[BindingCacheEntry]:
        for entry in self.cache.values():
            if entry.covers(dst) and entry.live(self.sim.now):
                return entry
        return None


class HomeAgent(BindingCacheAgent):
    """Binding cache, interception for the mobile network, and reverse-tunnel endpoint."""

    def __init__(self, sim, node_id: str):
        super().__init__(sim, node_id)
        self.signal_handlers = {None: self.handle_tunneled,
                                SignalKind.BU: self.handle_binding_update}

    def handle_binding_update(self, pkt: Packet) -> None:
        info = pkt.info
        self.bind(info)
        self.sim.send_signal(self.node_id, SignalKind.BA, self.address, info["coa"],
                             info={"hoa": info["hoa"], "coa": info["coa"]})

    def intercept(self, pkt: Packet) -> bool:
        """Tunnel home-network traffic to the registered care-of address."""
        topo = self.sim.topo
        if not (topo.home_prefix.matches(pkt.dst) or topo.mnp.matches(pkt.dst)):
            return False
        entry = self.lookup(pkt.dst)
        if entry is None:
            self.sim.drop(pkt, f"no_binding@{self.node_id}")
        else:
            self.sim.forward(self.node_id, encapsulate(pkt, self.address, entry.coa, dscp=pkt.dscp))
        return True

    def handle_tunneled(self, pkt: Packet) -> None:
        """Reverse-tunnel endpoint: unwrap and route the original datagram."""
        inner = decapsulate(pkt)
        self.sim.forward(self.node_id, inner)


class MobileRouter(Node):
    """The mobile router node and the data plane every scheme's router
    shares: it receives over each station's air link and from the mobile
    network, and takes the layer-2 events.  A subclass names the addresses it
    answers for (`owns`) and the care-of address upstream traffic leaves from
    (`upstream_coa`, None until registered), fills `signal_handlers` and adds
    to `timer_handlers`."""

    def __init__(self, sim, node_id: str):
        super().__init__(sim, node_id)
        topo = sim.topo
        self.hoa, self.mnp, self.ha = topo.hoa, topo.mnp, topo.addresses["ha"]
        # The care-of address the correspondent acknowledged: it accepts a
        # home address option only from the address it holds a binding for.
        self.cn_bound_coa: Optional[Address] = None
        self.timer_handlers = {"l2_attach": self._on_l2_attach}
        for bs in topo.bs_to_ar:
            sim.engine.register(f"dmr@{bs}", air_receiver(sim, bs, "dmr", self.on_packet))
        sim.engine.register("dmr_local", self.dispatch_local)

    def dispatch(self, ev: Entry) -> None:
        _, _, _, kind, payload = ev
        if kind == L2_TRIGGER:
            self.on_l2_trigger(payload)
        elif kind == L2_LINK_DOWN:
            self.sim.dmr_attached = None
            self.on_link_down(payload)
        else:
            super().dispatch(ev)

    def dispatch_local(self, ev: Entry) -> None:
        # Traffic from the mobile network side.
        _, _, _, kind, payload = ev
        if kind == PACKET_ARRIVAL:
            self.on_upstream(payload)

    def _on_l2_attach(self, token) -> None:
        bs = token[1].bs
        self.sim.dmr_attached = bs
        self.on_link_up(bs)

    def owns(self, addr: Address) -> bool:
        raise NotImplementedError

    def upstream_coa(self) -> Optional[Address]:
        raise NotImplementedError

    def on_signal(self, pkt: Packet) -> None:
        handler = self.signal_handlers.get(pkt.signal)
        if handler is not None:
            handler(pkt)

    def on_packet(self, pkt: Packet) -> None:
        """Unwrap the tunnels and the type 2 routing header addressed to this
        router, then take a signal or pass a datagram into the mobile network."""
        while pkt.inner is not None and self.owns(pkt.dst):
            pkt = decapsulate(pkt)
        if pkt.rh2_home_addr is not None and self.owns(pkt.dst):
            pkt = apply_type2_routing(pkt)
        if pkt.kind == SIGNAL:
            self.on_signal(pkt)
        elif self.mnp.matches(pkt.dst) and pkt.dst != self.hoa:
            self.sim.send_to_mnn(pkt)
        else:
            self.sim.drop(pkt, "dmr_unhandled")

    def on_upstream(self, pkt: Packet) -> None:
        """Traffic from a mobile network node: straight to the correspondent
        with a home address option once it has bound the care-of address,
        reverse-tunnelled home before that."""
        coa = self.upstream_coa()
        if coa is None:
            self.sim.drop(pkt, "mr_not_registered")
        elif coa == self.cn_bound_coa:
            out = add_home_address_option(pkt, coa)
            self.sim.condition_data("dmr", out)
            self.sim.dmr_send(out)
        else:
            self.sim.dmr_send(encapsulate(pkt, coa, self.ha, dscp=pkt.dscp))


@dataclass
class MrState:
    coa: Optional[Address] = None
    current_prefix: Optional[Prefix] = None
    attached_bs: Optional[str] = None
    dad_pending: bool = False
    registered: bool = False
    node_component: int = 100
    epoch: int = 0


class BaselineMr(MobileRouter):
    """Baseline mobile-router protocol: RA-driven movement detection, DAD,
    binding update to the home agent, and tunnel endpoint duties."""

    def __init__(self, sim, node_id: str):
        super().__init__(sim, node_id)
        self.state = MrState()
        self.handover_count = 0
        self.dad_attempt = 0
        self._dad_prefix: Optional[Prefix] = None
        self.signal_handlers = {SignalKind.RA: self.on_router_advertisement,
                                SignalKind.NA: self.on_neighbor_advertisement,
                                SignalKind.BA: self._on_ba}
        self.timer_handlers.update({"dad_done": self._on_dad_done,
                                    "bu_refresh": self._on_bu_refresh})

    def owns(self, addr: Address) -> bool:
        return addr == self.state.coa

    def upstream_coa(self) -> Optional[Address]:
        return self.state.coa if self.state.registered else None

    # -- layer 2 -----------------------------------------------------------
    def on_link_up(self, bs: str) -> None:
        self.state.attached_bs = bs
        if self.sim.config.solicited_detection():
            ar = self.sim.topo.bs_to_ar[bs]
            self.sim.send_signal("dmr", SignalKind.RS, self.state.coa or self.hoa,
                                 self.sim.topo.addresses[ar])

    def on_link_down(self, plan) -> None:
        self.state.attached_bs = None

    def on_l2_trigger(self, plan) -> None:
        pass

    # -- movement detection / registration ----------------------------------
    def on_router_advertisement(self, pkt: Packet) -> None:
        prefix: Prefix = pkt.info["prefix"]
        if self.state.dad_pending:
            if prefix == self._dad_prefix:
                return
        elif prefix == self.state.current_prefix:
            return
        if self.state.current_prefix is not None and prefix != self.state.current_prefix:
            self.handover_count += 1
        self.dad_attempt = 0
        self.start_dad(prefix)

    def start_dad(self, prefix: Prefix) -> None:
        self.state.dad_pending = True
        self._dad_prefix = prefix
        self.state.epoch += 1
        tentative = prefix.address(self.state.node_component)
        ar = self.sim.topo.bs_to_ar[self.state.attached_bs]
        self.sim.send_signal("dmr", SignalKind.NS, tentative, self.sim.topo.addresses[ar],
                             info={"tentative": tentative, "handover": self.handover_count,
                                   "attempt": self.dad_attempt})
        self.sim.timer("dmr", DAD_DELAY_US, ("dad_done", self.state.epoch, prefix))

    def on_neighbor_advertisement(self, pkt: Packet) -> None:
        # Tentative address in use: retry with the next node component.
        if not self.state.dad_pending:
            return
        self.dad_attempt += 1
        self.state.node_component += 1
        self.start_dad(self._dad_prefix)

    def _on_dad_done(self, token) -> None:
        _, epoch, prefix = token
        if epoch != self.state.epoch or not self.state.dad_pending:
            return
        self.state.dad_pending = False
        self.state.coa = prefix.address(self.state.node_component)
        self.state.current_prefix = prefix
        self.dad_attempt = 0
        self.send_binding_update()

    def _on_bu_refresh(self, token) -> None:
        if token[1] == self.state.epoch and self.state.coa is not None:
            self.send_binding_update()

    def send_binding_update(self) -> None:
        st = self.state
        self.sim.send_signal("dmr", SignalKind.BU, st.coa, self.ha,
                             info={"hoa": self.hoa, "coa": st.coa, "mnps": [self.mnp],
                                   "lifetime": BINDING_LIFETIME_US})
        self.sim.timer("dmr", self.sim.config.binding_refresh_us,
                       ("bu_refresh", st.epoch))

    def _on_ba(self, pkt: Packet) -> None:
        self.state.registered = True
