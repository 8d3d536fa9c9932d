"""NEMO basic support: the binding cache and the one intercept of every
anchor (the home agent, and the regional anchors built on it), the data plane
all three mobile routers share, and the baseline mobile router.

All mobile-network traffic rides a bidirectional tunnel between the mobile
router and its home agent; handovers re-register the care-of address with a
plain binding update after movement detection and duplicate address detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import fsm
from .engine import L2_LINK_DOWN, L2_TRIGGER, MS, PACKET_ARRIVAL, SEC, Entry, SimTime
from .nodes import Node, air_receiver
from .packets import (SIGNAL, Address, Packet, Prefix, SignalKind, add_home_address_option,
                      apply_type2_routing, decapsulate, encapsulate)

# Protocol constants every scheme shares: the wait of a duplicate address
# check, the lifetime of the binding a binding update makes, and the gap
# after which a router refreshes its bindings, well inside that lifetime.
DAD_DELAY_US = 500 * MS
BINDING_LIFETIME_US = 60 * SEC
BINDING_REFRESH_US = BINDING_LIFETIME_US // 2


@dataclass
class BindingCacheEntry:
    coa: Address
    expires_at: SimTime

    def live(self, t: SimTime) -> bool:
        return t < self.expires_at


class BindingCacheAgent(Node):
    """A node with a binding cache: the anchors and the correspondent."""

    def __init__(self, sim, node_id: str):
        super().__init__(sim, node_id)
        # An address or a prefix -> its binding.
        self.cache: dict[Address | Prefix, BindingCacheEntry] = {}

    def bind(self, hoa: Address, coa: Address, mnps=(), lifetime=BINDING_LIFETIME_US) -> None:
        """Bind `hoa`, and every address under `mnps`, to `coa` for `lifetime`:
        one entry, kept under the address and under each prefix."""
        entry = BindingCacheEntry(coa, self.sim.now + lifetime)
        for key in (hoa, *mnps):
            self.cache[key] = entry

    def lookup(self, dst: Address) -> Optional[BindingCacheEntry]:
        """The live binding of `dst`: its own entry, else its prefix's.  An
        expired entry counts as unbound."""
        now = self.sim.now
        for key in (dst, dst[:2]):
            # A prefix is a (domain, site) tuple, so an address's first two fields find it.
            entry = self.cache.get(key)
            if entry is not None and entry.live(now):
                return entry
        return None


class HomeAgent(BindingCacheAgent):
    """An anchor, which tunnels a packet for an address it binds to the bound
    care-of address: the home agent (RFC 3963), and the base of every
    `MapAgent`.  `anchored` holds the prefixes it answers for, here the home
    and mobile-network prefixes.  The home agent also takes binding updates
    and is the reverse-tunnel endpoint."""

    roles = {fsm.ROLE_HA: (None, None)}

    def __init__(self, sim, node_id: str):
        super().__init__(sim, node_id)
        self.anchored = frozenset((sim.topo.home_prefix, sim.topo.mnp))
        self._no_binding = f"no_binding@{node_id}"
        self.signal_handlers = {None: self.handle_tunneled,
                                SignalKind.BU: self.handle_binding_update}

    def handle_binding_update(self, pkt: Packet) -> None:
        info = pkt.info
        self.bind(info["hoa"], info["coa"], info["mnps"])
        self.sim.send_signal(self.node_id, SignalKind.BA, self.address, info["coa"],
                             info={"coa": info["coa"]})

    def intercept(self, pkt: Packet) -> bool:
        """Tunnel a packet bound here to its care-of address; True when taken.

        Only an anchored destination is looked up by prefix, so a packet in
        transit costs one dict lookup.  An anchored destination follows its
        care-of address through the cache once (a regional binding into a
        handover's forwarding binding); a packet for a forwarded address
        itself is not followed again.  Unbound anchored traffic is dropped."""
        dst, now = pkt.dst, self.sim.now
        # A prefix is a (domain, site) tuple, so an address's first two fields find it.
        if dst[:2] in self.anchored:
            entry = self.lookup(dst)
            if entry is None:
                self.sim.drop(pkt, self._no_binding)
                return True
            coa = entry.coa
            onward = self.cache.get(coa)
            if onward is not None and onward.live(now):
                coa = onward.coa
        else:
            entry = self.cache.get(dst)
            if entry is None or not entry.live(now):
                return False
            coa = entry.coa
        self.sim.forward(self.node_id, encapsulate(pkt, self.address, coa))
        return True

    def handle_tunneled(self, pkt: Packet) -> None:
        """Reverse-tunnel endpoint: unwrap and route the original datagram."""
        inner = decapsulate(pkt)
        self.sim.forward(self.node_id, inner)


class MobileRouter(Node):
    """The mobile router node and the data plane every scheme's router
    shares: it receives over each station's air link and from the mobile
    network, and takes the layer-2 events.  A subclass names the addresses it
    answers for (`owns`), the care-of address it binds at the home agent
    (`care_of`) and the one upstream traffic leaves from (`upstream_coa`,
    None until registered), names its `roles`, and adds to
    `signal_handlers` and `timer_handlers`."""

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

    def send_home_bu(self) -> None:
        """Bind `care_of()` at the home agent: the one home binding update."""
        coa = self.care_of()
        self.sim.send_signal("dmr", SignalKind.BU, coa, self.ha,
                             info={"hoa": self.hoa, "coa": coa, "mnps": [self.mnp]})

    def _on_ba(self, pkt: Packet) -> None:
        """A home agent's acknowledgement is stale, and unexpected, unless it
        is for `care_of()`."""
        if pkt.info["coa"] == self.care_of():
            self._on_home_ba()
        else:
            self.sim.metrics.unexpected_signals += 1

    def _on_home_ba(self) -> None:
        """The home agent acknowledged `care_of()`; a subclass steps its machines."""

    def _address(self, dest: str) -> Address:
        """Where the router's machines send `fsm.DEST_AR`: the access router
        it is attached to."""
        topo = self.sim.topo
        return topo.addresses[topo.bs_to_ar[self.sim.dmr_attached]]

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
            self.sim.dmr_send(encapsulate(pkt, coa, self.ha))


class BaselineMr(MobileRouter):
    """Baseline mobile router, stepped through the `fsm.ROLE_MR` table:
    movement detection from router advertisements, duplicate address
    detection, the binding update to the home agent, and tunnel endpoint
    duties.  `prefix` is the prefix of the latest address check, and `coa`
    the last checked address; upstream traffic leaves from it only once the
    home agent has acknowledged it.  Each check takes a fresh `epoch`, which
    its timer and the refresh timers after it carry, so a timer outlived by a
    later check is ignored."""

    roles = {fsm.ROLE_MR: ("state", None)}

    def __init__(self, sim, node_id: str):
        super().__init__(sim, node_id)
        self.state = fsm.MrState.AWAIT_RA
        self.prefix: Optional[Prefix] = None
        self.coa: Optional[Address] = None
        self.node_component = 100
        self.epoch = self.handover_count = self.dad_attempt = 0
        self.signal_handlers = {SignalKind.RA: self.on_router_advertisement,
                                SignalKind.BA: self._on_ba}
        self.timer_handlers.update({"dad_done": self._on_dad_done,
                                    "bu_refresh": self._on_bu_refresh})

    def owns(self, addr: Address) -> bool:
        return addr == self.coa

    def care_of(self) -> Optional[Address]:
        return self.coa

    def upstream_coa(self) -> Optional[Address]:
        return self.coa if self.state is fsm.MrState.REGISTERED else None

    # -- layer 2 -----------------------------------------------------------
    def on_link_up(self, bs: str) -> None:
        if self.sim.config.solicited_detection():
            self.sim.send_signal("dmr", SignalKind.RS, self.coa or self.hoa,
                                 self._address(fsm.DEST_AR))

    def on_l2_trigger(self, plan) -> None:
        """Movement is detected from advertisements alone."""

    on_link_down = on_l2_trigger

    # -- movement detection / registration ----------------------------------
    def on_router_advertisement(self, pkt: Packet) -> None:
        prefix: Prefix = pkt.info["prefix"]
        if prefix == self.prefix:
            return  # the prefix under check, or the one in use
        if self.coa is not None and not prefix.matches(self.coa):
            self.handover_count += 1
        self.prefix = prefix
        self.dad_attempt = 0
        self.drive(fsm.ROLE_MR, fsm.EV_RA)

    def _on_dad_done(self, token) -> None:
        if token[1] == self.epoch:
            self.coa = self.prefix.address(self.node_component)
            self.drive(fsm.ROLE_MR, fsm.EV_DAD_OK)

    def _on_bu_refresh(self, token) -> None:
        if token[1] == self.epoch:
            self.drive(fsm.ROLE_MR, fsm.EV_BU_REFRESH)

    def _on_home_ba(self) -> None:
        self.drive(fsm.ROLE_MR, fsm.EV_BA_HA)

    def _perform(self, action, record: Optional[dict]) -> None:
        sim = self.sim
        match action:
            case fsm.Do("next_address"):
                # The tentative address is in use: check the next one.
                self.dad_attempt += 1
                self.node_component += 1
            case fsm.Emit(SignalKind.NS, dest):
                tentative = self.prefix.address(self.node_component)
                sim.send_signal("dmr", SignalKind.NS, tentative, self._address(dest),
                                info={"handover": self.handover_count, "attempt": self.dad_attempt})
            case fsm.StartTimer("dad_done"):
                self.epoch += 1
                sim.timer("dmr", DAD_DELAY_US, ("dad_done", self.epoch, self.prefix))
            case fsm.Emit(SignalKind.BU):
                self.send_home_bu()
            case fsm.StartTimer("bu_refresh"):
                sim.timer("dmr", BINDING_REFRESH_US, ("bu_refresh", self.epoch))
