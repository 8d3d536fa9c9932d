"""The `Node` base and the nodes every scheme shares: routers, access routers,
stations and the mobile network node."""

from __future__ import annotations

import dataclasses
from typing import Optional

from . import fsm
from .engine import APP_START, APP_STOP, MS, PACKET_ARRIVAL, TIMER_EXPIRY, Entry
from .metrics import FLOW_BG, FLOW_CBR
from .packets import DATA, Address, Packet, SignalKind
from .scenario import BG_PACKET_BYTES

# Payload of every background tick; `ArNode.dispatch` tests it by identity.
BG_TICK = ("bg",)
# The new access router's check of a pre-configured address in a fast handover.
DAD_FAST_US = 100 * MS


def air_receiver(sim, bs: str, hop: str, deliver):
    """The handler of packets arriving over `bs`'s air link: each is lost
    unless the router is attached to `bs`, else logged at `hop` and delivered."""
    lost = f"air_lost@{bs}"
    def arrive(ev: Entry) -> None:
        pkt: Packet = ev[4]
        if sim.dmr_attached != bs:
            sim.drop(pkt, lost)
            return
        log = pkt.path_log
        if log is not None:
            log.append(hop)
        deliver(pkt)
    return arrive


class Node:
    """A node of the topology.  A signal addressed to it goes to `on_signal`,
    a tunnel or data packet to the handler under the `None` key of its
    `signal_handlers` table; any other packet is offered to `intercept`, then
    forwarded.  A timer goes to the handler that its `timer_handlers` table
    holds for the token's first item, called with the whole token.  A
    protocol agent steps its `fsm` machines through `drive`, which hands each
    action the handover record of the role that emitted it."""

    # signal kind -> its handler.  For a kind that `fsm.RECEIVE` gives one of
    # the node's roles, the handler is the bookkeeping before the step, and
    # returns the event's flags, or None to take the signal with no step.  A
    # subclass that extends the table copies it, since this one is shared.
    signal_handlers: dict = {}
    timer_handlers: dict = {}
    # Each role the node plays (`fsm.ROLE_*`): role -> (the attribute holding
    # its machine's state, the one holding its handover record, a dict),
    # either None where there is none.
    roles: dict = {}

    def __init__(self, sim, node_id: str):
        self.sim = sim
        self.node_id = node_id
        self.address = sim.topo.addresses.get(node_id)
        sim.engine.register(node_id, self.dispatch)

    def dispatch(self, ev: Entry) -> None:
        _, _, _, kind, payload = ev
        if kind == PACKET_ARRIVAL:
            log = payload.path_log
            if log is not None:
                log.append(self.node_id)
            self.on_packet(payload)
        elif kind == TIMER_EXPIRY:
            self.on_timer(payload)
        elif kind in (APP_START, APP_STOP):
            self.on_app(kind)

    def on_packet(self, pkt: Packet) -> None:
        if pkt.dst != self.address:
            if not self.intercept(pkt):
                self.sim.forward(self.node_id, pkt)
        elif pkt.signal is not None:
            self.on_signal(pkt)
        else:
            handler = self.signal_handlers.get(None)
            if handler is not None:
                handler(pkt)

    def on_signal(self, pkt: Packet) -> None:
        """Take a signal: step the machine that `fsm.RECEIVE` gives it among
        the node's roles, else pass it to the kind's handler, else count it
        as unexpected.  Before a step, the role keeps the handover record a
        signal that opens a handover carries, the kind's handler runs, and
        the event reads its `macro` flag from the role's record and the
        others from the handler."""
        handler = self.signal_handlers.get(pkt.signal)
        for role, (_, context) in self.roles.items():
            if (pkt.signal, role) not in fsm.RECEIVE:
                continue
            kind = fsm.received_event(role, pkt)
            if kind is not None:
                if kind in fsm.OPENS:
                    setattr(self, context, pkt.info)
                flags = handler(pkt) if handler else {}
                if flags is not None:
                    ctx = getattr(self, context) if context else None
                    if ctx:
                        flags = {"macro": ctx["macro"], **flags}
                    self.drive(role, kind, **flags)
            return
        if handler is not None:
            handler(pkt)
        else:
            self.sim.metrics.unexpected_signals += 1

    def intercept(self, pkt: Packet) -> bool:
        """Take a packet in transit instead of forwarding it; True when taken."""
        return False

    def _resolve(self, value) -> Address:
        """The address of `value`, which names a node or is an address: a
        handover record holds both."""
        return self.sim.topo.addresses.get(value, value)

    def on_timer(self, token) -> None:
        handler = self.timer_handlers.get(token[0])
        if handler is not None:
            handler(token)

    def on_app(self, kind: str) -> None:
        pass

    def drive(self, role: str, kind: str, **flags) -> None:
        """Step the node's `role` machine with a `kind` event carrying
        `flags`.  The new state is stored first; each `Unexpected` is
        counted, every other action goes to `self._perform` with the role's
        handover record (None for a role that keeps none), whose fields
        name the destinations of its `Emit`s."""
        attr, context = self.roles[role]
        state, actions = fsm.fsm_step(role, getattr(self, attr), fsm.FsmEvent(kind, **flags))
        setattr(self, attr, state)
        record = getattr(self, context) if context else None
        for action in actions:
            if isinstance(action, fsm.Unexpected):
                self.sim.metrics.unexpected_signals += 1
            else:
                self._perform(action, record)


class ArNode(Node):
    """Access router: advertisements, proxied discovery, duplicate address
    checks, and the optional best-effort background source on its downlink.
    The background sources of all access routers tick at the same instants,
    as lanes of one batch (see `Engine`), in the order they started: one
    heap entry per instant, the first router's, runs every later router's
    tick inside it unless an event falls due between two ticks, and each
    tick keeps the insertion number, and in a traced run the trace line,
    that its own event would have had.  As the new access router of a fast
    handover it also verifies the pre-configured address, anchors the
    forwarding tunnel, and buffers until the router announces itself; those
    duties lie idle until an HI or an FNA arrives, which only the fast
    scheme sends."""

    roles = {fsm.ROLE_NAR: ("state", "ctx")}

    def __init__(self, sim, node_id: str):
        super().__init__(sim, node_id)
        self.bs_id = sim.topo.bs_of_ar(node_id)
        self.prefix = sim.topo.ar_prefix[node_id]
        self.map_id = sim.topo.ar_to_map[node_id]
        self.signal_handlers = {SignalKind.RS: lambda pkt: self.send_ra(pkt.src),
                                SignalKind.RT_SOL_PR: self._proxy_advertisement,
                                SignalKind.NS: self._dad_check,
                                SignalKind.FNA: self.on_fna}
        self.timer_handlers = {"beacon": self._beacon,
                               "nar_dad": lambda token: self.drive(fsm.ROLE_NAR, fsm.EV_DAD_OK)}
        self._bg_seq = 0
        self._bg_packet: Optional[Packet] = None
        self._bg_suffix: Optional[str] = None
        self.state: fsm.NarState = fsm.NarState.IDLE
        self.ctx: Optional[dict] = None      # the handover record of the HI or the FNA's FBU
        self.fbu: Optional[Packet] = None    # the FBU the last FNA carried
        self.buffer: list[Packet] = []
        self._overflow = f"nar_overflow@{node_id}"

    # -- control -------------------------------------------------------------
    def ra_info(self) -> dict:
        return {"prefix": self.prefix, "map_id": self.map_id,
                "map_prefix": self.sim.topo.map_prefix[self.map_id]}

    def send_ra(self, dst) -> None:
        self.sim.send_signal(self.node_id, SignalKind.RA, self.address, dst,
                             info=self.ra_info(), via=self.bs_id)

    def _proxy_advertisement(self, pkt: Packet) -> None:
        """Answer a proxy solicitation with the target access router's advertisement."""
        nar = self.sim.topo.bs_to_ar[pkt.info["target_bs"]]
        self.sim.send_signal(self.node_id, SignalKind.PR_RT_ADV, self.address, pkt.src,
                             info=self.sim.nodes[nar].ra_info(), via=self.bs_id)

    def _dad_check(self, pkt: Packet) -> None:
        info = pkt.info or {}
        if self.sim.dad_collides(info.get("handover", -1), info.get("attempt", 0)):
            self.sim.send_signal(self.node_id, SignalKind.NA, self.address, pkt.src,
                                 via=self.bs_id)

    def _beacon(self, token) -> None:
        if self.sim.dmr_attached == self.bs_id:
            self.send_ra(self.sim.topo.addresses["dmr"])
        self.sim.timer(self.node_id, self.sim.config.beacon_interval_us, ("beacon",))

    # -- new access router of a fast handover -------------------------------
    def on_fna(self, pkt: Packet) -> dict:
        """Keep the binding update an FNA carries; with no HI, its handover
        record opens the handover."""
        self.fbu = pkt.inner
        if self.fbu is None:
            return {}
        record = pkt.info
        if self.ctx is None:
            self.ctx = record
        return {"collision": self.sim.dad_collides(record["handover"], record["attempt"])}

    def _perform(self, action, record: dict) -> None:
        sim = self.sim
        match action:
            case fsm.StartTimer():
                sim.timer(self.node_id, DAD_FAST_US, ("nar_dad",))
            case fsm.Do("flush_buffer"):
                for buffered in self.buffer:
                    sim.forward(self.node_id, buffered)
                self.buffer.clear()
            case fsm.Do("forward_fbu"):
                relayed = dataclasses.replace(self.fbu, info={**self.fbu.info,
                                                              "relayed_by_nar": True})
                sim.forward(self.node_id, relayed)
            case fsm.Emit(SignalKind.NAACK, dest):
                nlcoa = self._resolve(record[dest])
                alternative = Address(nlcoa.domain, nlcoa.site, nlcoa.node + 1)
                sim.send_signal(self.node_id, SignalKind.NAACK, self.address, nlcoa,
                                info={"alternative": alternative})
            case fsm.Emit(kind, dest):
                # The HI relayed to the new anchor, the HAck to the old
                # anchor, and the NS of its check, which goes to its station,
                # where nothing takes it (ROADMAP item 1).
                info = {SignalKind.HI: record, SignalKind.HACK: {"from_role": "nar"}}.get(kind)
                to = self.bs_id if dest == fsm.DEST_STATION else record[dest]
                sim.send_signal(self.node_id, kind, self.address, self._resolve(to), info=info)

    def intercept(self, pkt: Packet) -> bool:
        """Hold packets for the pre-configured address until the flush."""
        if self.ctx is None or pkt.dst != self.ctx["nlcoa"]:
            return False
        if self.state in (fsm.NarState.DAD_RUNNING, fsm.NarState.TUNNEL_UP_BUFFERING):
            self.buffer.append(pkt)
            if len(self.buffer) > self.sim.config.nar_buffer_capacity:
                oldest = self.buffer.pop(0)
                self.sim.drop(oldest, self._overflow)
            return True
        return False

    # -- background load -------------------------------------------------------
    def dispatch(self, ev: Entry) -> None:
        if ev[4] is not BG_TICK:
            super().dispatch(ev)
            return
        # A background tick is handled here rather than in a method of its
        # own, to save a call per tick.  It runs this router's lane, then the
        # later lanes inside this event while `run_reserved` lets it.
        engine = self._bg_engine
        self._bg_queue.send(self._bg_packet or self._bg_numbered())
        # Each lane takes its next tick's insertion number here, where its
        # own timer would be scheduled, so every other event keeps its number.
        if self._bg_lead:
            engine.schedule_in(self._bg_interval_us, self.node_id, TIMER_EXPIRY, BG_TICK)
        else:
            self._bg_next = engine.reserve_seq()
        for lane in self._bg_later:
            if not engine.run_reserved(lane._bg_next, lane.node_id, TIMER_EXPIRY, BG_TICK):
                return
            lane._bg_queue.send(lane._bg_packet or lane._bg_numbered())
            lane._bg_next = engine.reserve_seq()

    def _bg_numbered(self) -> Packet:
        """A traced tick's packet: the trace numbers each one, so each tick
        builds its own, every field up to `created_at` by position (a
        keyword argument costs about half as much again as the whole
        positional call).  Its text is its number and this router's suffix,
        which the first packet's `Packet.trace_str` gives."""
        seq = self._bg_seq
        self._bg_seq = seq + 1
        pkt = Packet(self.address, self._bg_dst, BG_PACKET_BYTES, DATA, seq,
                     FLOW_BG, 0, None, None, None, None, self._bg_engine.now)
        if self._bg_suffix is None:
            self._bg_suffix = pkt.trace_str().removeprefix(f"seq{seq}")
        else:
            pkt._trace_text = f"seq{seq}{self._bg_suffix}"
        return pkt

    def on_app(self, kind: str) -> None:
        cfg = self.sim.config
        if kind == APP_START and cfg.background_load_bps > 0:
            engine = self._bg_engine = self.sim.engine
            self._bg_dst = self.sim.topo.addresses[self.bs_id]
            self._bg_queue = self.sim.linkqueues[(self.node_id, self.bs_id)]
            self._bg_queue.bg_station = self._bg_dst
            self._bg_interval_us = cfg.bg_interval_us
            # Untraced, one packet serves every tick: its arrival is never
            # scheduled (`LinkQueue.bg_station`), and admission, the link and
            # a drop read only fields that every tick's packet shares.
            if engine.trace is None:
                self._bg_packet = Packet(self.address, self._bg_dst, BG_PACKET_BYTES,
                                         DATA, 0, FLOW_BG, created_at=engine.now)
            # The lanes, in the order their starts run: every start is a boot
            # event at 0, so every router ticks at the same instants.  The
            # first keeps the batch's heap entry; each later one joins the
            # batch of every lane before it.
            lanes = self.sim.bg_lanes
            self._bg_lead = not lanes
            self._bg_later = []
            for lane in lanes:
                lane._bg_later.append(self)
            lanes.append(self)
            # The first tick runs inside the start event, as if its timer
            # fired now.
            self.dispatch((engine.now, engine.now_seq, self.node_id, TIMER_EXPIRY, BG_TICK))


class BsNode(Node):
    """Base station: layer-2 relay between its wired uplink and the air link."""

    roles = {fsm.ROLE_BS: (None, None)}

    def __init__(self, sim, node_id: str):
        super().__init__(sim, node_id)
        self._detached = f"detached@{node_id}"
        sim.engine.register(f"{node_id}@air", air_receiver(
            sim, node_id, node_id, lambda pkt: sim.forward(node_id, pkt)))

    def intercept(self, pkt: Packet) -> bool:
        if self.sim.dmr_attached == self.node_id:
            self.sim.wireless_to_dmr(self.node_id, pkt)
        else:
            self.sim.drop(pkt, self._detached)
        return True


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
