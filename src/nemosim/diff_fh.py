"""Fast hierarchical scheme: anchor-point local bindings, anticipatory address
configuration, and forwarding tunnels into the new access router, which
buffers until the mobile router announces itself on the new link.

Every scheme runs its anchors as `MapAgent` and its access routers as
`nodes.ArNode`; their fast-handover duties stay idle until the mobile router
of this scheme, `FhDmr`, signals them.  The signal choreography lives in the
pure machines of `fsm`, and `fsm.RECEIVE` says which machine each received
signal steps.  `Node.on_signal` and `Node.drive` step them, and each agent's
`_perform` carries the emitted actions out against the topology and the
mutable state (bindings, buffers, pending addresses).  One record, a dict,
describes a handover in all four roles: the mobile router keeps it as
`FhDmr.ctx`, each FBU and FNA carries a copy, and the anchors and the new
access router keep the copy that opened the handover there."""

from __future__ import annotations

from typing import Optional

from . import fsm
from .engine import MS
from .diff_nemo import ReturnRoutability
from .fsm import ROLE_DMR, ROLE_MAP, ROLE_NEW_MAP, DmrState, MapState, NewMapState
from .nemo_bs import BINDING_REFRESH_US, DAD_DELAY_US, HomeAgent
from .packets import Address, Packet, Prefix, SignalKind, encapsulate

# The scheme's timings: the address check at the new anchor (the new access
# router's is `nodes.DAD_FAST_US`), and the mobile router's fast and local
# binding update timers.
DAD_RCOA_US = 180 * MS
FBU_DELAY_US = 40 * MS
FBU_RETX_US = 60 * MS
LBU_GAP_US = 1 * MS
# The mobile router's ("fh", name, epoch) timers: name -> (delay, the event it fires).
FH_TIMERS = {"fbu_delay": (FBU_DELAY_US, fsm.EV_FBU_TIMER),
             "lbu_gap": (LBU_GAP_US, fsm.EV_LBU_TIMER),
             "fbu_retx": (FBU_RETX_US, fsm.EV_FBU_RETX_TIMER)}


class MapAgent(HomeAgent):
    """Anchor point: a home agent for its own prefix (RFC 5380's local home
    agent).  An LBU binds the regional care-of address to the on-link one; a
    fast handover binds the previous on-link address to the next until it
    ends, for a binding's lifetime at most.  Only the fast scheme forms an
    anchored address.  As the new anchor of a macro move it checks the
    regional address."""

    roles = {ROLE_MAP: ("fh_state", "fh_ctx"), ROLE_NEW_MAP: ("newmap_state", "newmap_pending")}

    def __init__(self, sim, node_id: str):
        super().__init__(sim, node_id)
        self.anchored = frozenset((sim.topo.map_prefix[node_id],))
        self.signal_handlers = {**self.signal_handlers, SignalKind.FBU: self.on_fbu,
                                SignalKind.LBU: self.on_lbu}
        self.timer_handlers = {"rcoa_dad": lambda token: self.drive(ROLE_NEW_MAP, fsm.EV_DAD_OK)}
        self.fh_state: MapState = MapState.IDLE
        self.fh_ctx: Optional[dict] = None           # the FBU's handover record
        self.newmap_state: NewMapState = NewMapState.IDLE
        self.newmap_pending: Optional[dict] = None   # the relayed HI's handover record

    # -- signals -------------------------------------------------------------
    def on_fbu(self, pkt: Packet) -> dict:
        """An FBU for another next address opens a new handover, which ends
        the forwarding of the one it replaces."""
        info = pkt.info
        if self.fh_ctx is None or self.fh_ctx["nlcoa"] != info["nlcoa"]:
            if self.fh_state is MapState.FORWARDING:
                self.cache.pop(self.fh_ctx["plcoa"], None)
            self.fh_ctx = info
            self.fh_state = MapState.IDLE
        return {}

    def on_lbu(self, pkt: Packet) -> Optional[dict]:
        """Bind the regional address; a teardown, or a binding here that
        follows a handover, cuts the handover's forwarding."""
        info = pkt.info
        if info.get("teardown"):
            self.cache.pop(info["old_rcoa"], None)
            return {}
        self.bind(info["rcoa"], info["lcoa"])
        self.sim.send_signal(self.node_id, SignalKind.LBACK, self.address, info["lcoa"])
        old_map = info.get("old_map")
        if old_map and old_map != self.node_id:
            # Registration with a new anchor tears the forwarding tunnel at
            # the previous one.
            self.sim.send_signal(self.node_id, SignalKind.LBU, self.address,
                                 self.sim.topo.addresses[old_map],
                                 info={"teardown": True, "old_rcoa": info["old_rcoa"]})
            return None
        return None if self.fh_ctx is None else {}

    def _perform(self, action, record: dict) -> None:
        match action:
            case fsm.Do("install_forwarding"):
                self.bind(record["plcoa"], record["nlcoa"])
            case fsm.Do("remove_forwarding"):
                self.cache.pop(record["plcoa"], None)
                self.fh_ctx = None
            # The new-anchor machine verifies the regional address.
            case fsm.StartTimer():
                self.sim.timer(self.node_id, DAD_RCOA_US, ("rcoa_dad",))
            case fsm.Emit(kind, dest):
                # The HI to the new access router and the FBacks, then the
                # new anchor's HAcks to the previous anchor and the new
                # access router.
                info = {SignalKind.HI: record, SignalKind.HACK: {"from_role": "new_map"}}.get(kind)
                self.sim.send_signal(self.node_id, kind, self.address, self._resolve(record[dest]),
                                     info=info)


class FhDmr(ReturnRoutability):
    """Mobile-router side of the fast hierarchical scheme.  The home agent
    binds the regional care-of address, so return routability runs from it.

    `ctx` is the record of the open handover, None between handovers: the
    fields its machine's destinations name (`fsm.DEST_*`), `macro`, the next
    regional address `nrcoa`, the new station `new_bs`, the handover's index
    and address attempt, and the router's progress (`fbu_sent`, `fback`).
    Each FBU, and the FNA around it, carries a copy."""

    RR_TIMER = "fh_rr_timeout"
    roles = {ROLE_DMR: ("fsm_state", "ctx"), **ReturnRoutability.roles}

    def __init__(self, sim, node_id: str):
        super().__init__(sim, node_id)
        self.node_component = 100
        self.lcoa: Optional[Address] = None
        self.rcoa: Optional[Address] = None
        self.prev_lcoa: Optional[Address] = None
        self.prev_rcoa: Optional[Address] = None
        self.serving_map: Optional[str] = None
        self.fsm_state: DmrState = DmrState.IDLE
        self.ctx: Optional[dict] = None
        self.epoch = 0
        # No machine of this router takes an NA, so one counts as unexpected.
        # None comes: its first check's NS names no handover, and a collision
        # of a handover is answered at the FNA, with a NAACK.
        self.signal_handlers = {**self.signal_handlers,
                                SignalKind.RA: self.on_router_advertisement,
                                SignalKind.BA: self._on_ba,
                                SignalKind.PR_RT_ADV: self.handle_prrtadv,
                                SignalKind.FBACK: self._note_fback,
                                SignalKind.NAACK: self._on_naack,
                                SignalKind.LBACK: self._on_lback}
        self.timer_handlers.update({"fh": self._on_fh_timer, "initial_dad": self._on_initial_dad,
                                    "reg_refresh": self._on_reg_refresh})

    # -- address bookkeeping -------------------------------------------------
    def owns(self, addr: Address) -> bool:
        # A handover's next addresses become `lcoa` (at attachment) and
        # `rcoa` (as the LBU leaves) before anything sent to them arrives.
        return addr in (self.hoa, self.lcoa, self.rcoa, self.prev_lcoa, self.prev_rcoa)

    def care_of(self) -> Optional[Address]:
        return self.rcoa

    upstream_coa = care_of

    # -- layer 2 -------------------------------------------------------------
    def on_l2_trigger(self, plan) -> None:
        if self.lcoa is None:
            return
        bs_to_ar = self.sim.topo.bs_to_ar
        self._open_handover(plan, oar=bs_to_ar[plan.old_bs], nar=bs_to_ar[plan.new_bs],
                            new_bs=plan.new_bs)
        self.drive(ROLE_DMR, fsm.EV_L2_TRIGGER)

    def on_link_down(self, plan) -> None:
        if self.lcoa is None:
            return
        if self.ctx is None:
            self._open_handover(plan)
        self.drive(ROLE_DMR, fsm.EV_L2_DOWN)

    def _open_handover(self, plan, oar=None, nar=None, new_bs=None) -> None:
        """Open the record of `plan`'s handover; a trigger names the stations."""
        self.ctx = {"oar": oar, "nar": nar, "old_map": self.serving_map, "new_map": None,
                    "plcoa": self.lcoa, "nlcoa": None, "macro": False, "nrcoa": None,
                    "new_bs": new_bs, "handover": plan.handover_index, "attempt": 0,
                    "fbu_sent": False, "fback": False}

    def on_link_up(self, bs: str) -> None:
        self.epoch += 1
        ctx = self.ctx
        if self.lcoa is None and ctx is None:
            # A first attachment, or a new one during its address check: discover
            # the access router and anchor point afresh.
            self.serving_map = None
            self.sim.send_signal("dmr", SignalKind.RS, self.hoa, self._address(fsm.DEST_AR))
            return
        if ctx is None:
            return
        ctx["nar"] = self.sim.topo.bs_to_ar[bs]
        ncoa_known = ctx["nlcoa"] is not None
        if ncoa_known:
            self._promote_lcoa()
        self.drive(ROLE_DMR, fsm.EV_ATTACH_DONE, ncoa_known=ncoa_known, fbu_sent=ctx["fbu_sent"])

    def _promote_lcoa(self) -> None:
        self.prev_lcoa = self.lcoa
        self.lcoa = self.ctx["nlcoa"]

    # -- machine interpretation ------------------------------------------------
    def _perform(self, action, ctx: Optional[dict]) -> None:
        sim = self.sim
        match action:
            case fsm.Emit(SignalKind.RT_SOL_PR, dest):
                sim.send_signal("dmr", SignalKind.RT_SOL_PR, self.lcoa, self._resolve(ctx[dest]),
                                info={"target_bs": ctx["new_bs"]})
            case fsm.Emit(SignalKind.FBU, dest):
                ctx["fbu_sent"] = True
                sim.send_signal("dmr", SignalKind.FBU, self.lcoa, self._resolve(ctx[dest]),
                                info=dict(ctx))
            case fsm.Emit(SignalKind.RS | SignalKind.FNA as kind, dest):
                sim.send_signal("dmr", kind, self.lcoa, self._resolve(ctx[dest]))
            case fsm.Emit(SignalKind.LBU):
                old_rcoa = self.rcoa
                if ctx["macro"]:
                    self.prev_rcoa, self.rcoa = self.rcoa, ctx["nrcoa"]
                    self.serving_map = ctx["new_map"]
                self._send_lbu_to_serving_map(ctx["old_map"], old_rcoa)
            case fsm.StartTimer(name) if name in FH_TIMERS:
                sim.timer("dmr", FH_TIMERS[name][0], ("fh", name, self.epoch))
            case fsm.Do("send_fna_with_fbu"):
                ctx["fbu_sent"] = True
                fbu = sim.make_signal(SignalKind.FBU, self.lcoa,
                                      self._resolve(ctx[fsm.DEST_OLD_MAP]), info=dict(ctx))
                fna = encapsulate(fbu, self.lcoa, self._resolve(ctx[fsm.DEST_NAR]))
                fna.signal, fna.info = SignalKind.FNA, fbu.info
                sim.send_signal_packet("dmr", fna)
            case fsm.Do("adopt_alternative"):
                ctx["attempt"] += 1
            case fsm.Do("start_macro_registration"):
                self.send_home_bu()
            case fsm.Do("end_handover"):
                self.ctx = None
            case fsm.Do("abandon_handover"):
                sim.metrics.abandoned_handovers += 1
            case _:
                super()._perform(action, ctx)

    def _configure_ncoa(self, ra: dict) -> None:
        """Pre-configure the next addresses from the new access router's
        advertisement (`ArNode.ra_info`); a different anchor makes the move macro."""
        ctx = self.ctx
        ctx["macro"] = macro = ra["map_id"] != self.serving_map
        ctx["new_map"] = ra["map_id"] if macro else None
        ctx["nlcoa"] = ra["prefix"].address(self.node_component)
        if macro:
            ctx["nrcoa"] = ra["map_prefix"].address(self.node_component)

    # -- signal handling -------------------------------------------------------
    def handle_prrtadv(self, pkt: Packet) -> Optional[dict]:
        """Anticipatory address configuration from the proxied advertisement."""
        if self.ctx is None or pkt.info["prefix"].matches(self.lcoa):
            return None  # no handover, or the current attachment: nothing moves
        self._configure_ncoa(pkt.info)
        return {}

    def on_router_advertisement(self, pkt: Packet) -> None:
        info = pkt.info
        prefix: Prefix = info["prefix"]
        if self.lcoa is None and self.ctx is None:
            # Initial attachment: configure both addresses, verify, register.
            if self.serving_map is not None:
                return
            self.serving_map = info["map_id"]
            tentative_lcoa = prefix.address(self.node_component)
            tentative_rcoa = info["map_prefix"].address(self.node_component)
            self.sim.send_signal("dmr", SignalKind.NS, tentative_lcoa, pkt.src)
            self.sim.timer("dmr", DAD_DELAY_US,
                           ("initial_dad", self.epoch, tentative_lcoa, tentative_rcoa))
            return
        if self.ctx is not None and self.fsm_state == DmrState.REACTIVE_ATTACH:
            self._configure_ncoa(info)
            self._promote_lcoa()
            self.drive(ROLE_DMR, fsm.EV_RA)

    def _note_fback(self, pkt: Packet) -> dict:
        """Mark the acknowledgement in, which lapses the FBU retransmission."""
        if self.ctx is not None:
            self.ctx["fback"] = True
        return {}

    def _on_naack(self, pkt: Packet) -> Optional[dict]:
        """Adopt the alternative address the new access router offers."""
        if self.ctx is None:
            return None
        self.ctx["nlcoa"] = pkt.info["alternative"]
        self.node_component = pkt.info["alternative"].node
        self._promote_lcoa()
        return {}

    def _send_lbu_to_serving_map(self, old_map: Optional[str],
                                 old_rcoa: Optional[Address]) -> None:
        """Local binding update; a different `old_map` tears its tunnel down."""
        self.sim.send_signal("dmr", SignalKind.LBU, self.lcoa, self._resolve(self.serving_map),
                             info={"rcoa": self.rcoa, "lcoa": self.lcoa,
                                   "old_map": old_map, "old_rcoa": old_rcoa})

    def _on_lback(self, pkt: Packet) -> Optional[dict]:
        """Outside a handover, the first local acknowledgement starts the
        home registration."""
        if self.ctx is None:
            if self.reg_seq == 0:
                self.send_home_bu()
            return None
        return {}

    def _on_ba(self, pkt: Packet) -> None:
        super()._on_ba(pkt)
        if pkt.src == self.cn:
            self.sim.timer("dmr", BINDING_REFRESH_US, ("reg_refresh", self.reg_seq))

    def _on_fh_timer(self, token) -> None:
        _, name, epoch = token
        if epoch != self.epoch:
            return  # armed before the last attachment
        # A retransmission timer lapses once the acknowledgement is in.
        if name != "fbu_retx" or (self.ctx is not None and not self.ctx["fback"]):
            self.drive(ROLE_DMR, FH_TIMERS[name][1])

    def _on_initial_dad(self, token) -> None:
        _, epoch, lcoa, rcoa = token
        if epoch != self.epoch or self.lcoa is not None:
            return
        self.lcoa = lcoa
        self.rcoa = rcoa
        self._send_lbu_to_serving_map(self.serving_map, None)

    def _on_reg_refresh(self, token) -> None:
        if token[1] == self.reg_seq and self.ctx is None:
            self._send_lbu_to_serving_map(self.serving_map, None)
            self.send_home_bu()
