"""Route-optimized variant: the mobile router proxies return routability and
correspondent registration for its network nodes, after which marked traffic
flows directly between correspondent and mobile router with a type 2 routing
header downstream and a home address option upstream.

Both sides of return routability live here: the correspondent, which every
scheme runs as the source and sink of the measured flow and which issues the
tokens, and `ReturnRoutability`, the base of both route-optimising mobile
routers, which steps the `fsm` registration table through `Node.drive` after
each home acknowledgement."""

from __future__ import annotations

from typing import Optional

from . import fsm
from .engine import APP_START, SEC
from .fsm import RegState
from .metrics import FLOW_CBR
from .nemo_bs import BaselineMr, BindingCacheAgent, MobileRouter
from .packets import DATA, Address, Packet, SignalKind, apply_home_address_option, encapsulate

# Return routability: a token's lifetime, the wait for tokens, and the probe
# rounds re-sent before giving up.
TOKEN_LIFETIME_US = 10 * SEC
RR_TIMEOUT_US = 3 * SEC
RR_RETRIES = 2


class CorrespondentAgent(BindingCacheAgent):
    """Correspondent of every scheme: the constant-bit-rate source, the
    upstream sink, and a binding cache gated by return-routability tokens.
    Only a route-optimising router runs return routability, so under the
    baseline the cache stays empty and each packet is addressed to the
    mobile network node itself."""

    roles = {fsm.ROLE_CN: (None, None)}

    def __init__(self, sim, node_id: str):
        super().__init__(sim, node_id)
        self.signal_handlers = {None: self._receive_upstream,
                                SignalKind.HOTI: self.on_hoti,
                                SignalKind.COTI: self.on_coti,
                                SignalKind.BU: self.on_binding_update}
        self.timer_handlers = {"cbr": lambda token: self._cbr_tick()}
        self.seq = 0
        self.upstream_received: list[Packet] = []
        self.issued: dict[Address, dict] = {}
        self.bound_at: list = []
        self._nonce = 0

    # -- measured flow ------------------------------------------------------
    def _receive_upstream(self, pkt: Packet) -> None:
        if pkt.home_addr_option is not None:
            pkt = apply_home_address_option(pkt)
        self.upstream_received.append(pkt)

    def on_app(self, kind: str) -> None:
        if kind == APP_START:
            self._cbr_interval_us = self.sim.config.cbr.interval_us
            self._cbr_tick()

    def _cbr_tick(self) -> None:
        sim = self.sim
        cbr = sim.config.cbr
        now = sim.engine.now
        mnn = sim.topo.mnn_addr
        pkt = Packet(src=self.address, dst=mnn, size_bytes=cbr.packet_bytes,
                     kind=DATA, seq=self.seq, flow=FLOW_CBR,
                     created_at=now, path_log=[self.node_id])
        binding = self.lookup(mnn)
        if binding is not None:
            pkt.dst = binding.coa
            pkt.rh2_home_addr = mnn
        self.seq += 1
        sim.metrics.record_sent(pkt)
        sim.condition_data(self.node_id, pkt)
        sim.forward(self.node_id, pkt)
        if now + self._cbr_interval_us < cbr.stop_us:
            sim.timer(self.node_id, self._cbr_interval_us, ("cbr",))

    # -- return routability ------------------------------------------------
    def _token(self, kind: str, addr: Address) -> tuple:
        self._nonce += 1
        return (kind, addr, self._nonce)

    def on_hoti(self, pkt: Packet) -> None:
        hoa = pkt.src
        issued = self.issued.setdefault(hoa, {})
        issued["hot"] = (self._token("hot", hoa), self.sim.now)
        issued["npt"] = (self._token("npt", hoa), self.sim.now)
        self.sim.send_signal(self.node_id, SignalKind.HOT, self.address, hoa,
                             info={"token": issued["hot"][0]})
        self.sim.send_signal(self.node_id, SignalKind.NPT, self.address, hoa,
                             info={"token": issued["npt"][0]})

    def on_coti(self, pkt: Packet) -> None:
        coa = pkt.src
        hoa = pkt.info["hoa"]
        issued = self.issued.setdefault(hoa, {})
        issued["cot"] = (self._token("cot", coa), self.sim.now)
        self.sim.send_signal(self.node_id, SignalKind.COT, self.address, coa,
                             info={"token": issued["cot"][0]})

    def on_binding_update(self, pkt: Packet) -> None:
        info = pkt.info
        hoa = info["hoa"]
        if not self._tokens_valid(hoa, info.get("tokens")):
            self.sim.drop(pkt, "rejected@cn")
            return
        self.bind(hoa, info["coa"], info["mnps"])
        self.bound_at.append(self.sim.now)
        self.sim.send_signal(self.node_id, SignalKind.BA, self.address, info["coa"])

    def _tokens_valid(self, hoa: Address, tokens: Optional[dict]) -> bool:
        if not tokens:
            return False
        issued = self.issued.get(hoa, {})
        for kind in ("hot", "cot", "npt"):
            record = issued.get(kind)
            if record is None:
                return False
            token, at = record
            if tokens.get(kind) != token or self.sim.now - at > TOKEN_LIFETIME_US:
                return False
        return True


class ReturnRoutability(MobileRouter):
    """A route-optimising mobile router: after each home acknowledgement it
    runs return routability toward the correspondent, then binds its care-of
    address there, stepped through the `fsm.ROLE_REG` table by `Node.drive`.

    Every signal leaves from `care_of()`.  Each home binding update restarts
    the machine at Idle, where the acknowledgement of the current care-of
    address sends the probes.  `tokens` is the one record of tokens: cleared
    as the probes go out, filled only in the return-routability state.  The
    timer token is `(RR_TIMER, reg_seq, rr_retries)`: `reg_seq` counts home
    binding updates and `rr_retries` the probe rounds after one, so a timer
    from an earlier round or registration is ignored."""

    RR_TIMER = "rr_timeout"
    roles = {fsm.ROLE_REG: ("reg_state", None)}

    def __init__(self, sim, node_id: str):
        super().__init__(sim, node_id)
        self.cn = sim.topo.addresses["cn"]
        self.signal_handlers = {**self.signal_handlers, **dict.fromkeys(
            (SignalKind.HOT, SignalKind.COT, SignalKind.NPT), self._on_token)}
        self.timer_handlers[self.RR_TIMER] = self._on_rr_timeout
        self.reg_state = RegState.IDLE
        self.tokens: dict = {}   # "hot", "cot" or "npt" -> token tuple
        self.rr_retries = 0
        self.reg_seq = 0

    def send_home_bu(self) -> None:
        self.reg_seq += 1
        self.rr_retries = 0
        self.reg_state = RegState.IDLE
        super().send_home_bu()

    def _on_ba(self, pkt: Packet) -> None:
        if pkt.src == self.cn:
            self.cn_bound_coa = self.care_of()
            self.drive(fsm.ROLE_REG, fsm.EV_BA_CN)
        else:
            super()._on_ba(pkt)

    def _on_home_ba(self) -> None:
        super()._on_home_ba()
        self.drive(fsm.ROLE_REG, fsm.EV_BA_HA)

    def _on_token(self, pkt: Packet) -> dict:
        """Keep a token during return routability; the event says if all three are in."""
        if self.reg_state is RegState.RR:
            self.tokens[pkt.signal.value.lower()] = pkt.info["token"]
        return {"complete": len(self.tokens) == 3}

    def _on_rr_timeout(self, token) -> None:
        _, seq, retries = token
        if seq != self.reg_seq or retries != self.rr_retries or self.reg_state is not RegState.RR:
            return
        if self.rr_retries < RR_RETRIES:
            self.rr_retries += 1
            self.drive(fsm.ROLE_REG, fsm.EV_RR_TIMEOUT)
        else:
            self.drive(fsm.ROLE_REG, fsm.EV_GIVE_UP)

    def _perform(self, action, record: Optional[dict]) -> None:
        sim, coa = self.sim, self.care_of()
        match action:
            case fsm.Emit(SignalKind.HOTI):
                # The home test reaches the correspondent through the home agent.
                self.tokens = {}
                hoti = sim.make_signal(SignalKind.HOTI, self.hoa, self.cn)
                sim.send_signal_packet("dmr", encapsulate(hoti, coa, self.ha))
            case fsm.StartTimer("rr_timeout"):
                sim.timer("dmr", RR_TIMEOUT_US, (self.RR_TIMER, self.reg_seq, self.rr_retries))
            case fsm.Emit(SignalKind.COTI):
                sim.send_signal("dmr", SignalKind.COTI, coa, self.cn, info={"hoa": self.hoa})
            case fsm.Emit(SignalKind.BU, fsm.DEST_CN):
                sim.send_signal("dmr", SignalKind.BU, coa, self.cn,
                                info={"hoa": self.hoa, "coa": coa, "mnps": [self.mnp],
                                      "tokens": dict(self.tokens)})
            case _:
                super()._perform(action, record)


class ProxyDmr(ReturnRoutability, BaselineMr):
    """Baseline registration plus proxied return routability and direct
    delivery: every home binding update, refreshes included, restarts return
    routability, which the acknowledgement of `coa` then runs."""

    roles = {**BaselineMr.roles, **ReturnRoutability.roles}
