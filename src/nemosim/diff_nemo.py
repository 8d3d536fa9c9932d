"""Route-optimized variant: the mobile router proxies return routability and
correspondent registration for its network nodes, after which marked traffic
flows directly between correspondent and mobile router with a type 2 routing
header downstream and a home address option upstream.

Both sides of return routability live here: the correspondent, which every
scheme runs as the source and sink of the measured flow and which issues the
tokens, and `Registration`, which steps the `fsm` registration table for both
route-optimising mobile routers."""

from __future__ import annotations

from typing import Callable, Optional

from . import fsm
from .engine import SEC
from .fsm import FsmEvent, RegState, fsm_step
from .engine import APP_START
from .metrics import FLOW_CBR
from .nemo_bs import BINDING_LIFETIME_US, BaselineMr, BindingCacheAgent
from .packets import DATA, Address, Packet, SignalKind, apply_home_address_option

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
        if now >= cbr.stop_us:
            return
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
            self.sim.metrics.rejected_bindings += 1
            return
        self.bind(hoa, info["coa"], info["mnps"], info.get("lifetime", BINDING_LIFETIME_US))
        self.bound_at.append(self.sim.now)
        self.sim.send_signal(self.node_id, SignalKind.BA, self.address, info["coa"],
                             info={"hoa": hoa, "from": "cn"})

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


class Registration:
    """Registration with both anchors, stepped through the `fsm.ROLE_REG`
    table by `fsm_step`: binding update to the home agent, return routability
    toward the correspondent, then the correspondent binding update.

    Every signal leaves from the care-of address the router supplies.
    `tokens` is the one record of tokens: cleared as the probes go out, filled
    only in the return-routability state.  The timer token is `(timeout_name,
    seq, retries)`: `seq` counts registrations and `retries` the probe rounds
    within one, so a timer from an earlier round or registration is ignored.
    Tokens and timer reach it through the router's handler tables.
    """

    def __init__(self, router, care_of: Callable[[], Optional[Address]], timeout_name: str):
        self.sim, self.hoa, self.mnp, self.ha = router.sim, router.hoa, router.mnp, router.ha
        self.cn = router.sim.topo.addresses["cn"]
        router.signal_handlers.update(dict.fromkeys(
            (SignalKind.HOT, SignalKind.COT, SignalKind.NPT), self.on_token))
        router.timer_handlers[timeout_name] = self.on_timeout
        self.care_of = care_of
        self.timeout_name = timeout_name
        self.state = RegState.IDLE
        self.tokens: dict = {}   # "hot", "cot" or "npt" -> token tuple
        self.retries = 0
        self.seq = 0

    def start(self) -> None:
        """Register afresh, beginning with a binding update to the home agent."""
        self.seq += 1
        self.retries = 0
        self.state = RegState.IDLE
        self.step(FsmEvent(fsm.EV_REG_START))

    def step(self, event: FsmEvent) -> None:
        # An unexpected event, such as a token before the home agent's
        # acknowledgement, leaves the state as it is and is counted, as
        # `Node.drive` counts one.
        self.state, actions = fsm_step(fsm.ROLE_REG, self.state, event)
        for action in actions:
            if isinstance(action, fsm.Unexpected):
                self.sim.metrics.unexpected_signals += 1
            else:
                self._emit(action)

    def _emit(self, action: fsm.Emit) -> None:
        sim, coa = self.sim, self.care_of()
        if action.signal == SignalKind.BU:
            to_cn = action.dest == fsm.DEST_CN
            info = {"hoa": self.hoa, "coa": coa, "mnps": [self.mnp],
                    "lifetime": BINDING_LIFETIME_US}
            if to_cn:
                info["tokens"] = dict(self.tokens)
            sim.send_signal("dmr", SignalKind.BU, coa, self.cn if to_cn else self.ha, info=info)
        elif action.signal == SignalKind.HOTI:
            self.tokens = {}
            sim.send_signal("dmr", SignalKind.HOTI, self.hoa, self.cn,
                            info={"hoa": self.hoa}, encap_to=self.ha, encap_src=coa)
            sim.timer("dmr", RR_TIMEOUT_US, (self.timeout_name, self.seq, self.retries))
        elif action.signal == SignalKind.COTI:
            sim.send_signal("dmr", SignalKind.COTI, coa, self.cn, info={"hoa": self.hoa})

    def on_ba(self, pkt: Packet) -> bool:
        """Step on a binding acknowledgement; True when the correspondent sent it."""
        from_cn = bool(pkt.info) and pkt.info.get("from") == "cn"
        self.step(FsmEvent(fsm.EV_BA_CN if from_cn else fsm.EV_BA_HA))
        return from_cn

    def on_token(self, pkt: Packet) -> None:
        if self.state is RegState.RR:
            self.tokens[pkt.signal.value.lower()] = pkt.info["token"]
        self.step(FsmEvent(fsm.EV_TOKEN, complete=len(self.tokens) == 3))

    def on_timeout(self, token) -> None:
        _, seq, retries = token
        if seq != self.seq or retries != self.retries or self.state is not RegState.RR:
            return
        if self.retries < RR_RETRIES:
            self.retries += 1
            self.step(FsmEvent(fsm.EV_RR_TIMEOUT))
        else:
            self.step(FsmEvent(fsm.EV_GIVE_UP))


class ProxyDmr(BaselineMr):
    """Baseline registration plus proxied return routability and direct delivery."""

    def __init__(self, sim, node_id: str):
        super().__init__(sim, node_id)
        self.reg = Registration(self, lambda: self.coa, "rr_timeout")

    def _perform(self, action) -> None:
        """Every home registration, refreshes included, restarts the
        registration machine, so return routability runs again after each
        acknowledgement."""
        if action == fsm.Emit(SignalKind.BU, fsm.DEST_HA):
            self.reg.start()
        else:
            super()._perform(action)

    def _on_ba(self, pkt: Packet) -> None:
        if pkt.info.get("from") == "cn":
            self.cn_bound_coa = self.coa
            self.reg.step(FsmEvent(fsm.EV_BA_CN))
        else:
            super()._on_ba(pkt)
            if pkt.info["coa"] == self.coa:
                self.reg.step(FsmEvent(fsm.EV_BA_HA))
