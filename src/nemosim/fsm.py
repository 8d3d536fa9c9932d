"""Pure handover state machines for the fast hierarchical scheme.

Every transition is a pure function of (role, state, event) returning the
successor state and a tuple of actions for the caller to interpret.  Keeping
the machines side-effect free lets tests enumerate the full transition graphs
of the predictive and reactive, micro and macro signal flows.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .packets import SignalKind

ROLE_DMR = "DMR"
ROLE_MAP = "MAP"
ROLE_NAR = "NAR"
ROLE_NEW_MAP = "NewMAP"
ROLE_OAR = "OAR"


class DmrState(Enum):
    IDLE = "Idle"
    SENT_RTSOLPR = "SentRtSolPr"
    CONFIGURED_NCOA = "ConfiguredNCoA"
    SENT_FBU = "SentFBU"
    GOT_FBACK = "GotFBack"
    L2_SWITCHING = "L2Switching"
    SENT_FNA = "SentFNA"
    LOCAL_REGISTERED = "LocalRegistered"
    COMPLETE = "Complete"
    REACTIVE_ATTACH = "ReactiveAttach"


class MapState(Enum):
    IDLE = "Idle"
    SENT_HI = "SentHI"
    GOT_HACK = "GotHAck"
    FORWARDING = "Forwarding"
    CLEARED = "Cleared"


class NarState(Enum):
    IDLE = "Idle"
    DAD_RUNNING = "DadRunning"
    TUNNEL_UP_BUFFERING = "TunnelUp_Buffering"
    FLUSHED = "Flushed"


class NewMapState(Enum):
    IDLE = "Idle"
    DAD_RUNNING = "DadRunning"
    ACKED = "Acked"


class OarState(Enum):
    IDLE = "Idle"


# Event kinds fed to fsm_step.
EV_L2_TRIGGER = "l2_trigger"
EV_PRRTADV = "prrtadv"
EV_FBU_TIMER = "fbu_timer"
EV_FBACK = "fback"
EV_L2_DOWN = "l2_down"
EV_ATTACH_DONE = "attach_done"
EV_RA = "ra"
EV_NAACK = "naack"
EV_FBU_RETX_TIMER = "fbu_retx_timer"
EV_LBU_TIMER = "lbu_timer"
EV_LBACK = "lback"
EV_FBU = "fbu"
EV_HACK_NAR = "hack_nar"
EV_HACK_NEW_MAP = "hack_new_map"
EV_FBU_VIA_NAR = "fbu_via_nar"
EV_LBU_CUT = "lbu_cut"
EV_HI = "hi"
EV_DAD_OK = "dad_ok"
EV_FNA_RS = "fna_rs"
EV_FNA_FBU = "fna_fbu"
EV_NS_OWNED = "ns_owned"
EV_RTSOLPR = "rtsolpr"


@dataclass(frozen=True)
class FsmEvent:
    kind: str
    macro: bool = False
    ncoa_known: bool = False
    fbu_sent: bool = False
    collision: bool = False
    relayed: bool = False


# Symbolic signal destinations, resolved to addresses by the interpreter.
DEST_OAR = "oar"
DEST_NAR = "nar"
DEST_OLD_MAP = "old_map"
DEST_SERVING_MAP = "serving_map"
DEST_DMR = "dmr"
DEST_DMR_BOTH_PATHS = "dmr_both_paths"


@dataclass(frozen=True)
class Emit:
    signal: SignalKind
    dest: str


@dataclass(frozen=True)
class StartTimer:
    name: str


@dataclass(frozen=True)
class Do:
    op: str


@dataclass(frozen=True)
class Unexpected:
    kind: str


def fsm_step(role: str, state, event: FsmEvent):
    """One pure transition; unexpected events leave the state unchanged."""
    if role == ROLE_DMR:
        return _dmr_step(state, event)
    if role == ROLE_MAP:
        return _map_step(state, event)
    if role == ROLE_NAR:
        return _nar_step(state, event)
    if role == ROLE_NEW_MAP:
        return _new_map_step(state, event)
    if role == ROLE_OAR:
        return _oar_step(state, event)
    raise ValueError(f"unknown role {role}")


def _dmr_step(state: DmrState, ev: FsmEvent):
    k = ev.kind
    if state == DmrState.IDLE:
        if k == EV_L2_TRIGGER:
            return DmrState.SENT_RTSOLPR, (Emit(SignalKind.RT_SOL_PR, DEST_OAR),)
        if k == EV_L2_DOWN:
            return DmrState.REACTIVE_ATTACH, ()
        if k == EV_FBACK:
            # A duplicate acknowledgement flushed from the new link buffer may
            # trail the completed handover; idempotent by design.
            return DmrState.IDLE, ()
    elif state == DmrState.SENT_RTSOLPR:
        if k == EV_PRRTADV:
            return DmrState.CONFIGURED_NCOA, (StartTimer("fbu_delay"),)
        if k == EV_L2_DOWN:
            return DmrState.REACTIVE_ATTACH, ()
    elif state == DmrState.CONFIGURED_NCOA:
        if k == EV_FBU_TIMER:
            return DmrState.SENT_FBU, (Emit(SignalKind.FBU, DEST_OLD_MAP),)
        if k == EV_L2_DOWN:
            return DmrState.REACTIVE_ATTACH, ()
    elif state == DmrState.SENT_FBU:
        if k == EV_FBACK:
            return DmrState.GOT_FBACK, ()
        if k == EV_L2_DOWN:
            return DmrState.REACTIVE_ATTACH, ()
    elif state == DmrState.GOT_FBACK:
        if k == EV_FBACK:
            return DmrState.GOT_FBACK, ()
        if k == EV_L2_DOWN:
            return DmrState.L2_SWITCHING, ()
    elif state == DmrState.L2_SWITCHING:
        if k == EV_ATTACH_DONE:
            return DmrState.SENT_FNA, (Emit(SignalKind.RS, DEST_NAR),
                                       Emit(SignalKind.FNA, DEST_NAR),
                                       StartTimer("lbu_gap"))
        if k == EV_FBACK:
            return DmrState.L2_SWITCHING, ()
    elif state == DmrState.REACTIVE_ATTACH:
        if k == EV_ATTACH_DONE:
            if not ev.ncoa_known:
                return DmrState.REACTIVE_ATTACH, (Emit(SignalKind.RS, DEST_NAR),)
            if ev.fbu_sent:
                # The predictive acknowledgement may still be in flight, so a
                # fresh binding update is only retransmitted after a grace wait.
                return DmrState.SENT_FNA, (Emit(SignalKind.RS, DEST_NAR),
                                           Emit(SignalKind.FNA, DEST_NAR),
                                           StartTimer("fbu_retx"))
            return DmrState.SENT_FNA, (Emit(SignalKind.RS, DEST_NAR),
                                       Do("send_fna_with_fbu"))
        if k == EV_RA:
            return DmrState.SENT_FNA, (Do("send_fna_with_fbu"),)
        if k == EV_FBACK:
            return DmrState.REACTIVE_ATTACH, ()
    elif state == DmrState.SENT_FNA:
        if k == EV_FBACK:
            return DmrState.SENT_FNA, (StartTimer("lbu_gap"),)
        if k == EV_FBU_RETX_TIMER:
            return DmrState.SENT_FNA, (Do("send_fna_with_fbu"),)
        if k == EV_NAACK:
            return DmrState.SENT_FNA, (Do("adopt_alternative"), Do("send_fna_with_fbu"))
        if k == EV_LBU_TIMER:
            return DmrState.LOCAL_REGISTERED, (Emit(SignalKind.LBU, DEST_SERVING_MAP),)
    elif state == DmrState.LOCAL_REGISTERED:
        if k == EV_LBACK:
            if ev.macro:
                return DmrState.COMPLETE, (Do("start_macro_registration"),)
            return DmrState.COMPLETE, ()
        if k in (EV_FBACK, EV_LBU_TIMER):
            # Second-path acknowledgement duplicates and surplus timers.
            return DmrState.LOCAL_REGISTERED, ()
    elif state == DmrState.COMPLETE:
        return DmrState.COMPLETE, ()
    return state, (Unexpected(k),)


def _map_step(state: MapState, ev: FsmEvent):
    k = ev.kind
    if state == MapState.IDLE:
        if k == EV_FBU:
            return MapState.SENT_HI, (Emit(SignalKind.HI, DEST_NAR),)
        if k == EV_FBU_VIA_NAR:
            return MapState.FORWARDING, (Do("install_forwarding"),
                                         Emit(SignalKind.FBACK, DEST_DMR_BOTH_PATHS))
    elif state == MapState.SENT_HI:
        if k == EV_HACK_NAR:
            if ev.macro:
                return MapState.GOT_HACK, ()
            return MapState.FORWARDING, (Do("install_forwarding"),
                                         Emit(SignalKind.FBACK, DEST_DMR_BOTH_PATHS))
        if k == EV_HACK_NEW_MAP:
            return MapState.GOT_HACK, ()
        if k == EV_FBU_VIA_NAR:
            return MapState.SENT_HI, ()
        if k == EV_LBU_CUT:
            return MapState.CLEARED, (Do("remove_forwarding"),)
    elif state == MapState.GOT_HACK:
        if k in (EV_HACK_NAR, EV_HACK_NEW_MAP):
            return MapState.FORWARDING, (Do("install_forwarding"),
                                         Emit(SignalKind.FBACK, DEST_DMR_BOTH_PATHS))
        if k == EV_FBU_VIA_NAR:
            return MapState.GOT_HACK, ()
        if k == EV_LBU_CUT:
            return MapState.CLEARED, (Do("remove_forwarding"),)
    elif state == MapState.FORWARDING:
        if k == EV_FBU_VIA_NAR:
            return MapState.FORWARDING, (Emit(SignalKind.FBACK, DEST_DMR_BOTH_PATHS),)
        if k in (EV_HACK_NAR, EV_HACK_NEW_MAP):
            return MapState.FORWARDING, ()
        if k == EV_LBU_CUT:
            return MapState.CLEARED, (Do("remove_forwarding"),)
    elif state == MapState.CLEARED:
        return MapState.CLEARED, ()
    return state, (Unexpected(k),)


def _nar_step(state: NarState, ev: FsmEvent):
    k = ev.kind
    if state == NarState.IDLE:
        if k == EV_HI:
            actions = [Emit(SignalKind.NS, DEST_NAR), StartTimer("dad_fast")]
            if ev.macro:
                actions.append(Do("relay_hi"))
            return NarState.DAD_RUNNING, tuple(actions)
        if k == EV_FNA_RS:
            return NarState.FLUSHED, ()
        if k == EV_FNA_FBU:
            if ev.collision:
                return NarState.IDLE, (Emit(SignalKind.NAACK, DEST_DMR),)
            return NarState.FLUSHED, (Do("forward_fbu"),)
        if k == EV_NS_OWNED:
            return NarState.IDLE, (Emit(SignalKind.NA, DEST_DMR),)
    elif state == NarState.DAD_RUNNING:
        if k == EV_DAD_OK:
            return NarState.TUNNEL_UP_BUFFERING, (Emit(SignalKind.HACK, DEST_OLD_MAP),)
    elif state == NarState.TUNNEL_UP_BUFFERING:
        if k == EV_FNA_RS:
            return NarState.FLUSHED, (Do("flush_buffer"),)
        if k == EV_FNA_FBU:
            if ev.collision:
                return NarState.TUNNEL_UP_BUFFERING, (Emit(SignalKind.NAACK, DEST_DMR),)
            return NarState.FLUSHED, (Do("flush_buffer"), Do("forward_fbu"))
    elif state == NarState.FLUSHED:
        if k == EV_FNA_FBU:
            if ev.collision:
                return NarState.FLUSHED, (Emit(SignalKind.NAACK, DEST_DMR),)
            return NarState.FLUSHED, (Do("forward_fbu"),)
        if k == EV_FNA_RS:
            return NarState.FLUSHED, ()
    return state, (Unexpected(k),)


def _new_map_step(state: NewMapState, ev: FsmEvent):
    k = ev.kind
    if state == NewMapState.IDLE:
        if k == EV_HI:
            return NewMapState.DAD_RUNNING, (StartTimer("dad_rcoa"),)
    elif state == NewMapState.DAD_RUNNING:
        if k == EV_DAD_OK:
            return NewMapState.ACKED, (Emit(SignalKind.HACK, DEST_OLD_MAP),
                                       Emit(SignalKind.HACK, DEST_NAR))
    elif state == NewMapState.ACKED:
        return NewMapState.ACKED, ()
    return state, (Unexpected(k),)


def _oar_step(state: OarState, ev: FsmEvent):
    if ev.kind == EV_RTSOLPR:
        return OarState.IDLE, (Emit(SignalKind.PR_RT_ADV, DEST_DMR),)
    return state, (Unexpected(ev.kind),)


# ---------------------------------------------------------------------------
# Registration with the anchors after a macro move: binding update to the home
# agent, return-routability toward the correspondent, then the correspondent
# binding update.  Token progress is part of the state so the machine stays
# finite and enumerable.

REG_IDLE = "idle"
REG_SENT_BU_HA = "sent_bu_ha"
REG_SENT_BU_CN = "sent_bu_cn"
REG_DONE = "done"
REG_FALLBACK = "fallback"

TOKEN_HOME = "h"
TOKEN_CARE = "c"
TOKEN_PREFIX = "n"

EV_REG_START = "start"
EV_BA_HA = "ba_ha"
EV_HOT = "hot"
EV_COT = "cot"
EV_NPT = "npt"
EV_BA_CN = "ba_cn"
EV_RR_TIMEOUT = "rr_timeout"
EV_GIVE_UP = "give_up"

RR_EVENT_TOKEN = {EV_HOT: TOKEN_HOME, EV_COT: TOKEN_CARE, EV_NPT: TOKEN_PREFIX}


def rr_state(tokens: frozenset) -> str:
    return "rr_" + "".join(sorted(tokens))


def reg_step(state: str, event: str):
    """Macro registration machine; rr_* states carry the collected token set."""
    if state == REG_IDLE and event == EV_REG_START:
        return REG_SENT_BU_HA, (Emit(SignalKind.BU, "ha"),)
    if state == REG_SENT_BU_HA and event == EV_BA_HA:
        return rr_state(frozenset()), (Emit(SignalKind.HOTI, "cn_via_ha"),
                                       Emit(SignalKind.COTI, "cn"))
    if state.startswith("rr_"):
        tokens = frozenset(state[3:])
        if event in RR_EVENT_TOKEN:
            tokens = tokens | {RR_EVENT_TOKEN[event]}
            if tokens == frozenset((TOKEN_HOME, TOKEN_CARE, TOKEN_PREFIX)):
                return REG_SENT_BU_CN, (Emit(SignalKind.BU, "cn"),)
            return rr_state(tokens), ()
        if event == EV_RR_TIMEOUT:
            return rr_state(frozenset()), (Emit(SignalKind.HOTI, "cn_via_ha"),
                                           Emit(SignalKind.COTI, "cn"))
        if event == EV_GIVE_UP:
            return REG_FALLBACK, ()
    if state == REG_SENT_BU_CN and event == EV_BA_CN:
        return REG_DONE, ()
    if state in (REG_DONE, REG_FALLBACK):
        return state, ()
    return state, (Unexpected(event),)
