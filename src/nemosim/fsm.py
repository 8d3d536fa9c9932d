"""Pure state machines: the fast hierarchical scheme's four roles, the
return routability and correspondent registration that both
route-optimising routers run after each home acknowledgement, and the
baseline mobile router's address check and home registration.

Each machine is one table from (state, event kind) to the successor state and
a tuple of actions for the caller to interpret, or to a `Guard` that picks one
of two such rows on a flag of the event; `fsm_step` steps every table.  Being
side-effect free, the machines' full transition graphs can be enumerated.

`RECEIVE` is the signal plane: which machine a received signal steps, and as
which event; `DEST_ROLES` names the role each `Emit` reaches."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .packets import SignalKind

ROLE_DMR = "DMR"
ROLE_MAP = "MAP"
ROLE_NAR = "NAR"
ROLE_NEW_MAP = "NewMAP"
ROLE_REG = "Registration"
ROLE_MR = "MR"
# Nodes that run no machine but are sent signals: a base station, the home
# agent and the correspondent.
ROLE_BS, ROLE_HA, ROLE_CN = "BS", "HA", "CN"


class DmrState(Enum):
    IDLE = "Idle"
    SENT_RTSOLPR = "SentRtSolPr"
    CONFIGURED_NCOA = "ConfiguredNCoA"
    SENT_FBU = "SentFBU"
    GOT_FBACK = "GotFBack"
    L2_SWITCHING = "L2Switching"
    SENT_FNA = "SentFNA"
    LOCAL_REGISTERED = "LocalRegistered"
    REACTIVE_ATTACH = "ReactiveAttach"


class MapState(Enum):
    IDLE = "Idle"
    SENT_HI = "SentHI"
    GOT_HACK = "GotHAck"
    FORWARDING = "Forwarding"


class NarState(Enum):
    IDLE = "Idle"
    DAD_RUNNING = "DadRunning"
    TUNNEL_UP_BUFFERING = "TunnelUp_Buffering"
    FLUSHED = "Flushed"


class NewMapState(Enum):
    IDLE = "Idle"
    DAD_RUNNING = "DadRunning"


class RegState(Enum):
    IDLE = "Idle"
    RR = "ReturnRoutability"
    SENT_BU_CN = "SentBUCN"
    DONE = "Done"
    FALLBACK = "Fallback"


class MrState(Enum):
    AWAIT_RA = "AwaitRA"
    DAD = "Dad"
    REGISTERING = "Registering"
    REGISTERED = "Registered"


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
EV_BA_HA = "ba_ha"
EV_TOKEN = "token"
EV_BA_CN = "ba_cn"
EV_RR_TIMEOUT = "rr_timeout"
EV_GIVE_UP = "give_up"
EV_NA = "na"
EV_BU_REFRESH = "bu_refresh"


@dataclass(frozen=True)
class FsmEvent:
    kind: str
    macro: bool = False
    ncoa_known: bool = False
    fbu_sent: bool = False
    collision: bool = False
    complete: bool = False


# Symbolic signal destinations, each resolved by the sending node.  A fast
# handover's destination names the field of its record that holds it: an
# access router, an anchor, or the router's next (`DEST_DMR`) or previous
# on-link address.
DEST_OAR = "oar"
DEST_NAR = "nar"
DEST_OLD_MAP, DEST_NEW_MAP = "old_map", "new_map"
DEST_SERVING_MAP = "serving_map"
DEST_DMR, DEST_DMR_PREVIOUS = "nlcoa", "plcoa"
DEST_AR, DEST_STATION = "ar", "station"
DEST_HA, DEST_CN, DEST_CN_VIA_HA = "ha", "cn", "cn_via_ha"
# The role of the node each destination reaches, which takes the signal by
# its `RECEIVE` row or else in a handler of its own.
DEST_ROLES = {DEST_OAR: ROLE_NAR, DEST_NAR: ROLE_NAR, DEST_AR: ROLE_NAR, DEST_STATION: ROLE_BS,
              DEST_OLD_MAP: ROLE_MAP, DEST_SERVING_MAP: ROLE_MAP, DEST_NEW_MAP: ROLE_NEW_MAP,
              DEST_DMR: ROLE_DMR, DEST_DMR_PREVIOUS: ROLE_DMR, DEST_HA: ROLE_HA,
              DEST_CN: ROLE_CN, DEST_CN_VIA_HA: ROLE_CN}


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


@dataclass(frozen=True)
class Guard:
    """A row that reads one `FsmEvent` flag: `if_set` when it is true."""
    flag: str
    if_set: object
    if_clear: object


_D, _M, _N, _W, _R, _B = DmrState, MapState, NarState, NewMapState, RegState, MrState
_RS, _FNA = Emit(SignalKind.RS, DEST_NAR), Emit(SignalKind.FNA, DEST_NAR)
_DAD_FAST = (Emit(SignalKind.NS, DEST_STATION), StartTimer("dad_fast"))
_RELAY_HI = Emit(SignalKind.HI, DEST_NEW_MAP)
# Acknowledge over both the previous and the prospective path.
_FBACKS = (Emit(SignalKind.FBACK, DEST_DMR_PREVIOUS), Emit(SignalKind.FBACK, DEST_DMR))
_TO_FORWARDING = (_M.FORWARDING, (Do("install_forwarding"),) + _FBACKS)
_TO_IDLE = (_M.IDLE, (Do("remove_forwarding"),))
_NAACK = (Emit(SignalKind.NAACK, DEST_DMR),)

_DMR_TABLE = {
    (_D.IDLE, EV_L2_TRIGGER): (_D.SENT_RTSOLPR, (Emit(SignalKind.RT_SOL_PR, DEST_OAR),)),
    # A duplicate acknowledgement flushed from the new link buffer may trail
    # the completed handover; idempotent by design.
    (_D.IDLE, EV_FBACK): (_D.IDLE, ()),
    (_D.SENT_RTSOLPR, EV_PRRTADV): (_D.CONFIGURED_NCOA, (StartTimer("fbu_delay"),)),
    (_D.CONFIGURED_NCOA, EV_FBU_TIMER): (_D.SENT_FBU, (Emit(SignalKind.FBU, DEST_OLD_MAP),)),
    (_D.SENT_FBU, EV_FBACK): (_D.GOT_FBACK, ()),
    **{(state, EV_L2_DOWN): (_D.REACTIVE_ATTACH, ())
       for state in (_D.IDLE, _D.SENT_RTSOLPR, _D.CONFIGURED_NCOA, _D.SENT_FBU)},
    (_D.GOT_FBACK, EV_FBACK): (_D.GOT_FBACK, ()),
    (_D.GOT_FBACK, EV_L2_DOWN): (_D.L2_SWITCHING, ()),
    (_D.L2_SWITCHING, EV_ATTACH_DONE): (_D.SENT_FNA, (_RS, _FNA, StartTimer("lbu_gap"))),
    (_D.L2_SWITCHING, EV_FBACK): (_D.L2_SWITCHING, ()),
    # The predictive acknowledgement may still be in flight, so a fresh
    # binding update is only retransmitted after a grace wait.
    (_D.REACTIVE_ATTACH, EV_ATTACH_DONE): Guard(
        "ncoa_known",
        Guard("fbu_sent",
              (_D.SENT_FNA, (_RS, _FNA, StartTimer("fbu_retx"))),
              (_D.SENT_FNA, (_RS, Do("send_fna_with_fbu"), StartTimer("fbu_retx")))),
        (_D.REACTIVE_ATTACH, (_RS,))),
    (_D.REACTIVE_ATTACH, EV_RA): (_D.SENT_FNA, (Do("send_fna_with_fbu"), StartTimer("fbu_retx"))),
    (_D.REACTIVE_ATTACH, EV_FBACK): (_D.REACTIVE_ATTACH, ()),
    # An FBU timer armed before the link went down: the FBU now rides the FNA.
    (_D.REACTIVE_ATTACH, EV_FBU_TIMER): (_D.REACTIVE_ATTACH, ()),
    (_D.SENT_FNA, EV_FBACK): (_D.SENT_FNA, (StartTimer("lbu_gap"),)),
    (_D.SENT_FNA, EV_FBU_RETX_TIMER): (_D.SENT_FNA, (Do("send_fna_with_fbu"),)),
    (_D.SENT_FNA, EV_NAACK): (_D.SENT_FNA, (Do("adopt_alternative"), Do("send_fna_with_fbu"))),
    (_D.SENT_FNA, EV_LBU_TIMER): (_D.LOCAL_REGISTERED, (Emit(SignalKind.LBU, DEST_SERVING_MAP),)),
    # The local acknowledgement ends the handover.
    (_D.LOCAL_REGISTERED, EV_LBACK): Guard(
        "macro", (_D.IDLE, (Do("start_macro_registration"), Do("end_handover"))),
        (_D.IDLE, (Do("end_handover"),))),
    # Second-path acknowledgement duplicates and surplus timers.
    (_D.LOCAL_REGISTERED, EV_FBACK): (_D.LOCAL_REGISTERED, ()),
    (_D.LOCAL_REGISTERED, EV_LBU_TIMER): (_D.LOCAL_REGISTERED, ()),
}

_MAP_TABLE = {
    (_M.IDLE, EV_FBU): (_M.SENT_HI, (Emit(SignalKind.HI, DEST_NAR),)),
    (_M.IDLE, EV_FBU_VIA_NAR): _TO_FORWARDING,
    (_M.SENT_HI, EV_HACK_NAR): Guard("macro", (_M.GOT_HACK, ()), _TO_FORWARDING),
    (_M.SENT_HI, EV_HACK_NEW_MAP): (_M.GOT_HACK, ()),
    (_M.SENT_HI, EV_FBU_VIA_NAR): (_M.SENT_HI, ()),
    (_M.GOT_HACK, EV_HACK_NAR): _TO_FORWARDING,
    (_M.GOT_HACK, EV_HACK_NEW_MAP): _TO_FORWARDING,
    (_M.GOT_HACK, EV_FBU_VIA_NAR): (_M.GOT_HACK, ()),
    (_M.FORWARDING, EV_FBU_VIA_NAR): (_M.FORWARDING, _FBACKS),
    (_M.FORWARDING, EV_HACK_NAR): (_M.FORWARDING, ()),
    (_M.FORWARDING, EV_HACK_NEW_MAP): (_M.FORWARDING, ()),
    **{(state, EV_LBU_CUT): _TO_IDLE for state in (_M.SENT_HI, _M.GOT_HACK, _M.FORWARDING)},
}

# An HI opens a handover in whatever state the last one left the machine.
_NAR_TABLE = {
    **{(state, EV_HI): Guard("macro", (_N.DAD_RUNNING, _DAD_FAST + (_RELAY_HI,)),
                             (_N.DAD_RUNNING, _DAD_FAST)) for state in _N},
    (_N.IDLE, EV_FNA_RS): (_N.FLUSHED, ()),
    (_N.IDLE, EV_FNA_FBU): Guard("collision", (_N.IDLE, _NAACK),
                                 (_N.FLUSHED, (Do("forward_fbu"),))),
    (_N.DAD_RUNNING, EV_DAD_OK): (_N.TUNNEL_UP_BUFFERING, (Emit(SignalKind.HACK, DEST_OLD_MAP),)),
    # An announcement before the check ends: the router is on the link, so
    # the buffer is flushed at once (RFC 5568), and the check's end only
    # answers the previous anchor.
    (_N.DAD_RUNNING, EV_FNA_RS): (_N.FLUSHED, (Do("flush_buffer"),)),
    (_N.DAD_RUNNING, EV_FNA_FBU): Guard(
        "collision", (_N.DAD_RUNNING, _NAACK),
        (_N.FLUSHED, (Do("flush_buffer"), Do("forward_fbu")))),
    (_N.FLUSHED, EV_DAD_OK): (_N.FLUSHED, (Emit(SignalKind.HACK, DEST_OLD_MAP),)),
    (_N.TUNNEL_UP_BUFFERING, EV_FNA_RS): (_N.FLUSHED, (Do("flush_buffer"),)),
    (_N.TUNNEL_UP_BUFFERING, EV_FNA_FBU): Guard(
        "collision", (_N.TUNNEL_UP_BUFFERING, _NAACK),
        (_N.FLUSHED, (Do("flush_buffer"), Do("forward_fbu")))),
    (_N.FLUSHED, EV_FNA_FBU): Guard("collision", (_N.FLUSHED, _NAACK),
                                    (_N.FLUSHED, (Do("forward_fbu"),))),
    (_N.FLUSHED, EV_FNA_RS): (_N.FLUSHED, ()),
}

_NEW_MAP_TABLE = {
    (_W.IDLE, EV_HI): (_W.DAD_RUNNING, (StartTimer("dad_rcoa"),)),
    (_W.DAD_RUNNING, EV_DAD_OK): (_W.IDLE, (Emit(SignalKind.HACK, DEST_OLD_MAP),
                                           Emit(SignalKind.HACK, DEST_NAR))),
}

# Return routability (RFC 6275 5.2, plus the prefix token) from the home
# agent's acknowledgement, then the correspondent binding update.  Each home
# binding update leaves the machine Idle.  Each probe round arms the wait for
# its tokens; a token event says if all three are in.
_PROBE = (Emit(SignalKind.HOTI, DEST_CN_VIA_HA), StartTimer("rr_timeout"),
          Emit(SignalKind.COTI, DEST_CN))
_REG_TABLE = {
    (_R.IDLE, EV_BA_HA): (_R.RR, _PROBE),
    (_R.RR, EV_TOKEN): Guard("complete", (_R.SENT_BU_CN, (Emit(SignalKind.BU, DEST_CN),)),
                             (_R.RR, ())),
    (_R.RR, EV_RR_TIMEOUT): (_R.RR, _PROBE),
    (_R.RR, EV_GIVE_UP): (_R.FALLBACK, ()),
    (_R.SENT_BU_CN, EV_BA_CN): (_R.DONE, ()),
}

# The baseline mobile router (RFC 3963 on RFC 6275): an advertisement of a new
# prefix starts a duplicate address check (RFC 4862), which a colliding NA
# restarts on the next address; the checked address is then bound at the home
# agent, and each refresh re-sends the binding update.
_DAD = (Emit(SignalKind.NS, DEST_AR), StartTimer("dad_done"))
_HOME_BU = (Emit(SignalKind.BU, DEST_HA), StartTimer("bu_refresh"))
_MR_TABLE = {
    **{(state, EV_RA): (_B.DAD, _DAD) for state in _B},
    (_B.DAD, EV_NA): (_B.DAD, (Do("next_address"),) + _DAD),
    (_B.DAD, EV_DAD_OK): (_B.REGISTERING, _HOME_BU),
    **{(state, EV_BA_HA): (_B.REGISTERED, ()) for state in (_B.REGISTERING, _B.REGISTERED)},
    **{(state, EV_BU_REFRESH): (state, _HOME_BU) for state in (_B.REGISTERING, _B.REGISTERED)},
}

TABLES = {ROLE_DMR: _DMR_TABLE, ROLE_MAP: _MAP_TABLE, ROLE_NAR: _NAR_TABLE,
          ROLE_NEW_MAP: _NEW_MAP_TABLE, ROLE_REG: _REG_TABLE, ROLE_MR: _MR_TABLE}
TERMINAL_STATES = frozenset((_R.DONE, _R.FALLBACK))

# The flags of a received signal that the `Guard`s of `RECEIVE` read.
SIGNAL_FLAGS = {"relayed_by_nar": lambda pkt: pkt.info.get("relayed_by_nar", False),
                "from_new_map": lambda pkt: pkt.info["from_role"] != "nar",
                "carries_fbu": lambda pkt: pkt.inner is not None}

# The signal plane: (signal kind, receiving role) -> the event kind it steps
# that role's machine with, or a `Guard` on one of `SIGNAL_FLAGS`.  None
# declares a signal that reaches the role's node and steps nothing: the new
# access router's NS to its own station, and the new anchor's HAck to the new
# access router (ROADMAP item 1).  A node takes any other signal in its
# `signal_handlers`, or counts it as unexpected.
RECEIVE = {
    (SignalKind.PR_RT_ADV, ROLE_DMR): EV_PRRTADV,
    (SignalKind.FBACK, ROLE_DMR): EV_FBACK,
    (SignalKind.NAACK, ROLE_DMR): EV_NAACK,
    (SignalKind.LBACK, ROLE_DMR): EV_LBACK,
    (SignalKind.FBU, ROLE_MAP): Guard("relayed_by_nar", EV_FBU_VIA_NAR, EV_FBU),
    (SignalKind.HACK, ROLE_MAP): Guard("from_new_map", EV_HACK_NEW_MAP, EV_HACK_NAR),
    (SignalKind.LBU, ROLE_MAP): EV_LBU_CUT,
    (SignalKind.HI, ROLE_NAR): EV_HI,
    (SignalKind.FNA, ROLE_NAR): Guard("carries_fbu", EV_FNA_FBU, EV_FNA_RS),
    (SignalKind.HI, ROLE_NEW_MAP): EV_HI,
    **{(token, ROLE_REG): EV_TOKEN for token in (SignalKind.HOT, SignalKind.COT, SignalKind.NPT)},
    (SignalKind.NA, ROLE_MR): EV_NA,
    (SignalKind.NS, ROLE_BS): None,
    (SignalKind.HACK, ROLE_NAR): None,
}
# The events whose signal opens a handover: its info becomes the context.
OPENS = frozenset((EV_HI,))


def received_event(role: str, pkt):
    """The event kind of `pkt`'s row in `RECEIVE` for `role`."""
    row = RECEIVE[pkt.signal, role]
    while isinstance(row, Guard):
        row = row.if_set if SIGNAL_FLAGS[row.flag](pkt) else row.if_clear
    return row


def fsm_step(role: str, state, event: FsmEvent):
    """One pure transition: a terminal state absorbs every event, and an event
    with no row leaves the state unchanged behind an `Unexpected` marker."""
    if state in TERMINAL_STATES:
        return state, ()
    row = TABLES[role].get((state, event.kind))
    if row is None:
        return state, (Unexpected(event.kind),)
    while isinstance(row, Guard):
        row = row.if_set if getattr(event, row.flag) else row.if_clear
    return row
