"""Unit transitions, exhaustive enumeration of the handover machines, and the
signal plane that connects them."""

from nemosim import fsm
from nemosim.fsm import (Do, DmrState, Emit, FsmEvent, Guard, MapState, MrState, NarState,
                         NewMapState, RegState, StartTimer, Unexpected, fsm_step)
from nemosim.packets import SignalKind
from nemosim.scenario import ScenarioConfig
from nemosim.simulation import Simulation


def emitted(actions):
    return [a.signal for a in actions if isinstance(a, Emit)]


# -- pinned example transitions ------------------------------------------------

def test_trigger_starts_proxy_discovery():
    state, actions = fsm_step(fsm.ROLE_DMR, DmrState.IDLE, FsmEvent(fsm.EV_L2_TRIGGER))
    assert state == DmrState.SENT_RTSOLPR
    assert emitted(actions) == [SignalKind.RT_SOL_PR]


def test_map_starts_handover_on_binding_update():
    state, actions = fsm_step(fsm.ROLE_MAP, MapState.IDLE, FsmEvent(fsm.EV_FBU))
    assert state == MapState.SENT_HI
    assert emitted(actions) == [SignalKind.HI]


def test_nar_acknowledges_after_address_check():
    state, actions = fsm_step(fsm.ROLE_NAR, NarState.DAD_RUNNING, FsmEvent(fsm.EV_DAD_OK))
    assert state == NarState.TUNNEL_UP_BUFFERING
    assert emitted(actions) == [SignalKind.HACK]


def test_nar_flushes_on_announcement():
    state, actions = fsm_step(fsm.ROLE_NAR, NarState.TUNNEL_UP_BUFFERING,
                              FsmEvent(fsm.EV_FNA_RS))
    assert state == NarState.FLUSHED
    assert Do("flush_buffer") in actions


def test_unexpected_signal_ignored_with_marker():
    state, actions = fsm_step(fsm.ROLE_DMR, DmrState.SENT_RTSOLPR, FsmEvent(fsm.EV_LBACK))
    assert state == DmrState.SENT_RTSOLPR
    assert any(isinstance(a, Unexpected) for a in actions)


def test_fback_duplicates_are_idempotent():
    for state in (DmrState.IDLE, DmrState.GOT_FBACK, DmrState.LOCAL_REGISTERED):
        nxt, actions = fsm_step(fsm.ROLE_DMR, state, FsmEvent(fsm.EV_FBACK))
        assert nxt == state
        assert not any(isinstance(a, Unexpected) for a in actions)


def test_macro_map_waits_for_both_acknowledgements():
    state, actions = fsm_step(fsm.ROLE_MAP, MapState.SENT_HI,
                              FsmEvent(fsm.EV_HACK_NAR, macro=True))
    assert state == MapState.GOT_HACK and not emitted(actions)
    state, actions = fsm_step(fsm.ROLE_MAP, state, FsmEvent(fsm.EV_HACK_NEW_MAP, macro=True))
    assert state == MapState.FORWARDING
    assert SignalKind.FBACK in emitted(actions)


def test_reactive_collision_answered_with_alternative():
    state, actions = fsm_step(fsm.ROLE_NAR, NarState.IDLE,
                              FsmEvent(fsm.EV_FNA_FBU, collision=True))
    assert state == NarState.IDLE
    assert emitted(actions) == [SignalKind.NAACK]


def step_reg(state, kind, **flags):
    return fsm_step(fsm.ROLE_REG, state, FsmEvent(kind, **flags))


def test_registration_machine_happy_path():
    state, actions = step_reg(RegState.IDLE, fsm.EV_BA_HA)
    assert state == RegState.RR
    assert emitted(actions) == [SignalKind.HOTI, SignalKind.COTI]
    for _ in range(2):
        state, actions = step_reg(state, fsm.EV_TOKEN, complete=False)
        assert state == RegState.RR and not emitted(actions)
    state, actions = step_reg(state, fsm.EV_TOKEN, complete=True)
    assert state == RegState.SENT_BU_CN and emitted(actions) == [SignalKind.BU]
    state, actions = step_reg(state, fsm.EV_BA_CN)
    assert state == RegState.DONE


def test_registration_timeout_reprobes():
    state, _ = step_reg(RegState.IDLE, fsm.EV_BA_HA)
    state, _ = step_reg(state, fsm.EV_TOKEN)
    state, actions = step_reg(state, fsm.EV_RR_TIMEOUT)
    assert state == RegState.RR
    assert emitted(actions) == [SignalKind.HOTI, SignalKind.COTI]


def test_each_probe_round_arms_the_wait_for_its_tokens():
    """The registration table declares its timer: the home acknowledgement
    and each timeout send both probes and start `rr_timeout` between them."""
    probe = (Emit(SignalKind.HOTI, fsm.DEST_CN_VIA_HA), StartTimer("rr_timeout"),
             Emit(SignalKind.COTI, fsm.DEST_CN))
    assert step_reg(RegState.IDLE, fsm.EV_BA_HA) == (RegState.RR, probe)
    assert step_reg(RegState.RR, fsm.EV_RR_TIMEOUT) == (RegState.RR, probe)


def test_registration_token_outside_return_routability_is_unexpected():
    for state in (RegState.IDLE, RegState.SENT_BU_CN):
        nxt, actions = step_reg(state, fsm.EV_TOKEN, complete=True)
        assert nxt == state and actions == (Unexpected(fsm.EV_TOKEN),)


def step_mr(state, kind):
    return fsm_step(fsm.ROLE_MR, state, FsmEvent(kind))


def test_baseline_router_checks_then_registers():
    state, actions = step_mr(MrState.AWAIT_RA, fsm.EV_RA)
    assert state == MrState.DAD and emitted(actions) == [SignalKind.NS]
    state, actions = step_mr(state, fsm.EV_DAD_OK)
    assert state == MrState.REGISTERING and emitted(actions) == [SignalKind.BU]
    state, actions = step_mr(state, fsm.EV_BA_HA)
    assert state == MrState.REGISTERED and not actions


# -- exhaustive enumeration ------------------------------------------------------
# Fault-free event alphabets per role: every event a fault-free run can hand
# the machine, including both the predictive and reactive branches.

DMR_EVENTS = [
    FsmEvent(fsm.EV_L2_TRIGGER),
    FsmEvent(fsm.EV_PRRTADV),
    FsmEvent(fsm.EV_FBU_TIMER),
    FsmEvent(fsm.EV_FBACK),
    FsmEvent(fsm.EV_L2_DOWN),
    FsmEvent(fsm.EV_ATTACH_DONE, ncoa_known=True, fbu_sent=True),
    FsmEvent(fsm.EV_ATTACH_DONE, ncoa_known=True, fbu_sent=False),
    FsmEvent(fsm.EV_ATTACH_DONE, ncoa_known=False),
    FsmEvent(fsm.EV_RA),
    FsmEvent(fsm.EV_NAACK),
    FsmEvent(fsm.EV_FBU_RETX_TIMER),
    FsmEvent(fsm.EV_LBU_TIMER),
    FsmEvent(fsm.EV_LBACK, macro=False),
    FsmEvent(fsm.EV_LBACK, macro=True),
]

MAP_EVENTS = [
    FsmEvent(fsm.EV_FBU),
    FsmEvent(fsm.EV_FBU_VIA_NAR),
    FsmEvent(fsm.EV_HACK_NAR, macro=False),
    FsmEvent(fsm.EV_HACK_NAR, macro=True),
    FsmEvent(fsm.EV_HACK_NEW_MAP, macro=True),
    FsmEvent(fsm.EV_LBU_CUT),
]

NAR_EVENTS = [
    FsmEvent(fsm.EV_HI, macro=False),
    FsmEvent(fsm.EV_HI, macro=True),
    FsmEvent(fsm.EV_DAD_OK),
    FsmEvent(fsm.EV_FNA_RS),
    FsmEvent(fsm.EV_FNA_FBU, collision=False),
    FsmEvent(fsm.EV_FNA_FBU, collision=True),
]

NEW_MAP_EVENTS = [FsmEvent(fsm.EV_HI), FsmEvent(fsm.EV_DAD_OK)]

# Giving up is fault-free too: tokens that trail the timeout on a slow path
# use up the retries without any signal being lost.
REG_EVENTS = [
    FsmEvent(fsm.EV_BA_HA),
    FsmEvent(fsm.EV_TOKEN, complete=False),
    FsmEvent(fsm.EV_TOKEN, complete=True),
    FsmEvent(fsm.EV_BA_CN),
    FsmEvent(fsm.EV_RR_TIMEOUT),
    FsmEvent(fsm.EV_GIVE_UP),
]

# A colliding NA is fault-free as well: the address was in use.
MR_EVENTS = [
    FsmEvent(fsm.EV_RA),
    FsmEvent(fsm.EV_NA),
    FsmEvent(fsm.EV_DAD_OK),
    FsmEvent(fsm.EV_BA_HA),
    FsmEvent(fsm.EV_BU_REFRESH),
]

MACHINES = [
    (fsm.ROLE_DMR, DmrState.IDLE, DMR_EVENTS, {DmrState.IDLE}),
    (fsm.ROLE_MAP, MapState.IDLE, MAP_EVENTS, {MapState.IDLE}),
    (fsm.ROLE_NAR, NarState.IDLE, NAR_EVENTS, {NarState.FLUSHED}),
    (fsm.ROLE_NEW_MAP, NewMapState.IDLE, NEW_MAP_EVENTS, {NewMapState.IDLE}),
    (fsm.ROLE_REG, RegState.IDLE, REG_EVENTS, {RegState.DONE, RegState.FALLBACK}),
    (fsm.ROLE_MR, MrState.AWAIT_RA, MR_EVENTS, {MrState.REGISTERED}),
]


def explore(step, initial, events, signals_seen=None):
    """BFS the accepted-transition graph; returns states and their edges."""
    edges = {}
    frontier = [initial]
    states = {initial}
    while frontier:
        state = frontier.pop()
        edges[state] = []
        for ev in events:
            nxt, actions = step(state, ev)
            if any(isinstance(a, Unexpected) for a in actions):
                continue
            if signals_seen is not None:
                signals_seen.update(s for s in emitted(actions))
                signals_seen.update(EVENT_SIGNALS.get(ev.kind, ()))
            edges[state].append(nxt)
            if nxt not in states:
                states.add(nxt)
                frontier.append(nxt)
    return states, edges


def row_events(row):
    """Every event kind a `RECEIVE` row can give, through its guards."""
    if isinstance(row, Guard):
        return row_events(row.if_set) | row_events(row.if_clear)
    return {row}


# Signals implied by handing an event to a machine (receptions): the signal
# plane's rows, and the two signals whose handlers pick the event from the
# router's own state, RA and BA.
EVENT_SIGNALS = {fsm.EV_RA: {SignalKind.RA}, fsm.EV_BA_HA: {SignalKind.BA},
                 fsm.EV_BA_CN: {SignalKind.BA}}
for (_signal, _role), _row in fsm.RECEIVE.items():
    for _kind in row_events(_row) - {None}:
        EVENT_SIGNALS.setdefault(_kind, set()).add(_signal)


def reaches(edges, start, goals):
    seen, stack = set(), [start]
    while stack:
        s = stack.pop()
        if s in goals:
            return True
        if s in seen:
            continue
        seen.add(s)
        stack.extend(edges.get(s, ()))
    return False


def enumerate_all():
    """Walk every machine; returns (per-machine results, signal coverage)."""
    signals = set()
    results = {}
    for role, initial, events, terminals in MACHINES:
        states, edges = explore(lambda s, e, r=role: fsm_step(r, s, e),
                                initial, events, signals)
        results[role] = (states, edges, terminals)
    return results, signals


def test_every_machine_reaches_its_terminal_from_everywhere():
    results, _ = enumerate_all()
    for name, (states, edges, terminals) in results.items():
        for state in states:
            assert reaches(edges, state, terminals), (
                f"{name}: {state} cannot reach {terminals}")


def test_no_fault_free_dead_ends():
    results, _ = enumerate_all()
    for name, (states, edges, terminals) in results.items():
        for state in states:
            if state in terminals:
                continue
            assert edges.get(state), f"{name}: non-terminal sink {state}"


def test_all_protocol_signals_appear_in_enumeration():
    _, signals = enumerate_all()
    assert signals == set(SignalKind)


def branches(row, path=()):
    """Every guard path through a table row, as ((flag, value), ...)."""
    if not isinstance(row, Guard):
        return [path]
    return (branches(row.if_set, path + ((row.flag, True),))
            + branches(row.if_clear, path + ((row.flag, False),)))


def branch_taken(row, event):
    path = ()
    while isinstance(row, Guard):
        value = getattr(event, row.flag)
        path += ((row.flag, value),)
        row = row.if_set if value else row.if_clear
    return path


def test_every_table_row_is_taken():
    """The fault-free alphabets take every row and guard branch: none is dead.
    A terminal state absorbs every event, so a row out of one is dead too."""
    results, _ = enumerate_all()
    for role, _, events, _ in MACHINES:
        table = fsm.TABLES[role]
        rows = {(key, path) for key, row in table.items() for path in branches(row)}
        taken = {((state, ev.kind), branch_taken(table[state, ev.kind], ev))
                 for state in results[role][0] - fsm.TERMINAL_STATES for ev in events
                 if (state, ev.kind) in table}
        assert rows == taken, f"{role}: rows never taken {rows - taken}"


# -- the signal plane ------------------------------------------------------------

def emits():
    """Every (role, Emit) of every table row and guard branch."""
    def leaves(row):
        return leaves(row.if_set) + leaves(row.if_clear) if isinstance(row, Guard) else [row]
    return {(role, action) for role, table in fsm.TABLES.items() for row in table.values()
            for _, actions in leaves(row) for action in actions if isinstance(action, Emit)}


def test_every_receive_row_names_an_event_of_its_roles_table():
    """A row that steps a machine names an event its role's table has rows
    for; a row of None declares a signal that steps nothing."""
    for (signal, role), row in fsm.RECEIVE.items():
        kinds = row_events(row)
        if kinds == {None}:
            continue
        assert None not in kinds, (signal, role)
        table_kinds = {kind for _, kind in fsm.TABLES[role]}
        assert kinds <= table_kinds, (signal, role, kinds - table_kinds)
    for flag in {row.flag for row in fsm.RECEIVE.values() if isinstance(row, Guard)}:
        assert flag in fsm.SIGNAL_FLAGS


def test_every_emitted_signal_reaches_a_receive_row_or_a_node_handler():
    """The plane's map from each `Emit(kind, dest)` to the role it reaches,
    and there to its `RECEIVE` row, or else to a handler of that role's
    node.  Nodes are taken from one built simulation of each scheme."""
    nodes = {}
    for protocol in ("nemo-bs", "diff-nemo", "diff-fh-nemo"):
        for node in Simulation(ScenarioConfig(protocol=protocol)).nodes.values():
            for role in node.roles:
                nodes.setdefault(role, node)
    reached = set()
    for role, emit in emits():
        target = fsm.DEST_ROLES[emit.dest]
        reached.add((emit.signal, target))
        assert ((emit.signal, target) in fsm.RECEIVE
                or emit.signal in nodes[target].signal_handlers), (role, emit)
    # Every row is reached by an emitted signal, or by one that only a node
    # handler sends: the proxied advertisement, the local acknowledgement,
    # the correspondent's tokens and a colliding address's NA.
    handler_sent = {SignalKind.PR_RT_ADV, SignalKind.LBACK, SignalKind.HOT, SignalKind.COT,
                    SignalKind.NPT, SignalKind.NA}
    assert {key for key in fsm.RECEIVE if key[0] not in handler_sent} <= reached
