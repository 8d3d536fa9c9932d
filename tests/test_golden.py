"""Golden outputs: the event trace, CSV row and drop ledger of criterion 9's scenario.

Criterion 9 only compares a run with a second run of the same code, so it
cannot see a change that alters the event stream for every run alike.  These
digests pin the stream itself: the same events, at the same instants, in the
same order, and the same RED draws.  Update them only in a change whose notes
name the cause of the new stream.

The same digests pin the trace file `nemosim run --trace` streams to disk,
which must also stay small in memory and survive a run that raises.

The digests pin the traced run, whose links are driven by transmit-completion
events.  An untraced run's links keep time with a clock instead, so it skips
the completions of links with nothing queued, and the background arrivals
that the stations discard unheard.  It must give the same row, deliveries
and drops.  One difference is allowed: an arrival takes its insertion number
when serialization starts, so two events at one microsecond can swap.  No
run checked here moves for it.

Both run the access routers' background ticks at one instant as lanes of one
event where nothing comes between them.  A traced run prints each tick that
runs inside another's event in its turn, so its trace holds a line per tick,
and the digests pin the lanes too.
"""

import hashlib
import json
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from census import SIGNAL_KINDS
from nemosim import cli, nodes
from nemosim.diffserv import PriorityScheduler
from nemosim.engine import MS, SEC, Engine, TraceWriter
from nemosim.experiment import run_scenario
from nemosim.metrics import FLOW_BG
from nemosim.network import LinkQueue
from nemosim.nodes import MnnNode
from nemosim.packets import DepthExceeded, Packet
from nemosim.scenario import (MODE_REACTIVE, PROTO_DIFF_FH, PROTO_DIFF_NEMO, PROTO_NEMO_BS,
                              CbrConfig, FaultConfig, ScenarioConfig, default_topology,
                              load_config)
from nemosim.simulation import Simulation
from probes import backlogged

# protocol -> (trace lines, SHA-256 of the trace, SHA-256 of the CSV row)
GOLDEN = {
    PROTO_NEMO_BS: (
        55609,
        "afb4a21d93169f737b1f79502884d4d45b5d3f253f75a3ca15f421b38152961d",
        "a84858dcc1acbb1704e8794d9db66f2e0e17d3e2aed0fb5cd934ff818fc1ec13"),
    PROTO_DIFF_NEMO: (
        55305,
        "48f5b21712615ad1f29680ea195aaab9bf256ea7d02cc24270a3a341f40be633",
        "8088232e3c40c12c8fb13acb800e3dd240985f233912ecb09fcf8d766ae7e8c7"),
    PROTO_DIFF_FH: (
        55434,
        "f7176a0583d3df3c3149960ae85d61353a61eacf6127cf9cd1e193bb489dd112",
        "1d202cb71c4d69b3aacdbbc5b0921cb6963203553acacb09a6469bdf810b2f24"),
}

# protocol -> (foreground drops by reason and site, signals lost): where
# criterion 9's runs lose packets, which the CSV row only counts.
GOLDEN_DROPS = {
    PROTO_NEMO_BS: ({"air_lost@bs2": 1, "detached@bs1": 13, "detached@bs2": 30,
                     "detached@bs3": 40, "detached@bs4": 15, "queue:ar1->bs1": 30,
                     "queue:ar2->bs2": 26, "queue:ar3->bs3": 19, "queue:ar4->bs4": 35}, 18),
    PROTO_DIFF_NEMO: ({"detached@bs1": 10, "detached@bs2": 20, "detached@bs3": 20,
                       "detached@bs4": 10}, 0),
    PROTO_DIFF_FH: ({"detached@bs2": 2, "detached@bs3": 2, "no_binding@map1": 2,
                     "no_binding@map2": 2}, 6),
}

# protocol -> the rest of the run's drop ledger, (what, where) -> losses:
# every background packet and signal criterion 9's runs lose.
GOLDEN_LEDGER = {
    PROTO_NEMO_BS: {("BA", "queue:ar1->bs1"): 1, ("BA", "queue:ar2->bs2"): 1,
                    ("RA", "queue:ar1->bs1"): 4, ("RA", "queue:ar2->bs2"): 5,
                    ("RA", "queue:ar3->bs3"): 3, ("RA", "queue:ar4->bs4"): 4,
                    ("bg", "queue:ar1->bs1"): 801, ("bg", "queue:ar2->bs2"): 797,
                    ("bg", "queue:ar3->bs3"): 801, ("bg", "queue:ar4->bs4"): 812},
    PROTO_DIFF_NEMO: {("bg", "queue:ar1->bs1"): 814, ("bg", "queue:ar2->bs2"): 808,
                      ("bg", "queue:ar3->bs3"): 816, ("bg", "queue:ar4->bs4"): 807},
    PROTO_DIFF_FH: {("FBack", "detached@bs2"): 4, ("FBack", "detached@bs3"): 2,
                    ("bg", "queue:ar1->bs1"): 816, ("bg", "queue:ar2->bs2"): 812,
                    ("bg", "queue:ar3->bs3"): 816, ("bg", "queue:ar4->bs4"): 816},
}

# protocol -> (queue refusals, background packets lost): the totals of the
# schedulers' per-class drop counts and of the record's background counter,
# which the ledger replaced, so it must add up to them.
LEDGER_TOTALS = {PROTO_NEMO_BS: (3339, 3211), PROTO_DIFF_NEMO: (3245, 3245),
                 PROTO_DIFF_FH: (3260, 3260)}


# The congested 60 km/h run of `nemosim run`'s example, at 1.2 Mb/s of background.
EXAMPLE_SCENARIO = Path(__file__).resolve().parents[1] / "scripts" / "scenario.example.json"

# Criterion 9's scenario, as ScenarioConfig fields and as a JSON scenario file.
CRITERION_9 = {"dmr_speed_kmh": 60, "background_load_bps": 1_200_000, "seed": 77,
               "sim_end_us": 60 * SEC}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_run(tmp_path, protocol):
    """`nemosim run` on criterion 9's scenario with the trace streamed to a
    file; returns the paths of the trace and of the CSV."""
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({**CRITERION_9, "protocol": protocol}))
    trace, out = tmp_path / "trace.tsv", tmp_path / "row.csv"
    cli.main(["run", "--config", str(config), "--trace", str(trace),
              "--out", str(out)])
    return trace, out


@pytest.mark.parametrize("protocol", list(GOLDEN))
def test_criterion_9_scenario_matches_golden(protocol):
    cfg = ScenarioConfig(protocol=protocol, **CRITERION_9)
    trace = []
    report = run_scenario(cfg, trace=trace)
    lines, trace_digest, row_digest = GOLDEN[protocol]
    assert len(trace) == lines
    assert sha256("\n".join(trace)) == trace_digest
    assert sha256(report.csv_row()) == row_digest


@pytest.mark.parametrize("protocol", list(GOLDEN_DROPS))
def test_criterion_9_drop_reasons_match_golden(protocol):
    report = Simulation(criterion_9(protocol)).run()
    reasons, signal_drops = GOLDEN_DROPS[protocol]
    assert Counter(d.where for d in report.drops_detail) == reasons
    ledger = report.drops
    assert ledger == {**{("cbr", where): n for where, n in reasons.items()},
                      **GOLDEN_LEDGER[protocol]}
    queued, background = LEDGER_TOTALS[protocol]
    assert sum(n for (_, where), n in ledger.items() if where.startswith("queue:")) == queued
    assert sum(n for (what, _), n in ledger.items() if what in SIGNAL_KINDS) == signal_drops
    assert sum(n for (what, _), n in ledger.items() if what == FLOW_BG) == background


@pytest.mark.parametrize("trace", [None, []], ids=["untraced", "traced"])
def test_ledger_queue_entries_are_the_schedulers_refusals(trace, monkeypatch):
    """Each arrival `PriorityScheduler.admit` refuses is filed once in the
    ledger, under its link's `queue:` label, whichever transmitter runs."""
    sim = Simulation(criterion_9(PROTO_NEMO_BS), trace=trace)
    labels = {id(q.scheduler): f"queue:{q.src}->{q.dst}" for q in sim.linkqueues.values()}
    refused = Counter()
    admit = PriorityScheduler.admit

    def spy(self, pkt, rng):
        backlog = admit(self, pkt, rng)
        if backlog is None:
            refused[labels[id(self)]] += 1
        return backlog
    monkeypatch.setattr(PriorityScheduler, "admit", spy)
    queued = Counter()
    for (_, where), n in sim.run().drops.items():
        if where.startswith("queue:"):
            queued[where] += n
    assert queued == refused and refused.total() == LEDGER_TOTALS[PROTO_NEMO_BS][0]


def run_counted(cfg, trace=None):
    """(report, events processed) of one run of `cfg`."""
    sim = Simulation(cfg, trace=trace)
    events = sim.engine.run_until(cfg.sim_end_us)
    return sim.run(), events   # the run finds nothing left to process


def background_arrivals(trace, topo) -> int:
    """Lines of a data packet from access router N arriving at base station N."""
    routes = {bs: f"{topo.addresses[ar]}→{topo.addresses[bs]}"
              for bs, ar in topo.bs_to_ar.items()}
    count = 0
    for line in trace:
        _, target, kind, detail = line.split("\t")
        if kind == "packet_arrival" and target in routes:
            label, route = detail.split("/")[:2]
            count += label.startswith("seq") and route == routes[target]
    return count


def count_inline_lanes(monkeypatch) -> list[bool]:
    """Spy on `Engine.run_reserved`: the list of its answers, True for each
    lane that ran inside another lane's event."""
    answers = []
    run_reserved = Engine.run_reserved

    def counted(engine, *args):
        answers.append(run_reserved(engine, *args))
        return answers[-1]
    monkeypatch.setattr(Engine, "run_reserved", counted)
    return answers


def one_event_per_tick(engine, seq, target, kind, payload=None):
    """`Engine.run_reserved` for an engine that never runs a lane inline:
    each lane pops as an event of its own."""
    engine.schedule_reserved(engine.now, seq, target, kind, payload)
    return False


@pytest.mark.parametrize("protocol", list(GOLDEN))
def test_untraced_run_skips_only_background_arrivals(protocol, monkeypatch):
    """An untraced run processes the traced run's lines less three kinds:
    the background arrivals that the stations discard, the transmit
    completions of links with nothing queued behind the packet, which a
    link's clock replaces, and the background ticks that ran inside another
    tick's event.  A traced run prints a line for every event it processes
    and for every tick that ran inside another."""
    cfg = ScenarioConfig(protocol=protocol, **CRITERION_9)
    answers = count_inline_lanes(monkeypatch)
    report, events = run_counted(cfg)
    inline = sum(answers)
    answers.clear()
    idle = []
    on_tx_done = LinkQueue._on_tx_done

    def counted(queue, event):
        idle.append(not backlogged(queue.scheduler))
        on_tx_done(queue, event)

    monkeypatch.setattr(LinkQueue, "_on_tx_done", counted)
    trace = []
    traced_report, traced_events = run_counted(cfg, trace)
    traced_inline = sum(answers)
    skipped = background_arrivals(trace, default_topology(cfg))
    assert sha256(report.csv_row()) == sha256(traced_report.csv_row()) == GOLDEN[protocol][2]
    assert traced_events + traced_inline == len(trace) == GOLDEN[protocol][0]
    assert skipped > 10_000 and sum(idle) > 1_000 and inline > 10_000 and traced_inline > 1_000
    assert events == len(trace) - skipped - sum(idle) - inline


def test_untraced_background_source_sends_one_packet(monkeypatch):
    """Untraced, each access router builds its background packet once and
    sends that object at every tick, as no reader needs a fresh one.  Traced,
    every tick builds its own packet, numbered one past the last, because the
    trace prints the number on each completion and arrival."""
    built, sent = [], []

    def counted_packet(*args, **kwargs):
        pkt = Packet(*args, **kwargs)
        if pkt.flow == FLOW_BG:
            built.append(pkt)
        return pkt

    send = LinkQueue.send

    def counted_send(queue, pkt):
        if pkt.flow == FLOW_BG:
            sent.append(pkt)
        send(queue, pkt)

    monkeypatch.setattr(nodes, "Packet", counted_packet)
    monkeypatch.setattr(LinkQueue, "send", counted_send)
    cfg = criterion_9(PROTO_DIFF_FH)
    topo = default_topology(cfg)
    routers = {topo.addresses[ar] for ar in topo.bs_to_ar.values()}
    Simulation(cfg).run()
    assert len(sent) > 10_000
    assert len(built) == len(routers) and {pkt.src for pkt in built} == routers
    assert {id(pkt) for pkt in sent} == {id(pkt) for pkt in built}

    built.clear()
    sent.clear()
    trace = []
    Simulation(cfg, trace=trace).run()
    assert len(built) == len(sent) == len({id(pkt) for pkt in sent}) > 10_000
    routes = {f"{ar}->{bs}": f"{topo.addresses[ar]}→{topo.addresses[bs]}"
              for bs, ar in topo.bs_to_ar.items()}
    last = dict.fromkeys(routes, -1)
    for line in trace:
        _, target, kind, detail = line.split("\t")
        if target in routes and kind == "timer_expiry":
            label, route = detail.split("/")[:2]
            if label.startswith("seq") and route == routes[target]:
                seq = int(label.removeprefix("seq"))
                assert seq > last[target]
                last[target] = seq
    assert min(last.values()) > 1_000


def outcome(cfg, trace):
    """What a run of `cfg` measured: its CSV row (or the exception that
    ended it, and when), the delivered seqs and instants, its drop records
    as a multiset and its drop ledger."""
    sim = Simulation(cfg, trace=trace)
    try:
        row = sim.run().csv_row()
    except DepthExceeded:
        row = f"DepthExceeded at {sim.engine.now}"
    m = sim.metrics
    return (row,
            list(zip(m.seqs, m.delivered_at_us)),
            Counter((d.seq, d.at, d.where) for d in m.drops_detail),
            m.drops)


def lead_cell(lead_ms, speed_kmh):
    return ScenarioConfig(protocol=PROTO_DIFF_FH, seed=1, lead_us=lead_ms * MS,
                          dmr_speed_kmh=speed_kmh, sim_end_us=60 * SEC)


def criterion_9(protocol):
    return ScenarioConfig(protocol=protocol, **CRITERION_9)


# Runs where a link's clock and the event transmitter could part: criterion
# 9's congested runs, the lead grid's failing cells (at 50 ms and 30 km/h a
# buffer flush lands on the microsecond a transmission ends, and at 50 ms
# and 60 km/h the run aborts), a reactive run and an address collision.  And
# criterion 9's scenario at 1 Mb/s of background: a tick every 16 ms, the
# time a background packet takes on an access downlink, so a link's wake-up
# reserved by one router's tick can fall due between two routers' ticks at
# one instant, and the later lanes yield to it.
EQUIVALENCE_RUNS = {
    **{f"criterion-9-{protocol}": lambda p=protocol: criterion_9(p) for protocol in GOLDEN},
    "background-1mbps": lambda: ScenarioConfig(
        protocol=PROTO_NEMO_BS, **{**CRITERION_9, "background_load_bps": 1_000_000}),
    **{f"lead-{lead}ms-{speed}kmh": lambda l=lead, s=speed: lead_cell(l, s)
       for lead in (50, 90) for speed in (30, 60)},
    "reactive": lambda: ScenarioConfig(protocol=PROTO_DIFF_FH, mode=MODE_REACTIVE,
                                       dmr_speed_kmh=60),
    "fna-collision": lambda: ScenarioConfig(
        protocol=PROTO_DIFF_FH, mode=MODE_REACTIVE, waypoints=[(60.0, 0.0), (220.0, 0.0)],
        faults=FaultConfig(dad_collision_handovers=(0,))),
}


def test_reactive_collision_run_matches_its_pin(tmp_path):
    """The reactive collision run under `nemosim run`: the new access router
    answers the first handover's FNA with a NAACK, and the router moves to
    the alternative address it offers."""
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"protocol": PROTO_DIFF_FH, "mode": MODE_REACTIVE,
                                  "waypoints": [[60.0, 0.0], [220.0, 0.0]],
                                  "faults": {"dad_collision_handovers": [0]}}))
    trace, out = tmp_path / "trace.tsv", tmp_path / "row.csv"
    assert cli.main(["run", "--config", str(config), "--trace", str(trace),
                     "--out", str(out)]) == 0
    data = trace.read_bytes()
    assert data.count(b"\n") == 31719
    assert hashlib.sha256(data).hexdigest() == (
        "091efbad6363e76829b8bc6a2b06e7d9ac5e00b971e29134f6f8df08be9d609a")
    assert out.read_text().split("\n")[1] == (
        "diff-fh-nemo,reactive,3.6,1,2250,2249,1,0.044,99.956,160.000,160.000,44.552")
    assert b"NAACK" in data


@pytest.mark.parametrize("name", list(EQUIVALENCE_RUNS))
def test_traced_and_untraced_runs_measure_the_same(name):
    untraced = outcome(EQUIVALENCE_RUNS[name](), None)
    traced = outcome(EQUIVALENCE_RUNS[name](), [])
    assert untraced[1] and untraced == traced


def test_background_lanes_tick_where_their_own_events_would(monkeypatch):
    """The access routers' ticks at one instant are lanes of one event.
    Whether the later lanes run inside it, or each tick pops as an event of
    its own (an engine that never lets a lane run inline), every background
    packet is sent at the same (time, insertion number), and the run
    measures the same.  At 1 Mb/s the lanes yield at least once to an event
    that falls due between them."""
    sends = []
    send = LinkQueue.send

    def counted(queue, pkt):
        if pkt.flow == FLOW_BG:
            sends.append((queue.engine.now, queue.engine.now_seq, queue.src))
        send(queue, pkt)
    monkeypatch.setattr(LinkQueue, "send", counted)

    cfg = EQUIVALENCE_RUNS["background-1mbps"]()
    answers = count_inline_lanes(monkeypatch)
    batched = outcome(cfg, None)
    batched_sends = sends[:]
    assert answers.count(False) >= 1 and answers.count(True) > 10_000

    monkeypatch.setattr(Engine, "run_reserved", one_event_per_tick)
    sends.clear()
    assert outcome(cfg, None) == batched
    assert len(batched_sends) > 10_000 and batched_sends == sends


class DigestFile:
    """A write-only text file that keeps only the SHA-256 of what it is given."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def write(self, text: str) -> None:
        self.hash.update(text.encode())


@pytest.mark.parametrize("name", ["background-1mbps", "example"])
def test_traced_lanes_write_the_trace_of_one_event_per_tick(name, monkeypatch):
    """In a traced run too, the access routers' later ticks run inside the
    first one's event where nothing comes between them, and each prints its
    line in its turn.  The trace file is the same, byte for byte, and the
    run measures the same, as when every tick pops as an event of its own.
    At 1 Mb/s a tick takes as long as a background packet on the downlink,
    and a traced link schedules a completion per packet, so there the lanes
    both yield and run inline, each thousands of times."""
    if name == "example":
        cfg = load_config(str(EXAMPLE_SCENARIO))
    else:
        cfg = EQUIVALENCE_RUNS[name]()

    def traced():
        out = DigestFile()
        return outcome(cfg, TraceWriter(out)), out.hash.hexdigest()

    answers = count_inline_lanes(monkeypatch)
    batched = traced()
    assert answers.count(True) > 1_000
    if name == "background-1mbps":
        assert answers.count(False) > 1_000

    monkeypatch.setattr(Engine, "run_reserved", one_event_per_tick)
    assert traced() == batched


@settings(max_examples=12, deadline=None)
@example(background_bps=1_000_000, seed=3, protocol=PROTO_NEMO_BS, end_s=20)
@given(background_bps=st.one_of(st.sampled_from([1_000_000, 1_200_000]),
                                st.integers(min_value=800_000, max_value=2_000_000)),
       seed=st.integers(min_value=1, max_value=100),
       protocol=st.sampled_from(list(GOLDEN)),
       end_s=st.integers(min_value=10, max_value=20))
def test_any_background_measures_the_same_traced_and_untraced(background_bps, seed, protocol,
                                                              end_s):
    """Over background rates, seeds and schemes, the untraced run, whose
    background lanes share events, measures what the traced run does, where
    every tick is its own event."""
    cfg = ScenarioConfig(protocol=protocol, seed=seed, background_load_bps=background_bps,
                         dmr_speed_kmh=90, sim_end_us=end_s * SEC, cbr=CbrConfig(start_us=SEC))
    untraced = outcome(cfg, None)
    assert untraced[1] and untraced == outcome(cfg, [])


def test_stepped_runs_keep_the_same_clock_traced_and_untraced():
    """A run stepped from outside sits at each step's end, traced or not,
    though the untraced run has fewer events and its last one can come
    earlier; so code acting between steps acts at the same instant in both."""
    def stepped(trace):
        return Simulation(ScenarioConfig(protocol=PROTO_DIFF_FH, sim_end_us=30 * SEC,
                                         waypoints=[(100.0, 0.0)]), trace=trace)

    untraced, traced = stepped(None), stepped([])
    for t in range(21 * SEC, 23 * SEC, 37_003):
        untraced.engine.run_until(t)
        traced.engine.run_until(t)
        assert untraced.engine.now == traced.engine.now == t


@pytest.mark.parametrize("protocol", list(GOLDEN))
def test_streamed_trace_file_matches_golden(tmp_path, protocol):
    trace, out = cli_run(tmp_path, protocol)
    data = trace.read_bytes()
    lines, trace_digest, row_digest = GOLDEN[protocol]
    assert data.endswith(b"\n")               # every line ends in a newline
    assert data.count(b"\n") == lines
    assert hashlib.sha256(data[:-1]).hexdigest() == trace_digest
    assert sha256(out.read_text().split("\n")[1]) == row_digest


def test_traced_cli_run_memory_stays_flat(tmp_path):
    # The trace of this run is about 55k lines: held in memory until the run
    # ended, it peaked at about 23 MB; streamed, the run peaks near 2.5 MB.
    tracemalloc.start()
    try:
        cli_run(tmp_path, PROTO_DIFF_FH)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


class Boom(Exception):
    pass


def test_failed_run_keeps_trace_up_to_failing_event(tmp_path, monkeypatch):
    failed_at = []

    def on_packet(node, pkt):
        if node.sim.now >= 30 * SEC:
            failed_at.append(node.sim.now)
            raise Boom

    monkeypatch.setattr(MnnNode, "on_packet", on_packet)
    cfg = ScenarioConfig(protocol=PROTO_DIFF_FH, **CRITERION_9)
    in_memory = []
    with pytest.raises(Boom):
        run_scenario(cfg, trace=in_memory)
    with pytest.raises(Boom):
        cli_run(tmp_path, PROTO_DIFF_FH)
    streamed = (tmp_path / "trace.tsv").read_text(encoding="utf-8")
    assert streamed == "\n".join(in_memory) + "\n"
    assert streamed.split("\n")[-2].startswith(f"{failed_at[-1]}\tmnn\tpacket_arrival\t")
    assert failed_at[0] == failed_at[-1] and 30 * SEC <= failed_at[0] < 60 * SEC
