import gc
import tracemalloc
from array import array
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from census import SIGNAL_KINDS, cbr_held, signals_lost
from nemosim.engine import MS, PACKET_ARRIVAL, SEC
from nemosim.metrics import FLOW_CBR, MACRO, MICRO, MetricsCollector
from nemosim.packets import DATA, Address, Packet, SignalKind, encapsulate, make_signal
from nemosim.scenario import PROTO_DIFF_FH, PROTOCOLS, CbrConfig, ScenarioConfig
from nemosim.simulation import Simulation
from probes import innermost

CN = Address(0, 0, 0)
MNN = Address(1, 1, 2)
BS_TO_MAP = {"bs1": "map1", "bs2": "map1", "bs3": "map2", "bs4": "map2"}


def test_cbr_interval_is_eighty_ms():
    assert CbrConfig().interval_us == 80 * MS


@pytest.fixture(scope="module")
def cbr_sent():
    """(send time, seq) of every CBR packet a default run sends."""
    sim = Simulation(ScenarioConfig())
    sent, record = [], sim.metrics.record_sent

    def spy(pkt):
        if pkt.flow == FLOW_CBR:
            sent.append((pkt.created_at, pkt.seq))
        record(pkt)

    sim.metrics.record_sent = spy
    sim.run()
    return sent


def test_cbr_schedule_count_over_default_window(cbr_sent):
    assert len(cbr_sent) == 2250
    assert cbr_sent[0] == (20 * SEC, 0)
    assert cbr_sent[-1][0] < 200 * SEC


def test_cbr_starts_nothing_before_start(cbr_sent):
    assert all(t >= 20 * SEC for t, _ in cbr_sent)


def collector(bs_to_map=BS_TO_MAP):
    return MetricsCollector("nemo-bs", "predictive", 60, 1, bs_to_map)


def record_deliveries(delivered_at, serving_bs, bs_to_map=BS_TO_MAP):
    """A collector that was handed one CBR delivery per (instant, station);
    a station of None is a route through no base station."""
    m = collector(bs_to_map)
    for seq, (t, bs) in enumerate(zip(delivered_at, serving_bs)):
        path = ["cn", bs, "dmr"] if bs is not None else ["cn", "dmr"]
        m.record_delivery(Packet(src=CN, dst=MNN, size_bytes=1000, kind=DATA, flow="cbr",
                                 seq=seq, created_at=0, path_log=path), t)
    return m


def handover_rows(m):
    return list(zip(m.handover_latencies_us, m.handover_kinds))


def test_handover_latency_from_constructed_trace():
    delivered_at = [30_920_000, 31_000_000, 31_900_000, 31_980_000]
    m = record_deliveries(delivered_at, ["bs1", "bs1", "bs2", "bs2"])
    assert handover_rows(m) == [(900_000, MICRO)]


def test_handover_latency_classifies_macro():
    m = record_deliveries([10 * SEC, 11 * SEC], ["bs2", "bs3"])
    assert handover_rows(m) == [(1 * SEC, MACRO)]


def test_stationary_run_has_no_handovers():
    delivered_at = [i * SEC for i in range(5)]
    assert handover_rows(record_deliveries(delivered_at, ["bs1"] * 5)) == []


def test_serving_station_is_found_by_the_map_not_by_its_name():
    m = record_deliveries([1, 2, 3], ["cell1", "cell2", "bs9"], {"cell1": "m1", "cell2": "m2"})
    assert handover_rows(m) == [(1, MACRO)]


def reference_handovers(delivered_at_us, serving_bs, bs_to_map):
    """The gaps recomputed from the columns: for each change of serving
    station, the first delivery via the new one minus the last via the old
    one, micro when both hang off one anchor point."""
    gaps = []
    last_bs, last_t = None, 0
    for t, bs in zip(delivered_at_us, serving_bs):
        if bs is None:
            continue
        if last_bs is not None and bs != last_bs:
            kind = MICRO if bs_to_map.get(last_bs) == bs_to_map.get(bs) else MACRO
            gaps.append((t - last_t, kind))
        last_bs = bs
        last_t = t
    return gaps


@given(st.lists(st.tuples(st.integers(0, 10 ** 9),
                          st.sampled_from([None, *BS_TO_MAP])), max_size=40))
def test_recorded_handovers_equal_the_gaps_recomputed_from_the_columns(deliveries):
    deliveries.sort(key=lambda row: row[0])
    serving = [bs for _, bs in deliveries]
    m = record_deliveries([t for t, _ in deliveries], serving)
    assert handover_rows(m) == reference_handovers(m.delivered_at_us, serving, BS_TO_MAP)


def test_loss_percentage_arithmetic():
    m = collector()
    m.sent = 2250
    for i in range(225):
        m.drops_detail.append(None)
    assert m.loss_pct == 10.0


def test_conservation_recounted_from_records():
    m = collector()
    pkt = Packet(src=CN, dst=MNN, size_bytes=1000, kind=DATA, flow="cbr",
                 path_log=["cn"])
    for seq in range(10):
        p = Packet(src=CN, dst=MNN, size_bytes=1000, kind=DATA, flow="cbr",
                   seq=seq, path_log=["cn"])
        m.record_sent(p)
        if seq < 6:
            m.record_delivery(p, t=seq)
        elif seq < 9:
            m.record_drop(p, t=seq, where="test")
    assert m.sent == 10
    assert m.sent == m.delivered + m.dropped + 1   # one still in flight


def test_signal_and_background_drops_not_counted_as_loss():
    m = collector()
    m.sent = 10
    sig = make_signal(SignalKind.BU, MNN, CN, t=0)
    bg = Packet(src=CN, dst=MNN, size_bytes=1000, kind=DATA, flow="bg")
    m.record_drop(sig, 0, "x")
    m.record_drop(bg, 0, "x")
    assert m.dropped == 0
    assert m.drops == {("BU", "x"): 1, ("bg", "x"): 1}


def test_a_drop_is_filed_by_its_outermost_signal_else_its_innermost_flow():
    m = collector()
    fbu = make_signal(SignalKind.FBU, MNN, CN, t=0)
    fna = make_signal(SignalKind.FNA, MNN, CN, t=0)
    fna.inner = fbu
    cbr = Packet(src=CN, dst=MNN, size_bytes=1000, kind=DATA, flow="cbr", seq=7)
    for pkt in (encapsulate(fbu, MNN, CN), fna, encapsulate(encapsulate(cbr, CN, MNN), CN, MNN)):
        m.record_drop(pkt, 5, "x")
    assert m.drops == {("FBU", "x"): 1, ("FNA", "x"): 1, ("cbr", "x"): 1}
    assert [(d.seq, d.at, d.where) for d in m.drops_detail] == [(7, 5, "x")]


def test_upstream_datagram_lost_before_registration_is_no_signal():
    """An upstream datagram that the mobile router cannot send yet is filed
    under its own flow, not counted as a lost signal."""
    sim = Simulation(ScenarioConfig(protocol="nemo-bs"))
    sim.engine.run_until(10 * MS)
    assert sim.nodes["dmr"].upstream_coa() is None
    sim.nodes["mnn"].send_to_cn(seq=1)
    sim.engine.run_until(100 * MS)
    assert sim.metrics.drops == {("up", "mr_not_registered"): 1}
    assert signals_lost(sim.metrics) == 0


@pytest.mark.parametrize("run, site", [({"background_load_bps": 1_200_000}, "no_binding@map"),
                                       ({"nar_buffer_capacity": 0}, "nar_overflow@ar")],
                         ids=["congested", "no-buffer"])
def test_drops_at_one_site_share_one_label(run, site):
    """A drop site makes its label once, so every `drops_detail` row lost
    there holds the same string, not a copy of its own."""
    sim = Simulation(ScenarioConfig(protocol=PROTO_DIFF_FH, dmr_speed_kmh=60, **run))
    report = sim.run()
    rows = {}
    for drop in report.drops_detail:
        rows.setdefault(drop.where, []).append(drop.where)
    at_site = [labels for where, labels in rows.items() if where.startswith(site)]
    assert at_site and all(len(labels) > 1 for labels in at_site)
    assert all(label is labels[0] for labels in at_site for label in labels)


@pytest.mark.parametrize("background_load_bps", [0, 1_200_000])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_cbr_census_accounts_for_every_packet_sent(protocol, background_load_bps):
    """Every CBR packet sent is delivered, dropped or still held, checked every
    100 ms up to 60 s while the source still runs (it stops at 200 s)."""
    cfg = ScenarioConfig(protocol=protocol, dmr_speed_kmh=60,
                         background_load_bps=background_load_bps)
    sim = Simulation(cfg)
    m = sim.metrics
    for t in range(cfg.cbr.start_us, 60 * SEC + 1, 100 * MS):
        sim.engine.run_until(t)
        assert cbr_held(sim) == m.sent - m.delivered - len(m.drops_detail), f"at {t} us"
    assert m.sent == 501 and cbr_held(sim) > 0


def cbr_on_a_loaded_wire(sim) -> bool:
    """An untraced run's link serializes a CBR packet, whose arrival is
    scheduled, with a wake-up pending for a packet queued behind it."""
    arrivals = {(at, target): pkt for at, _, target, kind, pkt in sim.engine._heap
                if kind == PACKET_ARRIVAL}
    return any(q._queued and arrivals.get((q.free_at + q.prop_delay_us, q.dst)) is not None
               and innermost(arrivals[(q.free_at + q.prop_delay_us, q.dst)]).flow == FLOW_CBR
               for q in sim.linkqueues.values())


def test_cbr_census_holds_when_a_run_ends_mid_serialization():
    """The wake-up behind a packet on the wire carries no packet, so the
    census counts that packet once, by its arrival; a traced run's
    completion carries it instead, and has no arrival yet."""
    cfg = ScenarioConfig(protocol=PROTO_DIFF_FH, dmr_speed_kmh=60,
                         background_load_bps=1_200_000)
    probe = Simulation(cfg)
    end = cfg.cbr.start_us
    while not cbr_on_a_loaded_wire(probe):
        end += MS
        probe.engine.run_until(end)
    cfg.sim_end_us = cfg.cbr.stop_us = end
    for trace in (None, []):
        sim = Simulation(cfg, trace=trace)
        report = sim.run()
        assert trace is not None or cbr_on_a_loaded_wire(sim)
        assert cbr_held(sim) == report.sent - report.delivered - report.dropped > 0


def sixty_second_run(protocol, background_load_bps=0):
    return ScenarioConfig(protocol=protocol, dmr_speed_kmh=60, sim_end_us=60 * SEC,
                          cbr=CbrConfig(stop_us=60 * SEC),
                          background_load_bps=background_load_bps)


@pytest.mark.parametrize("background_load_bps", [0, 1_200_000])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_report_columns_match_the_deliveries(protocol, background_load_bps):
    sim = Simulation(sixty_second_run(protocol, background_load_bps))
    report = sim.run()
    assert report is sim.metrics and report.delivered > 0
    # One row per delivered packet, each an 8-byte int in every column.
    paths = report.per_packet_path
    assert all(type(column) is array and column.typecode == "q" and len(column) == len(paths)
               for column in (report.seqs, report.delivered_at_us, report.delays_us))
    assert len(paths) == report.delivered
    # Packets that took one route share its tuple.
    assert len({id(p) for p in paths}) == len(set(paths))


@pytest.mark.parametrize("protocol, signal_drops",
                         [("nemo-bs", 13), ("diff-nemo", 0), ("diff-fh-nemo", 6)])
def test_run_returns_the_record_with_the_counters_no_row_carries(protocol, signal_drops):
    """`Simulation.run` returns `sim.metrics` itself, so its counters and the
    drop ledger come with the figures."""
    sim = Simulation(sixty_second_run(protocol, 1_200_000))
    report = sim.run()
    assert report is sim.metrics
    assert report.unexpected_signals == 0
    assert not [where for _, where in report.drops if where.startswith("nar_overflow@")]
    assert signals_lost(report) == signal_drops
    assert report.dropped == len(report.drops_detail) > 0
    # The ledger's CBR entries are the rows of `drops_detail`, and every
    # background packet is lost in a queue.
    by_what = {}
    for (what, where), n in report.drops.items():
        by_what.setdefault(what, Counter())[where] = n
    assert by_what.pop("cbr") == Counter(d.where for d in report.drops_detail)
    background = by_what.pop("bg")
    assert all(where.startswith("queue:") for where in background)
    assert background.total() > 0
    assert set(by_what) <= SIGNAL_KINDS


def test_report_retains_few_bytes_per_delivered_packet():
    # A column row is three 8-byte ints and a path is one shared reference,
    # about 37 B a delivery with list slack; a tuple per row and a fresh path
    # per packet take about 260 B.  The bound leaves room for other CPython
    # versions.
    cfg = sixty_second_run(PROTO_DIFF_FH)
    gc.collect()
    tracemalloc.start()
    try:
        report = Simulation(cfg).run()
        delivered = report.delivered
        gc.collect()
        with_report, _ = tracemalloc.get_traced_memory()
        del report
        gc.collect()
        without_report, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert delivered > 400
    assert (with_report - without_report) / delivered <= 80
