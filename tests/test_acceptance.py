"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the reference numbers they are checked against.
"""

import math
import random
import time

import pytest

from nemosim.diffserv import (ACCEPT, DROP, EF, IN_PROFILE, OUT_OF_PROFILE,
                              PriorityScheduler, RedParams, TokenBucket)
from nemosim.engine import MS, SEC, RngStream
from nemosim.experiment import run_scenario, sweep
from nemosim.metrics import CSV_HEADER
from nemosim.packets import DATA, Address, Packet, SignalKind, make_signal
from nemosim.nemo_bs import DAD_DELAY_US
from nemosim.scenario import (AIR_DELAY_US, AIR_RATE_BPS, PROTO_DIFF_FH, PROTO_DIFF_NEMO,
                              PROTO_NEMO_BS, START_X_M, FaultConfig, ScenarioConfig,
                              default_topology)
from nemosim.simulation import Simulation

SPEEDS = [15, 30, 45, 60, 75, 90]
CONGESTION_BPS = 1_200_000


def check(num, desc, ok):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: {desc}"


# -- shared expensive runs -------------------------------------------------------

# The benchmark's two pinned scenario seeds: 1, and 29, held out.
@pytest.fixture(scope="module", params=[1, 29], ids=lambda seed: f"seed{seed}")
def congested_sweep(request):
    cfg = ScenarioConfig(background_load_bps=CONGESTION_BPS, seed=request.param)
    started = time.monotonic()
    csv_text, reports = sweep(cfg, SPEEDS)
    wall = time.monotonic() - started
    by_key = {(r.protocol, r.speed_kmh): r for r in reports}
    return csv_text, by_key, wall


# -- helpers for the analytic oracles ----------------------------------------------

def ser_us(size_bytes, bw_bps):
    return math.ceil(size_bytes * 8 * 1_000_000 / bw_bps)


def hop_table(cfg):
    topo = default_topology(cfg)
    hops = {}
    for link in topo.links:
        hops[(link.a, link.b)] = (link.bandwidth_bps, link.prop_delay_us)
        hops[(link.b, link.a)] = (link.bandwidth_bps, link.prop_delay_us)
    for bs in topo.bs_to_ar:
        hops[(bs, "dmr")] = (AIR_RATE_BPS, AIR_DELAY_US)
        hops[("dmr", bs)] = (AIR_RATE_BPS, AIR_DELAY_US)
    hops[("dmr", "mnn")] = (100_000_000, 1000)
    return hops


def transit(hops, path, size_bytes):
    total = 0
    for a, b in zip(path, path[1:]):
        bw, prop = hops[(a, b)]
        total += ser_us(size_bytes, bw) + prop
    return total


# -- criterion 1: exact delay oracle ------------------------------------------------

def test_criterion_1_delay_oracle():
    started = time.monotonic()
    hops = hop_table(ScenarioConfig())
    # Hand-computed per-protocol one-way sums for a 1000-byte datagram
    # (tunnel legs carry 1040 bytes).
    oracles = {
        PROTO_NEMO_BS: (transit(hops, ["cn", "er", "ha"], 1000)
                        + transit(hops, ["ha", "er", "map1", "ar1", "bs1", "dmr"], 1040)
                        + transit(hops, ["dmr", "mnn"], 1000)),
        PROTO_DIFF_NEMO: transit(hops, ["cn", "er", "map1", "ar1", "bs1", "dmr"], 1000)
                         + transit(hops, ["dmr", "mnn"], 1000),
        PROTO_DIFF_FH: (transit(hops, ["cn", "er", "map1"], 1000)
                        + transit(hops, ["map1", "ar1", "bs1", "dmr"], 1040)
                        + transit(hops, ["dmr", "mnn"], 1000)),
    }
    assert oracles == {PROTO_NEMO_BS: 48720, PROTO_DIFF_NEMO: 44040,
                       PROTO_DIFF_FH: 44552}
    ok = True
    for proto, expected in oracles.items():
        cfg = ScenarioConfig(protocol=proto, sim_end_us=30 * SEC,
                             beacon_interval_us=0, waypoints=[(100.0, 0.0)])
        cfg.cbr.stop_us = 30 * SEC
        report = run_scenario(cfg)
        delays = {d for _, _, d in report.per_packet_delay}
        ok = ok and report.delivered > 0 and delays == {expected}
        print(f"  {proto}: measured {sorted(delays)} us, oracle {expected} us")
    wall = time.monotonic() - started
    check(1, f"one-way delay equals the per-hop sum exactly (wall {wall:.2f}s < 1s)",
          ok and wall < 1.0)


# -- criteria 2-4: the congested speed sweep -----------------------------------------

def test_criterion_2_packet_loss_ordering(congested_sweep):
    _, by_key, wall = congested_sweep
    ordered, strict = True, 0
    for v in SPEEDS:
        fh = by_key[(PROTO_DIFF_FH, v)].loss_pct
        dn = by_key[(PROTO_DIFF_NEMO, v)].loss_pct
        bs = by_key[(PROTO_NEMO_BS, v)].loss_pct
        print(f"  {v:2d} km/h loss%: fh={fh:6.2f} dn={dn:6.2f} bs={bs:6.2f}")
        ordered = ordered and fh <= dn <= bs
        if fh < dn < bs:
            strict += 1
    violations_ok = True
    for proto in (PROTO_DIFF_FH, PROTO_DIFF_NEMO, PROTO_NEMO_BS):
        curve = [by_key[(proto, v)].loss_pct for v in SPEEDS]
        violations = sum(1 for a, b in zip(curve, curve[1:]) if b < a)
        violations_ok = violations_ok and violations <= 1
    check(2, f"loss ordering each speed, strict at {strict}/6 (need >=4), "
             f"monotone curves, sweep wall {wall:.1f}s < 60s",
          ordered and strict >= 4 and violations_ok and wall < 60)


def test_criterion_3_forwarding_rate_trend(congested_sweep):
    _, by_key, _ = congested_sweep
    fh60 = by_key[(PROTO_DIFF_FH, 60)].forwarding_rate_pct
    dn60 = by_key[(PROTO_DIFF_NEMO, 60)].forwarding_rate_pct
    bs60 = by_key[(PROTO_NEMO_BS, 60)].forwarding_rate_pct
    print(f"  at 60 km/h: fh={fh60:.2f}% dn={dn60:.2f}% bs={bs60:.2f}%"
          f"  (reference study reported 48.43 / 45.27 / 38.03)")
    decreasing = True
    for proto in (PROTO_DIFF_FH, PROTO_DIFF_NEMO, PROTO_NEMO_BS):
        first = by_key[(proto, 15)].forwarding_rate_pct
        last = by_key[(proto, 90)].forwarding_rate_pct
        print(f"  {proto}: {first:.2f}% at 15 -> {last:.2f}% at 90")
        decreasing = decreasing and first > last
    check(3, "forwarding rate ordered at 60 km/h and decreasing toward 90 km/h",
          fh60 > dn60 > bs60 and decreasing)


def test_criterion_4_handover_latency_ordering(congested_sweep):
    _, by_key, _ = congested_sweep
    ordered, micro_lt_macro = True, True
    for v in SPEEDS:
        fh = by_key[(PROTO_DIFF_FH, v)]
        dn = by_key[(PROTO_DIFF_NEMO, v)]
        bs = by_key[(PROTO_NEMO_BS, v)]
        ordered = (ordered and
                   fh.ho_latency_mean_us < dn.ho_latency_mean_us < bs.ho_latency_mean_us)
        micro = fh.latency_mean_by_kind("micro")
        macro = fh.latency_mean_by_kind("macro")
        micro_lt_macro = micro_lt_macro and 0 < micro < macro
        print(f"  {v:2d} km/h mean ms: fh={fh.ho_latency_mean_us/1e3:7.1f} "
              f"dn={dn.ho_latency_mean_us/1e3:7.1f} bs={bs.ho_latency_mean_us/1e3:7.1f} "
              f"| fh micro={micro/1e3:6.1f} macro={macro/1e3:6.1f}")
    check(4, "mean handover latency ordered at every speed; micro < macro in-run",
          ordered and micro_lt_macro)


# -- criterion 5: baseline latency decomposition --------------------------------------

def test_criterion_5_baseline_latency_decomposition():
    cfg = ScenarioConfig(protocol=PROTO_NEMO_BS)
    report = run_scenario(cfg)
    assert len(report.handover_latencies_us) == 1
    measured = report.handover_latencies_us[0]

    hops = hop_table(cfg)
    cbr = cfg.cbr
    # Geometry: the serving-cell boundary (x=150) at walking speed from x=29.
    t_exit = round((150.0 - START_X_M) / cfg.speed_mps * SEC)
    t_down = t_exit + 1                              # settle quantum
    t_attach = t_down + cfg.l2_switch_us
    # Interval-driven detection: next beacon of the new access router.
    phase = 250 * MS
    beat = cfg.beacon_interval_us
    t_beacon = math.ceil((t_attach - phase) / beat) * beat + phase
    t_ra = t_beacon + transit(hops, ["ar2", "bs2", "dmr"], 64)
    detection_wait = t_ra - t_attach
    t_dad_done = t_ra + DAD_DELAY_US
    bu_up = transit(hops, ["dmr", "bs2", "ar2", "map1", "er", "ha"], 64)
    t_binding = t_dad_done + bu_up
    # First source packet intercepted after the binding refresh, then the
    # tunnel leg down to the sink.
    cn_to_ha = transit(hops, ["cn", "er", "ha"], 1000)
    k_new = math.floor((t_binding - cn_to_ha - cbr.start_us) / cbr.interval_us) + 1
    t_first_new = (cbr.start_us + k_new * cbr.interval_us + cn_to_ha
                   + transit(hops, ["ha", "er", "map1", "ar2", "bs2", "dmr"], 1040)
                   + transit(hops, ["dmr", "mnn"], 1000))
    # Last packet over the old station: its radio arrival precedes the link cut.
    down_old = (cn_to_ha + transit(hops, ["ha", "er", "map1", "ar1", "bs1", "dmr"], 1040))
    k_old = math.floor((t_down - 1 - down_old - cbr.start_us) / cbr.interval_us)
    t_last_old = (cbr.start_us + k_old * cbr.interval_us + down_old
                  + transit(hops, ["dmr", "mnn"], 1000))
    oracle = t_first_new - t_last_old
    print(f"  components us: l2={t_attach - t_exit} detect={detection_wait} "
          f"dad={DAD_DELAY_US} bu_up={bu_up} "
          f"resume_align={t_first_new - t_binding}")
    print(f"  oracle {oracle} us vs measured {measured} us")
    check(5, "baseline handover gap equals the closed-form oracle within 1 quantum",
          abs(measured - oracle) <= 1)


# -- criterion 6: zero-loss predictive micro handover ----------------------------------

def test_criterion_6_zero_loss_predictive_micro():
    cfg = ScenarioConfig(protocol=PROTO_DIFF_FH,
                         waypoints=[(60.0, 0.0), (220.0, 0.0)])
    assert cfg.nar_buffer_capacity >= 100 and cfg.lead_us == 200 * MS
    sim = Simulation(cfg)
    report = sim.run()
    seqs = list(report.seqs)
    no_dups = len(seqs) == len(set(seqs))
    print(f"  sent={report.sent} delivered={report.delivered} "
          f"dropped={report.dropped} duplicates={len(seqs) - len(set(seqs))}")
    check(6, "predictive micro handover loses zero packets and delivers no duplicates",
          report.dropped == 0 and no_dups and "micro" in report.handover_kinds)


# -- criterion 7: route-optimization path property --------------------------------------

def test_criterion_7_route_optimization_paths():
    cfg = ScenarioConfig(protocol=PROTO_DIFF_NEMO)
    sim = Simulation(cfg)
    report = sim.run()
    agent = sim.nodes["cn"]
    assert agent.bound_at, "correspondent never registered"
    t_bind = agent.bound_at[0]
    # A packet's creation instant is its delivery instant less its delay.
    rows = list(zip(report.delivered_at_us, report.delays_us, report.per_packet_path))
    pre = [path for t, delay, path in rows if t - delay < t_bind]
    post = [path for t, delay, path in rows if t - delay >= t_bind]
    pre_ok = pre and all("ha" in path for path in pre)
    post_ok = post and all("ha" not in path for path in post)
    # A forged binding update without routability tokens must be inert.
    cache_before = dict(agent.cache)
    rogue = make_signal(SignalKind.BU, Address(3, 2, 66), sim.topo.addresses["cn"],
                        t=0, info={"hoa": sim.topo.hoa, "coa": Address(3, 2, 66),
                                   "mnps": [sim.topo.mnp]})
    agent.on_binding_update(rogue)
    rogue_ok = agent.cache == cache_before and sim.metrics.drops["BU", "rejected@cn"] >= 1
    print(f"  pre-registration deliveries via anchor: {len(pre)}; "
          f"post-registration direct: {len(post)}")
    check(7, "delivered paths include the home agent only before registration; "
             "rogue binding update rejected",
          pre_ok and post_ok and rogue_ok)


# -- criterion 8: conditioning oracles ----------------------------------------------

def test_criterion_8_diffserv_oracles():
    rng = random.Random(808)
    bucket_ok = True
    for _ in range(10_000):
        rate = rng.choice([64_000, 128_000, 512_000])
        depth = rng.choice([1000, 2000, 4000])
        t, schedule = 0, []
        for _ in range(rng.randrange(3, 25)):
            t += rng.randrange(0, 150_000)
            schedule.append((t, rng.randrange(64, 1501)))
        tb = TokenBucket(rate_bps=rate, depth_bytes=depth)
        tokens, last = float(depth), 0
        for at, size in schedule:
            tokens = min(depth, tokens + rate * (at - last) / 8e6)
            last = at
            expect = IN_PROFILE if tokens >= size else OUT_OF_PROFILE
            if expect == IN_PROFILE:
                tokens -= size
            if tb.meter(size, at) != expect:
                bucket_ok = False

    params = RedParams(min_th=3, max_th=9, max_p=0.15, w_q=0.1, capacity=30)
    stream = RngStream(31)
    draws = [stream.uniform() for _ in range(10_000)]
    # Codepoint-0 packets: the best-effort class, which runs RED.
    queue = PriorityScheduler(params)
    live = RngStream(31)
    red_ok, avg, count, backlog, draw_i = True, 0.0, 0, 0, 0
    for _ in range(2000):
        verdict = queue.enqueue(
            Packet(src=Address(0, 0, 0), dst=Address(1, 1, 2), size_bytes=100,
                   kind=DATA), live)
        avg = (1 - params.w_q) * avg + params.w_q * backlog
        if avg >= params.max_th or backlog >= params.capacity:
            expect = DROP
            count = 0
        elif avg >= params.min_th:
            p_b = params.max_p * (avg - params.min_th) / (params.max_th - params.min_th)
            denom = 1.0 - count * p_b
            p_a = 1.0 if denom <= 0 else p_b / denom
            if draws[draw_i] < p_a:
                expect, count = DROP, 0
            else:
                expect, count = ACCEPT, count + 1
            draw_i += 1
        else:
            expect, count = ACCEPT, count + 1
        if expect == ACCEPT:
            backlog += 1
        if verdict != expect:
            red_ok = False

    sched = PriorityScheduler(RedParams())
    srng = RngStream(5)
    for _ in range(30):
        sched.enqueue(Packet(src=Address(0, 0, 0), dst=Address(1, 1, 2),
                             size_bytes=1000, kind=DATA), srng)
    starvation_ok = True
    for _ in range(500):
        ef = make_signal(SignalKind.FBU, Address(1, 1, 1), Address(0, 0, 0), t=0)
        ef.dscp = EF
        sched.enqueue(ef, srng)
        out = sched.dequeue()
        starvation_ok = starvation_ok and out.dscp == EF
    print(f"  bucket oracle x10000: {'ok' if bucket_ok else 'mismatch'}; "
          f"red oracle x2000: {'ok' if red_ok else 'mismatch'}; "
          f"strict-priority starvation: {'ok' if starvation_ok else 'broken'}")
    check(8, "token bucket, early-detection, and scheduler match their oracles",
          bucket_ok and red_ok and starvation_ok)


# -- criterion 9: determinism ---------------------------------------------------------

def test_criterion_9_determinism():
    identical = True
    for proto in (PROTO_NEMO_BS, PROTO_DIFF_NEMO, PROTO_DIFF_FH):
        cfg = ScenarioConfig(protocol=proto, dmr_speed_kmh=60,
                             background_load_bps=CONGESTION_BPS, seed=77,
                             sim_end_us=60 * SEC)
        cfg.cbr.stop_us = 60 * SEC
        t1 = []
        r1 = run_scenario(cfg, trace=t1)
        cfg2 = ScenarioConfig(protocol=proto, dmr_speed_kmh=60,
                              background_load_bps=CONGESTION_BPS, seed=77,
                              sim_end_us=60 * SEC)
        cfg2.cbr.stop_us = 60 * SEC
        t2 = []
        r2 = run_scenario(cfg2, trace=t2)
        same_trace = "\n".join(t1).encode() == "\n".join(t2).encode()
        same_row = r1.csv_row() == r2.csv_row()
        print(f"  {proto}: trace {len(t1)} events, byte-identical={same_trace}, "
              f"row-identical={same_row}")
        identical = identical and same_trace and same_row
    check(9, "same seed reproduces byte-identical traces and CSV rows", identical)


# -- criterion 10: machine exhaustiveness ----------------------------------------------

def test_criterion_10_fsm_exhaustiveness():
    from test_fsm import enumerate_all, reaches
    from nemosim.packets import SignalKind as SK
    results, signals = enumerate_all()
    live_ok, sink_ok = True, True
    for name, (states, edges, terminals) in results.items():
        for state in states:
            live_ok = live_ok and reaches(edges, state, terminals)
            if state not in terminals and not edges.get(state):
                sink_ok = False
    coverage_ok = signals == set(SK)
    total_states = sum(len(states) for states, _, _ in results.values())
    print(f"  machines: {len(results)}, states explored: {total_states}, "
          f"signals covered: {len(signals)}/{len(set(SK))}")
    check(10, "every fault-free trajectory can complete; all signals on tested "
              "transitions", live_ok and sink_ok and coverage_ok)
