import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nemosim.diffserv import (ACCEPT, AF11, AF21, BE, CLASS_BE, DROP, EF, IN_PROFILE,
                              OUT_OF_PROFILE, PriorityScheduler, RedParams,
                              SlaRule, SlaTable, TokenBucket, af,
                              remark_out_of_profile, service_class)
from nemosim.engine import RngStream
from nemosim.packets import DATA, Address, Packet, SignalKind, make_signal
from nemosim.scenario import (PROTO_DIFF_FH, PROTO_DIFF_NEMO, PROTO_NEMO_BS,
                              ScenarioConfig, default_sla_rules, default_topology)
from nemosim.simulation import Simulation

CN = Address(0, 0, 0)
MNN = Address(1, 1, 2)


def data(size=1000, src=CN, dst=MNN):
    return Packet(src=src, dst=dst, size_bytes=size, kind=DATA)


# -- codepoints ---------------------------------------------------------------

def test_codepoint_mapping():
    assert EF == 46
    assert af(1, 1) == 10
    assert af(4, 3) == 38
    assert BE == 0


def test_remark_steps_drop_precedence():
    assert remark_out_of_profile(af(1, 1)) == af(1, 2)
    assert remark_out_of_profile(af(2, 3)) == af(2, 3)   # already at the floor
    assert remark_out_of_profile(BE) == BE


def test_service_class_ordering():
    assert service_class(EF) == 0
    assert service_class(af(1, 1)) == 1
    assert service_class(af(4, 2)) == 4
    assert service_class(BE) == 5


# -- classification ------------------------------------------------------------

def sla():
    topo = default_topology(ScenarioConfig())
    return SlaTable(default_sla_rules(topo))


def test_codepoint_of_signals_set_when_built_and_of_data_by_sla():
    """A signal is marked once, by `Simulation.make_signal`: expedited where
    the scheme runs DiffServ, best effort under basic support.  The SLA table
    marks data: the correspondent's flow AF11, upstream data AF21."""
    for protocol, signal_dscp in ((PROTO_DIFF_NEMO, EF), (PROTO_DIFF_FH, EF),
                                  (PROTO_NEMO_BS, BE)):
        sim = Simulation(ScenarioConfig(protocol=protocol))
        assert sim.make_signal(SignalKind.FBU, MNN, CN).dscp == signal_dscp
    addresses = default_topology(ScenarioConfig()).addresses
    cbr = data(src=addresses["cn"], dst=addresses["mnn"])
    upstream = data(src=addresses["mnn"], dst=addresses["cn"])
    table = sla()
    assert table.classify_and_mark(cbr, 0).dscp == AF11
    assert table.classify_and_mark(upstream, 0).dscp == AF21


def test_flow_rule_marks_assured():
    table = sla()
    assert table.classify_and_mark(data(), 0).dscp == AF11


def test_unmatched_flow_defaults_to_best_effort():
    table = sla()
    stranger = data(src=Address(3, 2, 9), dst=Address(0, 0, 1))
    assert table.classify_and_mark(stranger, 0).dscp == BE


def test_out_of_profile_remarked_not_dropped():
    rules = [SlaRule(dscp=AF11, meter_rate_bps=8_000, meter_depth_bytes=1000)]
    table = SlaTable(rules)
    first = table.classify_and_mark(data(1000), 0)
    burst = table.classify_and_mark(data(1000), 0)
    assert first.dscp == AF11
    assert burst.dscp == af(1, 2)


# -- token bucket ----------------------------------------------------------------

def test_meter_direct_accounting():
    tb = TokenBucket(rate_bps=128_000, depth_bytes=1500, tokens=1500)
    assert tb.meter(1000, t=0) == IN_PROFILE
    assert tb.tokens == pytest.approx(500)


def test_meter_insufficient_tokens_no_side_effect():
    tb = TokenBucket(rate_bps=128_000, depth_bytes=2000, tokens=100, last_update=0)
    assert tb.meter(1000, t=0) == OUT_OF_PROFILE
    assert tb.tokens == pytest.approx(100)
    assert tb.last_update == 0


def test_steady_cbr_below_rate_stays_in_profile():
    # 1000-byte packets every 80 ms is 100 kb/s, below the 128 kb/s contract.
    tb = TokenBucket(rate_bps=128_000, depth_bytes=2000)
    for k in range(500):
        assert tb.meter(1000, t=k * 80_000) == IN_PROFILE


def brute_force_meter(rate_bps, depth, schedule):
    """Independent replay of the refill-then-spend accounting."""
    tokens = depth
    last = 0
    verdicts = []
    for t, size in schedule:
        tokens = min(depth, tokens + rate_bps * (t - last) / 8e6)
        last = t
        if tokens >= size:
            tokens -= size
            verdicts.append(IN_PROFILE)
        else:
            verdicts.append(OUT_OF_PROFILE)
    return verdicts


def test_meter_matches_brute_force_on_random_schedules():
    rng = random.Random(2024)
    for trial in range(200):
        rate = rng.choice([64_000, 128_000, 1_000_000])
        depth = rng.choice([1000, 2000, 5000])
        t, schedule = 0, []
        for _ in range(50):
            t += rng.randrange(0, 120_000)
            schedule.append((t, rng.randrange(64, 1500)))
        tb = TokenBucket(rate_bps=rate, depth_bytes=depth)
        got = [tb.meter(size, t) for t, size in schedule]
        assert got == brute_force_meter(rate, depth, schedule)


@given(st.lists(st.tuples(st.integers(0, 200_000), st.integers(1, 2000)),
                min_size=1, max_size=100))
def test_tokens_never_negative_never_above_depth(deltas):
    tb = TokenBucket(rate_bps=128_000, depth_bytes=2000)
    t = 0
    for dt, size in deltas:
        t += dt
        tb.meter(size, t)
        assert 0 <= tb.tokens <= 2000


# -- random early detection --------------------------------------------------------
# `data()` packets carry codepoint 0, so they exercise the best-effort class.

def test_red_below_threshold_accepts():
    q = PriorityScheduler(RedParams(min_th=5, max_th=15))
    assert q.enqueue(data(), RngStream(1)) == ACCEPT


def test_red_above_max_drops():
    q = PriorityScheduler(RedParams(min_th=1, max_th=3, w_q=1.0, capacity=50))
    rng = RngStream(1)
    for _ in range(6):
        q.enqueue(data(), rng)
    # With w_q=1 the average tracks the backlog, now past max_th.
    assert q.enqueue(data(), rng) == DROP


def test_red_capacity_drops_at_the_bound():
    # The average stays far below min_th, so only the capacity drops, and
    # it drops the arrival that finds `capacity` packets queued.
    q = PriorityScheduler(RedParams(min_th=100, max_th=200, w_q=0.002, capacity=3))
    rng = RngStream(1)
    assert [q.enqueue(data(), rng) for _ in range(4)] == [ACCEPT] * 3 + [DROP]
    assert q._since_drop[CLASS_BE] == 0


def test_red_midpoint_probability():
    params = RedParams(min_th=5, max_th=15, max_p=0.1, w_q=0.002)
    # At the midpoint of the thresholds the raw drop probability is max_p/2.
    avg = 10.0
    p_b = params.max_p * (avg - params.min_th) / (params.max_th - params.min_th)
    assert p_b == pytest.approx(0.05)


def red_oracle(params, backlog_sizes, draws):
    """Re-derivation of the accept/drop sequence from the update formula."""
    avg, count = 0.0, 0
    verdicts = []
    backlog = 0
    draw_i = 0
    for _ in backlog_sizes:
        avg = (1 - params.w_q) * avg + params.w_q * backlog
        if avg >= params.max_th or backlog >= params.capacity:
            verdicts.append(DROP)
            count = 0
            continue
        if avg >= params.min_th:
            p_b = params.max_p * (avg - params.min_th) / (params.max_th - params.min_th)
            denom = 1.0 - count * p_b
            p_a = 1.0 if denom <= 0 else p_b / denom
            if draws[draw_i] < p_a:
                draw_i += 1
                verdicts.append(DROP)
                count = 0
                continue
            draw_i += 1
        count += 1
        backlog += 1
        verdicts.append(ACCEPT)
    return verdicts


def test_red_matches_formulaic_oracle_with_shared_stream():
    params = RedParams(min_th=2, max_th=8, max_p=0.2, w_q=0.2, capacity=20)
    draw_stream = RngStream(99)
    draws = [draw_stream.uniform() for _ in range(4000)]
    q = PriorityScheduler(params)
    rng = RngStream(99)
    got = [q.enqueue(data(), rng) for _ in range(200)]
    assert got == red_oracle(params, range(200), draws)


def test_red_deterministic_for_fixed_stream():
    params = RedParams(min_th=2, max_th=8, max_p=0.2, w_q=0.2)

    def run():
        q = PriorityScheduler(params)
        rng = RngStream(7)
        return [q.enqueue(data(), rng) for _ in range(100)]

    assert run() == run()


# -- strict priority -----------------------------------------------------------------

def test_dequeue_strict_priority():
    sched = PriorityScheduler(RedParams())
    rng = RngStream(1)
    be = data()
    ef = make_signal(SignalKind.FBU, MNN, CN, t=0)
    ef.dscp = EF
    sched.enqueue(be, rng)
    sched.enqueue(ef, rng)
    assert sched.dequeue() is ef
    assert sched.dequeue() is be
    assert sched.dequeue() is None


def test_fifo_within_class():
    sched = PriorityScheduler(RedParams())
    rng = RngStream(1)
    a, b = data(), data()
    a.dscp = b.dscp = EF
    sched.enqueue(a, rng)
    sched.enqueue(b, rng)
    assert sched.dequeue() is a
    assert sched.dequeue() is b


def test_backlogged_expedited_starves_lower_classes():
    """With the top queue persistently fed, nothing below ever departs."""
    sched = PriorityScheduler(RedParams())
    rng = RngStream(1)
    for _ in range(20):
        low = data()
        sched.enqueue(low, rng)
    departures = []
    for _ in range(200):
        ef = make_signal(SignalKind.FBU, MNN, CN, t=0)
        ef.dscp = EF
        sched.enqueue(ef, rng)
        out = sched.dequeue()
        departures.append(out.dscp)
    assert all(d == EF for d in departures)


def test_expedited_never_red_dropped():
    sched = PriorityScheduler(RedParams(min_th=1, max_th=2, w_q=1.0), ef_capacity=50)
    rng = RngStream(1)
    for _ in range(50):
        ef = make_signal(SignalKind.FBU, MNN, CN, t=0)
        ef.dscp = EF
        assert sched.enqueue(ef, rng) == ACCEPT


class ModelScheduler:
    """Brute-force strict priority: six lists, classes from service_class,
    drop-tail on expedited and RED from its update formula elsewhere."""

    def __init__(self, params, ef_capacity):
        self.params = params
        self.ef_capacity = ef_capacity
        self.queues = [[] for _ in range(6)]
        self.avg = [0.0] * 6
        self.count = [0] * 6

    def _red_accepts(self, cls, rng):
        p, backlog = self.params, len(self.queues[cls])
        self.avg[cls] = (1 - p.w_q) * self.avg[cls] + p.w_q * backlog
        if self.avg[cls] >= p.max_th or backlog >= p.capacity:
            self.count[cls] = 0
            return False
        if self.avg[cls] >= p.min_th:
            p_b = p.max_p * (self.avg[cls] - p.min_th) / (p.max_th - p.min_th)
            denom = 1.0 - self.count[cls] * p_b
            p_a = 1.0 if denom <= 0 else p_b / denom
            if rng.uniform() < p_a:
                self.count[cls] = 0
                return False
        self.count[cls] += 1
        return True

    def enqueue(self, pkt, rng):
        cls = service_class(pkt.dscp)
        if cls == 0:
            accepted = len(self.queues[0]) < self.ef_capacity
        else:
            accepted = self._red_accepts(cls, rng)
        if not accepted:
            return DROP
        self.queues[cls].append(pkt)
        return ACCEPT

    def dequeue(self):
        for queue in self.queues:
            if queue:
                return queue.pop(0)
        return None


# Codepoints outside 0-63 take service_class's own path in the scheduler.
DSCPS = st.one_of(st.sampled_from([0, 1, 10, 12, 41, 46, 47, 63, 64, 74, 110]),
                  st.integers(min_value=0, max_value=63))


@given(st.lists(st.one_of(DSCPS, st.none()), min_size=1, max_size=300),
       st.integers(min_value=0, max_value=2 ** 16))
def test_scheduler_matches_brute_force_model(ops, seed):
    """Each op enqueues a packet with that codepoint, or dequeues on None."""
    params = RedParams(min_th=2, max_th=6, max_p=0.3, w_q=0.3, capacity=8)
    sched, model = PriorityScheduler(params, ef_capacity=5), ModelScheduler(params, 5)
    rng, model_rng = RngStream(seed), RngStream(seed)
    for i, dscp in enumerate(ops):
        if dscp is None:
            assert sched.dequeue() is model.dequeue()
            continue
        pkt = data()
        pkt.seq, pkt.dscp = i, dscp
        assert sched.enqueue(pkt, rng) == model.enqueue(pkt, model_rng)
    while (pkt := model.dequeue()) is not None:
        assert sched.dequeue() is pkt
    assert sched.dequeue() is None
    assert rng.uniform() == model_rng.uniform()
