"""Edge conditioning and per-hop behaviour: SLA marking, token bucket, RED, strict priority."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .engine import RngStream, SimTime
from .packets import Address, Packet

# DSCP codepoints: EF is 46, AF(class i, drop precedence j) is 8i+2j, best effort 0.
EF = 46
BE = 0


def af(class_index: int, drop_precedence: int) -> int:
    return 8 * class_index + 2 * drop_precedence


AF11 = af(1, 1)
AF21 = af(2, 1)

# Strict-priority service order: EF, then AF classes 1..4, then best effort.
CLASS_EF = 0
CLASS_AF1 = 1
CLASS_AF2 = 2
CLASS_AF3 = 3
CLASS_AF4 = 4
CLASS_BE = 5
NUM_CLASSES = 6


def service_class(dscp: int) -> int:
    if dscp == EF:
        return CLASS_EF
    if 8 <= dscp <= 39 and dscp % 2 == 0:
        return CLASS_AF1 + (dscp // 8) - 1
    return CLASS_BE


# service_class of every six-bit codepoint, looked up once per enqueue.
_CLASS_OF_DSCP = tuple(service_class(dscp) for dscp in range(64))


def remark_out_of_profile(dscp: int) -> int:
    """Out-of-profile assured traffic moves to the next drop precedence."""
    if 8 <= dscp <= 39:
        i, j = dscp // 8, (dscp % 8) // 2
        return af(i, min(j + 1, 3))
    return dscp


IN_PROFILE = "in_profile"
OUT_OF_PROFILE = "out_of_profile"

ACCEPT = "accept"
DROP = "drop"


@dataclass(slots=True)
class TokenBucket:
    """Byte-count meter: rate in bits/second, depth and tokens in bytes."""

    rate_bps: int
    depth_bytes: float
    tokens: float = -1.0
    last_update: SimTime = 0

    def __post_init__(self) -> None:
        if self.tokens < 0:
            self.tokens = self.depth_bytes

    def meter(self, size_bytes: int, t: SimTime) -> str:
        elapsed = t - self.last_update
        self.tokens = min(self.depth_bytes, self.tokens + self.rate_bps * elapsed / 8e6)
        self.last_update = t
        if self.tokens >= size_bytes:
            self.tokens -= size_bytes
            return IN_PROFILE
        return OUT_OF_PROFILE


@dataclass
class SlaRule:
    """First-match rule for data: each address selector matches exactly, and
    an unset one is a wildcard.  Signals are marked when they are built."""

    dscp: int
    src: Optional[Address] = None
    dst: Optional[Address] = None
    meter_rate_bps: Optional[int] = None
    meter_depth_bytes: Optional[int] = None

    def matches(self, pkt: Packet) -> bool:
        return ((self.src is None or self.src == pkt.src)
                and (self.dst is None or self.dst == pkt.dst))


class SlaTable:
    """Ordered rule list with per-rule meters; unmatched traffic is best effort."""

    def __init__(self, rules: list[SlaRule]):
        self.rules = rules
        self._meters: dict[int, TokenBucket] = {}
        for i, rule in enumerate(rules):
            if rule.meter_rate_bps is not None:
                self._meters[i] = TokenBucket(rule.meter_rate_bps, rule.meter_depth_bytes or 2000)

    def classify_and_mark(self, pkt: Packet, t: SimTime) -> Packet:
        for i, rule in enumerate(self.rules):
            if not rule.matches(pkt):
                continue
            pkt.dscp = rule.dscp
            meter = self._meters.get(i)
            if meter is not None and meter.meter(pkt.size_bytes, t) == OUT_OF_PROFILE:
                pkt.dscp = remark_out_of_profile(rule.dscp)
            return pkt
        pkt.dscp = BE
        return pkt


@dataclass
class RedParams:
    min_th: float = 5
    max_th: float = 15
    max_p: float = 0.1
    w_q: float = 0.002
    capacity: int = 50


class PriorityScheduler:
    """One hop's per-hop behaviour: six class queues served in strict
    priority, FIFO within a class.  Expedited forwarding is drop-tail
    (RFC 3246); every other class runs random early detection on the EWMA of
    its backlog at each arrival (RFC 2597, Floyd & Jacobson 1993).

    The RED constants are read from `red_params` once, at construction: the
    arrival path loads plain attributes and does the same float arithmetic
    in the same order, so its averages and draws are those of the formulas
    read from the parameters.  A link that holds the scheduler counts the
    packets it has queued here itself (`LinkQueue`), so it asks the
    scheduler only to admit and to dequeue."""

    def __init__(self, red_params: RedParams, ef_capacity: int = 50):
        self.ef_capacity = ef_capacity
        self._keep = 1.0 - red_params.w_q
        self._w_q = red_params.w_q
        self._min_th = red_params.min_th
        self._max_th = red_params.max_th
        self._max_p = red_params.max_p
        self._th_span = red_params.max_th - red_params.min_th
        self._capacity = red_params.capacity
        # The class backlogs in service order; dequeue tests them directly.
        self._backlogs = tuple(deque() for _ in range(NUM_CLASSES))
        # Each class's RED average and arrivals accepted since its last drop.
        self._red_avg = [0.0] * NUM_CLASSES
        self._since_drop = [0] * NUM_CLASSES

    def admit(self, pkt: Packet, rng: RngStream) -> Optional[deque]:
        """The arrival's verdict: its class backlog when admitted, else None,
        which the caller reports as a drop.  The packet is not held: `enqueue`
        appends it, and a free link puts it on the wire, the same as appending
        to an empty scheduler and dequeuing at once."""
        dscp = pkt.dscp
        cls = _CLASS_OF_DSCP[dscp] if 0 <= dscp < 64 else service_class(dscp)
        backlog = self._backlogs[cls]
        n = len(backlog)
        if cls == CLASS_EF:
            return backlog if n < self.ef_capacity else None
        red_avg, since_drop = self._red_avg, self._since_drop
        avg = red_avg[cls] = self._keep * red_avg[cls] + self._w_q * n
        if avg >= self._max_th or n >= self._capacity:
            since_drop[cls] = 0
            return None
        if avg >= self._min_th:
            p_b = self._max_p * (avg - self._min_th) / self._th_span
            denom = 1.0 - since_drop[cls] * p_b
            if rng.uniform() < (1.0 if denom <= 0 else p_b / denom):
                since_drop[cls] = 0
                return None
        since_drop[cls] += 1
        return backlog

    def enqueue(self, pkt: Packet, rng: RngStream) -> str:
        backlog = self.admit(pkt, rng)
        if backlog is None:
            return DROP
        backlog.append(pkt)
        return ACCEPT

    def dequeue(self) -> Optional[Packet]:
        for backlog in self._backlogs:
            if backlog:
                return backlog.popleft()
        return None
