"""Per-run counters, delivery records, and the derived performance metrics."""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Optional

from .engine import SimTime
from .packets import Packet

FLOW_CBR = "cbr"
FLOW_BG = "bg"

MICRO = "micro"
MACRO = "macro"


@dataclass(slots=True)
class Delivery:
    seq: int
    created_at: SimTime
    delivered_at: SimTime
    serving_bs: Optional[str]
    path: tuple

    @property
    def delay_us(self) -> SimTime:
        return self.delivered_at - self.created_at


@dataclass(slots=True)
class Drop:
    seq: int
    at: SimTime
    where: str


class MetricsCollector:
    """Counts the foreground flow; background and signalling are tallied aside."""

    def __init__(self) -> None:
        self.sent = 0
        self.deliveries: list[Delivery] = []
        self.drops: list[Drop] = []
        self.signal_drops = 0
        self.bg_drops = 0
        self.rejected_bindings = 0
        self.unexpected_signals = 0
        self.nar_buffer_drops = 0
        # route -> (its one shared tuple, its serving station); a run takes
        # about a dozen routes, so each delivery keeps a reference, not a copy.
        self._routes: dict[tuple, tuple[tuple, Optional[str]]] = {}

    def record_sent(self, pkt: Packet) -> None:
        if pkt.flow == FLOW_CBR:
            self.sent += 1

    def record_delivery(self, pkt: Packet, t: SimTime) -> None:
        path = tuple(pkt.path_log) if pkt.path_log else ()
        route = self._routes.get(path)
        if route is None:
            serving = next((node for node in reversed(path) if node.startswith("bs")), None)
            route = self._routes[path] = (path, serving)
        path, serving = route
        self.deliveries.append(Delivery(pkt.seq, pkt.created_at, t, serving, path))

    def record_drop(self, pkt: Packet, t: SimTime, where: str) -> None:
        """Count a drop by the flow of the innermost packet."""
        if pkt.inner is not None:
            pkt = pkt.innermost()
        flow = pkt.flow
        if flow == FLOW_BG:
            self.bg_drops += 1
        elif flow == FLOW_CBR:
            self.drops.append(Drop(pkt.seq, t, where))
        else:
            self.signal_drops += 1

    @property
    def delivered(self) -> int:
        return len(self.deliveries)

    @property
    def dropped(self) -> int:
        return len(self.drops)


def compute_loss(metrics: MetricsCollector) -> float:
    """Dropped share of the foreground flow, in percent."""
    if metrics.sent == 0:
        return 0.0
    return 100.0 * metrics.dropped / metrics.sent


def compute_forwarding_rate(metrics: MetricsCollector) -> float:
    if metrics.sent == 0:
        return 100.0
    return 100.0 * metrics.delivered / metrics.sent


def compute_handover_latency(deliveries: list[Delivery],
                             bs_to_map: dict[str, str]) -> list[tuple[SimTime, str]]:
    """Delivery gap around each serving base-station change.

    For each change of serving base station in the delivery sequence the
    latency is the arrival time of the first packet via the new station minus
    the arrival time of the last packet via the old one.  Each gap is labelled
    micro or macro by whether the two stations hang off the same anchor point.
    """
    gaps: list[tuple[SimTime, str]] = []
    last_bs: Optional[str] = None
    last_t: SimTime = 0
    for d in deliveries:
        if d.serving_bs is None:
            continue
        if last_bs is not None and d.serving_bs != last_bs:
            kind = MICRO if bs_to_map.get(last_bs) == bs_to_map.get(d.serving_bs) else MACRO
            gaps.append((d.delivered_at - last_t, kind))
        last_bs = d.serving_bs
        last_t = d.delivered_at
    return gaps


@dataclass
class MetricsReport:
    """One run's figures and its per-delivery record, held compactly.

    Each delivered CBR packet is one row of three `array('q')` columns,
    `seqs`, `delivered_at_us` and `delays_us`, in delivery order, and one
    entry of `per_packet_path`.  Packets that took the same route share one
    path tuple, so that list holds references, not copies.
    `per_packet_delay` is a list of (seq, delivered_at, delay) tuples built
    from the columns on each access; read it once, not once per row.
    """

    protocol: str
    mode: str
    speed_kmh: float
    seed: int
    sent: int
    delivered: int
    dropped: int
    loss_pct: float
    forwarding_rate_pct: float
    handover_latencies_us: list[int]
    handover_kinds: list[str]
    delay_mean_us: float
    seqs: array
    delivered_at_us: array
    delays_us: array
    per_packet_path: list[tuple]
    drops_detail: list[Drop]
    in_flight_at_end: int
    queue_drops: dict = None   # per egress queue, drop count per service class

    @property
    def per_packet_delay(self) -> list[tuple[int, int, int]]:
        """(seq, delivered_at, delay) per delivery, built on each access."""
        return list(zip(self.seqs, self.delivered_at_us, self.delays_us))

    @property
    def ho_latency_mean_us(self) -> float:
        if not self.handover_latencies_us:
            return 0.0
        return sum(self.handover_latencies_us) / len(self.handover_latencies_us)

    @property
    def ho_latency_max_us(self) -> int:
        return max(self.handover_latencies_us, default=0)

    def latency_mean_by_kind(self, kind: str) -> float:
        vals = [lat for lat, k in zip(self.handover_latencies_us, self.handover_kinds)
                if k == kind]
        if not vals:
            return 0.0
        return sum(vals) / len(vals)

    def csv_row(self) -> str:
        return ",".join([
            self.protocol,
            self.mode,
            f"{self.speed_kmh:g}",
            str(self.seed),
            str(self.sent),
            str(self.delivered),
            str(self.dropped),
            f"{self.loss_pct:.3f}",
            f"{self.forwarding_rate_pct:.3f}",
            f"{self.ho_latency_mean_us / 1000.0:.3f}",
            f"{self.ho_latency_max_us / 1000.0:.3f}",
            f"{self.delay_mean_us / 1000.0:.3f}",
        ])


CSV_HEADER = ("protocol,mode,speed_kmh,seed,sent,delivered,dropped,"
              "loss_pct,fwd_rate_pct,ho_latency_mean_ms,ho_latency_max_ms,delay_mean_ms")


def build_report(config, metrics: MetricsCollector, bs_to_map: dict[str, str],
                 queue_drops: dict) -> MetricsReport:
    deliveries = metrics.deliveries
    gaps = compute_handover_latency(deliveries, bs_to_map)
    delays = array("q", [d.delay_us for d in deliveries])
    return MetricsReport(
        protocol=config.protocol,
        mode=config.mode,
        speed_kmh=config.dmr_speed_kmh,
        seed=config.seed,
        sent=metrics.sent,
        delivered=metrics.delivered,
        dropped=metrics.dropped,
        loss_pct=compute_loss(metrics),
        forwarding_rate_pct=compute_forwarding_rate(metrics),
        handover_latencies_us=[g for g, _ in gaps],
        handover_kinds=[k for _, k in gaps],
        delay_mean_us=(sum(delays) / len(delays)) if delays else 0.0,
        seqs=array("q", [d.seq for d in deliveries]),
        delivered_at_us=array("q", [d.delivered_at for d in deliveries]),
        delays_us=delays,
        per_packet_path=[d.path for d in deliveries],
        drops_detail=list(metrics.drops),
        in_flight_at_end=metrics.sent - metrics.delivered - len(metrics.drops),
        queue_drops=queue_drops,
    )
