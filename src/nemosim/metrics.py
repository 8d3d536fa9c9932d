"""One run's record: its counters, a row per delivered foreground packet, a
row per handover found as the deliveries arrive, and the figures the paper
compares, read from those rows."""

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

# Each (what, where) key, made once per process: keys made in each run raised peak RSS.
_LEDGER_KEYS: dict[tuple[str, str], tuple[str, str]] = {}


@dataclass(slots=True)
class Drop:
    seq: int
    at: SimTime
    where: str


class MetricsCollector:
    """Counts the foreground flow, and every packet lost, in one drop ledger.

    Each delivered CBR packet is one row of the columns `seqs`,
    `delivered_at_us` and `delays_us`, in delivery order, and one entry of
    `per_packet_path`.  Packets that took the same route share one path
    tuple, so that list holds references, not copies.  The columns are lists
    while the run records and `array('q')` once `finish` has run.
    `per_packet_delay` is a list of (seq, delivered_at, delay) tuples built
    from the columns on each access; read it once, not once per row.

    A route's serving station is its last node that is a key of `bs_to_map`.
    A delivery through a station other than the last delivery's is a handover:
    `handover_latencies_us` gets the gap since that station's last delivery,
    and `handover_kinds` gets micro or macro by whether the two stations hang
    off the same anchor point.  Deliveries through no station are skipped.

    Every loss reaches `record_drop`, by `Simulation.drop`, and counts once in
    the ledger `drops` under (what, where): the outermost signal layer's kind
    (`BU`), else the innermost packet's flow (`cbr`, `bg`, `up`); the reason
    and site (`queue:ar1->bs1`).  A lost CBR packet is also a row of
    `drops_detail`, with its seq and the instant.
    """

    def __init__(self, protocol: str, mode: str, speed_kmh: float, seed: int,
                 bs_to_map: dict[str, str]) -> None:
        self.protocol = protocol
        self.mode = mode
        self.speed_kmh = speed_kmh
        self.seed = seed
        self._bs_to_map = bs_to_map
        self.sent = 0
        self.seqs: list[int] | array = []
        self.delivered_at_us: list[int] | array = []
        self.delays_us: list[int] | array = []
        self.per_packet_path: list[tuple] = []
        self.drops_detail: list[Drop] = []
        self.drops: dict[tuple[str, str], int] = {}
        self.unexpected_signals = 0
        # Fast handovers that a new trigger found still open.
        self.abandoned_handovers = 0
        self.handover_latencies_us: list[int] = []
        self.handover_kinds: list[str] = []
        # The serving station of the last delivery that had one, and its instant.
        self._last_bs: Optional[str] = None
        self._last_bs_at: SimTime = 0
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
            serving = next((node for node in reversed(path) if node in self._bs_to_map), None)
            route = self._routes[path] = (path, serving)
        path, bs = route
        self.seqs.append(pkt.seq)
        self.delivered_at_us.append(t)
        self.delays_us.append(t - pkt.created_at)
        self.per_packet_path.append(path)
        if bs is not None:
            last = self._last_bs
            if last is not None and bs != last:
                bs_to_map = self._bs_to_map
                self.handover_latencies_us.append(t - self._last_bs_at)
                self.handover_kinds.append(MICRO if bs_to_map[last] == bs_to_map[bs] else MACRO)
            self._last_bs = bs
            self._last_bs_at = t

    def record_drop(self, pkt: Packet, t: SimTime, where: str) -> None:
        """File a loss in `drops` under (what, where), and a CBR one in
        `drops_detail` too."""
        layer = pkt
        while layer.signal is None and layer.inner is not None:
            layer = layer.inner
        what = layer.flow if layer.signal is None else layer.signal.value
        key = (what, where)
        key = _LEDGER_KEYS.setdefault(key, key)
        self.drops[key] = self.drops.get(key, 0) + 1
        if what == FLOW_CBR:
            self.drops_detail.append(Drop(layer.seq, t, where))

    def finish(self) -> None:
        """Close the record at the end of the run: pack the integer columns
        into `array('q')`, 8 bytes a row."""
        self.seqs = array("q", self.seqs)
        self.delivered_at_us = array("q", self.delivered_at_us)
        self.delays_us = array("q", self.delays_us)

    # -- figures -------------------------------------------------------------
    @property
    def delivered(self) -> int:
        return len(self.seqs)

    @property
    def dropped(self) -> int:
        return len(self.drops_detail)

    @property
    def in_flight_at_end(self) -> int:
        return self.sent - self.delivered - self.dropped

    @property
    def loss_pct(self) -> float:
        """Dropped share of the foreground flow, in percent."""
        return 100.0 * self.dropped / self.sent if self.sent else 0.0

    @property
    def forwarding_rate_pct(self) -> float:
        return 100.0 * self.delivered / self.sent if self.sent else 100.0

    @property
    def delay_mean_us(self) -> float:
        delays = self.delays_us
        return (sum(delays) / len(delays)) if delays else 0.0

    @property
    def per_packet_delay(self) -> list[tuple[int, int, int]]:
        """(seq, delivered_at, delay) per delivery, built on each access."""
        return list(zip(self.seqs, self.delivered_at_us, self.delays_us))

    @property
    def ho_latency_mean_us(self) -> float:
        latencies = self.handover_latencies_us
        return sum(latencies) / len(latencies) if latencies else 0.0

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
