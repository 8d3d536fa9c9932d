"""Topology graph, link transmission timing, wireless cells, mobile-router motion."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from . import diffserv
from .engine import PACKET_ARRIVAL, SEC, TIMER_EXPIRY, Engine, Entry, SimTime
from .metrics import FLOW_BG
from .packets import Address, Packet

def serialization_us(size_bytes: int, bandwidth_bps: int) -> SimTime:
    return math.ceil(size_bytes * 8 * SEC / bandwidth_bps)


@dataclass(frozen=True, slots=True)
class Link:
    a: str
    b: str
    bandwidth_bps: int
    prop_delay_us: SimTime


@dataclass(frozen=True, slots=True)
class WirelessCell:
    bs: str
    center: tuple[float, float]
    radius_m: float


@dataclass(slots=True)
class MobilityTrack:
    waypoints: list[tuple[float, float]]
    speed_mps: float


def position_at(track: MobilityTrack, t: SimTime) -> tuple[float, float]:
    """Piecewise-linear motion along waypoints, clamped at the last one."""
    if t <= 0 or len(track.waypoints) == 1 or track.speed_mps <= 0:
        return track.waypoints[0]
    travelled = track.speed_mps * t / SEC
    for (x0, y0), (x1, y1) in zip(track.waypoints, track.waypoints[1:]):
        seg = math.dist((x0, y0), (x1, y1))
        if travelled <= seg:
            f = 0.0 if seg == 0 else travelled / seg
            return (x0 + f * (x1 - x0), y0 + f * (y1 - y0))
        travelled -= seg
    return track.waypoints[-1]


def strongest_bs(pos: tuple[float, float], cells: list[WirelessCell],
                 exclude: Optional[str] = None) -> Optional[str]:
    """Nearest in-range base station; ties go to the lowest node id."""
    best: Optional[tuple[float, str]] = None
    for cell in cells:
        if cell.bs == exclude:
            continue
        d = math.dist(pos, cell.center)
        if d <= cell.radius_m and (best is None or (d, cell.bs) < best):
            best = (d, cell.bs)
    return best[1] if best else None


def _segment_cell_crossings(p0, p1, t0: float, t1: float, cell: WirelessCell) -> list[tuple[float, str]]:
    """Boundary crossing times of one linear segment against one cell circle."""
    dx, dy = p1[0] - p0[0], p1[1] - p0[1]
    fx, fy = p0[0] - cell.center[0], p0[1] - cell.center[1]
    a = dx * dx + dy * dy
    if a == 0:
        return []
    b = 2 * (fx * dx + fy * dy)
    c = fx * fx + fy * fy - cell.radius_m ** 2
    disc = b * b - 4 * a * c
    if disc <= 0:
        return []
    sq = math.sqrt(disc)
    out = []
    for s in ((-b - sq) / (2 * a), (-b + sq) / (2 * a)):
        if 0 < s <= 1:
            # Moving inward when the radial derivative is negative.
            kind = "enter" if (b + 2 * a * s) < 0 else "exit"
            out.append((t0 + s * (t1 - t0), kind))
    return out


def cell_crossings(track: MobilityTrack, cells: list[WirelessCell],
                   end_us: SimTime) -> list[tuple[SimTime, str, str]]:
    """All (time_us, bs, enter|exit) boundary events along the track up to end_us."""
    events: list[tuple[SimTime, str, str]] = []
    t_cursor = 0.0
    for (x0, y0), (x1, y1) in zip(track.waypoints, track.waypoints[1:]):
        seg = math.dist((x0, y0), (x1, y1))
        if seg == 0 or track.speed_mps <= 0:
            continue
        dt = seg / track.speed_mps * SEC
        for cell in cells:
            for t, kind in _segment_cell_crossings((x0, y0), (x1, y1), t_cursor, t_cursor + dt, cell):
                if t <= end_us:
                    events.append((round(t), cell.bs, kind))
        t_cursor += dt
        if t_cursor > end_us:
            break
    events.sort()
    return events


# L2 plan entries consumed by the simulation.
@dataclass(slots=True)
class L2Plan:
    at: SimTime
    kind: str                      # "trigger" | "down" | "attach"
    bs: Optional[str] = None       # for attach: the new serving BS
    old_bs: Optional[str] = None
    new_bs: Optional[str] = None   # for trigger: predicted target
    handover_index: int = -1
    predicted_down: SimTime = 0

    def trace_str(self) -> str:
        return f"{self.kind}/{self.bs or self.new_bs}"


def build_l2_plan(track: MobilityTrack, cells: list[WirelessCell], end_us: SimTime,
                  lead_us: SimTime, l2_switch_us: SimTime,
                  predictive: bool) -> list[L2Plan]:
    """Walk the boundary crossings and plan the attachment timeline.

    An anticipatory trigger fires `lead_us` before each predicted exit of the
    serving cell when a successor cell will be available; the link-down fires
    at the crossing itself and re-attachment completes after `l2_switch_us`.
    """
    plan: list[L2Plan] = []
    attached: Optional[str] = None
    attach_done: SimTime = 0
    handover_index = 0
    start_bs = strongest_bs(position_at(track, 0), cells)
    if start_bs is not None:
        attached = start_bs
        attach_done = l2_switch_us
        plan.append(L2Plan(at=attach_done, kind="attach", bs=start_bs))
    for t, bs, kind in cell_crossings(track, cells, end_us):
        if kind == "enter" and attached is None:
            attached = bs
            attach_done = t + l2_switch_us
            plan.append(L2Plan(at=attach_done, kind="attach", bs=bs))
        elif kind == "exit" and bs == attached:
            pos = position_at(track, t + 1)
            target = strongest_bs(pos, cells, exclude=bs)
            if target is not None and predictive:
                trigger_at = max(t - lead_us, attach_done + 1)
                plan.append(L2Plan(at=trigger_at, kind="trigger", old_bs=bs, new_bs=target,
                                   handover_index=handover_index, predicted_down=t))
            # Link events settle one quantum after the geometric crossing so
            # same-instant signal arrivals are processed first.
            plan.append(L2Plan(at=t + 1, kind="down", bs=bs, handover_index=handover_index))
            if target is not None:
                attached = target
                attach_done = t + 1 + l2_switch_us
                plan.append(L2Plan(at=attach_done, kind="attach", bs=target,
                                   handover_index=handover_index))
                handover_index += 1
            else:
                attached = None
    plan.sort(key=lambda p: p.at)
    return plan


class LinkQueue:
    """One direction of a link: conditioning queues feeding a serial transmitter.

    Packets enter the priority scheduler (RED on assured and best-effort
    classes, drop-tail on expedited); the transmitter serializes one packet at
    a time and delivers it to the far end after the propagation delay.  Every
    arrival takes the scheduler's admission decision (`PriorityScheduler.admit`,
    RED's or drop-tail's, the one `enqueue` uses).  A packet that finds the
    transmitter free goes to the wire without being queued and dequeued,
    which is the same as queueing it in an empty scheduler and taking it at
    once; any other joins its class backlog.  The link counts the packets it
    has queued (`_queued`), so a packet waits exactly when the count is not
    zero, and a departure makes one scheduler call, `dequeue`.

    A traced run (the engine has a trace sink) drives the transmitter by
    events: each packet's transmit completion is an event that schedules its
    arrival and starts the next packet.  An untraced run keeps time with a
    clock: a send to a free link schedules the arrival at once and sets
    `free_at`, the instant serialization ends.  The completion that the
    traced run would process takes an insertion number reserved when the
    transmission starts (`_free_seq`), so the link is free once the running
    event is past `(free_at, _free_seq)`.  A completion event, a wake-up
    with no payload, is scheduled under that number only when a packet waits
    behind the one on the wire: at the first send during the transmission,
    or at its start if a packet waits already, when the number is taken by
    scheduling it.  A wake-up is thus pending exactly when a packet is
    queued.  Both give the same departures and arrivals, except that an
    arrival takes its insertion number when serialization starts rather
    than when it ends, so it can pop before an event scheduled in between
    for the same microsecond.

    A background source that sends into this queue sets `bg_station` to the
    far-end station it addresses.  That station discards such packets on
    arrival, so the arrival changes nothing but the trace: it is scheduled
    only when the engine has a trace sink.
    """

    def __init__(self, engine: Engine, link: Link, src: str, dst: str,
                 red_params: diffserv.RedParams,
                 on_drop: Callable[[Packet, str], None]):
        self.engine = engine
        self.src = src
        self.dst = dst
        self.scheduler = diffserv.PriorityScheduler(red_params)
        self.on_drop = on_drop
        # A traced run's transmitter is serializing a packet.
        self.busy = False
        self.free_at: SimTime = -1
        self._free_seq = -1
        # Packets in the scheduler's backlogs.
        self._queued = 0
        self.bg_station: Optional[Address] = None
        self.prop_delay_us = link.prop_delay_us
        self._ser_us = _SerializationTable(link.bandwidth_bps)
        self._timer_target = f"{src}->{dst}"
        # One label for every drop here, so a run's drop records share it.
        self._drop_where = f"queue:{self._timer_target}"
        engine.register(self._timer_target, self._on_tx_done)

    def send(self, pkt: Packet) -> None:
        engine = self.engine
        backlog = self.scheduler.admit(pkt, engine.rng)
        if backlog is None:
            self.on_drop(pkt, self._drop_where)
            return
        if self._queued:
            # Packets wait already, so the transmitter is busy.
            backlog.append(pkt)
            self._queued += 1
            return
        if engine.trace is not None:
            # The traced transmitter: a free one starts at once.
            if self.busy:
                backlog.append(pkt)
                self._queued = 1
            else:
                self.busy = True
                engine.schedule_in(self._ser_us[pkt.size_bytes], self._timer_target,
                                   TIMER_EXPIRY, pkt)
            return
        now = engine.now
        if now > self.free_at or (now == self.free_at and engine.now_seq > self._free_seq):
            # The link is free: the packet goes to the wire (cut-through).
            self._free_seq = engine.reserve_seq()
            ser = self._ser_us[pkt.size_bytes]
            self.free_at = now + ser
            if pkt.dst is not self.bg_station or pkt.flow != FLOW_BG:
                engine.schedule_in(ser + self.prop_delay_us, self.dst, PACKET_ARRIVAL, pkt)
        else:
            backlog.append(pkt)
            self._queued = 1
            engine.schedule_reserved(self.free_at, self._free_seq, self._timer_target,
                                     TIMER_EXPIRY)

    def _on_tx_done(self, event: Entry) -> None:
        engine = self.engine
        pkt = event[4]
        if pkt is None:
            # An untraced run's wake-up: the packet that finished already
            # has its arrival scheduled, and one waits behind it.  While a
            # wake-up is pending the link is busy, so only the last
            # transmission of a busy spell needs its number reserved.
            pkt = self.scheduler.dequeue()
            ser = self._ser_us[pkt.size_bytes]
            self.free_at = engine.now + ser
            if pkt.dst is not self.bg_station or pkt.flow != FLOW_BG:
                engine.schedule_in(ser + self.prop_delay_us, self.dst, PACKET_ARRIVAL, pkt)
            self._queued -= 1
            if self._queued:
                engine.schedule_in(ser, self._timer_target, TIMER_EXPIRY)
            else:
                self._free_seq = engine.reserve_seq()
            return
        # A traced run's completion: `pkt` leaves and the next one starts.
        engine.schedule_in(self.prop_delay_us, self.dst, PACKET_ARRIVAL, pkt)
        if not self._queued:
            self.busy = False
            return
        self._queued -= 1
        pkt = self.scheduler.dequeue()
        engine.schedule_in(self._ser_us[pkt.size_bytes], self._timer_target, TIMER_EXPIRY, pkt)


class _SerializationTable(dict):
    """`serialization_us` per packet size on one link, each computed at its
    first use; a run sends only a few sizes."""

    def __init__(self, bandwidth_bps: int):
        super().__init__()
        self.bandwidth_bps = bandwidth_bps

    def __missing__(self, size: int) -> SimTime:
        ser = self[size] = serialization_us(size, self.bandwidth_bps)
        return ser
