"""Scenario configuration, default topology, and config-file loading."""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, fields
from typing import Optional

from .diffserv import AF11, AF21, EF, RedParams, SlaRule
from .engine import MS, SEC, SimTime
from .network import Link, MobilityTrack, WirelessCell
from .packets import DATA, SIGNAL, Address, Prefix, SignalKind

PROTO_NEMO_BS = "nemo-bs"
PROTO_DIFF_NEMO = "diff-nemo"
PROTO_DIFF_FH = "diff-fh-nemo"
PROTOCOLS = (PROTO_NEMO_BS, PROTO_DIFF_NEMO, PROTO_DIFF_FH)

MODE_PREDICTIVE = "predictive"
MODE_REACTIVE = "reactive"

DETECT_INTERVAL = "interval"
DETECT_SOLICITED = "solicited"
DETECT_DEFAULT = "default"
DETECTIONS = (DETECT_INTERVAL, DETECT_SOLICITED, DETECT_DEFAULT)


class ConfigError(Exception):
    pass


@dataclass
class CbrConfig:
    packet_bytes: int = 1000
    rate_bps: int = 100_000
    start_us: SimTime = 20 * SEC
    stop_us: SimTime = 200 * SEC

    @property
    def interval_us(self) -> SimTime:
        return round(self.packet_bytes * 8 * SEC / self.rate_bps)


@dataclass
class FaultConfig:
    """Deterministic fault injection for exercising recovery paths."""

    dad_collision_handovers: tuple[int, ...] = ()
    fna_collision_handovers: tuple[int, ...] = ()
    drop_first_signals: tuple[str, ...] = ()


@dataclass
class ScenarioConfig:
    protocol: str = PROTO_DIFF_FH
    mode: str = MODE_PREDICTIVE
    dmr_speed_kmh: float = 3.6
    seed: int = 1
    sim_end_us: SimTime = 200 * SEC
    cbr: CbrConfig = field(default_factory=CbrConfig)
    background_load_bps: int = 0
    bg_packet_bytes: int = 2000

    # Radio and handover timing.
    lead_us: SimTime = 200 * MS
    l2_switch_us: SimTime = 50 * MS
    air_rate_bps: int = 2_000_000
    air_delay_us: SimTime = 1 * MS
    cell_radius_m: float = 50.0

    # Address configuration and registration timing.
    dad_delay_us: SimTime = 500 * MS
    dad_fast_us: SimTime = 100 * MS
    dad_rcoa_us: SimTime = 180 * MS
    fbu_delay_us: SimTime = 40 * MS
    fbu_retx_us: SimTime = 60 * MS
    lbu_gap_us: SimTime = 1 * MS
    beacon_interval_us: SimTime = 1000 * MS
    binding_lifetime_us: SimTime = 60 * SEC
    binding_refresh_us: SimTime = 30 * SEC
    token_lifetime_us: SimTime = 10 * SEC
    rr_timeout_us: SimTime = 3 * SEC
    rr_retries: int = 2
    nar_buffer_capacity: int = 100
    movement_detection: str = DETECT_DEFAULT

    red: RedParams = field(default_factory=RedParams)
    force_reactive_at: tuple[int, ...] = ()
    faults: FaultConfig = field(default_factory=FaultConfig)

    # Track geometry; a None waypoint list selects the default bounce track.
    start_x_m: float = 29.0
    bounce_near_x_m: float = 55.0
    bounce_far_x_m: float = 385.0
    waypoints: Optional[list[tuple[float, float]]] = None

    def validate(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"unknown protocol {self.protocol!r}")
        if self.mode not in (MODE_PREDICTIVE, MODE_REACTIVE):
            raise ConfigError(f"unknown mode {self.mode!r}")
        # A string where a number belongs would fail deep inside the run or
        # escape as a raw TypeError from a comparison below, a bool would run
        # as 1 or 0, a NaN passes every range check below (a NaN speed runs to
        # 100% loss), and an int past the float range fails mid-run.  A misspelt detection would silently run interval
        # detection, and an unknown signal kind would silently never be dropped.
        red, faults = self.red, self.faults
        ints = [("seed", self.seed), ("red.capacity", red.capacity),
                ("nar_buffer_capacity", self.nar_buffer_capacity),
                ("rr_retries", self.rr_retries)]
        ints += [("force_reactive_at", i) for i in self.force_reactive_at]
        ints += [(f"faults.{key}", i) for key in ("dad_collision_handovers",
                                                   "fna_collision_handovers")
                 for i in getattr(faults, key)]
        for key, value in ints:
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{key} takes ints only, not {value!r}")
        sizes = (("cbr.packet_bytes", self.cbr.packet_bytes),
                 ("cbr.rate_bps", self.cbr.rate_bps),
                 ("bg_packet_bytes", self.bg_packet_bytes),
                 ("air_rate_bps", self.air_rate_bps))
        numbers = [*sizes, ("dmr_speed_kmh", self.dmr_speed_kmh),
                   ("cell_radius_m", self.cell_radius_m),
                   ("background_load_bps", self.background_load_bps),
                   ("red.min_th", red.min_th), ("red.max_th", red.max_th),
                   ("red.max_p", red.max_p), ("red.w_q", red.w_q),
                   ("start_x_m", self.start_x_m), ("bounce_near_x_m", self.bounce_near_x_m),
                   ("bounce_far_x_m", self.bounce_far_x_m)]
        # An empty track fails mid-build, and a point that is not an (x, y)
        # pair of numbers fails mid-run.
        if self.waypoints is not None:
            points = self.waypoints
            if (not isinstance(points, (list, tuple)) or not points
                    or any(not isinstance(p, (list, tuple)) or len(p) != 2 for p in points)):
                raise ConfigError(f"waypoints must be a non-empty list of [x, y] pairs, "
                                  f"not {points!r}")
            numbers += [("waypoints", v) for p in points for v in p]
        for key, value in numbers:
            if (not isinstance(value, (int, float)) or isinstance(value, bool)
                    or not abs(value) <= sys.float_info.max):
                raise ConfigError(f"{key} must be a finite number, not {value!r}")
        if self.dmr_speed_kmh <= 0:
            raise ConfigError("dmr_speed_kmh must be positive")
        if self.movement_detection not in DETECTIONS:
            raise ConfigError(f"movement_detection must be one of {', '.join(DETECTIONS)}, "
                              f"not {self.movement_detection!r}")
        kinds = {k.value for k in SignalKind}
        unknown = [s for s in faults.drop_first_signals if not isinstance(s, str) or s not in kinds]
        if unknown:
            raise ConfigError(f"faults.drop_first_signals names unknown signal kinds {unknown}")
        # Times are whole microseconds.  A string would fail mid-run at its
        # first comparison, and a negative time would schedule into the past
        # or plan the trigger or the attach out of order.  A beacon interval
        # of 0 means no beacons; a refresh interval of 0 would re-arm the
        # refresh at one instant forever.
        times = [(f.name, getattr(self, f.name)) for f in fields(self)]
        times += [(f"cbr.{f.name}", getattr(self.cbr, f.name)) for f in fields(self.cbr)]
        for key, value in times:
            if not key.endswith("_us"):
                continue
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{key} must be an int number of microseconds, not {value!r}")
            if value < 0:
                raise ConfigError(f"{key} must not be negative")
        # A lifetime of 0 expires each binding as it is made, so every scheme
        # runs to completion with nothing delivered.
        for key in ("binding_refresh_us", "binding_lifetime_us"):
            if getattr(self, key) == 0:
                raise ConfigError(f"{key} must be positive")
        if not (self.cbr.start_us < self.cbr.stop_us <= self.sim_end_us):
            raise ConfigError("cbr start must precede stop, and stop must not pass sim end")
        # Rates and sizes divide or are divided into packet intervals.  The
        # sources reschedule themselves one interval ahead, so an interval
        # that rounds to 0 us would keep the engine at one instant forever.
        for key, value in sizes:
            if value <= 0:
                raise ConfigError(f"{key} must be positive")
        # A radius of 0 m or less keeps the router outside every cell, so the
        # run completes with 100% loss.  A negative load would run as no load.
        if self.cell_radius_m <= 0:
            raise ConfigError("cell_radius_m must be positive")
        if self.background_load_bps < 0:
            raise ConfigError("background_load_bps must not be negative")
        # A queue that holds no packet delivers none, and a drop probability
        # outside [0, 1] or an averaging weight outside (0, 1] is not RED.
        if red.capacity <= 0:
            raise ConfigError(f"red.capacity must be positive, not {red.capacity!r}")
        if not 0 <= red.max_p <= 1:
            raise ConfigError(f"red.max_p must be in [0, 1], not {red.max_p!r}")
        if not 0 < red.w_q <= 1:
            raise ConfigError(f"red.w_q must be in (0, 1], not {red.w_q!r}")
        # A negative min_th early-drops at every backlog, and one at or above
        # max_th never early-drops, so RED would run as a tail drop.
        if not 0 <= red.min_th < red.max_th:
            raise ConfigError(f"red.min_th must be in [0, red.max_th={red.max_th!r}), "
                              f"not {red.min_th!r}")
        for key, value in (("nar_buffer_capacity", self.nar_buffer_capacity),
                           ("rr_retries", self.rr_retries)):
            if value < 0:
                raise ConfigError(f"{key} must not be negative, not {value!r}")
        if self.cbr.interval_us < 1:
            raise ConfigError("cbr.rate_bps is too high: the packet interval rounds to 0 us")
        if self.background_load_bps > 0 and self.bg_interval_us < 1:
            raise ConfigError("background_load_bps is too high: "
                              "the packet interval rounds to 0 us")

    @property
    def bg_interval_us(self) -> SimTime:
        """Gap between background packets on each access downlink."""
        return round(self.bg_packet_bytes * 8 * SEC / self.background_load_bps)

    @property
    def speed_mps(self) -> float:
        return self.dmr_speed_kmh / 3.6

    def solicited_detection(self) -> bool:
        if self.movement_detection == DETECT_DEFAULT:
            return self.protocol != PROTO_NEMO_BS
        return self.movement_detection == DETECT_SOLICITED

    def qos_enabled(self) -> bool:
        return self.protocol != PROTO_NEMO_BS


_NESTED_KEYS = {"cbr": CbrConfig, "red": RedParams, "faults": FaultConfig}
_TUPLE_KEYS = {"force_reactive_at", "dad_collision_handovers", "fna_collision_handovers",
               "drop_first_signals"}


def _apply_keys(obj, data: dict, context: str) -> None:
    known = {f.name for f in fields(obj)}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"unknown config key {context}{key!r}")
        if key in _NESTED_KEYS:
            if not isinstance(value, dict):
                raise ConfigError(f"{context}{key} must be an object")
            _apply_keys(getattr(obj, key), value, context=f"{key}.")
        elif key in _TUPLE_KEYS:
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{context}{key} must be a list, not {value!r}")
            setattr(obj, key, tuple(value))
        else:
            setattr(obj, key, value)


def config_from_dict(data: dict) -> ScenarioConfig:
    config = ScenarioConfig()
    _apply_keys(config, data, context="")
    config.validate()
    return config


def load_config(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Default topology.  Addresses are domain.site.node triples: the wired core is
# domain 0, the home network domain 1, and each anchor-point domain 2 and 3
# with one site per access router.


@dataclass
class Topology:
    addresses: dict[str, Address]
    links: list[Link]
    cells: list[WirelessCell]
    bs_to_ar: dict[str, str]
    ar_to_map: dict[str, str]
    ar_prefix: dict[str, Prefix]
    map_prefix: dict[str, Prefix]
    home_prefix: Prefix
    mnp: Prefix
    hoa: Address
    mnn_addr: Address

    def bs_of_ar(self, ar: str) -> str:
        return next(bs for bs, a in self.bs_to_ar.items() if a == ar)


def default_topology(config: ScenarioConfig) -> Topology:
    addresses = {
        "cn": Address(0, 0, 0),
        "er": Address(0, 0, 1),
        "ha": Address(1, 0, 1),
        "map1": Address(2, 0, 1),
        "map2": Address(3, 0, 1),
        "ar1": Address(2, 1, 1), "bs1": Address(2, 1, 2),
        "ar2": Address(2, 2, 1), "bs2": Address(2, 2, 2),
        "ar3": Address(3, 1, 1), "bs3": Address(3, 1, 2),
        "ar4": Address(3, 2, 1), "bs4": Address(3, 2, 2),
        "dmr": Address(1, 1, 1),
        "mnn": Address(1, 1, 2),
    }
    links = [
        Link("cn", "er", 100_000_000, 2 * MS),
        Link("ha", "er", 100_000_000, 2 * MS),
        Link("er", "map1", 100_000_000, 20 * MS),
        Link("er", "map2", 100_000_000, 20 * MS),
        Link("map1", "ar1", 10_000_000, 5 * MS),
        Link("map1", "ar2", 10_000_000, 5 * MS),
        Link("map2", "ar3", 10_000_000, 5 * MS),
        Link("map2", "ar4", 10_000_000, 5 * MS),
        Link("ar1", "bs1", 1_000_000, 2 * MS),
        Link("ar2", "bs2", 1_000_000, 2 * MS),
        Link("ar3", "bs3", 1_000_000, 2 * MS),
        Link("ar4", "bs4", 1_000_000, 2 * MS),
    ]
    r = config.cell_radius_m
    cells = [
        WirelessCell("bs1", (100.0, 0.0), r),
        WirelessCell("bs2", (180.0, 0.0), r),
        WirelessCell("bs3", (260.0, 0.0), r),
        WirelessCell("bs4", (340.0, 0.0), r),
    ]
    return Topology(
        addresses=addresses,
        links=links,
        cells=cells,
        bs_to_ar={"bs1": "ar1", "bs2": "ar2", "bs3": "ar3", "bs4": "ar4"},
        ar_to_map={"ar1": "map1", "ar2": "map1", "ar3": "map2", "ar4": "map2"},
        ar_prefix={"ar1": Prefix(2, 1), "ar2": Prefix(2, 2),
                   "ar3": Prefix(3, 1), "ar4": Prefix(3, 2)},
        map_prefix={"map1": Prefix(2, 0), "map2": Prefix(3, 0)},
        home_prefix=Prefix(1, 0),
        mnp=Prefix(1, 1),
        hoa=addresses["dmr"],
        mnn_addr=addresses["mnn"],
    )


def build_track(config: ScenarioConfig) -> MobilityTrack:
    """Default motion: enter the cell strip, then bounce between its ends.

    A single pass at sweep speeds would park the router in the last cell for
    most of the run, so the default track ping-pongs between turnaround points
    inside the outer cells; the handover count then scales with speed.
    """
    if config.waypoints is not None:
        return MobilityTrack([tuple(p) for p in config.waypoints], config.speed_mps)
    needed_m = config.speed_mps * config.sim_end_us / SEC + 1.0
    points = [(config.start_x_m, 0.0)]
    total = 0.0
    target = config.bounce_far_x_m
    while total < needed_m:
        total += abs(target - points[-1][0])
        points.append((target, 0.0))
        target = (config.bounce_near_x_m if target == config.bounce_far_x_m
                  else config.bounce_far_x_m)
    return MobilityTrack(points, config.speed_mps)


def default_sla_rules(topology: Topology) -> list[SlaRule]:
    return [
        SlaRule(dscp=EF, kind=SIGNAL),
        SlaRule(dscp=AF11, kind=DATA, src=topology.addresses["cn"],
                meter_rate_bps=128_000, meter_depth_bytes=2000),
        SlaRule(dscp=AF21, kind=DATA, dst=topology.addresses["cn"],
                meter_rate_bps=128_000, meter_depth_bytes=2000),
    ]


# Unsolicited router-advertisement phases, staggered per access router so
# beacon arrivals decorrelate across handovers.
BEACON_PHASE_US = {"ar1": 0, "ar2": 250 * MS, "ar3": 500 * MS, "ar4": 750 * MS}
