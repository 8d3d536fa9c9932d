"""Scenario configuration, default topology, and config-file loading."""

from __future__ import annotations

import copy
import json
import math
import operator
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Optional

from .diffserv import AF11, AF21, RedParams, SlaRule
from .engine import MS, SEC, SimTime
from .network import Link, MobilityTrack, WirelessCell
from .packets import Address, Prefix, SignalKind

PROTO_NEMO_BS = "nemo-bs"
PROTO_DIFF_NEMO = "diff-nemo"
PROTO_DIFF_FH = "diff-fh-nemo"
PROTOCOLS = (PROTO_NEMO_BS, PROTO_DIFF_NEMO, PROTO_DIFF_FH)

MODE_PREDICTIVE = "predictive"
MODE_REACTIVE = "reactive"


class ConfigError(Exception):
    pass


@dataclass
class CbrConfig:
    packet_bytes: int = 1000
    rate_bps: float = 100_000
    start_us: SimTime = 20 * SEC

    @property
    def interval_us(self) -> SimTime:
        return round(self.packet_bytes * 8 * SEC / self.rate_bps)


@dataclass
class FaultConfig:
    """Deterministic fault injection for exercising recovery paths.  A
    collision handover's first address is already in use: the access router
    answers the router's address check with an NA, or, in the fast scheme,
    the new access router answers its FNA with a NAACK."""

    dad_collision_handovers: tuple[int, ...] = ()
    drop_first_signals: tuple[str, ...] = ()


@dataclass
class ScenarioConfig:
    protocol: str = PROTO_DIFF_FH
    mode: str = MODE_PREDICTIVE
    dmr_speed_kmh: float = 3.6
    seed: int = 1
    sim_end_us: SimTime = 200 * SEC
    cbr: CbrConfig = field(default_factory=CbrConfig)
    background_load_bps: float = 0

    # Radio and handover timing.
    lead_us: SimTime = 200 * MS
    l2_switch_us: SimTime = 50 * MS

    # Movement detection and buffering.
    beacon_interval_us: SimTime = 1000 * MS
    nar_buffer_capacity: int = 100

    red: RedParams = field(default_factory=RedParams)
    faults: FaultConfig = field(default_factory=FaultConfig)

    # A None waypoint list selects the default bounce track.
    waypoints: Optional[list[tuple[float, float]]] = None

    def validate(self) -> None:
        """Reject a config that could not run to its end, naming the key."""
        values = {}
        for key, kind, value in _walk(self):
            test, words, item_kind = _KINDS[kind]
            if not test(value):
                raise ConfigError(f"{key} must be {words}, not {value!r}")
            in_range, words = _RANGES.get(key, (None, None))
            if item_kind is None and in_range is not None and not in_range(value):
                raise ConfigError(f"{key} must be {words}, not {value!r}")
            values.setdefault(key, value)
        for a, relation, b in _RULES:
            if not _RELATIONS[relation](values[a], values[b]):
                blamed = b if values[a] == _DEFAULTS[a] else a
                raise ConfigError(f"{blamed} breaks {a} {relation} {b}: "
                                  f"{values[a]!r} {relation} {values[b]!r}")
        unsent = sorted(set(self.faults.drop_first_signals) - self.sent_signals())
        if unsent:
            raise ConfigError(f"faults.drop_first_signals lists {', '.join(unsent)}, which a "
                              f"{self.protocol} {self.mode} run never sends: "
                              f"{values['faults.drop_first_signals']!r}")
        cbr, end = self.cbr, self.sim_end_us
        # A packet so large, or a rate so small, that a packet's gap passes the
        # float range cannot be scheduled.
        if cbr.packet_bytes * 8 * SEC > sys.float_info.max:
            raise ConfigError(f"cbr.packet_bytes is too large to time a packet: {cbr.packet_bytes!r}")
        for rate_key, size, rate in [("cbr.rate_bps", cbr.packet_bytes, cbr.rate_bps),
                                     ("background_load_bps", BG_PACKET_BYTES,
                                      self.background_load_bps)]:
            if rate and size * 8 * SEC / rate == math.inf:
                raise ConfigError(f"{rate_key} gives a {size}-byte packet an overflowing gap: {rate!r}")
        if end > sys.float_info.max:
            raise ConfigError(f"sim_end_us is too long to predict a run's events: {end!r}")
        # The cap names the first moved key of the largest term whose default
        # alone brings the term under the cap, else the first that moved.
        terms = self._source_events()
        if sum(count for _, count in terms) > MAX_SOURCE_EVENTS:
            at, (keys, events) = max(enumerate(terms), key=lambda term: term[1][1])
            moved = [key for key in keys if values[key] != _DEFAULTS[key]] or [keys[0]]
            key = next((key for key in moved if _with_default(self, key)._source_events()[at][1]
                        <= MAX_SOURCE_EVENTS), moved[0])
            raise ConfigError(f"{key} gives a run of {events:.3g} source events, "
                              f"over the cap of {MAX_SOURCE_EVENTS:,}")

    def _source_events(self) -> list:
        """Predicted source events, each term under the keys that drive it (4
        access routers; a beacon interval of 0 sends none, a gap that rounds
        to 0 never ends)."""
        from .nemo_bs import BINDING_REFRESH_US   # nemo_bs imports this module, via nodes
        cbr, end = self.cbr, self.sim_end_us
        per = lambda span, interval: span / interval if interval > 0 else math.inf
        return [
            (("cbr.packet_bytes", "cbr.rate_bps", "cbr.start_us", "sim_end_us"),
             per(end - cbr.start_us, cbr.interval_us)),
            (("background_load_bps", "sim_end_us"),
             self.background_load_bps and 4 * per(end, self.bg_interval_us)),
            (("beacon_interval_us", "sim_end_us"),
             self.beacon_interval_us and 4 * end / self.beacon_interval_us),
            (("sim_end_us",), end / BINDING_REFRESH_US),
            (("dmr_speed_kmh", "sim_end_us"), 0 if self.waypoints else
             self.speed_mps * end / SEC / (BOUNCE_FAR_X_M - BOUNCE_NEAR_X_M)),
        ]

    @property
    def bg_interval_us(self) -> SimTime:
        """Gap between background packets on each access downlink."""
        return round(BG_PACKET_BYTES * 8 * SEC / self.background_load_bps)

    @property
    def speed_mps(self) -> float:
        return self.dmr_speed_kmh / 3.6

    def sent_signals(self) -> set[str]:
        """The signal kinds a run of this config can send (`_SENT_SIGNALS`)."""
        return {kind for kinds, sends in _SENT_SIGNALS if sends(self) for kind in kinds.split()}

    def solicited_detection(self) -> bool:
        """A router solicits an advertisement on attaching unless it is the
        baseline's and the access routers beacon."""
        return self.protocol != PROTO_NEMO_BS or self.beacon_interval_us == 0

    def qos_enabled(self) -> bool:
        return self.protocol != PROTO_NEMO_BS


_LIST = (list, tuple)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# The schema: a field's annotation is its kind, which has a test, words for
# what it accepts and its items' kind.  A bool would run as 1 or 0; a NaN, a
# number past the float range or a point that is not a pair fails mid-run.
_KINDS = {
    "int": (_is_int, "an int", None),
    "SimTime": (lambda v: _is_int(v) and v >= 0, "a non-negative int of microseconds", None),
    "float": (lambda v: (_is_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max,
              "a finite number", None),
    "str": (lambda v: isinstance(v, str), "a string", None),
    "tuple[int, ...]": (lambda v: isinstance(v, _LIST), "a list", "int"),
    "tuple[str, ...]": (lambda v: isinstance(v, _LIST), "a list", "str"),
    "Optional[list[tuple[float, float]]]": (lambda v: v is None or isinstance(v, _LIST) and v,
                                            "a non-empty list of [x, y] pairs", "point"),
    "point": (lambda v: isinstance(v, _LIST) and len(v) == 2, "an [x, y] pair", "float"),
    **{cls.__name__: (lambda v, cls=cls: isinstance(v, cls), "an object", None)
       for cls in (ScenarioConfig, CbrConfig, RedParams, FaultConfig)},
}

# The range of each key that has one, as (test, words).  A misspelt name runs
# a default; a rate or size of 0 divides by zero or delivers nothing.
_RANGES = {
    **{key: (names.__contains__, f"one of {', '.join(names)}") for key, names in (
        ("protocol", PROTOCOLS), ("mode", (MODE_PREDICTIVE, MODE_REACTIVE)),
        ("faults.drop_first_signals", tuple(kind.value for kind in SignalKind)))},
    **dict.fromkeys(("dmr_speed_kmh", "cbr.packet_bytes", "cbr.rate_bps", "red.capacity"),
                    (lambda v: v > 0, "positive")),
    **dict.fromkeys(("background_load_bps", "nar_buffer_capacity", "red.min_th",
                     "faults.dad_collision_handovers"),
                    (lambda v: v >= 0, "non-negative")),
    "red.max_p": (lambda v: 0 <= v <= 1, "in [0, 1]"),
    "red.w_q": (lambda v: 0 < v <= 1, "in (0, 1]"),
}

# Rules between keys, as (a, relation, b): the CBR starts inside the run, RED
# is not a tail drop, and the beacon interval fits the run (the baseline
# router waits for a beacon, so a longer interval silently loses every packet;
# 0, no beacons, passes).  A broken rule names a, unless a holds its default
# and so b is the key that moved.
_RELATIONS = {"<": operator.lt, "<=": operator.le}
_RULES = (("cbr.start_us", "<", "sim_end_us"), ("red.min_th", "<", "red.max_th"),
          ("beacon_interval_us", "<=", "sim_end_us"))

# The signal kinds each scheme sends, as (kinds, when), so the kinds that
# `faults.drop_first_signals` can use up.  Measured on seed 1 at 15-90 km/h in
# both modes, with and without load: only the fast scheme's routers announce
# and bind locally, and only its predictive handovers anticipate; RS goes out
# under solicited detection, and a collision is answered by an NA outside
# the fast scheme and by a NAACK under it.
_SENT_SIGNALS = (
    ("BA BU NS RA", lambda c: True),
    ("CoT CoTI HoT HoTI NPT", lambda c: c.protocol != PROTO_NEMO_BS),
    ("FBack FBU FNA LBAck LBU RS", lambda c: c.protocol == PROTO_DIFF_FH),
    ("HAck HI PrRtAdv RtSolPr", lambda c: c.protocol == PROTO_DIFF_FH and c.mode == MODE_PREDICTIVE),
    ("RS", lambda c: c.solicited_detection()),
    ("NA", lambda c: c.faults.dad_collision_handovers and c.protocol != PROTO_DIFF_FH),
    ("NAACK", lambda c: c.faults.dad_collision_handovers and c.protocol == PROTO_DIFF_FH),
)

# The most source events (CBR packets, background ticks, beacons, binding
# refreshes and default-track segments) a run may be predicted to schedule;
# the largest shipped config, 200 s congested at 90 km/h, predicts about 63k.
MAX_SOURCE_EVENTS = 1_000_000


def _walk(value, key: str = "", kind: str = "ScenarioConfig"):
    """Yield (dotted key, kind, value) for each field of a config, nested
    ones and list items included.  Each value comes before its parts, so a
    caller that stops at the first bad kind never iterates a malformed one."""
    if key:
        yield key, kind, value
    if is_dataclass(value):
        for f in fields(value):
            yield from _walk(getattr(value, f.name), f"{key}.{f.name}" if key else f.name, f.type)
    elif value is not None and _KINDS[kind][2] is not None:
        for item in value:
            yield from _walk(item, key, _KINDS[kind][2])


_DEFAULTS = {key: value for key, _, value in _walk(ScenarioConfig())}


def _with_default(config: ScenarioConfig, key: str) -> ScenarioConfig:
    """A copy of `config` with the dotted `key` back at its default."""
    config = copy.deepcopy(config)
    *outer, leaf = key.split(".")
    setattr(getattr(config, outer[0]) if outer else config, leaf, _DEFAULTS[key])
    return config


def _apply_keys(obj, data: dict, context: str = "") -> None:
    kinds = {f.name: f.type for f in fields(obj)}
    for key, value in data.items():
        if key not in kinds:
            raise ConfigError(f"unknown config key {context + key!r}")
        if is_dataclass(getattr(obj, key)):
            if not isinstance(value, dict):
                raise ConfigError(f"{context}{key} must be an object, not {value!r}")
            _apply_keys(getattr(obj, key), value, f"{context}{key}.")
        else:   # JSON has no tuples
            is_tuple = kinds[key].startswith("tuple") and isinstance(value, _LIST)
            setattr(obj, key, tuple(value) if is_tuple else value)


def config_from_dict(data: dict) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"a config must be a JSON object, not {data!r}")
    config = ScenarioConfig()
    _apply_keys(config, data)
    config.validate()
    return config


def load_config(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Default topology.  Addresses are domain.site.node triples: the wired core is
# domain 0, the home network domain 1, and each anchor-point domain 2 and 3
# with one site per access router.

# Fixed model values, not config keys: the air links, the cells' radius, the
# background packet size, and the default track's start and turnaround points.
AIR_RATE_BPS = 2_000_000
AIR_DELAY_US = 1 * MS
CELL_RADIUS_M = 50.0
BG_PACKET_BYTES = 2000
START_X_M = 29.0
BOUNCE_NEAR_X_M = 55.0
BOUNCE_FAR_X_M = 385.0


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
    cells = [
        WirelessCell("bs1", (100.0, 0.0), CELL_RADIUS_M),
        WirelessCell("bs2", (180.0, 0.0), CELL_RADIUS_M),
        WirelessCell("bs3", (260.0, 0.0), CELL_RADIUS_M),
        WirelessCell("bs4", (340.0, 0.0), CELL_RADIUS_M),
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
    points = [(START_X_M, 0.0)]
    total = 0.0
    target = BOUNCE_FAR_X_M
    while total < needed_m:
        total += abs(target - points[-1][0])
        points.append((target, 0.0))
        target = BOUNCE_NEAR_X_M if target == BOUNCE_FAR_X_M else BOUNCE_FAR_X_M
    return MobilityTrack(points, config.speed_mps)


def default_sla_rules(topology: Topology) -> list[SlaRule]:
    return [
        SlaRule(dscp=AF11, src=topology.addresses["cn"],
                meter_rate_bps=128_000, meter_depth_bytes=2000),
        SlaRule(dscp=AF21, dst=topology.addresses["cn"],
                meter_rate_bps=128_000, meter_depth_bytes=2000),
    ]


# Unsolicited router-advertisement phases, staggered per access router so
# beacon arrivals decorrelate across handovers.
BEACON_PHASE_US = {"ar1": 0, "ar2": 250 * MS, "ar3": 500 * MS, "ar4": 750 * MS}
