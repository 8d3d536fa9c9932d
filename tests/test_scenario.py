import json
import re
from dataclasses import fields, is_dataclass

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nemosim.diffserv import RedParams
from nemosim.engine import MS, SEC
from nemosim.experiment import run_scenario
from nemosim.metrics import CSV_HEADER
from nemosim.scenario import (_KINDS, _RANGES, _RULES, ConfigError, CbrConfig, FaultConfig,
                              ScenarioConfig, _walk, build_track, config_from_dict,
                              default_topology, load_config)


def test_defaults_match_reference_setup():
    cfg = ScenarioConfig()
    topo = default_topology(cfg)
    by_pair = {(l.a, l.b): l for l in topo.links}
    assert by_pair[("cn", "er")].bandwidth_bps == 100_000_000
    assert by_pair[("cn", "er")].prop_delay_us == 2 * MS
    assert by_pair[("er", "map1")].prop_delay_us == 20 * MS
    assert by_pair[("map1", "ar1")].bandwidth_bps == 10_000_000
    assert by_pair[("ar1", "bs1")].bandwidth_bps == 1_000_000
    assert all(c.radius_m == 50.0 for c in topo.cells)
    assert cfg.sim_end_us == 200 * SEC
    assert cfg.cbr.packet_bytes == 1000 and cfg.cbr.rate_bps == 100_000


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="frobnicate"):
        config_from_dict({"frobnicate": 1})


def test_unknown_nested_key_rejected():
    with pytest.raises(ConfigError, match="burst"):
        config_from_dict({"cbr": {"burst": 3}})


def test_bad_protocol_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"protocol": "mobile-ip"})


def test_bad_speed_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"dmr_speed_kmh": 0})


def test_cbr_window_must_fit_run():
    with pytest.raises(ConfigError):
        config_from_dict({"cbr": {"start_us": 10, "stop_us": 5}})
    with pytest.raises(ConfigError):
        config_from_dict({"sim_end_us": 30 * SEC})   # default stop at 200 s


# Model values that are constants of the module that owns them, not settings.
FIXED_VALUES = ["air_rate_bps", "air_delay_us", "bg_packet_bytes", "start_x_m",
                "bounce_near_x_m", "bounce_far_x_m", "dad_delay_us", "binding_lifetime_us",
                "token_lifetime_us", "rr_timeout_us", "rr_retries", "dad_fast_us",
                "dad_rcoa_us", "fbu_delay_us", "fbu_retx_us", "lbu_gap_us", "cell_radius_m"]

# Keys that are worked out instead: the binding refresh is the constant
# `nemo_bs.BINDING_REFRESH_US`, a router solicits unless it is the baseline's
# and the access routers beacon, and `mode` makes a handover reactive.
REMOVED_KEYS = ["binding_refresh_us", "movement_detection", "force_reactive_at"]


# Each of these would hang (a source re-arming itself at +0 us), divide by
# zero, fail on a string, on a rate so small or a packet so large that a
# packet's gap overflows or on a run too long to count its events in floats,
# schedule into the past mid-run, or run silently to a meaningless result
# (100% loss, no load, a fault that never fires or that the scheme never
# applies, a queue that holds nothing, a drop probability above 1, an attach
# planned before the link goes down, a bool taken as a number, a handover
# index that never matches, RED that early-drops at every backlog or never, a
# track with no point or a point that is not a pair of numbers, a NaN speed or
# one past the float range, a fractional packet size or time, a section that
# is not an object, or a source that would schedule far more events than any
# shipped scenario); validation must reject them before any event is
# scheduled. A row that sets a fixed model value or a removed key is refused
# for naming an unknown key.
@pytest.mark.parametrize("data, key", [
    ({"background_load_bps": 10 ** 12}, "background_load_bps"),
    ({"background_load_bps": 1_200_000, "bg_packet_bytes": 0}, "bg_packet_bytes"),
    ({"cbr": {"rate_bps": 0}}, "cbr.rate_bps"),
    ({"cbr": {"rate_bps": 10 ** 12}}, "cbr.rate_bps"),
    ({"cbr": {"packet_bytes": 0}}, "cbr.packet_bytes"),
    ({"air_rate_bps": 0}, "air_rate_bps"),
    ({"cell_radius_m": -5}, "cell_radius_m"),
    ({"background_load_bps": -1}, "background_load_bps"),
    ({"lead_us": -1}, "lead_us"),
    ({"seed": "abc"}, "seed"),
    ({"dmr_speed_kmh": "fast"}, "dmr_speed_kmh"),
    ({"movement_detection": "solicted"}, "movement_detection"),
    ({"faults": {"drop_first_signals": ["Bogus"]}}, "faults.drop_first_signals"),
    ({"red": {"capacity": -1}}, "red.capacity"),
    ({"red": {"capacity": 2.5}}, "red.capacity"),
    ({"red": {"max_p": 7}}, "red.max_p"),
    ({"red": {"max_p": -0.1}}, "red.max_p"),
    ({"red": {"w_q": 0}}, "red.w_q"),
    ({"red": {"w_q": 1.5}}, "red.w_q"),
    ({"l2_switch_us": -5}, "l2_switch_us"),
    ({"beacon_interval_us": -1}, "beacon_interval_us"),
    ({"nar_buffer_capacity": "x"}, "nar_buffer_capacity"),
    ({"nar_buffer_capacity": -1}, "nar_buffer_capacity"),
    ({"lead_us": "x"}, "lead_us"),
    ({"sim_end_us": "x"}, "sim_end_us"),
    ({"cbr": {"stop_us": "x"}}, "cbr.stop_us"),
    ({"protocol": "nemo-bs", "faults": {"fna_collision_handovers": [0]}},
     "faults.fna_collision_handovers"),
    ({"protocol": "diff-nemo", "faults": {"fna_collision_handovers": [1]}},
     "faults.fna_collision_handovers"),
    ({"protocol": 5}, "protocol"),
    ({"rr_retries": -1}, "rr_retries"),
    ({"binding_refresh_us": 0}, "binding_refresh_us"),
    ({"cbr": 5}, "cbr"),
    ({"background_load_bps": "x"}, "background_load_bps"),
    ({"cbr": {"packet_bytes": "x"}}, "cbr.packet_bytes"),
    ({"cbr": {"rate_bps": "x"}}, "cbr.rate_bps"),
    ({"bg_packet_bytes": "x"}, "bg_packet_bytes"),
    ({"air_rate_bps": "x"}, "air_rate_bps"),
    ({"cell_radius_m": "x"}, "cell_radius_m"),
    ({"air_rate_bps": True}, "air_rate_bps"),
    ({"cell_radius_m": True}, "cell_radius_m"),
    ({"seed": True}, "seed"),
    ({"dmr_speed_kmh": True}, "dmr_speed_kmh"),
    ({"red": {"capacity": True}}, "red.capacity"),
    ({"red": {"max_p": True}}, "red.max_p"),
    ({"red": {"w_q": True}}, "red.w_q"),
    ({"nar_buffer_capacity": True}, "nar_buffer_capacity"),
    ({"rr_retries": False}, "rr_retries"),
    ({"red": {"min_th": "x"}}, "red.min_th"),
    ({"red": {"max_th": "x"}}, "red.max_th"),
    ({"beacon_interval_us": True}, "beacon_interval_us"),
    ({"bounce_near_x_m": "x"}, "bounce_near_x_m"),
    ({"bounce_far_x_m": "x"}, "bounce_far_x_m"),
    ({"force_reactive_at": ["x"]}, "force_reactive_at"),
    ({"faults": {"dad_collision_handovers": [0.5]}}, "faults.dad_collision_handovers"),
    ({"faults": {"fna_collision_handovers": [True]}}, "faults.fna_collision_handovers"),
    ({"red": {"min_th": -3}}, "red.min_th"),
    ({"red": {"min_th": 20, "max_th": 10}}, "red.min_th"),
    ({"red": {"min_th": 15, "max_th": 15}}, "red.min_th"),
    ({"force_reactive_at": 5}, "force_reactive_at"),
    ({"faults": {"drop_first_signals": [["CoT"]]}}, "faults.drop_first_signals"),
    ({"waypoints": []}, "waypoints"),
    ({"waypoints": 5}, "waypoints"),
    ({"waypoints": [["a", 0]]}, "waypoints"),
    ({"waypoints": [[100, 0, 0]]}, "waypoints"),
    ({"waypoints": [100, 0]}, "waypoints"),
    ({"dmr_speed_kmh": float("nan")}, "dmr_speed_kmh"),
    ({"cell_radius_m": float("inf")}, "cell_radius_m"),
    ({"dmr_speed_kmh": 10 ** 400}, "dmr_speed_kmh"),
    ({"bounce_near_x_m": 200, "bounce_far_x_m": 200}, "bounce_near_x_m"),
    ({"bounce_far_x_m": 55}, "bounce_far_x_m"),
    ({"dmr_speed_kmh": 1e9}, "dmr_speed_kmh"),
    ({"background_load_bps": 1_200_000, "bg_packet_bytes": 0.5}, "bg_packet_bytes"),
    ({"beacon_interval_us": 2}, "beacon_interval_us"),
    ({"binding_refresh_us": 2}, "binding_refresh_us"),
    ({"cbr": {"packet_bytes": 0.001}}, "cbr.packet_bytes"),
    ({"cbr": {"packet_bytes": 1}}, "cbr.packet_bytes"),
    ({"red": {"max_th": 2}}, "red.max_th"),
    ({"sim_end_us": 2}, "sim_end_us"),
    ({"cbr": {"rate_bps": 1e-300}}, "cbr.rate_bps"),
    ({"background_load_bps": 1e-300}, "background_load_bps"),
    ({"air_rate_bps": 1e-300}, "air_rate_bps"),
    ({"cbr": {"packet_bytes": 10 ** 400}}, "cbr.packet_bytes"),
    ({"bg_packet_bytes": 10 ** 400, "background_load_bps": 1_200_000}, "bg_packet_bytes"),
    ({"sim_end_us": 10 ** 400, "cbr": {"stop_us": 10 ** 400}}, "sim_end_us"),
    ({"sim_end_us": 10 ** 15, "cbr": {"stop_us": 10 ** 15}}, "cbr.stop_us"),
    ({"dmr_speed_kmh": 60, "bounce_near_x_m": 0, "bounce_far_x_m": 1e-300}, "bounce_near_x_m"),
    ({"faults": {"dad_collision_handovers": [0]}}, "faults.dad_collision_handovers"),
    ({"faults": {"drop_first_signals": ["NA"]}}, "faults.drop_first_signals"),
    ({"mode": "proactive"}, "mode"),
    ({"red": []}, "red"),
    ({"cbr": {"start_us": -1}}, "cbr.start_us"),
    ({"sim_end_us": -1}, "sim_end_us"),
    ({"binding_refresh_us": "x"}, "binding_refresh_us"),
    ({"l2_switch_us": 1.5}, "l2_switch_us"),
    ({"movement_detection": 1}, "movement_detection"),
    ({"red": {"max_th": True}}, "red.max_th"),
    ({"background_load_bps": float("nan")}, "background_load_bps"),
    ({"cbr": {"rate_bps": float("inf")}}, "cbr.rate_bps"),
    ({"force_reactive_at": [True]}, "force_reactive_at"),
    ({"seed": 1.5}, "seed"),
    ({"protocol": "nemo-bs", "faults": {"drop_first_signals": ["FBU"]}},
     "faults.drop_first_signals"),
    ({"protocol": "nemo-bs", "faults": {"drop_first_signals": ["HoTI"]}},
     "faults.drop_first_signals"),
    ({"protocol": "diff-nemo", "faults": {"drop_first_signals": ["FNA"]}},
     "faults.drop_first_signals"),
    ({"mode": "reactive", "faults": {"drop_first_signals": ["HI"]}}, "faults.drop_first_signals"),
    ({"protocol": "nemo-bs", "dmr_speed_kmh": 60, "sim_end_us": 60 * SEC,
      "cbr": {"stop_us": 60 * SEC}, "beacon_interval_us": 100 * SEC}, "beacon_interval_us"),
    ({"sim_end_us": 500_000, "cbr": {"start_us": 0, "stop_us": 400_000}}, "sim_end_us"),
])
def test_config_that_cannot_run_names_bad_key(data, key):
    unknown = key in FIXED_VALUES + REMOVED_KEYS
    message = f"unknown config key '{key}'$" if unknown else f"{re.escape(key)} "
    with pytest.raises(ConfigError, match="^" + message):
        config_from_dict(data)


@pytest.mark.parametrize("key", FIXED_VALUES)
def test_fixed_model_value_is_an_unknown_key(key):
    with pytest.raises(ConfigError, match=rf"^unknown config key '{key}'$"):
        config_from_dict({key: 1})


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_removed_key_is_an_unknown_key(key):
    with pytest.raises(ConfigError, match=rf"^unknown config key '{key}'$"):
        config_from_dict({key: 1})


def test_leaf_keys_are_exactly_the_settings():
    # A new setting is a visible diff here.
    assert [key for key, _, value in _walk(ScenarioConfig()) if not is_dataclass(value)] == [
        "protocol", "mode", "dmr_speed_kmh", "seed", "sim_end_us",
        "cbr.packet_bytes", "cbr.rate_bps", "cbr.start_us", "cbr.stop_us",
        "background_load_bps", "lead_us", "l2_switch_us", "beacon_interval_us",
        "nar_buffer_capacity", "red.min_th", "red.max_th", "red.max_p", "red.w_q",
        "red.capacity", "faults.dad_collision_handovers",
        "faults.fna_collision_handovers", "faults.drop_first_signals", "waypoints"]


def test_json_round_trip(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "protocol": "diff-nemo",
        "dmr_speed_kmh": 45,
        "seed": 9,
        "background_load_bps": 1_200_000,
        "cbr": {"packet_bytes": 500},
        "red": {"min_th": 3},
        "faults": {"drop_first_signals": ["CoT"]},
    }))
    cfg = load_config(str(path))
    assert cfg.protocol == "diff-nemo"
    assert cfg.dmr_speed_kmh == 45
    assert cfg.cbr.packet_bytes == 500
    assert cfg.red.min_th == 3
    assert cfg.faults.drop_first_signals == ("CoT",)


def test_track_covers_whole_run():
    cfg = ScenarioConfig(dmr_speed_kmh=90)
    track = build_track(cfg)
    total = sum(abs(b[0] - a[0]) for a, b in zip(track.waypoints, track.waypoints[1:]))
    assert total >= cfg.speed_mps * cfg.sim_end_us / SEC


def test_explicit_waypoints_respected():
    cfg = ScenarioConfig(waypoints=[(100.0, 0.0)])
    track = build_track(cfg)
    assert track.waypoints == [(100.0, 0.0)]


def test_json_waypoints_build_a_track_of_pairs():
    cfg = config_from_dict({"waypoints": [[60, 0], [220.5, 0]]})
    assert build_track(cfg).waypoints == [(60, 0), (220.5, 0)]


def test_csv_header_schema():
    assert CSV_HEADER.split(",") == [
        "protocol", "mode", "speed_kmh", "seed", "sent", "delivered", "dropped",
        "loss_pct", "fwd_rate_pct", "ho_latency_mean_ms", "ho_latency_max_ms",
        "delay_mean_ms"]


def test_schema_covers_every_field():
    # A field whose annotation has no kind, or a range or rule on a key that
    # is no field, would leave a key unchecked.
    for cls in (ScenarioConfig, CbrConfig, FaultConfig, RedParams):
        for f in fields(cls):
            assert f.type in _KINDS, f"{cls.__name__}.{f.name}: {f.type}"
    keys = {key for key, _, _ in _walk(ScenarioConfig())}
    assert set(_RANGES) <= keys
    assert {key for a, _, b in _RULES for key in (a, b)} <= keys


def test_largest_shipped_config_stays_ten_times_under_the_work_cap():
    # 200 s congested at 90 km/h predicts about 63k source events, nearly all
    # background ticks; ten times its load must still pass the cap.
    ScenarioConfig(background_load_bps=10 * 1_200_000, dmr_speed_kmh=90).validate()


LEAF_KEYS = sorted(key for key, _, value in _walk(ScenarioConfig()) if not is_dataclass(value))
POOL = [0, -1, 0.5, 2, 1e9, 1e-300, 10 ** 400, float("nan"), "x", True, []]


@settings(max_examples=500, deadline=None)
@given(st.dictionaries(st.sampled_from(LEAF_KEYS), st.sampled_from(POOL),
                       min_size=1, max_size=2))
@example({"cbr.start_us": 0, "cbr.stop_us": 2})
def test_every_config_runs_or_names_a_drawn_key(drawn):
    data = {"dmr_speed_kmh": 60}    # fast enough to cross cells in 25 s
    for key, value in drawn.items():
        *outer, leaf = key.split(".")
        target = data
        for part in outer:
            target = target.setdefault(part, {})
        target[leaf] = value
    try:
        cfg = config_from_dict(data)
    except ConfigError as exc:
        assert str(exc).split(" ", 1)[0] in drawn, str(exc)
        return
    # A drawn sim_end_us or cbr.stop_us can pass validation (a CBR window of
    # [0, 2 us]), so the run is cut to at most its first 25 s.
    cfg.sim_end_us = min(cfg.sim_end_us, 25 * SEC)
    cfg.cbr.stop_us = min(cfg.cbr.stop_us, 25 * SEC)
    run_scenario(cfg)
