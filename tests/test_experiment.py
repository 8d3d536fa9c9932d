"""Experiment surface: sweeps, the congestion knob, and the command line."""

import gc
import json
import subprocess
import sys

import pytest

from nemosim import cli
from nemosim.engine import SEC
from nemosim.experiment import run_scenario, sweep
from nemosim.metrics import CSV_HEADER
from nemosim.scenario import PROTO_NEMO_BS, PROTOCOLS, ScenarioConfig
from nemosim.simulation import Simulation


def short_config(**kw):
    cfg = ScenarioConfig(sim_end_us=40 * SEC, **kw)
    cfg.cbr.stop_us = 40 * SEC
    return cfg


def test_sweep_cardinality_and_schema():
    csv_text, reports = sweep(short_config(), [15, 30, 45, 60, 75, 90])
    lines = csv_text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 18          # three protocols, six speeds
    assert len(reports) == 18


def test_sweep_rows_ordered_by_protocol_then_speed():
    _, reports = sweep(short_config(), [30, 60])
    keys = [(r.protocol, r.speed_kmh) for r in reports]
    assert keys == [("nemo-bs", 30), ("nemo-bs", 60),
                    ("diff-nemo", 30), ("diff-nemo", 60),
                    ("diff-fh-nemo", 30), ("diff-fh-nemo", 60)]


def test_congestion_knob_strictly_raises_baseline_loss():
    quiet = ScenarioConfig(protocol=PROTO_NEMO_BS, dmr_speed_kmh=60)
    loaded = ScenarioConfig(protocol=PROTO_NEMO_BS, dmr_speed_kmh=60,
                            background_load_bps=1_200_000)
    loss_quiet = run_scenario(quiet).loss_pct
    loss_loaded = run_scenario(loaded).loss_pct
    assert loss_loaded > loss_quiet


def test_per_packet_series_supports_time_and_sequence_axes():
    report = run_scenario(short_config(protocol="diff-nemo"))
    assert report.per_packet_delay
    for seq, delivered_at, delay in report.per_packet_delay:
        assert delivered_at >= delay >= 0
    seqs = [s for s, _, _ in report.per_packet_delay]
    assert seqs == sorted(seqs)


# -- fixed protocol timing ------------------------------------------------------------

@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_every_scheme_delivers_with_beacons_off(protocol):
    # With no beacons every router solicits its advertisements, so movement
    # is still detected; the baseline once waited for beacons and delivered
    # none of its 500 packets.
    cfg = ScenarioConfig(protocol=protocol, dmr_speed_kmh=60, sim_end_us=60 * SEC,
                         beacon_interval_us=0)
    cfg.cbr.stop_us = 60 * SEC
    report = run_scenario(cfg)
    assert report.sent == 500
    assert report.delivered > report.sent // 2


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_parked_router_keeps_its_bindings(protocol):
    # The refresh falls inside the binding lifetime, so a router that never
    # moves loses nothing to an expired binding over the 200 s run.
    report = run_scenario(ScenarioConfig(protocol=protocol, waypoints=[(100.0, 0.0)]))
    assert report.sent == report.delivered == 2250


# -- releasing finished runs ----------------------------------------------------------

def collected_after(call):
    """`call()`'s result and the cyclic garbage a full collection then finds,
    counted with automatic collection off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        result = call()
        return result, gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("background_bps", [0, 1_200_000])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_finished_run_leaves_no_cyclic_garbage(protocol, background_bps, traced):
    def config():
        return short_config(protocol=protocol, dmr_speed_kmh=60,
                            background_load_bps=background_bps)

    kept = Simulation(config(), trace=[] if traced else None)
    expected = kept.run()
    trace = [] if traced else None
    report, garbage = collected_after(lambda: run_scenario(config(), trace=trace))
    assert garbage == 0
    # The report and the trace read as from a run that was never released.
    assert report.csv_row() == expected.csv_row()
    assert report.per_packet_path == expected.per_packet_path
    assert report.per_packet_delay == expected.per_packet_delay
    assert report.drops_detail == expected.drops_detail
    assert trace == kept.trace


def test_sweep_leaves_no_cyclic_garbage():
    (csv_text, reports), garbage = collected_after(lambda: sweep(short_config(), [30, 60]))
    assert garbage == 0
    assert csv_text.count("\n") == 1 + len(reports) == 7


# -- command line ------------------------------------------------------------------

def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "nemosim.cli", *args],
                          capture_output=True, text=True, timeout=300)


def test_cli_run_writes_csv_and_trace(tmp_path):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"sim_end_us": 40 * SEC,
                                  "cbr": {"stop_us": 40 * SEC}}))
    out = tmp_path / "results.csv"
    trace = tmp_path / "trace.tsv"
    res = run_cli("run", "--config", str(config), "--protocol", "nemo-bs",
                  "--seed", "3", "--out", str(out), "--trace", str(trace))
    assert res.returncode == 0, res.stderr
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER and lines[1].startswith("nemo-bs,")
    first_event = trace.read_text().split("\n")[0].split("\t")
    assert len(first_event) == 4 and first_event[0].isdigit()


def test_cli_run_is_repeatable(tmp_path):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"sim_end_us": 40 * SEC,
                                  "cbr": {"stop_us": 40 * SEC}}))
    outputs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        res = run_cli("run", "--config", str(config), "--protocol", "diff-fh-nemo",
                      "--speed", "60", "--seed", "11", "--out", str(out))
        assert res.returncode == 0, res.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_cli_sweep_to_stdout(tmp_path):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"sim_end_us": 30 * SEC,
                                  "cbr": {"stop_us": 30 * SEC}}))
    res = run_cli("sweep", "--config", str(config), "--speeds", "30,60",
                  "--protocol", "diff-nemo")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3


def test_cli_rejects_unknown_config_key(tmp_path):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"warp_factor": 9}))
    res = run_cli("run", "--config", str(config))
    assert res.returncode != 0


EMPTY_PATH_CASES = [("run", "--trace"), ("run", "--paths"), ("run", "--out"),
                    ("run", "--config"), ("sweep", "--out"), ("sweep", "--config")]


@pytest.mark.parametrize("command, flag", EMPTY_PATH_CASES,
                         ids=[" ".join(case) for case in EMPTY_PATH_CASES])
def test_cli_rejects_empty_path(command, flag, capsys):
    # An empty path used to be skipped silently (or, for --out and --config,
    # fall back to stdout and the default scenario); it is a usage error
    # before the run starts.
    with pytest.raises(SystemExit) as exc:
        cli.main([command, flag, ""])
    assert exc.value.code == 2
    assert f"argument {flag}: expected a file path" in capsys.readouterr().err


def test_cli_run_rejects_zero_speed(capsys):
    # --speed 0 used to be ignored, so the run went at the config's speed.
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--speed", "0"])
    assert exc.value.code == 2
    assert "error: dmr_speed_kmh " in capsys.readouterr().err


def bad_invocation(command, text, args, key, id=None):
    """A command whose config file holds `text` as Latin-1 bytes (None: no
    file) and that takes `args` (`{dir}` is a directory, which cannot be
    written as a file)."""
    return pytest.param(command, text, args, key, id=id or f"{text}-{key}")


@pytest.mark.parametrize("command, text, args, key", [
    bad_invocation("run", '{"red": {"min_th": 20, "max_th": 10}}', [], "red.min_th "),
    bad_invocation("run", '{"cbr": {"packet_bytes": 0.5}}', [], "cbr.packet_bytes "),
    bad_invocation("run", '{"seed": 1,}', [], "line 1 column 12"),
    bad_invocation("run", '{"dad_delay_us": 1}', [], "unknown config key 'dad_delay_us'"),
    bad_invocation("run", '{"binding_refresh_us": 90000000}', [],
                   "unknown config key 'binding_refresh_us'"),
    bad_invocation("run", None, [], "argument --config: cannot read ", id="missing-config"),
    bad_invocation("run", "[1, 2]", [], "a config must be a JSON object", id="list-config"),
    bad_invocation("run", '"abc"', [], "a config must be a JSON object", id="string-config"),
    bad_invocation("run", "\xff{}", [], "is not UTF-8", id="binary-config"),
    bad_invocation("run", "{}", ["--out", "{dir}"], "argument --out: cannot write ",
                   id="run-out"),
    bad_invocation("run", "{}", ["--paths", "{dir}/no/such"], "argument --paths: cannot write ",
                   id="run-paths"),
    bad_invocation("run", "{}", ["--trace", "{dir}"], "argument --trace: cannot write ",
                   id="run-trace"),
    bad_invocation("sweep", "{}", ["--out", "{dir}"], "argument --out: cannot write ",
                   id="sweep-out"),
])
def test_cli_run_reports_bad_config_file_in_one_line(command, text, args, key, tmp_path,
                                                      monkeypatch, capsys):
    # A config that cannot run, or an output that cannot be written, is a
    # usage error (exit 2) before any run, not a traceback.
    path = tmp_path / "bad.json"
    if text is not None:
        path.write_bytes(text.encode("latin-1"))
    runs = []
    monkeypatch.setattr(cli, "run_scenario", lambda *a, **kw: runs.append(a))
    monkeypatch.setattr(cli, "sweep", lambda *a, **kw: runs.append(a))
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", str(path), *(arg.format(dir=tmp_path) for arg in args)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert runs == []


@pytest.mark.parametrize("speeds", ["15,abc", "15,0", "15,nan"])
def test_cli_sweep_checks_every_speed_before_running(speeds, monkeypatch, capsys):
    runs = []
    monkeypatch.setattr(cli, "sweep", lambda *a, **kw: runs.append(a))
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--speeds", speeds])
    assert exc.value.code == 2
    assert "argument --speeds: " in capsys.readouterr().err
    assert runs == []


def test_cli_sweep_checks_speeds_against_its_own_config(tmp_path, monkeypatch, capsys):
    # 100,000 km/h passes the work cap in the default 200 s run, but not in a
    # 20,000 s one (about 1.7M track segments); the check used to run on the
    # default config.
    path = tmp_path / "long.json"
    path.write_text('{"sim_end_us": 20000000000}')
    runs = []
    monkeypatch.setattr(cli, "sweep", lambda *a, **kw: runs.append(a))
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--config", str(path), "--speeds", "15,100000"])
    assert exc.value.code == 2
    assert "argument --speeds: 100000 km/h: dmr_speed_kmh " in capsys.readouterr().err
    assert runs == []


@pytest.mark.parametrize("protocol, faults", [
    ("nemo-bs", '{"dad_collision_handovers": [0]}'),
    ("diff-fh-nemo", '{"fna_collision_handovers": [0]}'),
])
def test_cli_sweep_checks_every_scheme_before_running(protocol, faults, tmp_path,
                                                      monkeypatch, capsys):
    # The config's own scheme applies the fault and another does not, so a
    # sweep over all three must fail before its first run.
    path = tmp_path / "fault.json"
    path.write_text(f'{{"protocol": "{protocol}", "faults": {faults}}}')
    runs = []
    monkeypatch.setattr(cli, "sweep", lambda *a, **kw: runs.append(a))
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--config", str(path), "--speeds", "15,30"])
    assert exc.value.code == 2
    assert "error: faults." in capsys.readouterr().err
    assert runs == []
