"""The benchmark's workloads, their pinned outputs and the checks run on every
simulation run.

A workload pass is one closed batch in this process: one simulation run after
another, no threads, entered through `nemosim.cli.main` as a user would run
it (`nemosim sweep` calls `nemosim.experiment.sweep`).  `run_pass` is the timed
part; `collect` turns what it left behind into one `RunOutput` per
simulation run, outside the timer.
"""

from __future__ import annotations

import gc
import hashlib
import json
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from calibrate import adjusted, time_reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PINS_PATH = BENCH_DIR / "pins.json"
# Scenario files of the sweeps.  traced-run uses the repository's example
# scenario (60 km/h, congested); the pinned trace digests catch any edit to it.
SCENARIOS = BENCH_DIR / "scenarios"
EXAMPLE_SCENARIO = ROOT / "scripts" / "scenario.example.json"
RUN_DIR = ROOT / ".bench_run"

SPEEDS = (15, 30, 45, 60, 75, 90)
# The traced run of the sweeps covers one speed: tracing costs about four
# times the untraced run, and the whole congested sweep would not fit.
TRACE_SPEED = 60
# Scenario seeds whose outputs are pinned: the default seed and one held-out
# seed.  The benchmark's --seed picks one of them.
SCENARIO_SEEDS = (1, 29)

WORKLOADS = ("congested-sweep", "handover-sweep", "traced-run")
# Scenario file that set-up loads for each workload.
SETUP_SCENARIO = {"congested-sweep": SCENARIOS / "congested.json", "handover-sweep": None,
                  "traced-run": EXAMPLE_SCENARIO}


class SetupError(Exception):
    """The checkout lacks what the benchmark needs to run."""


def import_nemosim():
    """Import nemosim from this checkout's src/, never from anywhere else."""
    if not (SRC / "nemosim" / "__init__.py").is_file():
        raise SetupError(f"no nemosim sources under {SRC}")
    if not EXAMPLE_SCENARIO.is_file():
        raise SetupError(f"missing example scenario {EXAMPLE_SCENARIO}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import nemosim
    if Path(nemosim.__file__).resolve().parent != SRC / "nemosim":
        raise SetupError(f"imported nemosim from {nemosim.__file__}, not from {SRC}")
    # Load every module a workload touches, so that no pass pays for an import.
    import nemosim.cli  # noqa: F401
    import nemosim.diff_fh  # noqa: F401
    import nemosim.diff_nemo  # noqa: F401
    import nemosim.experiment  # noqa: F401
    return nemosim


def scenario_seed(bench_seed: int) -> int:
    return SCENARIO_SEEDS[(bench_seed - 1) % len(SCENARIO_SEEDS)]


def load_pins() -> dict:
    if not PINS_PATH.is_file():
        raise SetupError(f"missing pinned outputs {PINS_PATH}")
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def expected_runs(workload: str, speeds) -> list[tuple[str, str, str]]:
    """(protocol, mode, speed) of each simulation run of one pass, in order."""
    from nemosim.scenario import MODE_PREDICTIVE, MODE_REACTIVE, PROTO_DIFF_FH, PROTOCOLS
    if workload == "traced-run":
        return [(p, MODE_PREDICTIVE, f"{TRACE_SPEED:g}") for p in PROTOCOLS]
    runs = [(p, MODE_PREDICTIVE, f"{s:g}") for p in PROTOCOLS for s in speeds]
    if workload == "handover-sweep":
        runs += [(PROTO_DIFF_FH, MODE_REACTIVE, f"{s:g}") for s in speeds]
    return runs


def _cli_calls(workload: str, seed: int, speeds) -> list[tuple[list[str], str]]:
    """(nemosim CLI arguments, output stem) of each command of one pass."""
    from nemosim.scenario import PROTO_DIFF_FH, PROTOCOLS
    if workload == "traced-run":
        return [(["run", "--config", str(EXAMPLE_SCENARIO),
                  "--protocol", protocol, "--seed", str(seed)], protocol)
                for protocol in PROTOCOLS]
    sweep = ["sweep", "--speeds", ",".join(f"{s:g}" for s in speeds), "--seed", str(seed)]
    if workload == "congested-sweep":
        return [(sweep + ["--config", str(SCENARIOS / "congested.json")], "sweep")]
    if workload == "handover-sweep":
        return [(sweep, "predictive"),
                (sweep + ["--config", str(SCENARIOS / "reactive.json"),
                          "--protocol", PROTO_DIFF_FH], "reactive")]
    raise ValueError(f"unknown workload {workload!r}")


def run_pass(workload: str, seed: int, speeds, work_dir: Path) -> list[dict]:
    """Run one pass of the workload through `nemosim.cli.main`; returns the
    files each command wrote."""
    from nemosim import cli
    kinds = ("csv", "trace", "paths") if workload == "traced-run" else ("csv",)
    outputs = []
    for args, stem in _cli_calls(workload, seed, speeds):
        files = {kind: work_dir / f"{stem}.{kind}" for kind in kinds}
        for kind, path in files.items():
            args = args + [f"--{'out' if kind == 'csv' else kind}", str(path)]
        cli.main(args)
        outputs.append(files)
    return outputs


@dataclass
class RunOutput:
    """What one simulation run produced, as far as the checks need it."""

    row: str
    seqs: list[int]
    in_flight: int
    unexpected_signals: int
    digests: dict = field(default_factory=dict)


class RecordedRun(NamedTuple):
    report: object
    unexpected_signals: int
    trace_lines: int


class SimRecorder:
    """Swaps `nemosim.experiment.Simulation` for a subclass that keeps, for
    each run, the report and the counters the CSV row does not carry.  When
    given, `before_build` is called before each Simulation is constructed."""

    def __init__(self, before_build=None):
        self.runs: list[RecordedRun] = []
        self.before_build = before_build

    def __enter__(self):
        from nemosim import experiment
        runs, before_build = self.runs, self.before_build
        self._base = base = experiment.Simulation

        class RecordedSimulation(base):
            def __init__(self, *args, **kwargs):
                if before_build is not None:
                    before_build()
                super().__init__(*args, **kwargs)

            def run(self):
                report = super().run()
                runs.append(RecordedRun(report, self.metrics.unexpected_signals,
                                        len(self.trace) if self.trace is not None else 0))
                return report

        experiment.Simulation = RecordedSimulation
        return self

    def __exit__(self, *exc):
        from nemosim import experiment
        experiment.Simulation = self._base
        return False


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def collect(raw: list[dict], recorded: list[RecordedRun]) -> list[RunOutput]:
    """One RunOutput per CSV row written by the pass, in order."""
    from nemosim.metrics import CSV_HEADER
    rows = []
    for files in raw:
        lines = files["csv"].read_text(encoding="utf-8").splitlines()
        if not lines or lines[0] != CSV_HEADER:
            raise ValueError(f"{files['csv'].name}: no CSV header")
        digests = {}
        if "trace" in files:
            digests = {"trace_sha256": _sha256(files["trace"]),
                       "paths_sha256": _sha256(files["paths"])}
        rows += [(row, digests) for row in lines[1:]]
    if len(rows) != len(recorded):
        raise ValueError(f"{len(rows)} CSV rows but {len(recorded)} recorded runs")
    outputs = []
    for (row, digests), run in zip(rows, recorded):
        if run.report.csv_row() != row:
            raise ValueError(f"CSV row {row!r} differs from its report")
        outputs.append(RunOutput(row, [seq for seq, _, _ in run.report.per_packet_delay],
                                 run.report.in_flight_at_end, run.unexpected_signals,
                                 digests))
    return outputs


def problems_of(out: RunOutput, pinned: dict | None) -> list[str]:
    """Every way one run's output differs from its pin or breaks an invariant."""
    found = []
    if pinned is not None:
        if out.row != pinned["row"]:
            found.append(f"row {out.row!r} != pinned {pinned['row']!r}")
        for key, value in out.digests.items():
            if value != pinned.get(key):
                found.append(f"{key} {value} != pinned {pinned.get(key)}")
    if len(set(out.seqs)) != len(out.seqs):
        found.append(f"{len(out.seqs) - len(set(out.seqs))} duplicate CBR deliveries")
    if out.in_flight < 0:
        found.append(f"in_flight_at_end {out.in_flight} < 0")
    if out.unexpected_signals != 0:
        found.append(f"unexpected_signals {out.unexpected_signals} != 0")
    return found


def pinned_entries(pins: dict, workload: str, seed: int, speeds) -> list[dict]:
    """The pinned entries of one pass, in run order, restricted to `speeds`."""
    wanted = {f"{s:g}" for s in speeds}
    return [e for e in pins[workload][str(seed)] if e["row"].split(",")[2] in wanted]


def check_pass(workload: str, seed: int, speeds, outputs: list[RunOutput],
               pins: dict | None) -> tuple[int, list[str]]:
    """(failed runs, messages) for one pass; a missing run counts as failed."""
    expected = expected_runs(workload, speeds)
    pinned = pinned_entries(pins, workload, seed, speeds) if pins is not None else None
    failed, messages = 0, []
    for i, key in enumerate(expected):
        pin = pinned[i] if pinned is not None and i < len(pinned) else None
        if i >= len(outputs):
            found = ["no output"]
        else:
            found = problems_of(outputs[i], pin)
            if tuple(outputs[i].row.split(",")[:3]) != key:
                found.append(f"row {outputs[i].row!r} is not run {key}")
        if pinned is not None and pin is None:
            found.append("no pinned output")
        if found:
            failed += 1
            messages += [f"{workload} seed {seed} {'/'.join(key)}: {p}" for p in found]
    if len(outputs) > len(expected):
        messages.append(f"{workload} seed {seed}: {len(outputs) - len(expected)} extra runs")
        failed = len(expected)
    return failed, messages


class PassResult(NamedTuple):
    wall: float             # host seconds of the pass, reference loads left out
    outputs: list[RunOutput]
    recorded: list[RecordedRun]
    adjusted: float | None  # seconds at reference speed; None without calibration


class _Stretches:
    """Splits a timed pass into stretches, one per Simulation, with a
    reference load timed at each split and at both ends (calibrate.py)."""

    def __init__(self):
        self.stretches: list[float] = []
        self.refs = [time_reference()]
        self.last = time.perf_counter()

    def split(self):
        self.stretches.append(time.perf_counter() - self.last)
        self.refs.append(time_reference())
        self.last = time.perf_counter()


def timed_pass(workload: str, seed: int, speeds, probe=None, calibrated=False) -> PassResult:
    """Run one pass and collect its outputs.

    The wall time spans the first call into nemosim to the last return.  A
    probe (a tracer or a sampler), when given, is installed for the timed
    part only.  `calibrated` times a reference load before each Simulation
    is built and after the pass, leaves those loads out of the wall time and
    gives the pass's time at reference speed too.  A simulation is a cycle
    of objects that only the cyclic collector frees, so the pass starts with
    a full collection: neither its time nor the peak memory then depends on
    how many passes ran before it."""
    gc.collect()
    RUN_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=RUN_DIR))
    try:
        cuts = _Stretches() if calibrated else None
        with SimRecorder(cuts.split if cuts else None) as recorder:
            if probe is not None:
                probe.install()
            try:
                start = time.perf_counter()
                if cuts:
                    cuts.last = start
                raw = run_pass(workload, seed, speeds, work_dir)
                wall = time.perf_counter() - start
                if cuts:
                    cuts.split()
            finally:
                if probe is not None:
                    probe.uninstall()
        at_ref = None
        if cuts:
            wall, at_ref = sum(cuts.stretches), adjusted(cuts.stretches, cuts.refs)
        return PassResult(wall, collect(raw, recorder.runs), recorder.runs, at_ref)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
