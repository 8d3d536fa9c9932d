"""The comparison core of `scripts/pin_diff.py`: what it reports as moved
between one run's outputs on two trees.  The script's own runs, which check
out a revision and run both trees, are left to CI."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "pin_diff.py"

TRACE = [f"{t}\tar1\ttimer_expiry\t('bg',)" for t in range(0, 400_000, 13_333)]
CSV = "protocol,sent,delivered\ndiff-fh-nemo,2250,2249\n"


def load_script():
    spec = importlib.util.spec_from_file_location("pin_diff", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_run(directory: Path, trace, csv=CSV, ledger=None, paths="1\tcn>ha\n") -> Path:
    directory.mkdir()
    (directory / "trace.tsv").write_text("".join(f"{line}\n" for line in trace), encoding="utf-8")
    (directory / "row.csv").write_text(csv, encoding="utf-8")
    (directory / "ledger.json").write_text(json.dumps(ledger or {"bg queue:ar1->bs1": 801}),
                                           encoding="utf-8")
    (directory / "paths.tsv").write_text(paths, encoding="utf-8")
    return directory


def test_identical_traces_have_no_divergence():
    pin_diff = load_script()
    assert pin_diff.first_divergence(TRACE, list(TRACE)) is None
    assert pin_diff.first_divergence([], []) is None


def test_a_mutated_trace_gives_its_first_divergent_line_with_context():
    pin_diff = load_script()
    mutated = list(TRACE)
    mutated[12] = mutated[12].replace("ar1", "ar2")
    mutated[20] = "later"
    where = pin_diff.first_divergence(TRACE, mutated)
    assert where.line == 13
    assert where.before == TRACE[7:12]
    assert where.old == TRACE[12:18] and where.new == mutated[12:18]


def test_a_shorter_trace_diverges_where_it_ends():
    pin_diff = load_script()
    where = pin_diff.first_divergence(TRACE, TRACE[:3])
    assert where.line == 4 and where.before == TRACE[:3]
    assert where.old == TRACE[3:9] and where.new == [None]


def test_compare_reports_nothing_for_identical_runs(tmp_path):
    pin_diff = load_script()
    old = write_run(tmp_path / "old", TRACE)
    new = write_run(tmp_path / "new", TRACE)
    assert pin_diff.compare(old, new) == []


def test_compare_names_each_moved_column_ledger_key_and_trace_line(tmp_path):
    pin_diff = load_script()
    mutated = TRACE[:2] + ["moved"] + TRACE[3:]
    old = write_run(tmp_path / "old", TRACE)
    new = write_run(tmp_path / "new", mutated, csv="protocol,sent,delivered\ndiff-fh-nemo,2250,2248\n",
                    ledger={"bg queue:ar1->bs1": 802, "cbr detached@bs2": 1},
                    paths="1\tcn>ha>map1\n")
    report = pin_diff.compare(old, new)
    assert report[:4] == ["  csv delivered: 2249 -> 2248",
                          "  ledger bg queue:ar1->bs1: 801 -> 802",
                          "  ledger cbr detached@bs2: 0 -> 1",
                          "  trace: first difference at line 3"]
    assert f"           3 - {TRACE[2]}" in report and "           3 + moved" in report
    assert report[-1] == "  paths: differ"
