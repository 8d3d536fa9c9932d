#!/usr/bin/env python3
"""Say what a change moved in the pinned outputs: the CSV rows, drop ledgers
and event traces of the golden and benchmark scenarios, at a git revision
against the working tree.

    python scripts/pin_diff.py REV

It checks REV out with `git worktree add` into a temporary directory, then
runs each scenario once on each tree, every run in a fresh process that
imports that tree's `src/`: criterion 9's scenario (the one
`tests/test_golden.py` pins) and each tree's `scripts/scenario.example.json`
(the benchmark's `traced-run`), for all three schemes at seeds 1 and 29.  A
run goes through `nemosim run --trace --paths --out`.  For every run that
moved it prints the CSV columns, the drop-ledger keys and the first trace
line that differ, with five lines of context from each tree, and whether the
paths file differs.  Exit status: 0 when nothing moved, 1 when something
did, 2 when a run failed or REV cannot be checked out.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import deque
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional

ROOT = Path(__file__).resolve().parents[1]

PROTOCOLS = ("nemo-bs", "diff-nemo", "diff-fh-nemo")
SEEDS = (1, 29)
CONTEXT = 5

# Scenario name -> its keys, or None for each tree's own example file.
SCENARIOS = {
    "criterion-9": {"dmr_speed_kmh": 60, "background_load_bps": 1_200_000,
                    "sim_end_us": 60_000_000},
    "example": None,
}


class Divergence(NamedTuple):
    """Where two traces part: the 1-based number of the first line that
    differs, the lines before it, and from each side that line and those
    after it (None past the end of a trace)."""

    line: int
    before: list[str]
    old: list[Optional[str]]
    new: list[Optional[str]]


def first_divergence(old: Iterable[str], new: Iterable[str],
                     context: int = CONTEXT) -> Optional[Divergence]:
    """The first line at which `old` and `new` differ, with `context` lines
    around it from each; None when they are the same line for line."""
    before: deque[str] = deque(maxlen=context)
    old_it, new_it = iter(old), iter(new)
    number = 0
    while True:
        a, b = next(old_it, None), next(new_it, None)
        number += 1
        if a is None and b is None:
            return None
        if a != b:
            return Divergence(number, list(before),
                              [a, *islice(old_it, context)], [b, *islice(new_it, context)])
        before.append(a)


def changed_columns(old_csv: str, new_csv: str) -> list[tuple[str, str, str]]:
    """(column, old value, new value) for each CSV column whose value moved;
    a column that only one side has moves from or to the empty string."""
    old = next(csv.DictReader(io.StringIO(old_csv)), {})
    new = next(csv.DictReader(io.StringIO(new_csv)), {})
    columns = list(old) + [c for c in new if c not in old]
    return [(c, old.get(c, ""), new.get(c, "")) for c in columns if old.get(c) != new.get(c)]


def changed_ledger(old: dict, new: dict) -> list[tuple[str, int, int]]:
    """(key, old count, new count) for each drop-ledger key whose count moved."""
    keys = list(old) + [k for k in new if k not in old]
    return [(k, old.get(k, 0), new.get(k, 0)) for k in keys if old.get(k, 0) != new.get(k, 0)]


def lines(path: Path) -> Iterator[str]:
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            yield line.rstrip("\n")


def compare(old_dir: Path, new_dir: Path) -> list[str]:
    """What moved between one run's outputs on the old tree and on the new,
    as lines to print; empty when nothing did."""
    report = []
    for column, a, b in changed_columns((old_dir / "row.csv").read_text(encoding="utf-8"),
                                        (new_dir / "row.csv").read_text(encoding="utf-8")):
        report.append(f"  csv {column}: {a} -> {b}")
    old_ledger = json.loads((old_dir / "ledger.json").read_text(encoding="utf-8"))
    new_ledger = json.loads((new_dir / "ledger.json").read_text(encoding="utf-8"))
    for key, a, b in changed_ledger(old_ledger, new_ledger):
        report.append(f"  ledger {key}: {a} -> {b}")
    where = first_divergence(lines(old_dir / "trace.tsv"), lines(new_dir / "trace.tsv"))
    if where is not None:
        report.append(f"  trace: first difference at line {where.line}")
        for n, line in enumerate(where.before, where.line - len(where.before)):
            report.append(f"    {n:>8}   {line}")
        for side, tail in (("-", where.old), ("+", where.new)):
            for n, line in enumerate(tail, where.line):
                report.append(f"    {n:>8} {side} {'<end of trace>' if line is None else line}")
                if line is None:
                    break
    if (old_dir / "paths.tsv").read_bytes() != (new_dir / "paths.tsv").read_bytes():
        report.append("  paths: differ")
    return report


def run_one(config: Path, out: Path) -> None:
    """One traced run of `config` under `nemosim run`, writing its row,
    trace, paths and drop ledger into `out`; nemosim comes from the
    caller's PYTHONPATH."""
    from nemosim import cli

    reports = []
    run_scenario = cli.run_scenario

    def kept(*args, **kwargs):
        reports.append(run_scenario(*args, **kwargs))
        return reports[-1]
    cli.run_scenario = kept
    status = cli.main(["run", "--config", str(config), "--out", str(out / "row.csv"),
                       "--trace", str(out / "trace.tsv"), "--paths", str(out / "paths.tsv")])
    ledger = {f"{what} {where}": n for (what, where), n in sorted(reports[0].drops.items())}
    (out / "ledger.json").write_text(json.dumps(ledger, indent=0) + "\n", encoding="utf-8")
    sys.exit(status)


def run_tree(tree: Path, work: Path) -> dict[str, Path]:
    """Every scenario, scheme and seed on `tree`, each in its own process;
    run name -> its output directory.  Raises RuntimeError on a failed run."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    runs = {}
    for scenario, keys in SCENARIOS.items():
        if keys is None:
            keys = json.loads((tree / "scripts" / "scenario.example.json").read_text("utf-8"))
        for protocol in PROTOCOLS:
            for seed in SEEDS:
                name = f"{scenario} {protocol} seed {seed}"
                out = work / name.replace(" ", "-")
                out.mkdir(parents=True)
                config = out / "scenario.json"
                config.write_text(json.dumps({**keys, "protocol": protocol, "seed": seed}),
                                  encoding="utf-8")
                done = subprocess.run([sys.executable, __file__, "--run-one", str(config), str(out)],
                                      env=env, cwd=tree, capture_output=True, text=True)
                if done.returncode != 0:
                    raise RuntimeError(f"{name} failed on {tree}:\n{done.stderr[-2000:]}")
                runs[name] = out
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", help="git revision to compare the working tree with")
    parser.add_argument("--run-one", nargs=2, metavar=("CONFIG", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run_one:
        run_one(Path(args.run_one[0]), Path(args.run_one[1]))
    if args.rev is None:
        parser.error("a revision is required")
    with tempfile.TemporaryDirectory(prefix="pin_diff-") as tmp:
        tmp = Path(tmp)
        checkout = tmp / "rev"
        added = subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                                str(checkout), args.rev], capture_output=True, text=True)
        if added.returncode != 0:
            print(f"pin_diff: cannot check out {args.rev}: {added.stderr.strip()}", file=sys.stderr)
            return 2
        try:
            old = run_tree(checkout, tmp / "old")
            new = run_tree(ROOT, tmp / "new")
        except RuntimeError as exc:
            print(f"pin_diff: {exc}", file=sys.stderr)
            return 2
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(checkout)],
                           capture_output=True)
        moved = 0
        for name, old_dir in old.items():
            report = compare(old_dir, new[name])
            if report:
                moved += 1
                print(f"{name}: moved")
                print("\n".join(report))
    print(f"pin_diff: {moved} of {len(old)} runs moved between {args.rev} and the working tree")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
