#!/usr/bin/env python3
"""Regenerate bench/pins.json, the pinned outputs every benchmark run is
checked against, from the code in this checkout.

    python3 bench/pin.py

For each workload and each pinned scenario seed it stores every run's CSV row
and, for the CLI runs, the SHA-256 of the trace and paths files.  It refuses
to pin a run that breaks an invariant.  Re-pin only in a change whose
CHANGES.md entry names why the outputs moved.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402


def main() -> int:
    wl.import_nemosim()
    pins = {}
    bad = 0
    for workload in wl.WORKLOADS:
        pins[workload] = {}
        for seed in wl.SCENARIO_SEEDS:
            wall, outputs, *_ = wl.timed_pass(workload, seed, wl.SPEEDS)
            failed, messages = wl.check_pass(workload, seed, wl.SPEEDS, outputs, None)
            for message in messages:
                print(message, file=sys.stderr)
            bad += failed
            pins[workload][str(seed)] = [{"row": o.row, **o.digests} for o in outputs]
            print(f"{workload} seed {seed}: {len(outputs)} runs in {wall:.2f} s", file=sys.stderr)
    if bad:
        print(f"not pinned: {bad} runs break an invariant", file=sys.stderr)
        return 1
    wl.PINS_PATH.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {wl.PINS_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
