#!/usr/bin/env python3
"""Reproduce the speed-sweep study: loss, forwarding rate, and handover
latency for the three schemes under a congested bottleneck.

Writes sweep.csv next to this script unless an output path is given.  After
the CSV it prints, for each scheme at 60 km/h, the CBR packets lost by reason
and the signals lost by kind, read from the run's drop ledger.
"""

import re
import sys
from collections import Counter
from pathlib import Path

from nemosim.experiment import sweep
from nemosim.metrics import FLOW_CBR
from nemosim.packets import SignalKind
from nemosim.scenario import ScenarioConfig

SIGNAL_KINDS = {kind.value for kind in SignalKind}


def losses(report) -> tuple[Counter, Counter]:
    """CBR losses by reason (a label's part before its site) and signals lost by kind."""
    cbr, signals = Counter(), Counter()
    for (what, where), n in report.drops.items():
        if what == FLOW_CBR:
            cbr[re.split("[@:]", where, maxsplit=1)[0]] += n
        elif what in SIGNAL_KINDS:
            signals[what] += n
    return cbr, signals


def listed(counts: Counter) -> str:
    return ", ".join(f"{name} {n}" for name, n in counts.most_common()) or "none"


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).with_name("sweep.csv")
    config = ScenarioConfig(background_load_bps=1_200_000, seed=1)
    csv_text, reports = sweep(config, [15, 30, 45, 60, 75, 90])
    out.write_text(csv_text)
    print(csv_text)
    print(f"wrote {out}")

    print("handover latency means (ms), micro vs macro for the fast scheme:")
    for r in reports:
        if r.protocol != "diff-fh-nemo":
            continue
        print(f"  {r.speed_kmh:>4g} km/h: micro {r.latency_mean_by_kind('micro')/1e3:7.1f}"
              f"   macro {r.latency_mean_by_kind('macro')/1e3:7.1f}")

    print("losses at 60 km/h:")
    for r in reports:
        if r.speed_kmh != 60:
            continue
        cbr, signals = losses(r)
        print(f"  {r.protocol:<13} CBR by reason: {listed(cbr)}; signals by kind: {listed(signals)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
