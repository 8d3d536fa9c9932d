#!/usr/bin/env python3
"""Walk one handover at human speed and print what each scheme pays for it."""

import sys

from nemosim.experiment import run_scenario
from nemosim.scenario import PROTOCOLS, ScenarioConfig


def main() -> int:
    print(f"{'protocol':14s} {'loss%':>7s} {'fwd%':>7s} {'handover':>12s} {'delay':>10s}")
    for protocol in PROTOCOLS:
        report = run_scenario(ScenarioConfig(protocol=protocol))
        gaps = ", ".join(f"{lat/1e3:.0f}ms/{kind}" for lat, kind
                         in zip(report.handover_latencies_us, report.handover_kinds))
        print(f"{protocol:14s} {report.loss_pct:7.2f} {report.forwarding_rate_pct:7.2f} "
              f"{gaps:>12s} {report.delay_mean_us/1e3:9.2f}ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
