#!/usr/bin/env python3
"""Print the fast scheme's lead-time grid: `diff-fh-nemo`, seed 1, 60 s, no
background load, over `lead_us` and the router's speed.

Each cell is packets delivered out of those sent, then the count of
unexpected signals, or the name of the exception that ended the run.
"""

import sys

from nemosim.engine import MS, SEC
from nemosim.scenario import PROTO_DIFF_FH, CbrConfig, ScenarioConfig
from nemosim.simulation import Simulation

LEADS_MS = (10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 150, 200)
SPEEDS_KMH = (30, 60, 90)


def cell(lead_ms: int, speed_kmh: int) -> str:
    config = ScenarioConfig(protocol=PROTO_DIFF_FH, seed=1, lead_us=lead_ms * MS,
                            dmr_speed_kmh=speed_kmh, sim_end_us=60 * SEC,
                            cbr=CbrConfig(stop_us=60 * SEC))
    sim = Simulation(config)
    try:
        report = sim.run()
    except Exception as exc:
        return type(exc).__name__
    finally:
        sim.release()
    return f"{report.delivered}/{report.sent} u{sim.metrics.unexpected_signals}"


def main() -> int:
    print("lead_ms " + "".join(f"{f'{speed} km/h':>18s}" for speed in SPEEDS_KMH))
    for lead_ms in LEADS_MS:
        print(f"{lead_ms:7d} " + "".join(f"{cell(lead_ms, speed):>18s}"
                                         for speed in SPEEDS_KMH))
    print("cell: delivered/sent, then u<unexpected signals>; or the exception raised")
    return 0


if __name__ == "__main__":
    sys.exit(main())
