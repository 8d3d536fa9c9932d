#!/usr/bin/env python3
"""Print the fast scheme's lead-time grid: `diff-fh-nemo`, seed 1, 60 s, no
background load, over `lead_us` and the router's speed, then `diff-nemo`'s
delivery at each speed, the grid's floor.

Each cell is packets delivered out of those sent, then the count of
unexpected signals, or the name of the exception that ended the run.  Exits 1
when a cell raised, counted an unexpected signal, or delivered fewer packets
than `diff-nemo` at its speed.
"""

import sys

from nemosim.engine import MS, SEC
from nemosim.scenario import PROTO_DIFF_FH, PROTO_DIFF_NEMO, CbrConfig, ScenarioConfig
from nemosim.simulation import Simulation

LEADS_MS = (10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 150, 200)
SPEEDS_KMH = (30, 60, 90)


def outcome(protocol: str, speed_kmh: int, lead_ms: int = 200):
    """(delivered, sent, unexpected signals) of one run, or the name of the
    exception that ended it."""
    config = ScenarioConfig(protocol=protocol, seed=1, lead_us=lead_ms * MS,
                            dmr_speed_kmh=speed_kmh, sim_end_us=60 * SEC,
                            cbr=CbrConfig(stop_us=60 * SEC))
    sim = Simulation(config)
    try:
        report = sim.run()
    except Exception as exc:
        return type(exc).__name__
    finally:
        sim.release()
    return report.delivered, report.sent, sim.metrics.unexpected_signals


def text(result) -> str:
    return result if isinstance(result, str) else "{}/{} u{}".format(*result)


def grid() -> dict:
    """(lead_ms, speed_kmh) -> the fast scheme's outcome."""
    return {(lead, speed): outcome(PROTO_DIFF_FH, speed, lead)
            for lead in LEADS_MS for speed in SPEEDS_KMH}


def floors() -> dict:
    """speed_kmh -> packets `diff-nemo` delivers."""
    return {speed: outcome(PROTO_DIFF_NEMO, speed)[0] for speed in SPEEDS_KMH}


def shortfalls(cells: dict, floor: dict) -> list:
    """The cells that raised, counted an unexpected signal, or delivered
    fewer packets than `floor` at their speed."""
    return [f"{lead} ms, {speed} km/h: {text(result)}"
            for (lead, speed), result in cells.items()
            if isinstance(result, str) or result[0] < floor[speed] or result[2] > 0]


def main() -> int:
    cells, floor = grid(), floors()
    print("lead_ms " + "".join(f"{f'{speed} km/h':>18s}" for speed in SPEEDS_KMH))
    for lead_ms in LEADS_MS:
        print(f"{lead_ms:7d} " + "".join(f"{text(cells[lead_ms, speed]):>18s}"
                                         for speed in SPEEDS_KMH))
    print("floor   " + "".join(f"{floor[speed]:>18d}" for speed in SPEEDS_KMH))
    print("cell: delivered/sent, then u<unexpected signals>; or the exception raised")
    print("floor: packets diff-nemo delivers at that speed")
    below = shortfalls(cells, floor)
    for line in below:
        print(f"fails the check: {line}")
    return 1 if below else 0


if __name__ == "__main__":
    sys.exit(main())
