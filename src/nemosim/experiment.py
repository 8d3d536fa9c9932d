"""Scenario execution and the speed-sweep experiment."""

from __future__ import annotations

import copy
import dataclasses
from typing import Optional

from .engine import TraceWriter
from .metrics import CSV_HEADER, MetricsCollector
from .scenario import PROTOCOLS, ScenarioConfig
from .simulation import Simulation


def run_scenario(config: ScenarioConfig,
                 trace: Optional[list[str] | TraceWriter] = None) -> MetricsCollector:
    """Run one scenario and return its record, rendering each event into
    `trace`, the caller's own sink, when it is given.

    The finished run is released (`Simulation.release`), so its node graph
    is freed when this returns and only the record stays: a sweep holds one
    run at a time."""
    sim = Simulation(config, trace=trace)
    try:
        return sim.run()
    finally:
        sim.release()


def sweep(config: ScenarioConfig, speeds_kmh: list[float],
          protocols: tuple[str, ...] = PROTOCOLS) -> tuple[str, list[MetricsCollector]]:
    """One row per (protocol, speed); deterministic for a fixed config and seed."""
    reports = [run_scenario(dataclasses.replace(copy.deepcopy(config), protocol=protocol,
                                                dmr_speed_kmh=speed))
               for protocol in protocols for speed in speeds_kmh]
    return "\n".join([CSV_HEADER, *(report.csv_row() for report in reports)]) + "\n", reports
