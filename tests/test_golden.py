"""Golden outputs: the event trace and CSV row of criterion 9's scenario.

Criterion 9 only compares a run with a second run of the same code, so it
cannot see a change that alters the event stream for every run alike.  These
digests pin the stream itself: the same events, at the same instants, in the
same order, and the same RED draws.  Update them only in a change whose notes
name the cause of the new stream.
"""

import hashlib

import pytest

from nemosim.engine import SEC
from nemosim.experiment import run_scenario
from nemosim.scenario import (PROTO_DIFF_FH, PROTO_DIFF_NEMO, PROTO_NEMO_BS,
                              ScenarioConfig)

# protocol -> (trace lines, SHA-256 of the trace, SHA-256 of the CSV row)
GOLDEN = {
    PROTO_NEMO_BS: (
        55609,
        "afb4a21d93169f737b1f79502884d4d45b5d3f253f75a3ca15f421b38152961d",
        "a84858dcc1acbb1704e8794d9db66f2e0e17d3e2aed0fb5cd934ff818fc1ec13"),
    PROTO_DIFF_NEMO: (
        55305,
        "48f5b21712615ad1f29680ea195aaab9bf256ea7d02cc24270a3a341f40be633",
        "8088232e3c40c12c8fb13acb800e3dd240985f233912ecb09fcf8d766ae7e8c7"),
    PROTO_DIFF_FH: (
        55434,
        "f7176a0583d3df3c3149960ae85d61353a61eacf6127cf9cd1e193bb489dd112",
        "1d202cb71c4d69b3aacdbbc5b0921cb6963203553acacb09a6469bdf810b2f24"),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("protocol", list(GOLDEN))
def test_criterion_9_scenario_matches_golden(protocol):
    cfg = ScenarioConfig(protocol=protocol, dmr_speed_kmh=60,
                         background_load_bps=1_200_000, seed=77,
                         sim_end_us=60 * SEC)
    cfg.cbr.stop_us = 60 * SEC
    report, trace = run_scenario(cfg, collect_trace=True)
    lines, trace_digest, row_digest = GOLDEN[protocol]
    assert len(trace) == lines
    assert sha256("\n".join(trace)) == trace_digest
    assert sha256(report.csv_row()) == row_digest
