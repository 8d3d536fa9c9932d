"""ROADMAP item 1's lead-time grid, pinned cell by cell.

`scripts/lead_grid.py` prints the fast scheme's delivered packets and
unexpected signals over `lead_us` and speed.  A change to the fast scheme
that moves a cell, the short-lead ones above all, fails here and has to name
the move.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "lead_grid.py"

# lead_ms -> the cells at 30, 60 and 90 km/h.
GRID = {
    10: ("492/500 u0", "489/500 u0", "476/500 u0"),
    20: ("494/500 u0", "489/500 u0", "482/500 u0"),
    30: ("494/500 u0", "489/500 u0", "482/500 u0"),
    40: ("494/500 u0", "489/500 u0", "482/500 u0"),
    50: ("101/500 u5", "DepthExceeded", "DepthExceeded"),
    60: ("101/500 u5", "DepthExceeded", "DepthExceeded"),
    70: ("101/500 u5", "DepthExceeded", "DepthExceeded"),
    80: ("101/500 u5", "DepthExceeded", "DepthExceeded"),
    90: ("51/500 u7", "486/500 u9", "136/500 u19"),
    100: ("490/500 u4", "486/500 u9", "470/500 u13"),
    150: ("493/500 u0", "489/500 u1", "479/500 u0"),
    200: ("496/500 u0", "492/500 u0", "488/500 u0"),
}


def load_script():
    spec = importlib.util.spec_from_file_location("lead_grid", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lead_grid_matches_roadmap_item_1():
    lead_grid = load_script()
    assert lead_grid.LEADS_MS == tuple(GRID) and lead_grid.SPEEDS_KMH == (30, 60, 90)
    cells = {lead: tuple(lead_grid.cell(lead, speed) for speed in lead_grid.SPEEDS_KMH)
             for lead in lead_grid.LEADS_MS}
    assert cells == GRID
