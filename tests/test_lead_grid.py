"""ROADMAP item 1's lead-time grid, pinned cell by cell, and its floor.

`scripts/lead_grid.py` prints the fast scheme's delivered packets and
unexpected signals over `lead_us` and speed.  A change to the fast scheme
that moves a cell, the short-lead ones above all, fails here and has to name
the move.  The script's own check, which CI runs too, holds every cell to
`diff-nemo`'s delivery at its speed.
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
    50: ("490/500 u0", "483/500 u0", "470/500 u0"),
    60: ("490/500 u0", "483/500 u0", "470/500 u0"),
    70: ("490/500 u0", "483/500 u0", "470/500 u0"),
    80: ("490/500 u0", "483/500 u0", "470/500 u0"),
    90: ("490/500 u0", "486/500 u0", "470/500 u0"),
    100: ("490/500 u0", "486/500 u0", "470/500 u0"),
    150: ("493/500 u0", "489/500 u0", "479/500 u0"),
    200: ("496/500 u0", "492/500 u0", "488/500 u0"),
}
# diff-nemo's delivery at 30, 60 and 90 km/h.
FLOOR = {30: 470, 60: 443, 90: 410}


def load_script():
    spec = importlib.util.spec_from_file_location("lead_grid", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lead_grid_matches_roadmap_item_1():
    lead_grid = load_script()
    assert lead_grid.LEADS_MS == tuple(GRID) and lead_grid.SPEEDS_KMH == (30, 60, 90)
    cells, floor = lead_grid.grid(), lead_grid.floors()
    assert {lead: tuple(lead_grid.text(cells[lead, speed]) for speed in lead_grid.SPEEDS_KMH)
            for lead in lead_grid.LEADS_MS} == GRID
    assert floor == FLOOR
    assert lead_grid.shortfalls(cells, floor) == []


def test_shortfalls_names_a_raised_cell_and_one_below_the_floor():
    lead_grid = load_script()
    cells = {(50, 60): "DepthExceeded", (90, 30): (51, 500, 7), (200, 90): (488, 500, 0),
             (10, 60): (489, 500, 2)}
    assert lead_grid.shortfalls(cells, FLOOR) == ["50 ms, 60 km/h: DepthExceeded",
                                                  "90 ms, 30 km/h: 51/500 u7",
                                                  "10 ms, 60 km/h: 489/500 u2"]
