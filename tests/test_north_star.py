"""The north-star meter: the certified gap in bins on r1..r5.

The gap of a run is its incumbent's bins minus ceil(LB), where LB is the
dual-feasible-function bound ``model.dff_lower_bound``; the meter sums it
over r1..r5, for best-first runs of 1 and of 100 nodes with solver seed 0.
The statuses record what the search claims today: at 100 nodes r1 and r2
end ``complete`` at node 1, 1 and 4 bins above ceil(LB), because their
heuristic bound, the smallest LP value among the open nodes, reached the
incumbent.  Every progress event of the ten runs is pinned as well, so a
change that should leave the search alone shows that it did.  A change
that moves these numbers re-pins them and says why.  The runs take about
2 s in a child process with one BLAS thread (``helpers.run_child``).
"""

from math import ceil

import pytest

from patternpack.cli import parse_instance
from patternpack.model import dff_lower_bound

from helpers import run_child

NAMES = ("r1", "r2", "r3", "r4", "r5")
BUDGETS = (1, 100)

CEIL_LB = {"r1": 19, "r2": 53, "r3": 108, "r4": 49, "r5": 115}

# (bins, patterns) of the incumbent, the same at both budgets
INCUMBENTS = {"r1": (20, 3), "r2": (57, 9), "r3": (112, 8), "r4": (55, 11),
              "r5": (138, 12)}

STATUSES = {
    **{(name, 1): "stopped" for name in NAMES},
    ("r1", 100): "complete", ("r2", 100): "complete",
    ("r3", 100): "stopped", ("r4", 100): "stopped", ("r5", 100): "stopped",
}

# (nodes explored, incumbent bins, incumbent patterns, best_bound, gap) of
# every event, in order, with best_bound and gap rounded to 9 digits
EVENTS = {
    ("r1", 1): [(1, 20, 3, 19.120899471, 0.043955026)] * 2,
    ("r2", 1): [(1, 57, 9, 56.25, 0.013157895)] * 2,
    ("r3", 1): [(1, 112, 8, 110.064484127, 0.017281392)] * 2,
    ("r4", 1): [(1, 55, 11, 53.208068783, 0.032580568)] * 2,
    ("r5", 1): [(1, 138, 12, 136.028383459, 0.014287076)] * 2,
    ("r1", 100): [(1, 20, 3, 19.120899471, 0.043955026),
                  (1, 20, 3, 20.0, 0.0)],
    ("r2", 100): [(1, 57, 9, 56.25, 0.013157895),
                  (1, 57, 9, 57.0, 0.0)],
    ("r3", 100): [(1, 112, 8, 110.064484127, 0.017281392),
                  (50, 112, 8, 109.759722222, 0.02000248),
                  (100, 112, 8, 109.758680556, 0.020011781),
                  (100, 112, 8, 109.758680556, 0.020011781)],
    ("r4", 100): [(1, 55, 11, 53.208068783, 0.032580568),
                  (50, 55, 11, 50.385361552, 0.083902517),
                  (100, 55, 11, 50.312203229, 0.085232669),
                  (100, 55, 11, 50.312203229, 0.085232669)],
    ("r5", 100): [(1, 138, 12, 136.028383459, 0.014287076),
                  (50, 138, 12, 114.733333333, 0.168599034),
                  (100, 138, 12, 114.733333333, 0.168599034),
                  (100, 138, 12, 114.733333333, 0.168599034)],
}

CHILD = """
import json, sys
from patternpack import cli, search
from patternpack.model import SolverConfig

out = []
for name, budget in json.loads(sys.argv[1]):
    events = []

    def progress(event):
        events.append(event)
        return event.nodes_explored >= budget

    report = search.run(cli.parse_instance(name), SolverConfig(rng_seed=0),
                        progress=progress)
    out.append([name, budget, report.solution.bins, report.solution.patterns,
                report.status, [
                    [e.nodes_explored, e.incumbent_bins, e.incumbent_patterns,
                     round(e.best_bound, 9),
                     None if e.gap is None else round(e.gap, 9)] for e in events]])
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def runs():
    """(name, budget) -> (bins, patterns, status, events) of each run."""
    rows = run_child(CHILD, [[name, budget] for budget in BUDGETS for name in NAMES])
    return {(name, budget): (bins, patterns, status, [tuple(e) for e in events])
            for name, budget, bins, patterns, status, events in rows}


def test_the_bound_of_r1_to_r5():
    assert {name: ceil(dff_lower_bound(parse_instance(name)))
            for name in NAMES} == CEIL_LB


def test_the_certified_gap_sums_to_38_at_both_budgets(runs):
    assert {key: (bins, patterns) for key, (bins, patterns, _, _) in runs.items()} \
        == {(name, budget): INCUMBENTS[name] for name in NAMES for budget in BUDGETS}
    assert {key: run[2] for key, run in runs.items()} == STATUSES
    for budget in BUDGETS:
        assert sum(runs[name, budget][0] - CEIL_LB[name] for name in NAMES) == 38


def test_every_progress_event_of_the_meter_runs_stays_pinned(runs):
    assert {key: run[3] for key, run in runs.items()} == EVENTS
