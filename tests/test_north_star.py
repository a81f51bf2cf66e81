"""The north-star meter: the certified gap in bins on r1..r5.

The gap of a run is its incumbent's bins minus ceil(LB), where LB is the
dual-feasible-function bound ``model.dff_lower_bound``; the meter sums it
over r1..r5, for best-first runs of 1 and of 100 nodes with solver seed 0.
``search.run`` reports ceil(LB) as its ``lower_bound`` and the gap
(bins - ceil(LB)) / bins.  The statuses record what the search claims
today: at 100 nodes r1 and r2 end ``complete`` at node 1, 1 and 4 bins
above ceil(LB), because the heuristic prune on ceil(LP) closes their roots;
their gaps of 0.05 and 0.07 say that the claim is not proved.  Every
progress event of the ten runs is pinned as well, so a change that should
leave the search alone shows that it did.  A change that moves these
numbers re-pins them and says why.  The runs take about 2 s in a child
process with one BLAS thread (``helpers.run_child``).
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
GAP_SUM = 38  # of incumbent bins - ceil(LB) over r1..r5, at each budget

STATUSES = {
    **{(name, 1): "stopped" for name in NAMES},
    ("r1", 100): "complete", ("r2", 100): "complete",
    ("r3", 100): "stopped", ("r4", 100): "stopped", ("r5", 100): "stopped",
}

# (nodes explored, incumbent bins, incumbent patterns, lower_bound, gap) of
# every event, in order, with gap rounded to 9 digits
EVENTS = {
    ("r1", 1): [(1, 20, 3, 19, 0.05)] * 2,
    ("r2", 1): [(1, 57, 9, 53, 0.070175439)] * 2,
    ("r3", 1): [(1, 112, 8, 108, 0.035714286)] * 2,
    ("r4", 1): [(1, 55, 11, 49, 0.109090909)] * 2,
    ("r5", 1): [(1, 138, 12, 115, 0.166666667)] * 2,
    ("r1", 100): [(1, 20, 3, 19, 0.05)] * 2,
    ("r2", 100): [(1, 57, 9, 53, 0.070175439)] * 2,
    ("r3", 100): [(1, 112, 8, 108, 0.035714286),
                  (50, 112, 8, 108, 0.035714286),
                  (100, 112, 8, 108, 0.035714286),
                  (100, 112, 8, 108, 0.035714286)],
    ("r4", 100): [(1, 55, 11, 49, 0.109090909),
                  (50, 55, 11, 49, 0.109090909),
                  (100, 55, 11, 49, 0.109090909),
                  (100, 55, 11, 49, 0.109090909)],
    ("r5", 100): [(1, 138, 12, 115, 0.166666667),
                  (50, 138, 12, 115, 0.166666667),
                  (100, 138, 12, 115, 0.166666667),
                  (100, 138, 12, 115, 0.166666667)],
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
                     e.lower_bound,
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


def test_the_certified_gap_sum_at_both_budgets(runs):
    assert {key: (bins, patterns) for key, (bins, patterns, _, _) in runs.items()} \
        == {(name, budget): INCUMBENTS[name] for name in NAMES for budget in BUDGETS}
    assert {key: run[2] for key, run in runs.items()} == STATUSES
    for budget in BUDGETS:
        assert sum(runs[name, budget][0] - CEIL_LB[name] for name in NAMES) == GAP_SUM


def test_every_progress_event_of_the_meter_runs_stays_pinned(runs):
    assert {key: run[3] for key, run in runs.items()} == EVENTS
