from math import ceil

import pytest

from patternpack import search
from patternpack.cli import emit_solution, parse_instance, verify_solution_file
from patternpack.master import EPS_INT, report_objective
from patternpack.model import Instance, ItemType, NodeProblem, SolverConfig
from patternpack.oracle import exact_solve
from patternpack.placement import verify_layout
from patternpack.search import (_OpenNodes, column_generation,
                                initial_columns, run)

from helpers import build_node, tiny_instance


def _initial_columns(inst):
    root = build_node(inst, [])
    return initial_columns(inst, root.registry, root)


def test_initial_columns_homogeneous_plus_mixed():
    inst = Instance(20, 10, 0, (ItemType("A", 5, 5, 2, 4),
                                ItemType("B", 10, 10, 1, 1),
                                ItemType("C", 2, 2, 0, 3)))
    cols = _initial_columns(inst)
    reg = inst.registry()
    for t in inst.item_types:
        assert any(set(c.counts_dict()) == {t.id} for c in cols), t.id
    assert any(len(c.counts) > 1 for c in cols)  # the mixed fill
    for c in cols:
        assert verify_layout(c.witness, c.counts_dict(), inst, reg)


def test_initial_columns_single_type_no_duplicate_mixed():
    inst = Instance(10, 10, 0, (ItemType("A", 5, 5, 1, 4),))
    cols = _initial_columns(inst)
    assert [c.counts_dict() for c in cols] == [{"A": 4}]


def test_initial_columns_zero_demand_still_generated():
    inst = Instance(10, 10, 0, (ItemType("A", 5, 5, 0, 4),))
    cols = _initial_columns(inst)
    assert cols and cols[0].counts_dict() == {"A": 4}


def test_column_generation_stops_on_zero_duals():
    inst = Instance(10, 10, 0, (ItemType("A", 5, 5, 0, 4),))
    node = build_node(inst, [{"A": 4}], mult={"A": (0, 4)})
    out = column_generation(node, inst, SolverConfig(), node.registry)
    assert out.bins == pytest.approx(0.0)
    assert len(node.columns) == 1  # nothing priced in


def test_column_generation_reaches_full_pattern():
    inst = Instance(10, 10, 0, (ItemType("A", 5, 5, 4, 4),))
    node = build_node(inst, [{"A": 1}], mult={"A": (4, 4)})
    out = column_generation(node, inst, SolverConfig(), node.registry)
    assert out.bins == pytest.approx(1.0)
    assert any(c.counts_dict() == {"A": 4} for c in node.columns)


def test_run_exact_tiling():
    inst = Instance(10, 10, 0, (ItemType("A", 5, 5, 4, 4),))
    rep = run(inst, SolverConfig())
    assert rep.solution.bins == 1
    assert rep.solution.patterns == 1
    assert rep.gap == 0.0


def test_run_with_spacing():
    inst = Instance(10, 10, 2, (ItemType("A", 4, 4, 8, 9),))
    rep = run(inst, SolverConfig())
    assert rep.solution.bins == 2
    assert rep.solution.patterns == 1
    assert rep.solution.assignments[0][0].counts_dict() == {"A": 4}


def test_run_zero_demand():
    inst = Instance(10, 10, 0, (ItemType("A", 5, 5, 0, 4),))
    rep = run(inst, SolverConfig())
    assert rep.solution.bins == 0
    assert rep.solution.patterns == 0
    assert report_objective(rep.solution, SolverConfig()) == 0.0


def test_run_without_item_types(tmp_path):
    cfg = SolverConfig()
    rep = run(Instance(10, 10, 0, ()), cfg)
    assert (rep.solution.bins, rep.solution.patterns) == (0, 0)
    out = tmp_path / "sol.json"
    emit_solution(rep, cfg, out)
    assert verify_solution_file(out) == []


def test_run_incumbent_verifies_and_meets_ranges():
    inst = tiny_instance(3)
    rep = run(inst, SolverConfig())
    sol = rep.solution
    reg = inst.registry()
    totals = sol.totals()
    for t in inst.item_types:
        assert t.from_count <= totals[t.id] <= t.to_count
    for col, x in sol.assignments:
        assert x >= 1
        assert verify_layout(col.witness, col.counts_dict(), inst, reg)


def test_run_incumbent_monotone_over_progress():
    inst = tiny_instance(7)
    seen = []

    def watch(event):
        if event.incumbent_bins is not None:
            seen.append((event.incumbent_bins, event.incumbent_patterns))
        return False

    run(inst, SolverConfig(), progress=watch)
    assert seen == sorted(seen, reverse=True) or \
        all(seen[k] >= seen[k + 1] for k in range(len(seen) - 1))


def test_run_deterministic_same_seed():
    inst = tiny_instance(11)
    cfg = SolverConfig(rng_seed=4)
    a = run(inst, cfg)
    b = run(inst, cfg)
    assert (a.solution.bins, a.solution.patterns) == \
        (b.solution.bins, b.solution.patterns)
    assert a.stats.nodes_explored == b.stats.nodes_explored
    assert [(c.counts, x) for c, x in a.solution.assignments] == \
        [(c.counts, x) for c, x in b.solution.assignments]


def test_strategies_agree_on_bins_for_tiny_instances():
    for k in (0, 1, 2, 3, 4):
        inst = tiny_instance(k)
        dfs = run(inst, SolverConfig(node_selection="depth_first"))
        heap = run(inst, SolverConfig(node_selection="heuristic_min_heap"))
        assert dfs.solution is not None and heap.solution is not None
        assert dfs.solution.bins == heap.solution.bins, f"instance {k}"


@pytest.mark.parametrize("strategy", ["depth_first", "heuristic_min_heap"])
def test_run_agrees_with_the_oracle_on_tiny_instances(strategy, tmp_path):
    cfg = SolverConfig(node_selection=strategy)
    out = tmp_path / "sol.json"
    for k in range(60):
        inst = tiny_instance(k)
        exact = exact_solve(inst)
        rep = run(inst, cfg)
        assert exact is not None and rep.solution is not None, k
        assert rep.solution.bins == exact.bins, k
        # pricing is heuristic, so the search may use more patterns
        assert rep.solution.patterns >= exact.patterns, k
        emit_solution(rep, cfg, out)
        assert verify_solution_file(out) == [], k


def test_a_node_budget_stops_at_exactly_its_node_count():
    # progress fires after every 50th node, whether it branched or not; the
    # 150th node of this search is pruned (the dive closes r1 at the root)
    rep = run(parse_instance("r3"), SolverConfig(),
              progress=lambda event: event.nodes_explored >= 150)
    assert rep.status == "stopped"
    assert rep.stats.nodes_explored == 150


@pytest.mark.parametrize("name", ["r1", "r2", "r3", "r4", "r5"])
def test_the_root_dive_gives_a_near_lp_incumbent_at_node_1(
        name, monkeypatch, tmp_path):
    root_lp = []
    column_generation = search.column_generation

    def solve_node(*args, **kwargs):
        outcome = column_generation(*args, **kwargs)
        root_lp.append(outcome.bins)
        return outcome

    monkeypatch.setattr(search, "column_generation", solve_node)
    events = []
    cfg = SolverConfig()
    rep = run(parse_instance(name), cfg, progress=lambda event: (
        events.append(event) or event.incumbent_bins is not None))
    first = next(e for e in events if e.incumbent_bins is not None)
    assert first.nodes_explored == 1
    assert first.incumbent_bins == rep.solution.bins
    assert rep.solution.bins <= ceil(root_lp[0] - EPS_INT) + 2
    out = tmp_path / "sol.json"
    emit_solution(rep, cfg, out)
    assert verify_solution_file(out) == []


def test_time_limit_zero_reports_no_incumbent():
    inst = tiny_instance(2)
    rep = run(inst, SolverConfig(time_limit_seconds=0.0))
    assert rep.solution is None
    assert rep.status == "time_limit"
    assert rep.gap is None


def test_progress_callback_can_stop_the_run():
    inst = tiny_instance(5)

    def stop_at_first_incumbent(event):
        return event.incumbent_bins is not None

    rep = run(inst, SolverConfig(), progress=stop_at_first_incumbent)
    assert rep.solution is not None
    assert rep.status in ("stopped", "complete")


@pytest.mark.parametrize("strategy, expected", [
    ("depth_first", [4, 3, 2, 1, 0]),
    # (parent_patterns_used, insertion) order
    ("heuristic_min_heap", [1, 3, 0, 4, 2]),
])
def test_open_nodes_pop_order_and_min_bound(strategy, expected):
    queue = _OpenNodes(strategy)
    assert len(queue) == 0 and queue.bound(-1.0) == -1.0
    for k, (used, hint) in enumerate([(5, 3.0), (2, 7.5), (9, 1.25),
                                      (2, 4.0), (5, 6.0)]):
        node = NodeProblem(id=k, parent_id=None, depth=0, multiplicities={},
                           columns=[], registry=None)
        queue.push(node, used, hint)
    assert queue.bound(-1.0) == 1.25
    order = []
    while len(queue):
        order.append(queue.pop().id)
    assert order == expected
    assert queue.bound(-1.0) == -1.0
