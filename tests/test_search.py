import random
from math import ceil, inf

import numpy as np
import pytest

from patternpack import search
from patternpack.branching import (BranchingStuck, _compound, affinity,
                                   make_left_child, select_branching_pair)
from patternpack.cli import emit_solution, parse_instance, verify_solution_file
from patternpack.master import (EPS_INT, build_rmp, count_matrix,
                                report_objective, solve_rmp)
from patternpack.model import (Instance, ItemType, Layout, NodeProblem,
                               SolverConfig, dff_lower_bound, make_column,
                               node_rng)
from patternpack.oracle import OracleGuardError, exact_solve
from patternpack.placement import verify_layout
from patternpack.pricing import greedy_fill
from patternpack.simplex import solve_lp
from patternpack.search import (_OpenNodes, column_generation,
                                initial_columns, run)

from helpers import (build_node, oracle_sample, packer_for, random_small_instance,
                     tiny_instance)


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


def _solved_root(inst):
    root = build_node(inst, [])
    root.columns = initial_columns(inst, root.registry, root)
    return root, column_generation(root, inst, SolverConfig(), root.registry)


def test_dive_rounds_an_integral_lp_to_its_own_columns():
    inst = Instance(10, 10, 0, (ItemType("A", 5, 5, 8, 8),
                                ItemType("B", 10, 5, 6, 6)))
    root, outcome = _solved_root(inst)
    assert not outcome.fractional
    sol = search.dive(root, outcome, inst, 0, inf, search.SearchStats())
    assert sol.assignments == tuple(
        (col, int(k)) for col, k in zip(root.columns, np.rint(outcome.x))
        if k > 0)
    assert sol.bins == 5


def test_dive_of_a_node_without_demand_uses_no_bins():
    inst = Instance(10, 10, 0, (ItemType("A", 5, 5, 0, 4),))
    root, outcome = _solved_root(inst)
    assert not outcome.fractional and not outcome.x.any()
    sol = search.dive(root, outcome, inst, 0, inf, search.SearchStats())
    assert (sol.bins, sol.patterns) == (0, 0)


def test_a_dive_from_a_left_child_covers_its_compound_in_every_residual_pool(
        monkeypatch):
    # on this instance the root's LP is fractional, so is the together child
    # of its branching pair, and the dive from it leaves the compound's from > 0
    inst = tiny_instance(94)
    root, outcome = _solved_root(inst)
    i, j = select_branching_pair(root, outcome)
    left = make_left_child(root, i, j, child_id=1, seed=0, instance=inst)
    outcome = column_generation(left, inst, SolverConfig(), left.registry)
    assert outcome.fractional
    cid = _compound(i, j, left.registry).id
    residual = []
    generate = search._generate

    def solve(node, *args):
        covered = {col.counts[0][0] for col in node.columns if len(col.counts) == 1}
        demanded = {tid for tid, (lo, _) in node.multiplicities.items() if lo > 0}
        assert demanded <= covered, (node.id, demanded - covered)
        residual.append(demanded)
        return generate(node, *args)

    monkeypatch.setattr(search, "_generate", solve)
    sol = search.dive(left, outcome, inst, 0, inf, search.SearchStats())
    assert any(cid in demanded for demanded in residual)
    totals = dict(sol.s)
    for t in inst.item_types:
        assert t.from_count <= totals[t.id] <= t.to_count


def test_a_dive_whose_residual_coverage_fill_fails_returns_none():
    """The compound ABC places only as B, A, C, while a fill places it in
    its expansion order A, B, C.  The pool {D, E}, {ABC, D}, {ABC, E} gives
    x = 1/2 on every column; the dive fixes {D, E}, which leaves ABC's from
    unmet with no pooled column that fits, and the residual node's coverage
    fill of ABC fails."""
    inst = Instance(10, 10, 0, (
        ItemType("A", 4, 5, 1, 1), ItemType("B", 4, 6, 1, 1),
        ItemType("C", 7, 3, 1, 1), ItemType("D", 2, 2, 1, 1),
        ItemType("E", 2, 2, 1, 1)))
    reg = inst.registry()
    reg.add(ItemType("ABC", constituents=(("A", 1), ("B", 1), ("C", 1))))
    unit = [("B", 0, 0), ("A", 4, 0), ("C", 0, 6)]
    pool = [({"D": 1, "E": 1}, [("D", 0, 0), ("E", 2, 0)]),
            ({"ABC": 1, "D": 1}, unit + [("D", 8, 0)]),
            ({"ABC": 1, "E": 1}, unit + [("E", 8, 0)])]
    columns = [make_column(counts, Layout(tuple(placed)), reg)
               for counts, placed in pool]
    for col in columns:
        assert verify_layout(col.witness, col.counts_dict(), inst, reg)
    start = NodeProblem(id=0, parent_id=None, depth=0,
                        multiplicities={"ABC": (1, 1), "D": (1, 1), "E": (1, 1)},
                        columns=columns, registry=reg, rng=node_rng(0, 0),
                        packer=packer_for(inst))
    assert greedy_fill(("ABC",), start) is None
    outcome = solve_rmp(start)
    assert outcome.x == pytest.approx([0.5, 0.5, 0.5])
    assert int(np.argmax(outcome.x)) == 0  # the column the dive fixes
    assert search.dive(start, outcome, inst, 0, inf, search.SearchStats()) is None


def test_branching_reads_the_counts_of_the_solved_master():
    # the left child's master grew over several rounds; its count rows are
    # the pool's count matrix, and the pair is the one that matrix gives
    inst = tiny_instance(94)
    root, outcome = _solved_root(inst)
    i, j = select_branching_pair(root, outcome)
    left = make_left_child(root, i, j, child_id=1, seed=0, instance=inst)
    n_start = len(left.columns)
    outcome = column_generation(left, inst, SolverConfig(), left.registry)
    assert len(left.columns) > n_start and outcome.fractional
    a = count_matrix(left)
    assert outcome.counts.shape == a.shape and np.array_equal(outcome.counts, a)
    rho = affinity(a, outcome.x)
    frac = np.triu(np.abs(rho - np.round(rho)))
    p, q = np.unravel_index(np.argmax(frac), frac.shape)
    assert frac[p, q] > EPS_INT
    ids = tuple(left.multiplicities)
    assert select_branching_pair(left, outcome) == (ids[p], ids[q])


@pytest.mark.parametrize("strategy", ["heuristic_min_heap", "depth_first"])
def test_every_master_of_a_budgeted_solve_is_feasible_by_construction(
        strategy, monkeypatch):
    """x = from_j / count_j on one single-type column per type with from > 0,
    0 elsewhere, meets every row of the master at each tree node and each
    residual node of the dives, so solve_rmp never meets an empty master."""
    solved = []
    generate = search._generate

    def checked(node, *args):
        single = {}
        for l, col in enumerate(node.columns):
            if len(col.counts) == 1:
                single.setdefault(col.counts[0][0], (l, col.counts[0][1]))
        x = np.zeros(len(node.columns))
        for tid, (lo, _) in node.multiplicities.items():
            if lo > 0:
                assert tid in single, (node.id, tid)
                l, n = single[tid]
                x[l] = lo / n
        lp = build_rmp(node)
        assert (lp.A @ x <= lp.b + 1e-9).all(), node.id
        solved.append(node.id)
        return generate(node, *args)

    monkeypatch.setattr(search, "_generate", checked)
    rep = run(parse_instance("r3"), SolverConfig(rng_seed=0, node_selection=strategy),
              progress=lambda event: event.nodes_explored >= 50)
    assert rep.stats.nodes_explored == 50
    assert sum(i >= 0 for i in solved) == 50
    assert any(i < 0 for i in solved)  # the dives' residual nodes


def test_every_round_solves_the_master_a_fresh_build_would(monkeypatch):
    # a together child carries a compound's row pair; each round after its
    # first grows the last round's master by the columns pricing appended
    inst = tiny_instance(94)
    root, outcome = _solved_root(inst)
    i, j = select_branching_pair(root, outcome)
    left = make_left_child(root, i, j, child_id=1, seed=0, instance=inst)
    cid = _compound(i, j, left.registry).id
    grown = []
    solve_rmp = search.solve_rmp

    def checked(node, previous=None):
        outcome = solve_rmp(node, previous)
        fresh = build_rmp(node)
        for field in ("A", "b", "c"):
            assert np.array_equal(getattr(outcome.lp, field), getattr(fresh, field))
        if previous is not None:
            grown.append(node.columns[previous.lp.A.shape[1]:])
            want = solve_lp(fresh, basis=previous.lp_result.basis)
            got = outcome.lp_result
            assert got.basis == want.basis
            assert got.x.tobytes() == want.x.tobytes()
            assert got.duals.tobytes() == want.duals.tobytes()
        return outcome

    monkeypatch.setattr(search, "solve_rmp", checked)
    column_generation(left, inst, SolverConfig(), left.registry)
    assert cid in left.multiplicities and grown and all(grown)


def test_columns_generated_counts_the_root_pool_and_what_pricing_added(
        monkeypatch):
    added = []
    for name in ("initial_columns", "price"):
        def counted(*args, step=getattr(search, name), **kwargs):
            columns = step(*args, **kwargs)
            added.append(len(columns))
            return columns
        monkeypatch.setattr(search, name, counted)
    rep = run(parse_instance("r3"), SolverConfig(),
              progress=lambda event: event.nodes_explored >= 50)
    assert rep.stats.nodes_explored == 50
    assert rep.stats.columns_generated == sum(added)


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
    totals = dict(sol.s)
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
        assert rep.solution is not None, k
        assert rep.solution.bins == exact.bins, k
        # pricing is heuristic, so the search may use more patterns
        assert rep.solution.patterns >= exact.patterns, k
        emit_solution(rep, cfg, out)
        assert verify_solution_file(out) == [], k


def test_objective_against_the_oracle_at_unit_weights():
    """Whole runs against the exact optimum, on the oracle's sample.

    At c1 = c2 = 1 the oracle's lexicographic answer (fewest bins, then
    fewest patterns) is also the weighted optimum bins + patterns on all
    164 admitted instances that need a bin; an IP over the oracle's
    patterns found none lower (ROADMAP item 3).  The meter counts the
    best-first runs without a budget that end above it, and how many of
    those end ``complete``, a status that claims no optimum.  It also holds
    the certified claim to the oracle: every run's ``lower_bound`` is the
    ceiling of ``dff_lower_bound``, at most the oracle's bins, which are at
    most the run's, so no run at gap 0 has more bins than the oracle.  It
    counts the runs at gap 0, the runs above the oracle's bins and those of
    them at gap 0.  Weights such as c1 = 10 wait for a weighted
    ``exact_solve``.  A change that moves these counts pins the new ones
    and says why."""
    cfg = SolverConfig()
    admitted = above = above_complete = at_gap_0 = more_bins = more_at_gap_0 = 0
    for instance in oracle_sample():
        try:
            exact = exact_solve(instance)
        except OracleGuardError:
            continue
        if exact.bins == 0:
            continue
        admitted += 1
        rep = run(instance, cfg)
        assert rep.lower_bound == ceil(dff_lower_bound(instance)) \
            <= exact.bins <= rep.solution.bins
        if report_objective(rep.solution, cfg) > exact.bins + exact.patterns:
            above += 1
            above_complete += rep.status == "complete"
        at_gap_0 += rep.gap == 0
        if rep.solution.bins > exact.bins:
            more_bins += 1
            more_at_gap_0 += rep.gap == 0
    assert (admitted, above, above_complete) == (164, 31, 31)
    assert (at_gap_0, more_bins, more_at_gap_0) == (157, 2, 0)


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


class _Clock:
    """Stands in for ``search.time``: it reads 0 for its first ``n`` reads
    and then lies past every deadline, so the time limit cuts a run at a
    chosen point."""

    def __init__(self, n: int):
        self.reads_left = n

    def monotonic(self) -> float:
        self.reads_left -= 1
        return 0.0 if self.reads_left >= 0 else 1e9


def _cut_run(inst, n, monkeypatch):
    monkeypatch.setattr(search, "time", _Clock(n))
    return run(inst, SolverConfig(time_limit_seconds=1.0))


def _small_draw(k):
    rng = random.Random(1)
    for _ in range(k):
        random_small_instance(rng)
    return random_small_instance(rng)


@pytest.mark.parametrize("inst, n", [
    # the clock runs out while the root is solved, and its cut-short LP is
    # integral, so the root looks finished
    pytest.param(tiny_instance(39), 2, id="tiny39-read2"),
    pytest.param(tiny_instance(41), 2, id="tiny41-read2"),
    # ... or while a node deeper in the tree is solved
    pytest.param(_small_draw(6), 16, id="draw6-read16"),
])
def test_a_node_cut_by_the_clock_ends_the_run_at_the_time_limit(
        inst, n, monkeypatch):
    rep = _cut_run(inst, n, monkeypatch)
    assert rep.status == "time_limit"
    assert rep.lower_bound == ceil(dff_lower_bound(inst)) <= rep.solution.bins


def test_a_run_the_clock_cut_is_complete_only_if_it_finished(monkeypatch):
    for k in range(50):
        inst = tiny_instance(k)
        full = run(inst, SolverConfig())
        for n in range(1, 6):
            rep = _cut_run(inst, n, monkeypatch)
            if rep.status == "complete":
                assert (rep.solution.bins, rep.solution.patterns,
                        rep.stats.nodes_explored) == (
                    full.solution.bins, full.solution.patterns,
                    full.stats.nodes_explored), (k, n)


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
def test_open_nodes_pop_order(strategy, expected):
    queue = _OpenNodes(strategy)
    assert len(queue) == 0
    for k, used in enumerate([5, 2, 9, 2, 5]):
        node = NodeProblem(id=k, parent_id=None, depth=0, multiplicities={},
                           columns=[], registry=None)
        queue.push(node, used)
    order = []
    while len(queue):
        order.append(queue.pop().id)
    assert order == expected


def test_a_stuck_node_is_counted_and_leaves_the_root_dive_incumbent(
        monkeypatch, tmp_path):
    """r3's root LP, 110.06, stays below the root dive's 112 bins, so the root
    branches; a branching that finds no pair closes it without children.
    r1 would not do: its root is pruned at ceil(19.12) = 20 bins first."""
    def stuck(node, outcome):
        raise BranchingStuck(f"node {node.id}: no admissible pair")

    monkeypatch.setattr(search, "select_branching_pair", stuck)
    cfg = SolverConfig()
    report = run(parse_instance("r3"), cfg)
    assert report.stats.nodes_explored == 1 and report.stats.stuck_nodes == 1
    assert report.status == "complete"
    assert (report.solution.bins, report.solution.patterns) == (112, 8)
    out = tmp_path / "r3.json"
    emit_solution(report, cfg, out)
    assert verify_solution_file(out) == []
