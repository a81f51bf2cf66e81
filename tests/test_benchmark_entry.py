"""The benchmark's solve script builds a root node from the solver's public
pieces, and its tracer wraps the solver's functions by name; a change to
their names or signatures must fail here, not in the benchmark."""

import importlib
from pathlib import Path

import pytest

from patternpack import search
from patternpack.cli import parse_instance
from patternpack.model import SolverConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class _RootSolved(Exception):
    pass


def test_root_lp_bins_matches_the_search_root(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import solve

    inst = parse_instance("r1")
    cfg = SolverConfig()
    bins = solve.root_lp_bins(inst, cfg)

    seen = []
    column_generation = search.column_generation

    def first_node_only(*args, **kwargs):
        seen.append(column_generation(*args, **kwargs).bins)
        raise _RootSolved

    monkeypatch.setattr(search, "column_generation", first_node_only)
    with pytest.raises(_RootSolved):
        search.run(inst, cfg)
    assert seen == [bins]


def test_search_nodes_and_master_solves_match_the_stats(monkeypatch):
    """The benchmark's tracer counts calls of ``search.column_generation`` as
    explored nodes and calls of ``search.solve_rmp`` as column generation
    iterations, and fails a traced solve whose counts differ from the
    search's own statistics.  Work outside the tree, such as the root dive,
    must keep both counts equal."""
    calls = {"column_generation": 0, "solve_rmp": 0}

    def counted(name):
        original = getattr(search, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(search, name, wrapper)

    counted("column_generation")
    counted("solve_rmp")
    report = search.run(parse_instance("r3"), SolverConfig(),
                        progress=lambda event: event.nodes_explored >= 50)
    assert report.solution is not None  # the dive ran
    assert calls["column_generation"] == report.stats.nodes_explored == 50
    assert calls["solve_rmp"] == report.stats.cg_iterations


def test_a_traced_solve_resolves_every_target_and_matches_an_untraced_one(
        monkeypatch):
    """The benchmark's trace mode on r3, best-first, for 50 nodes (the search
    consults a node budget on every 50th node): every wrapped function exists
    and is called, the traced counts agree with the search's own, and tracing
    changes nothing the search reports."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import solve
    import tracer

    for module, owner, attr, _, _ in tracer.TARGETS:
        target = importlib.import_module(module)
        if owner:
            target = getattr(target, owner)
        assert callable(vars(target).get(attr)), (module, owner, attr)

    inst, cfg = parse_instance("r3"), SolverConfig()
    with tracer.Tracer() as traced:
        report = traced.run(search.run, inst, cfg, progress=solve.NodeBudget(50))
    metrics, problems = solve.layer_metrics(
        traced, report, traced.total_s["search.run"])
    assert problems == []
    assert metrics["search.nodes"] == 50
    assert {name for _, _, _, name, _ in tracer.TARGETS} <= set(traced.calls)

    plain = search.run(inst, cfg, progress=solve.NodeBudget(50))

    def summary(r):
        sol = r.solution
        return ((sol.bins, sol.patterns), r.stats.nodes_explored,
                r.stats.columns_generated, r.stats.cg_iterations)
    assert summary(report) == summary(plain)
