"""The benchmark's solve script builds a root node from the solver's public
pieces; a change to their signatures must fail here, not in the benchmark."""

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
