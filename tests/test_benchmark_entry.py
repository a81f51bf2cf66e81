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
