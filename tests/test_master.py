import numpy as np
import pytest

from patternpack.master import (build_rmp, count_matrix, report_objective,
                                solve_rmp)
from patternpack.model import Instance, ItemType, Solution, SolverConfig
from patternpack.pricing import reduced_cost
from patternpack.simplex import SimplexError

from helpers import build_node


def _single_type_instance(lo, hi):
    return Instance(10, 10, 0, (ItemType("A", 5, 5, lo, hi),))


def test_build_rmp_single_type():
    inst = _single_type_instance(2, 3)
    node = build_node(inst, [{"A": 1}])
    lp = build_rmp(node)
    assert lp.c.tolist() == [-1.0]
    assert lp.A.tolist() == [[-1.0], [1.0]]
    assert lp.b.tolist() == [-2.0, 3.0]


def test_build_rmp_shape_two_types():
    inst = Instance(10, 10, 0, (ItemType("A", 5, 5, 1, 2), ItemType("B", 2, 2, 0, 4)))
    node = build_node(inst, [{"A": 1}, {"B": 2}])
    lp = build_rmp(node)
    assert lp.A.shape == (4, 2)
    a = count_matrix(node)
    assert a.tolist() == [[1.0, 0.0], [0.0, 2.0]]
    assert np.array_equal(lp.A[0::2], -a) and np.array_equal(lp.A[1::2], a)
    assert lp.b.tolist() == [-1.0, 2.0, 0.0, 4.0]


def test_build_rmp_compound_gets_its_own_rows():
    inst = Instance(10, 10, 0, (ItemType("A", 5, 5, 1, 2), ItemType("B", 2, 2, 0, 4)))
    reg = inst.registry()
    reg.add(ItemType("C", constituents=(("A", 1), ("B", 1)), from_count=1, to_count=1))
    node = build_node(
        inst, [{"A": 1}, {"C": 1}], registry=reg,
        mult={"A": (1, 2), "B": (0, 4), "C": (1, 1)})
    lp = build_rmp(node)
    assert lp.A.shape == (6, 2)
    assert lp.b.tolist()[4:] == [-1.0, 1.0]       # compound row pair rhs
    assert lp.A[4].tolist() == [0.0, -1.0]        # compounds are not expanded
    assert lp.A[5].tolist() == [0.0, 1.0]


def test_a_grown_master_equals_a_fresh_build():
    inst = Instance(10, 10, 0, (ItemType("A", 5, 5, 1, 2), ItemType("B", 2, 2, 0, 4)))
    reg = inst.registry()
    reg.add(ItemType("C", constituents=(("A", 1), ("B", 1)), from_count=1, to_count=1))
    mult = {"A": (1, 2), "B": (0, 4), "C": (1, 1)}
    node = build_node(inst, [{"A": 1}, {"C": 1}], registry=reg, mult=mult)
    previous = build_rmp(node)
    node.columns.extend(build_node(inst, [{"B": 2}, {"A": 1, "C": 1}, {"B": 1, "C": 1}],
                                   registry=reg, mult=mult).columns)
    grown, fresh = build_rmp(node, previous), build_rmp(node)
    assert grown.A.shape == (6, 5) and previous.A.shape == (6, 2)
    assert np.array_equal(grown.A, fresh.A)
    assert np.array_equal(grown.b, fresh.b)
    assert np.array_equal(grown.c, fresh.c)
    assert grown.A[4:].tolist() == [[0.0, -1.0, 0.0, -1.0, -1.0],   # compound rows
                                    [0.0, 1.0, 0.0, 1.0, 1.0]]


def test_solve_rmp_integral_case():
    inst = _single_type_instance(2, 3)
    node = build_node(inst, [{"A": 1}])
    out = solve_rmp(node)
    assert out is not None
    assert out.x == pytest.approx([2.0])
    assert out.bins == pytest.approx(2.0)
    assert not out.fractional


def test_solve_rmp_fractional_case():
    inst = _single_type_instance(3, 3)
    node = build_node(inst, [{"A": 2}], mult={"A": (3, 3)})
    out = solve_rmp(node)
    assert out.x == pytest.approx([1.5])
    assert out.bins == pytest.approx(1.5)
    assert out.fractional


def test_solve_rmp_zero_demand():
    inst = _single_type_instance(0, 0)
    node = build_node(inst, [{"A": 1}], mult={"A": (0, 0)})
    out = solve_rmp(node)
    assert out.bins == pytest.approx(0.0)
    assert not out.fractional


def test_solve_rmp_raises_on_an_infeasible_master():
    # a node's pool makes its master feasible, so an empty one is an error:
    # -x <= -2 together with x <= 1 is empty
    inst = _single_type_instance(2, 3)
    node = build_node(inst, [{"A": 1}], mult={"A": (2, 1)})
    with pytest.raises(SimplexError, match="infeasible"):
        solve_rmp(node)


def test_pool_reduced_costs_nonpositive_at_optimum():
    inst = Instance(12, 12, 0, (ItemType("A", 4, 4, 2, 5), ItemType("B", 6, 6, 1, 3)))
    node = build_node(inst, [{"A": 2}, {"B": 1}, {"A": 1, "B": 1}])
    out = solve_rmp(node)
    assert out is not None
    for col in node.columns:
        assert reduced_cost(col.counts_dict(), out.scores) <= 1e-9


def test_duality_residuals_small():
    inst = Instance(12, 12, 0, (ItemType("A", 4, 4, 2, 5), ItemType("B", 6, 6, 1, 3)))
    node = build_node(inst, [{"A": 3}, {"B": 2}, {"A": 1, "B": 1}])
    out = solve_rmp(node)
    lp, res = build_rmp(node), out.lp_result
    assert abs(res.objective - float(res.duals @ lp.b)) <= 1e-6  # strong duality
    slack = lp.b - lp.A @ out.x
    assert float(np.max(np.abs(res.duals * slack))) <= 1e-6      # rows
    reduced = lp.c - res.duals @ lp.A
    assert float(np.max(np.abs(reduced * out.x))) <= 1e-6        # columns
    assert (res.duals >= 0).all()
    assert out.scores == {"A": res.duals[0] - res.duals[1],
                          "B": res.duals[2] - res.duals[3]}


def _solution(patterns, bins):
    return Solution(assignments=(), s=(), bins=bins, patterns=patterns)


def test_report_objective_values():
    assert report_objective(_solution(4, 19), SolverConfig()) == 23
    assert report_objective(_solution(0, 0), SolverConfig()) == 0
    assert report_objective(_solution(6, 55), SolverConfig(c1=2.0, c2=1.0)) == 67


def test_relaxation_ignores_weights():
    # build_rmp never sees c1/c2/M: identical LPs regardless of the config
    inst = _single_type_instance(2, 3)
    node = build_node(inst, [{"A": 1}])
    lp = build_rmp(node)
    assert np.array_equal(lp.c, [-1.0])  # objective is the constant-collapsed form
