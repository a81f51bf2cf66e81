import random

import numpy as np
import pytest

from patternpack.simplex import (EPS_DUAL, LinearProgram, SimplexError,
                                 solve_lp)

from helpers import lp_vertex_oracle, random_lp


def test_one_variable_lp_with_duals():
    res = solve_lp(LinearProgram(c=[-1.0], A=[[-1.0], [1.0]], b=[-2.0, 3.0]))
    assert res.status == "optimal"
    assert res.x == pytest.approx([2.0])
    assert res.objective == pytest.approx(-2.0)
    assert res.duals == pytest.approx([1.0, 0.0])


def test_infeasible_window():
    res = solve_lp(LinearProgram(c=[-1.0], A=[[-1.0], [1.0]], b=[-5.0, 3.0]))
    assert res.status == "infeasible"


def test_objective_pushes_to_lower_bounds():
    res = solve_lp(LinearProgram(c=[-1.0, -1.0],
                                 A=[[-1.0, 0.0], [0.0, 1.0]], b=[0.0, 1.0]))
    assert res.status == "optimal"
    assert res.x == pytest.approx([0.0, 0.0])
    assert res.objective == pytest.approx(0.0)


def test_unbounded_detected():
    res = solve_lp(LinearProgram(c=[1.0], A=[[-1.0]], b=[0.0]))
    assert res.status == "unbounded"


def test_dimension_mismatch_raises():
    with pytest.raises(SimplexError):
        LinearProgram(c=[1.0, 2.0], A=[[1.0]], b=[1.0])


def test_resolve_is_deterministic():
    rng = random.Random(21)
    for _ in range(30):
        c, A, b = random_lp(rng)
        r1 = solve_lp(LinearProgram(c, A, b))
        r2 = solve_lp(LinearProgram(c, A, b))
        assert r1.status == r2.status
        if r1.status == "optimal":
            assert r1.basis == r2.basis
            assert np.array_equal(r1.x, r2.x)


def test_against_vertex_enumeration():
    rng = random.Random(42)
    for _ in range(60):
        c, A, b = random_lp(rng)
        want_status, want_value = lp_vertex_oracle(c, A, b)
        res = solve_lp(LinearProgram(c, A, b))
        assert res.status == want_status, (c, A, b)
        if want_status == "optimal":
            assert res.objective == pytest.approx(want_value, abs=1e-6)
            assert (res.duals >= -1e-9).all()
            assert abs(res.objective - float(res.duals @ b)) <= EPS_DUAL


def test_duals_certify_optimality():
    # duals y >= 0 with y.A >= c row-wise certify optimality for max problems
    rng = random.Random(77)
    checked = 0
    for _ in range(60):
        c, A, b = random_lp(rng)
        res = solve_lp(LinearProgram(c, A, b))
        if res.status != "optimal":
            continue
        checked += 1
        reduced = c - res.duals @ A
        assert (reduced <= 1e-7).all()
        slack = b - A @ res.x
        assert (slack >= -1e-7).all()
        assert float(np.abs(res.duals * slack).max()) <= 1e-6
    assert checked > 10


def test_warm_start_after_column_append():
    base = LinearProgram(c=[-1.0], A=[[-1.0], [1.0]], b=[-4.0, 4.0])
    first = solve_lp(base)
    grown = LinearProgram(c=[-1.0, -1.0],
                          A=[[-1.0, -4.0], [1.0, 4.0]], b=[-4.0, 4.0])
    warm = solve_lp(grown, basis=first.basis)
    cold = solve_lp(grown)
    assert warm.status == cold.status == "optimal"
    assert warm.objective == pytest.approx(cold.objective)
    assert warm.objective == pytest.approx(-1.0)


def test_warm_start_with_garbage_basis_falls_back():
    lp = LinearProgram(c=[-1.0], A=[[-1.0], [1.0]], b=[-2.0, 3.0])
    res = solve_lp(lp, basis=(0, 0))  # duplicate => singular basis
    assert res.status == "optimal"
    assert res.x == pytest.approx([2.0])


def test_degenerate_lp_terminates():
    # many redundant rows through the same vertex
    A = [[1.0, 1.0], [2.0, 2.0], [1.0, 0.0], [0.0, 1.0], [3.0, 3.0]]
    b = [0.0, 0.0, 0.0, 0.0, 0.0]
    res = solve_lp(LinearProgram(c=[1.0, 1.0], A=A, b=b))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(0.0)


def test_lp_without_columns():
    res = solve_lp(LinearProgram(c=np.zeros(0), A=np.zeros((2, 0)), b=[1.0, 2.0]))
    assert res.status == "optimal"
    assert res.x.shape == (0,) and res.objective == 0.0
    assert np.array_equal(res.duals, [0.0, 0.0])
    assert res.basis == (-1, -2)
    res = solve_lp(LinearProgram(c=np.zeros(0), A=np.zeros((2, 0)), b=[-1.0, 2.0]))
    assert res.status == "infeasible"


def test_lp_without_rows():
    res = solve_lp(LinearProgram(c=[1.0, 0.0], A=np.zeros((0, 2)), b=np.zeros(0)))
    assert res.status == "unbounded"
    res = solve_lp(LinearProgram(c=[-1.0, 0.0], A=np.zeros((0, 2)), b=np.zeros(0)))
    assert res.status == "optimal"
    assert res.objective == 0.0


def test_phase1_artificial_left_at_zero_maps_to_its_slack():
    # x <= 1 and -x <= -1: phase 1 ends with the second row's artificial
    # basic at zero, and phase 2 must start from that row's slack instead
    res = solve_lp(LinearProgram(c=[-1.0], A=[[1.0], [-1.0]], b=[1.0, -1.0]))
    assert res.status == "optimal"
    assert res.x == pytest.approx([1.0])
    assert res.duals == pytest.approx([0.0, 1.0])
    assert res.basis == (0, -1)
