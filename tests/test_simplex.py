import random

import numpy as np
import pytest

from patternpack import simplex
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


@pytest.mark.parametrize("bad", ["A", "b", "c"])
def test_a_non_finite_coefficient_raises(bad):
    for value in (float("nan"), float("inf"), -float("inf")):
        c, A, b = [-1.0, -1.0], [[1.0, 1.0], [-1.0, 0.0]], [4.0, -1.0]
        if bad == "A":
            A[1][1] = value
        elif bad == "b":
            b[1] = value
        else:
            c[1] = value
        with pytest.raises(SimplexError, match="finite"):
            LinearProgram(c=c, A=A, b=b)


def test_a_pivot_whose_every_ratio_overflows_raises():
    # the optimum x = 7.5e312 is not a float, so no optimum can be reported
    lp = LinearProgram(c=[1.0], A=[[1e-8], [2e-8]], b=[1e305, 1.5e305])
    with np.errstate(over="ignore"), \
            pytest.raises(SimplexError, match="every ratio"):
        solve_lp(lp)


def test_an_optimum_whose_objective_overflows_raises():
    lp = LinearProgram(c=[1e308, 1e308], A=[[1.0, 0.0], [0.0, 1.0]], b=[10.0, 10.0])
    with np.errstate(over="ignore"), \
            pytest.raises(SimplexError, match="not finite"):
        solve_lp(lp)


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
    # a column past the LP, a slack past its rows, a slack before them:
    # each is unusable, so the solve is the cold one
    cold = solve_lp(lp)
    for basis in [(5, -1), (0, -7), (-3, -1)]:
        res = solve_lp(lp, basis=basis)
        assert res.status == "optimal", basis
        assert res.basis == cold.basis
        assert np.array_equal(res.x, cold.x)


def test_a_warm_basis_with_a_negative_right_hand_side_starts_cold():
    """max x s.t. x <= 2 and -x <= -1: the slack basis gives the second row
    a right-hand side of -1, so phase 2 refuses it and the solve is cold."""
    lp = LinearProgram(c=[1.0], A=[[1.0], [-1.0]], b=[2.0, -1.0])
    assert simplex._phase2(lp.A, lp.b, lp.c, [1, 2]) is None
    res = solve_lp(lp, basis=(-1, -2))
    assert res.status == "optimal"
    assert res.x == pytest.approx([2.0]) and res.objective == pytest.approx(2.0)
    assert res.basis == solve_lp(lp).basis


def test_ratio_test_ties_within_eps_pivot_leave_by_lowest_basic_index():
    # both rows bound x0; their ratios 1 and 1 - 5e-10 tie within _EPS_PIVOT,
    # so slack 0 (basic index 1) leaves before slack 1 (basic index 2)
    res = solve_lp(LinearProgram(c=[1.0, 0.0], A=[[1.0, 1.0], [1.0, 0.0]],
                                 b=[1.0, 1.0 - 5e-10]))
    assert res.basis == (0, -2)
    assert res.x[0] == 1.0
    # 5e-9 apart they do not tie, and the smaller ratio's row leaves
    res = solve_lp(LinearProgram(c=[1.0, 0.0], A=[[1.0, 1.0], [1.0, 0.0]],
                                 b=[1.0, 1.0 - 5e-9]))
    assert res.basis == (-1, 0)


def test_ratio_test_never_pivots_on_an_entry_within_eps_pivot():
    # row 0's ratio 1e-12 / 5e-10 would be the smallest, but its entry is
    # no larger than _EPS_PIVOT, so row 1 leaves
    res = solve_lp(LinearProgram(c=[1.0], A=[[5e-10], [1.0]], b=[1e-12, 2.0]))
    assert res.basis == (-1, 0)
    assert res.x.tolist() == [2.0]


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


def test_a_cycling_lp_is_solved_by_blands_rule(monkeypatch):
    # Beale's example (1955): every pivot from the slack basis is degenerate,
    # and Dantzig's rule with the lowest-index tie-break cycles through six
    # bases, so only the switch to Bland's rule reaches the optimum 5/4
    lp = LinearProgram(c=[0.75, -20.0, 0.5, -6.0],
                       A=[[0.25, -8.0, -1.0, 9.0],
                          [0.5, -12.0, -0.5, 3.0],
                          [0.0, 0.0, 1.0, 0.0]],
                       b=[0.0, 0.0, 1.0])
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(1.25)
    assert res.x == pytest.approx([1.0, 0.0, 1.0, 0.0])
    assert abs(res.objective - float(res.duals @ lp.b)) <= EPS_DUAL
    assert (lp.c - res.duals @ lp.A <= 1e-9).all()
    # the switch comes after 2 * (3 rows + 7 columns) degenerate pivots; a
    # pivot limit one past it leaves Dantzig's rule no way out of the cycle
    monkeypatch.setattr(simplex, "_MAX_ITER", 2 * (3 + 7) + 1)
    with pytest.raises(SimplexError, match="pivot limit exceeded"):
        solve_lp(lp)
