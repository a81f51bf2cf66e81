"""Restricted master problem: build, solve, extract dual prices, report objectives.

The relaxed master never sees the pattern/bin weights; after relaxation the
objective collapses to minimizing bins, i.e. maximize sum(-x_l).  For each
active item type there is a lower row  -sum(a_jl x_l) <= -from_j  and an
upper row  sum(a_jl x_l) <= to_j.  Compound types are rows of their own;
the master never expands them.
"""

from dataclasses import dataclass

import numpy as np

from .model import Solution, SolverConfig
from .simplex import EPS_DUAL, LinearProgram, LpResult, SimplexError, solve_lp

EPS_INT = 1e-6  # integrality detection threshold


@dataclass(frozen=True)
class DualPrices:
    """Non-negative shadow prices per active type: pi1 for the lower rows,
    pi2 for the upper rows."""

    type_ids: tuple[str, ...]
    pi1: tuple[float, ...]
    pi2: tuple[float, ...]

    def scores(self) -> dict[str, float]:
        return {tid: p1 - p2
                for tid, p1, p2 in zip(self.type_ids, self.pi1, self.pi2)}


@dataclass
class RmpSolveOutcome:
    lp_result: LpResult
    x: np.ndarray
    bins: float
    fractional: bool
    duals: DualPrices
    duality_residual: float  # |primal obj - duals . rhs|
    cs_residual: float       # max complementary-slackness violation

    @property
    def feasible(self) -> bool:
        return self.lp_result.status == "optimal"


def active_type_ids(node) -> tuple[str, ...]:
    """The node's active item types in registry order (dict insertion order
    follows registry creation order)."""
    return tuple(node.multiplicities.keys())


def build_rmp(node) -> LinearProgram:
    """Standard-form LP over the node's column pool.

    One variable per column with objective coefficient -1; per active type j
    the row pair (-a_j . x <= -from_j, a_j . x <= to_j), interleaved in
    registry order.
    """
    type_ids = active_type_ids(node)
    cols = node.columns
    n = len(cols)
    m = 2 * len(type_ids)
    A = np.zeros((m, n))
    b = np.zeros(m)
    for t, tid in enumerate(type_ids):
        lo, hi = node.multiplicities[tid]
        row = np.array([col.count(tid) for col in cols], dtype=float)
        A[2 * t] = -row
        b[2 * t] = -lo
        A[2 * t + 1] = row
        b[2 * t + 1] = hi
    return LinearProgram(c=-np.ones(n), A=A, b=b)


def solve_rmp(node, warm_basis: tuple[int, ...] | None = None) -> RmpSolveOutcome:
    """Solve the node's RMP; returns primal values, bins, and dual prices.

    An infeasible LP marks the node prunable (outcome.feasible is False);
    an unbounded LP cannot happen with the to-rows present and raises.
    """
    lp = build_rmp(node)
    res = solve_lp(lp, basis=warm_basis)
    type_ids = active_type_ids(node)
    if res.status == "infeasible":
        empty = DualPrices(type_ids, (0.0,) * len(type_ids), (0.0,) * len(type_ids))
        return RmpSolveOutcome(res, np.zeros(len(node.columns)), 0.0, False,
                               empty, 0.0, 0.0)
    if res.status == "unbounded":
        raise SimplexError("master LP unbounded: a column escapes every to-row")
    x = np.maximum(res.x, 0.0)
    bins = float(x.sum())
    if abs(bins + res.objective) > EPS_DUAL * max(1.0, bins):
        raise SimplexError("bins and LP objective disagree beyond tolerance")
    pi1 = tuple(float(res.duals[2 * t]) for t in range(len(type_ids)))
    pi2 = tuple(float(res.duals[2 * t + 1]) for t in range(len(type_ids)))
    duals = DualPrices(type_ids, pi1, pi2)
    fractional = bool(np.any(np.abs(x - np.round(x)) > EPS_INT))
    duality_residual = abs(res.objective - float(res.duals @ lp.b))
    slack = lp.b - lp.A @ x
    cs_rows = float(np.max(np.abs(res.duals * slack), initial=0.0))
    reduced = lp.c - res.duals @ lp.A
    cs_cols = float(np.max(np.abs(reduced * x), initial=0.0))
    return RmpSolveOutcome(res, x, bins, fractional, duals,
                           duality_residual, max(cs_rows, cs_cols))


def report_objective(solution: Solution, cfg: SolverConfig) -> float:
    """Weighted objective c1 * patterns + c2 * bins of an integral solution."""
    return cfg.c1 * solution.patterns + cfg.c2 * solution.bins
