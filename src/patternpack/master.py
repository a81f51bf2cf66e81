"""Restricted master problem: build, solve, extract type scores, report objectives.

The relaxed master never sees the pattern/bin weights; after relaxation the
objective collapses to minimizing bins, i.e. maximize sum(-x_l).  For each
active item type there is a lower row  -sum(a_jl x_l) <= -from_j  and an
upper row  sum(a_jl x_l) <= to_j.  Compound types are rows of their own;
the master never expands them.  Pricing reads one score per type: the lower
row's dual minus the upper row's dual.
"""

from dataclasses import dataclass

import numpy as np

from .model import NodeProblem, Solution, SolverConfig
from .simplex import EPS_DUAL, LinearProgram, LpResult, SimplexError, solve_lp

EPS_INT = 1e-6  # integrality detection threshold


@dataclass
class RmpSolveOutcome:
    lp_result: LpResult
    x: np.ndarray
    bins: float
    fractional: bool
    scores: dict[str, float]  # active type -> pi1 - pi2, registry order


def count_matrix(node: NodeProblem) -> np.ndarray:
    """Types x columns array of item counts: row t is the node's t-th active
    type in registry order, column l is ``node.columns[l]``.  Compounds stay
    opaque."""
    row = {tid: t for t, tid in enumerate(node.multiplicities)}
    a = np.zeros((len(row), len(node.columns)))
    for l, col in enumerate(node.columns):
        for tid, n in col.counts:
            a[row[tid], l] = n
    return a


def build_rmp(node: NodeProblem) -> LinearProgram:
    """Standard-form LP over the node's column pool.

    One variable per column with objective coefficient -1; per active type j
    the row pair (-a_j . x <= -from_j, a_j . x <= to_j), interleaved in
    registry order.
    """
    a = count_matrix(node)
    A = np.empty((2 * len(a), a.shape[1]))
    A[0::2] = -a
    A[1::2] = a
    b = np.array([bound for lo, hi in node.multiplicities.values()
                  for bound in (-lo, hi)], dtype=float)
    return LinearProgram(c=-np.ones(a.shape[1]), A=A, b=b)


def solve_rmp(node: NodeProblem,
              warm_basis: tuple[int, ...] | None = None) -> RmpSolveOutcome | None:
    """Solve the node's RMP; returns primal values, bins, and type scores.

    None means the LP is infeasible and the node prunable; an unbounded LP
    cannot happen with the to-rows present and raises.
    """
    res = solve_lp(build_rmp(node), basis=warm_basis)
    if res.status == "infeasible":
        return None
    if res.status == "unbounded":
        raise SimplexError("master LP unbounded: a column escapes every to-row")
    x = np.maximum(res.x, 0.0)
    bins = float(x.sum())
    if abs(bins + res.objective) > EPS_DUAL * max(1.0, bins):
        raise SimplexError("bins and LP objective disagree beyond tolerance")
    scores = {tid: float(res.duals[2 * t]) - float(res.duals[2 * t + 1])
              for t, tid in enumerate(node.multiplicities)}
    fractional = bool(np.any(np.abs(x - np.round(x)) > EPS_INT))
    return RmpSolveOutcome(res, x, bins, fractional, scores)


def report_objective(solution: Solution, cfg: SolverConfig) -> float:
    """Weighted objective c1 * patterns + c2 * bins of an integral solution."""
    return cfg.c1 * solution.patterns + cfg.c2 * solution.bins
