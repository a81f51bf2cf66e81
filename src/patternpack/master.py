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
    lp: LinearProgram         # the master solved; the next round grows it
    lp_result: LpResult
    x: np.ndarray
    bins: float
    fractional: bool
    scores: dict[str, float]  # active type -> pi1 - pi2, node's type order

    @property
    def counts(self) -> np.ndarray:
        """``count_matrix`` of the node solved: a view of the upper rows."""
        return self.lp.A[1::2]


def count_matrix(node: NodeProblem, start: int = 0) -> np.ndarray:
    """Types x columns array of item counts: row t is the node's t-th active
    type, in the order in which the node's path activated the types, column
    l is ``node.columns[start + l]``.  Compounds stay opaque."""
    row = {tid: t for t, tid in enumerate(node.multiplicities)}
    columns = node.columns[start:]
    a = np.zeros((len(row), len(columns)))
    for l, col in enumerate(columns):
        for tid, n in col.counts:
            a[row[tid], l] = n
    return a


def build_rmp(node: NodeProblem, previous: LinearProgram | None = None
              ) -> LinearProgram:
    """Standard-form LP over the node's column pool.

    One variable per column with objective coefficient -1; per active type j
    the row pair (-a_j . x <= -from_j, a_j . x <= to_j), interleaved in the
    node's type order.  ``previous``, a master built earlier for the same node,
    is grown by the columns past its last one, which is the same LP as a
    fresh build as long as the pool only grew at its end since; without it,
    the master with no columns is grown.
    """
    if previous is None:
        b = np.array([bound for lo, hi in node.multiplicities.values()
                      for bound in (-lo, hi)], dtype=float)
        A_old, c_old = np.empty((len(b), 0)), np.empty(0)
    else:
        A_old, c_old, b = previous.A, previous.c, previous.b
    start = A_old.shape[1]
    a = count_matrix(node, start)
    A = np.empty((len(b), start + a.shape[1]))
    A[:, :start] = A_old
    np.negative(a, A[0::2, start:])
    A[1::2, start:] = a
    c = np.empty(A.shape[1])
    c[:start] = c_old
    c[start:] = -1.0
    return LinearProgram(c=c, A=A, b=b)


def solve_rmp(node: NodeProblem, previous: RmpSolveOutcome | None = None
              ) -> RmpSolveOutcome:
    """Solve the node's RMP; returns primal values, bins, and type scores.

    ``previous`` is the outcome of the node's last round, after which
    pricing only appended columns to the pool: its master grows by the new
    columns' counts and phase 2 starts from its basis.

    The pool makes the master feasible (``branching.derive``) and its
    to-rows bound it, so an infeasible or unbounded LP raises.
    """
    lp = build_rmp(node, previous and previous.lp)
    res = solve_lp(lp, basis=previous and previous.lp_result.basis)
    if res.status != "optimal":
        raise SimplexError(f"node {node.id}: master LP {res.status}")
    x = res.x  # >= 0: the simplex clips its basic values at zero
    bins = float(x.sum())
    if abs(bins + res.objective) > EPS_DUAL * max(1.0, bins):
        raise SimplexError("bins and LP objective disagree beyond tolerance")
    duals = res.duals.tolist()
    scores = {tid: duals[2 * t] - duals[2 * t + 1]
              for t, tid in enumerate(node.multiplicities)}
    fractional = bool((abs(x - x.round()) > EPS_INT).any())
    return RmpSolveOutcome(lp, res, x, bins, fractional, scores)


def report_objective(solution: Solution, cfg: SolverConfig) -> float:
    """Weighted objective c1 * patterns + c2 * bins of an integral solution."""
    return cfg.c1 * solution.patterns + cfg.c2 * solution.bins
