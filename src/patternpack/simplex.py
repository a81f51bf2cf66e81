"""Dense two-phase primal simplex for LPs in the master's standard form:

    maximize c.x  subject to  A x <= b,  x >= 0

Returns primal values, objective, and one non-negative dual per row.
Dantzig pricing with a switch to Bland's rule after a degenerate streak, so
the solver always terminates.  Warm starts from a previous basis are
supported when columns were appended; correctness never depends on them.
"""

from dataclasses import dataclass

import numpy as np

EPS_FEAS = 1e-7   # primal feasibility tolerance
EPS_OPT = 1e-9    # reduced-cost optimality tolerance
EPS_DUAL = 1e-6   # strong-duality / complementary-slackness tolerance
_EPS_PIVOT = 1e-9
_MAX_ITER = 100_000


class SimplexError(RuntimeError):
    """Structural problem: dimension mismatch or a pivot-loop breakdown."""


@dataclass
class LinearProgram:
    """max c.x s.t. A x <= b, x >= 0."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=float)
        self.A = np.asarray(self.A, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.A.ndim != 2:
            raise SimplexError("A must be a matrix")
        m, n = self.A.shape
        if self.c.shape != (n,) or self.b.shape != (m,):
            raise SimplexError(
                f"dimension mismatch: A is {m}x{n}, c has {self.c.shape}, b has {self.b.shape}")
        if not (np.isfinite(self.A).all() and np.isfinite(self.b).all()
                and np.isfinite(self.c).all()):
            raise SimplexError("coefficients must be finite")


@dataclass
class LpResult:
    status: str                     # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    objective: float | None = None
    duals: np.ndarray | None = None
    basis: tuple[int, ...] | None = None  # stable encoding: j structural, -(i+1) slack i


def _encode_basis(basis: np.ndarray, n: int) -> tuple[int, ...]:
    return tuple(int(j) if j < n else -(int(j) - n + 1) for j in basis)


def _decode_basis(basis: tuple[int, ...], n: int) -> list[int]:
    return [j if j >= 0 else n + (-j - 1) for j in basis]


def _pivot_loop(T: np.ndarray, rhs: np.ndarray, cc: np.ndarray,
                basis: np.ndarray) -> np.ndarray | None:
    """Maximize cc.x by primal pivots on the tableau, in place; returns the
    final reduced-cost row, or None if the LP is unbounded.

    Starts with Dantzig pricing; after 2*(rows + columns) consecutive
    degenerate pivots switches to Bland's rule for guaranteed termination.
    """
    r = cc - cc[basis] @ T
    bland = False
    degenerate_streak = 0
    switch_at = 2 * sum(T.shape)
    for _ in range(_MAX_ITER):
        if bland:
            improving = np.flatnonzero(r > EPS_OPT)
            if improving.size == 0:
                return r
            e = int(improving[0])
        else:
            e = int(np.argmax(r))
            if r[e] <= EPS_OPT:
                return r
        col = T[:, e]
        pos = np.flatnonzero(col > _EPS_PIVOT)
        if pos.size == 0:
            return None
        ratios = rhs[pos] / col[pos]
        best = ratios.min()
        ties = pos[ratios <= best + _EPS_PIVOT]
        leave = int(ties[np.argmin(basis[ties])])
        piv = T[leave, e]
        T[leave] /= piv
        rhs[leave] /= piv
        theta = rhs[leave]
        other = col.copy()
        other[leave] = 0.0
        T -= np.outer(other, T[leave])
        rhs -= other * theta
        r -= r[e] * T[leave]
        basis[leave] = e
        np.maximum(rhs, 0.0, out=rhs)  # clip pivot noise; rhs stays >= 0
        if theta <= _EPS_PIVOT:
            degenerate_streak += 1
            if degenerate_streak > switch_at:
                bland = True
        else:
            degenerate_streak = 0
    raise SimplexError("pivot limit exceeded")


def _phase2(A: np.ndarray, b: np.ndarray, c: np.ndarray,
            basis: list[int]) -> LpResult | None:
    """Phase 2 from a (claimed feasible) basis over [A | I].  None if the basis
    is unusable, so the caller can fall back to a cold start."""
    m, n = A.shape
    D = np.hstack([A, np.eye(m)])
    B = D[:, basis]
    try:
        T = np.linalg.solve(B, D)
        rhs = np.linalg.solve(B, b)
    except np.linalg.LinAlgError:
        return None
    if (rhs < -EPS_FEAS).any():
        return None
    np.maximum(rhs, 0.0, out=rhs)
    basis_arr = np.array(basis, dtype=np.int64)
    r = _pivot_loop(T, rhs, np.concatenate([c, np.zeros(m)]), basis_arr)
    if r is None:
        return LpResult(status="unbounded")
    x = np.zeros(n + m)
    x[basis_arr] = rhs
    duals = -r[n:n + m]
    np.maximum(duals, 0.0, out=duals)
    obj = float(c @ x[:n])
    return LpResult(status="optimal", x=x[:n], objective=obj, duals=duals,
                    basis=_encode_basis(basis_arr, n))


def _phase1_basis(A: np.ndarray, b: np.ndarray) -> list[int] | None:
    """Feasible basis over [A | I], or None if the LP is infeasible.  Rows
    with b >= 0 start on their slack, the others on an artificial variable;
    with b >= 0 throughout this is the slack basis, without a pivot."""
    m, n = A.shape
    sign = np.where(b < 0, -1.0, 1.0)
    neg_rows = np.flatnonzero(b < 0)
    k = neg_rows.size
    E = np.zeros((m, k))
    E[neg_rows, np.arange(k)] = 1.0
    T = np.hstack([A * sign[:, None], np.diag(sign), E])
    rhs = b * sign
    cc = np.zeros(n + m + k)
    cc[n + m:] = -1.0
    basis = np.arange(n, n + m)
    basis[neg_rows] = n + m + np.arange(k)
    if _pivot_loop(T, rhs, cc, basis) is None:
        raise SimplexError("phase 1 cannot be unbounded")
    stuck = basis >= n + m
    if float(rhs[stuck].sum()) > EPS_FEAS:
        return None
    # an artificial stuck at zero stands for the (sign-flipped) slack of its
    # origin row, so that slack keeps the basis invertible
    basis[stuck] = n + neg_rows[basis[stuck] - n - m]
    return basis.tolist()


def solve_lp(lp: LinearProgram, basis: tuple[int, ...] | None = None) -> LpResult:
    """Solve the LP; optionally warm-start phase 2 from a previous basis.

    The returned basis uses a stable encoding (slack i is -(i+1)) that stays
    valid when structural columns are appended later.
    """
    m, n = lp.A.shape
    if m == 0:
        if (lp.c > EPS_OPT).any():
            return LpResult(status="unbounded")
        return LpResult(status="optimal", x=np.zeros(n), objective=0.0,
                        duals=np.zeros(0), basis=())

    if basis is not None and len(basis) == m:
        warm = _phase2(lp.A, lp.b, lp.c, _decode_basis(basis, n))
        if warm is not None:
            return warm

    feasible = _phase1_basis(lp.A, lp.b)
    if feasible is None:
        return LpResult(status="infeasible")
    result = _phase2(lp.A, lp.b, lp.c, feasible)
    if result is None:
        raise SimplexError("phase-1 basis was rejected by phase 2")
    return result
