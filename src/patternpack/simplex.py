"""Dense two-phase primal simplex for LPs in the master's standard form:

    maximize c.x  subject to  A x <= b,  x >= 0

Returns primal values, objective, and one non-negative dual per row.
Dantzig pricing with a switch to Bland's rule after a degenerate streak, so
the solver always terminates.  Warm starts from a previous basis are
supported when columns were appended; correctness never depends on them.

The bits of ``x``, ``duals`` and ``basis`` are fixed by these operations,
and a change to any of them re-rolls the search trees:
- phase 2's two LAPACK solves, ``B^-1 [A | I]`` and ``B^-1 b``, kept apart;
- the product ``cc[basis] @ T`` that starts the reduced costs, whose bits
  depend on the BLAS thread count;
- per pivot, the ratio test's division ``rhs_i / col_i`` over the candidate
  rows, those whose entering-column entry ``col_i`` exceeds ``_EPS_PIVOT``;
- per pivot, the division of the leaving row by the pivot, one multiply and
  one subtract per updated entry, and the clip of ``rhs`` at zero;
- Dantzig's argmax, the ratio test's ties within ``_EPS_PIVOT`` of the least
  ratio broken by the lowest basic index, the switch to Bland's rule and the
  tolerances below.
A pivot leaves out the rows whose entering-column entry is zero.  They
would only subtract 0*x, which can flip the sign of a zero in the tableau
and nothing else: the clip turns -0 into +0 in ``rhs``, and the reduced
costs of the slack columns, which become the duals, never hold a -0.
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
    """max c.x s.t. A x <= b, x >= 0.

    Every coefficient must be finite.
    """

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
        if not (np.isfinite(self.A).all() and np.isfinite(self.c).all()
                and np.isfinite(self.b).all()):
            raise SimplexError("coefficients must be finite")


@dataclass
class LpResult:
    status: str                     # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    objective: float | None = None
    duals: np.ndarray | None = None
    basis: tuple[int, ...] | None = None  # stable encoding: j structural, -(i+1) slack i


def _encode_basis(basis: list[int], n: int) -> tuple[int, ...]:
    return tuple(j if j < n else n - 1 - j for j in basis)


def _decode_basis(basis: tuple[int, ...], n: int) -> list[int]:
    return [j if j >= 0 else n + (-j - 1) for j in basis]


def _tableau(T: np.ndarray, rhs: np.ndarray, cc: np.ndarray,
             basis: np.ndarray) -> np.ndarray:
    """The (m+1) x (k+1) array that ``_pivot_loop`` pivots on: the m x k
    tableau ``T`` with ``rhs`` as its last column and the reduced costs of
    ``cc`` under ``basis`` as its last row.  The corner is never read."""
    m, k = T.shape
    M = np.empty((m + 1, k + 1))
    M[:m, :k] = T
    M[:m, k] = rhs
    np.subtract(cc, cc.take(basis) @ T, M[m, :k])
    M[m, k] = 0.0
    return M


def _pivot_loop(M: np.ndarray, basis: np.ndarray) -> np.ndarray | None:
    """Maximize by primal pivots on the array ``M`` built by ``_tableau``,
    in place; returns the final reduced-cost row (a view of ``M``'s last
    row), or None if the LP is unbounded.  Raises ``SimplexError`` when
    every ratio of the entering column overflows, or at the pivot limit.

    Starts with Dantzig pricing; after 2*(rows + columns) consecutive
    degenerate pivots of the m x k tableau switches to Bland's rule for
    guaranteed termination.  The ratio test divides ``rhs`` by the entering
    column over the rows whose entry exceeds ``_EPS_PIVOT``, in buffers that
    live for this call.  A pivot divides the leaving row of ``M``, ``rhs``
    included, once, and then subtracts one rank-1 update from the other rows
    whose entering-column entry is nonzero, the reduced-cost row among them.
    The rows it leaves out would only subtract 0*x (see the module
    docstring).
    """
    m, k = M.shape[0] - 1, M.shape[1] - 1
    rhs, r = M[:m, k], M[m, :k]
    candidate = np.empty(m, dtype=bool)
    ratio = np.empty(m)
    eps_pivot = np.array(_EPS_PIVOT)  # 0-d: no scalar conversion per call
    bland = False
    degenerate_streak = 0
    switch_at = 2 * (m + k)
    for _ in range(_MAX_ITER):
        if bland:
            improving = np.flatnonzero(r > EPS_OPT)
            if improving.size == 0:
                return r
            e = int(improving[0])
        else:
            e = int(r.argmax())
            if r[e] <= EPS_OPT:
                return r
        col = M[:m, e]
        np.greater(col, eps_pivot, candidate)
        ratio.fill(np.inf)
        np.divide(rhs, col, ratio, where=candidate)
        least = ratio[ratio.argmin()]
        if least < np.inf:
            ties = (ratio <= least + _EPS_PIVOT).nonzero()[0]
        elif candidate.any():
            raise SimplexError("every ratio of the entering column overflowed")
        else:
            return None
        leave = int(ties[0]) if ties.size == 1 else \
            int(ties[basis[ties].argmin()])
        row = M[leave]
        row /= row[e]
        row[e] = 0.0  # keep the leaving row out of ``rows``; x/x is 1
        rows = M[:, e].nonzero()[0]
        row[e] = 1.0
        block = M.take(rows, axis=0)
        block -= block[:, e:e + 1] * row
        M[rows] = block
        basis[leave] = e
        np.maximum(rhs, 0.0, out=rhs)  # clip pivot noise; rhs stays >= 0
        if rhs[leave] <= _EPS_PIVOT:
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
    D = np.zeros((m, n + m))
    D[:, :n] = A
    D.reshape(-1)[n::n + m + 1] = 1.0  # the diagonal of I
    basis_arr = np.array(basis, dtype=np.int64)
    B = D.take(basis_arr, axis=1)
    try:
        T = np.linalg.solve(B, D)
        rhs = np.linalg.solve(B, b)
    except np.linalg.LinAlgError:
        return None
    if rhs.min() < -EPS_FEAS:
        return None
    np.maximum(rhs, 0.0, out=rhs)
    cc = np.zeros(n + m)
    cc[:n] = c
    M = _tableau(T, rhs, cc, basis_arr)
    r = _pivot_loop(M, basis_arr)
    if r is None:
        return LpResult(status="unbounded")
    x = np.zeros(n + m)
    x[basis_arr] = M[:m, -1]
    duals = -r[n:n + m]
    np.maximum(duals, 0.0, out=duals)
    obj = float(c @ x[:n])
    if not (np.isfinite(obj) and np.isfinite(x).all() and np.isfinite(duals).all()):
        raise SimplexError("optimal solution is not finite")
    return LpResult(status="optimal", x=x[:n], objective=obj, duals=duals,
                    basis=_encode_basis(basis_arr.tolist(), n))


def _phase1_basis(A: np.ndarray, b: np.ndarray) -> list[int] | None:
    """Feasible basis over [A | I], or None if the LP is infeasible.  Rows
    with b >= 0 start on their slack, the others on an artificial variable;
    with b >= 0 throughout this is the slack basis, without a pivot."""
    m, n = A.shape
    negative = b < 0
    sign = np.where(negative, -1.0, 1.0)
    neg_rows = negative.nonzero()[0]
    k = neg_rows.size
    width = n + m + k
    T = np.zeros((m, width))  # [sign*A | diag(sign) | artificials]
    np.multiply(A, sign[:, None], T[:, :n])
    T.reshape(-1)[n::width + 1] = sign
    T[neg_rows, n + m + np.arange(k)] = 1.0
    cc = np.zeros(width)
    cc[n + m:] = -1.0
    basis = np.arange(n, n + m)
    basis[neg_rows] = n + m + np.arange(k)
    M = _tableau(T, b * sign, cc, basis)
    if _pivot_loop(M, basis) is None:
        raise SimplexError("phase 1 cannot be unbounded")
    stuck = basis >= n + m
    if float(M[:m, -1][stuck].sum()) > EPS_FEAS:
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

    if basis is not None and len(basis) == m and -m <= min(basis) \
            and max(basis) < n:
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
