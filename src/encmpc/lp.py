"""Dense simplex solver with Bland's rule.

Small and deterministic: all LPs in this package (Chebyshev centers,
redundancy tests, the QP oracle's infeasibility certificate) have a
handful of rows, so a textbook dense tableau is adequate and keeps the
dependency surface flat.  `solve_standard` is the general two-phase
route, behind `max_linear`.  `feasible_point` is the certificate: the
dual QP method of `qp.solve_qp` needs no feasible start, and asks it for
a verdict only when its own iteration cannot decide.  It builds an LP
that carries its own feasible start basis and so runs a single Bland
pass on it, and accepts a total violation up to
config.DEFAULT_TOL.feasibility.  Pivots take reduced costs below
-PIVOT_TOL and column entries above PIVOT_TOL; a pass of MAX_PIVOTS
pivots has cycled.
"""
from __future__ import annotations

import numpy as np

from .config import DEFAULT_TOL

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
PIVOT_TOL = 1e-10
MAX_PIVOTS = 20000


class LpError(RuntimeError):
    pass


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    piv = T[row]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T -= np.outer(colvals, piv)
    T[row] = piv
    basis[row] = col


def _bland_iterate(T: np.ndarray, basis: np.ndarray, ncols: int) -> str:
    """Run simplex pivots on tableau T until optimal or unbounded.

    T layout: rows 0..m-1 are [B^-1 A | B^-1 b], last row is
    [reduced costs | -objective]. Bland's rule on both the entering
    column (smallest eligible index) and the ratio-test tie-break
    (smallest basis variable), which excludes cycling.
    """
    m = T.shape[0] - 1
    ratios = np.empty(m)
    for _ in range(MAX_PIVOTS):
        negative = T[-1, :ncols] < -PIVOT_TOL
        col = int(negative.argmax())
        if not negative[col]:
            return OPTIMAL
        colvals = T[:m, col]
        rising = colvals > PIVOT_TOL
        if not rising.any():
            return UNBOUNDED
        # rows where the column does not rise get ratio inf, out of the test
        ratios.fill(np.inf)
        np.divide(T[:m, -1], colvals, out=ratios, where=rising)
        cand = np.flatnonzero(ratios <= ratios.min() + 1e-12)
        row = int(cand[0] if cand.size == 1 else cand[np.argmin(basis[cand])])
        _pivot(T, basis, row, col)
    raise LpError("simplex did not converge (cycling guard tripped)")


def solve_standard(c: np.ndarray, A: np.ndarray, b: np.ndarray):
    """Solve min c'y s.t. Ay = b, y >= 0 by two-phase simplex.

    Returns (status, y, value, pi) where pi are the equality-row
    multipliers (dual solution) at optimality, indexed against the
    original rows of A (redundant rows get multiplier 0).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float)).copy()
    b = np.asarray(b, dtype=float).copy()
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    # phase 1: artificial basis
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = b
    T[-1, :n] = -A.sum(axis=0)
    T[-1, -1] = -b.sum()
    basis = np.arange(n, n + m)
    status = _bland_iterate(T, basis, n + m)
    if status != OPTIMAL or -T[-1, -1] > 1e-8:
        return INFEASIBLE, None, None, None

    # drive surviving artificials out of the basis where possible
    for i in range(m):
        if basis[i] >= n:
            pivots = np.flatnonzero(np.abs(T[i, :n]) > PIVOT_TOL)
            if pivots.size:
                _pivot(T, basis, i, int(pivots[0]))
    keep_rows = np.flatnonzero(basis < n)  # rows basic in an artificial are redundant
    mr = keep_rows.size
    basis = basis[keep_rows]

    # phase 2 objective row on the reduced tableau
    T2 = np.zeros((mr + 1, n + 1))
    T2[:mr, :n] = T[keep_rows, :n]
    T2[:mr, -1] = T[keep_rows, -1]
    T2[-1, :n] = c - c[basis] @ T2[:mr, :n]
    T2[-1, -1] = -c[basis] @ T2[:mr, -1]
    status = _bland_iterate(T2, basis, n)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None, None

    y = np.zeros(n)
    y[basis] = T2[:mr, -1]
    value = float(-T2[-1, -1])
    # multipliers: solve B_kept' pi_kept = c_B against retained rows,
    # then scatter back (sign-restoring the flipped rows)
    B = A[keep_rows][:, basis]
    try:
        pi_kept = np.linalg.solve(B.T, c[basis]) if mr else np.zeros(0)
    except np.linalg.LinAlgError:
        raise LpError(f"singular simplex basis {basis.tolist()}") from None
    pi = np.zeros(m)
    pi[keep_rows] = pi_kept
    pi[flip] *= -1.0
    return OPTIMAL, y, value, pi


def max_linear(objective: np.ndarray, A_ub: np.ndarray, b_ub: np.ndarray):
    """Maximize objective'x over {x : A_ub x <= b_ub} with x free.

    Solved through the standard-form dual (min b'y over A'y = objective,
    y >= 0); the primal optimizer is recovered from the dual equality
    multipliers. A dual that is INFEASIBLE means the primal maximum is
    unbounded; a dual that is UNBOUNDED means the primal is infeasible.
    Returns (status, x, value).
    """
    A_ub = np.atleast_2d(np.asarray(A_ub, dtype=float))
    b_ub = np.asarray(b_ub, dtype=float)
    objective = np.asarray(objective, dtype=float)
    status, y, value, pi = solve_standard(b_ub, A_ub.T, objective)
    if status == INFEASIBLE:
        return UNBOUNDED, None, None
    if status == UNBOUNDED:
        return INFEASIBLE, None, None
    return OPTIMAL, pi, float(value)


def feasible_point(A_ub: np.ndarray, b_ub: np.ndarray):
    """Find x with A_ub x <= b_ub (x free), or report infeasibility.

    Minimizes the total constraint violation sum(s) over
    A_ub x - s + t = b_ub with s, t >= 0 and x split into positive and
    negative parts; feasible iff the optimum is ~0. That LP is its own
    phase 1: row i starts basic in its slack t_i when b_i >= 0, and in
    its violation s_i (after negating the row) when b_i < 0. So one
    Bland pass from that basis solves it, with no artificial columns.
    Returns (feasible, x), feasible iff the violation is within tol =
    DEFAULT_TOL.feasibility; raises LpError when the pass ends UNBOUNDED above it.
    """
    A_ub = np.atleast_2d(np.asarray(A_ub, dtype=float))
    b_ub = np.asarray(b_ub, dtype=float)
    m, n = A_ub.shape
    if m == 0:
        return True, np.zeros(n)
    # columns: x+ (n), x- (n), violation s (m), slack t (m), rhs; rows
    # with b_i < 0 are negated so that every right-hand side is >= 0
    flip = b_ub < 0
    ncols = 2 * n + 2 * m
    T = np.zeros((m + 1, ncols + 1))
    T[:m, :n] = A_ub
    T[:m, n:2 * n] = -A_ub
    np.fill_diagonal(T[:, 2 * n:2 * n + m], -1.0)
    np.fill_diagonal(T[:, 2 * n + m:ncols], 1.0)
    T[:m, -1] = b_ub
    T[:m][flip] *= -1.0
    basis = np.where(flip, 2 * n, 2 * n + m) + np.arange(m)
    # reduced costs c - c_B T, with c = 1 on s and so c_B = 1 on the
    # negated rows, whose basic column is s_i
    T[-1, 2 * n:2 * n + m] = 1.0
    T[-1] -= T[:m][flip].sum(axis=0)
    status = _bland_iterate(T, basis, ncols)
    tol = DEFAULT_TOL.feasibility
    # the objective is bounded below by 0, so UNBOUNDED at an objective
    # already within tol of 0 is rounding in a reduced cost: the current
    # basis is a feasible point
    if status != OPTIMAL and -T[-1, -1] > tol:
        raise LpError(f"phase-1 feasibility LP returned {status}")
    y = np.zeros(ncols)
    y[basis] = T[:m, -1]
    x = y[:n] - y[n:2 * n]
    return -T[-1, -1] <= tol, x
