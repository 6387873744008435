"""Primal active-set solver for strictly convex QPs.

Solves min 1/2 z'Hz + g'z s.t. Gz <= w directly for a given right-hand
side. This is the implicit controller: the explicit PWA law must agree
with it pointwise, and tests lean on that as an independent route to the
same optimizer (the two share no code beyond the problem data).
"""
from __future__ import annotations

import numpy as np

from . import lp
from .config import DEFAULT_TOL

MAX_ITER = 500  # active-set iterations before QpNoConvergence


class QpInfeasible(RuntimeError):
    pass


class QpNoConvergence(RuntimeError):
    pass


def solve_qp(H: np.ndarray, g: np.ndarray, G: np.ndarray, w: np.ndarray):
    """Return (z, lam, active) for the inequality-constrained QP.

    Starts with an empty working set from the feasible point that
    lp.feasible_point finds by minimizing total violation, in a single
    simplex pass from that LP's own slack/violation basis. Each added
    blocking row is automatically independent of the current ones (its
    inner product with the step is nonzero while working rows are
    orthogonal to it), so the KKT systems stay nonsingular. With k rows
    in the working set, the KKT system is the leading (nz + k) block of
    one (nz + q)-square matrix filled in place. The ratio test keeps a
    running minimum of max((w_i - G_i z) / (G_i d), 0) over the rows
    outside the working set with G_i d > 1e-12, in index order; a later
    row replaces it only when lower by more than 1e-12, so the first index
    wins ties. Of the rows with a negative multiplier, the lowest leaves.
    """
    H = np.atleast_2d(np.asarray(H, dtype=float))
    g = np.asarray(g, dtype=float).reshape(-1)
    G = np.atleast_2d(np.asarray(G, dtype=float))
    w = np.asarray(w, dtype=float).reshape(-1)
    nz = H.shape[0]
    q = G.shape[0]

    feasible, z = lp.feasible_point(G, w)
    if not feasible:
        raise QpInfeasible("constraint set is empty for this parameter")

    kkt = np.zeros((nz + q, nz + q))
    kkt[:nz, :nz] = H
    rhs = np.zeros(nz + q)
    work: list = []
    in_work = np.zeros(q, dtype=bool)
    settled = False   # after a full step z minimizes over the working set
    for _ in range(MAX_ITER):
        k = len(work)
        grad = H @ z + g
        kkt[nz:nz + k, :nz] = G[work]
        kkt[:nz, nz:nz + k] = kkt[nz:nz + k, :nz].T
        rhs[:nz] = -grad
        sol = np.linalg.solve(kkt[:nz + k, :nz + k], rhs[:nz + k])
        d = sol[:nz]
        lam_w = sol[nz:]

        if settled or np.linalg.norm(d) <= 1e-11:
            neg = [i for i, lv in enumerate(lam_w) if lv < -DEFAULT_TOL.dual_feas]
            if not neg:
                lam = np.zeros(q)
                lam[work] = np.maximum(lam_w, 0.0)
                return z, lam, tuple(sorted(work))
            drop = min(neg, key=lambda i: work[i])
            in_work[work.pop(drop)] = False
            settled = False
            continue

        # ratio test over rows outside the working set that d moves toward
        slack = w - G @ z
        gd = G @ d
        rows = np.flatnonzero((gd > 1e-12) & ~in_work)
        alpha = 1.0
        blocker = -1
        for i, ratio in zip(rows.tolist(), (slack[rows] / gd[rows]).tolist()):
            ratio = max(ratio, 0.0)
            if ratio < alpha - 1e-12:
                alpha = ratio
                blocker = i
        z = z + alpha * d
        settled = blocker < 0
        if blocker >= 0:
            work.append(blocker)
            in_work[blocker] = True
    raise QpNoConvergence("active-set iteration limit reached")


def solve_qp_oracle(qp, x):
    """(z_star, active_set, multipliers) for the condensed QP at x."""
    x = np.asarray(x, dtype=float).reshape(-1)
    z, lam, active = solve_qp(qp.H, qp.F @ x, qp.G, qp.h + qp.E @ x)
    return z, active, lam


def implicit_control(qp, x):
    """First input of the optimal horizon at parameter x.

    Returns (u0, z, active). qp is a CondensedQp; raising QpInfeasible
    marks x outside the feasible set.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    z, lam, active = solve_qp(qp.H, qp.F @ x, qp.G, qp.h + qp.E @ x)
    return z[:qp.m], z, active


def kkt_residuals(qp, x, z, lam):
    """Stationarity and complementarity residuals at (z, lam) for x.

    Used by tests to certify a claimed optimizer: stationarity
    ||Hz + Fx + G'lam||_inf, worst primal violation, worst negative
    multiplier, and worst complementarity product.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    slack = qp.h + qp.E @ x - qp.G @ z
    stat = np.linalg.norm(qp.H @ z + qp.F @ x + qp.G.T @ lam, ord=np.inf)
    primal = float(max(0.0, -slack.min())) if slack.size else 0.0
    dual = float(max(0.0, -lam.min())) if lam.size else 0.0
    comp = float(np.abs(lam * slack).max()) if slack.size else 0.0
    return {"stationarity": float(stat), "primal": primal,
            "dual": dual, "complementarity": comp}
