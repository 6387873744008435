"""Dual active-set solver for strictly convex QPs.

Solves min 1/2 z'Hz + g'z s.t. Gz <= w directly for a given right-hand
side, by the dual method of Goldfarb & Idnani (Math. Programming 27,
1983): start from the unconstrained minimizer and make violated rows
tight one at a time, so no feasible point is needed. This is the
implicit controller: the explicit PWA law must agree with it pointwise,
and tests lean on that as an independent route to the same optimizer
(the two share no code beyond the problem data).

In a parametric QP only g and w depend on the state, so what the method
needs of H and G (unit rows, H^-1 and the dual Hessian K) is a DualQp,
computed once per QP; mpqp.CondensedQp is one, and a state pays only for
its slacks, its dual steps and one KKT solve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import lp

MAX_ITER = 500          # dual steps (full or partial) before QpNoConvergence
VIOLATION_TOL = 1e-12   # normalized violation (G_i z - w_i)/||G_i|| that enters
TIE_TOL = 1e-12         # violations this close tie, and the lowest row enters
DEPENDENT_TOL = 1e-10   # K_pp - K_pA r <= this * K_pp: p depends on the active rows
ROUNDING = 1e-14        # relative rounding of a slack summed from K and lam


class QpInfeasible(RuntimeError):
    pass


class QpNoConvergence(RuntimeError):
    pass


@dataclass(frozen=True)
class DualQp:
    """The part of min 1/2 z'Hz + g'z s.t. Gz <= w that solve_qp needs
    and no right-hand side (g, w) changes, as read-only arrays: H and G
    as floats, the row norms, H^-1, and the dual Hessian K = Gu H^-1 Gu'
    of the unit rows Gu = G / norms. The iteration runs on unit rows (a
    zero row keeps norm 1 and its raw slack), so its slacks, multipliers
    and K come in units of ||G_i||."""
    H: np.ndarray
    G: np.ndarray
    norms: np.ndarray = field(init=False, repr=False, compare=False)
    H_inv: np.ndarray = field(init=False, repr=False, compare=False)
    K: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        H = np.array(self.H, dtype=float, ndmin=2)
        G = np.array(self.G, dtype=float, ndmin=2)
        norms = np.sqrt(np.vecdot(G, G))
        norms[norms == 0.0] = 1.0
        Gu = G / norms[:, None]
        H_inv = np.linalg.inv(H)
        K = Gu @ H_inv @ Gu.T
        for name, value in (("H", H), ("G", G), ("norms", norms),
                            ("H_inv", H_inv), ("K", K)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)


def solve_qp(dual: DualQp, g: np.ndarray, w: np.ndarray):
    """Return (z, lam, active) for the inequality-constrained QP whose
    H and G dual holds, at the right-hand side (g, w).

    The iteration works on the multipliers alone, of the rows scaled to
    unit norm. With K = G H^-1 G', computed once per QP in dual, and s0
    the slacks w - G z at the unconstrained minimizer z0 = -H^-1 g, the
    slacks at lam are s0 + K lam. Starting from lam = 0 and an
    empty active set A, each round enters the row p with the largest
    violation -s_p above VIOLATION_TOL, the lowest index among rows
    within TIE_TOL of it; a violation within ROUNDING of the magnitudes
    summed into s_p is left out until the next row enters. A step of
    length t raises lam_p by t and moves lam_A by -t r, r = K_AA^-1 K_Ap,
    which keeps the active rows tight while s_p grows by
    t (K_pp - K_pA r). The step is the shorter of the one that makes p
    tight (full: p joins A) and the one at which an active multiplier
    reaches 0 first (partial: that row leaves A, and p stays the
    entering row). When K_pp - K_pA r <= DEPENDENT_TOL * K_pp, p depends
    on the active rows and only the partial step exists.

    lp.feasible_point decides the verdict whenever the iteration cannot:
    when no step exists (the dual is unbounded), or when it ends with
    rows left out as rounding. Infeasible raises QpInfeasible. A feasible
    verdict after an unbounded step means the set is empty by no more
    than that LP's tolerance: the iteration then runs again on the rows
    relaxed just enough to hold the LP's point. Finally z and lam_A come
    from the KKT system of the active rows as given.
    """
    g = np.asarray(g, dtype=float).reshape(-1)
    w = np.asarray(w, dtype=float).reshape(-1)
    H, G, norms = dual.H, dual.G, dual.norms
    z0 = -(dual.H_inv @ g)
    Gz0 = G @ z0

    active, unsure = _dual_steps(dual.K, (w - Gz0) / norms)
    if active is None or unsure:
        feasible, x = lp.feasible_point(G, w)
        if not feasible:
            raise QpInfeasible("constraint set is empty for this parameter")
        if active is None:
            w = np.maximum(w, G @ x)
            active, _ = _dual_steps(dual.K, (w - Gz0) / norms)
            if active is None:
                raise QpNoConvergence("dual step unbounded on a feasible set")
    nz, rows = H.shape[0], list(active)
    kkt = np.zeros((nz + len(rows), nz + len(rows)))
    kkt[:nz, :nz] = H
    kkt[nz:, :nz] = G[rows]
    kkt[:nz, nz:] = kkt[nz:, :nz].T
    sol = np.linalg.solve(kkt, np.concatenate([-g, w[rows]]))
    lam = np.zeros(G.shape[0])
    lam[rows] = np.maximum(sol[nz:], 0.0)
    return sol[:nz], lam, active


def _dual_steps(K, s0):
    """solve_qp's iteration from lam = 0: (active, unsure), where active
    is None when the dual is unbounded and unsure says that rows were
    left out as rounding at the end.

    The active rows' multipliers, rows of K and block K_AA are kept in
    entry order in the leading rows of fixed buffers.
    """
    q = s0.size
    KA = np.empty((q, q))
    KAA = np.empty((q, q))
    lamA = np.zeros(q)
    work: list = []
    quiet: list = []
    out = np.zeros(q, dtype=bool)    # active or quiet: not entering
    p = -1
    for _ in range(MAX_ITER):
        k = len(work)
        # with no active rows the empty products are skipped
        if p < 0:
            slack = s0 + lamA[:k] @ KA[:k] if k else s0.copy()
            slack[out] = np.inf
            worst = slack.min(initial=np.inf)
            if not worst < -VIOLATION_TOL:
                return tuple(sorted(work)), bool(quiet)
            p = int(np.argmax(slack <= worst + TIE_TOL))
            summed = float(np.abs(KA[:k, p]) @ lamA[:k]) if k else 0.0
            if -worst <= ROUNDING * (abs(s0[p]) + summed):
                quiet.append(p)
                out[p] = True
                p = -1
                continue
            lam_p = 0.0
        Kpp = K[p, p]
        KAp = KA[:k, p]
        if k:
            r = np.linalg.solve(KAA[:k, :k], KAp)
            gain = Kpp - float(KAp @ r)
            s_p = s0[p] + float(lamA[:k] @ KAp) + lam_p * Kpp
        else:
            r, gain, s_p = KAp, Kpp, s0[p] + lam_p * Kpp
        full = np.inf
        if gain > DEPENDENT_TOL * Kpp:
            full = -s_p / gain
        partial = np.inf
        drop = -1
        for i, (li, ri) in enumerate(zip(lamA[:k].tolist(), r.tolist())):
            if ri > 0.0 and li / ri < partial:
                partial = li / ri
                drop = i
        if drop < 0 and full == np.inf:
            return None, False
        t = min(full, partial)
        if k:
            lamA[:k] -= t * r
        lam_p += t
        if full <= partial:
            KA[k] = K[p]
            KAA[k, :k] = KAA[:k, k] = KAp
            KAA[k, k] = Kpp
            lamA[k] = lam_p
            work.append(p)
            out[p] = True
            if quiet:
                out[quiet] = False
                quiet.clear()
            p = -1
        else:
            out[work.pop(drop)] = False
            KA[drop:k - 1] = KA[drop + 1:k]
            lamA[drop:k - 1] = lamA[drop + 1:k]
            KAA[drop:k - 1, :k] = KAA[drop + 1:k, :k]
            KAA[:k - 1, drop:k - 1] = KAA[:k - 1, drop + 1:k]
    raise QpNoConvergence("active-set iteration limit reached")


def _state(x):
    """x as a float vector; a NaN or infinite entry is a ValueError
    naming the state, raised before any arithmetic."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if not all(map(math.isfinite, x.tolist())):
        raise ValueError(f"state {x.tolist()} is not finite")
    return x


def solve_qp_oracle(qp, x):
    """(z_star, active_set, multipliers) for the condensed QP at x."""
    x = _state(x)
    z, lam, active = solve_qp(qp, qp.F @ x, qp.h + qp.E @ x)
    return z, active, lam


def implicit_control(qp, x):
    """First input of the optimal horizon at parameter x.

    Returns (u0, z, active). qp is a CondensedQp; raising QpInfeasible
    marks x outside the feasible set, and a non-finite x is a ValueError.
    """
    x = _state(x)
    z, lam, active = solve_qp(qp, qp.F @ x, qp.h + qp.E @ x)
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
