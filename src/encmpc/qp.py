"""Dual active-set solver for strictly convex QPs.

Solves min 1/2 z'Hz + g'z s.t. Gz <= w directly for a given right-hand
side, by the dual method of Goldfarb & Idnani (Math. Programming 27,
1983): start from the unconstrained minimizer and make violated rows
tight one at a time, so no feasible point is needed. This is the
implicit controller: the explicit PWA law must agree with it pointwise,
and tests lean on that as an independent route to the same optimizer
(the two share no code beyond the problem data).

In a parametric QP only g and w depend on the state, so what the method
needs of H and G (unit rows, H^-1, the dual Hessian K, K's rows as
floats and the KKT matrix of every row) is a DualQp, computed once per
QP. mpqp.CondensedQp is one, and it also holds g = F x and w = h + E x,
both affine in x, as one stacked map. So a state pays only for one
product with that map, its slacks, its dual steps and one KKT solve,
whose block is built once per active set. Only the slacks of all rows
are arrays: a dual step works in floats on the active set, its
multipliers and a Cholesky factor of its block of K, which each step
updates in place.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mul

import numpy as np

from . import lp
from .config import set_readonly

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
    and no right-hand side (g, w) changes: H and G as floats, the row
    norms, H^-1, the dual Hessian K = Gu H^-1 Gu' of the unit rows
    Gu = G / norms, and the KKT matrix [[H, G'], [G, 0]] of every row,
    as read-only arrays, with K's rows also as a tuple of tuples of
    floats for the iteration's scalar steps. The iteration runs on unit
    rows (a zero row keeps norm 1 and its raw slack), so its slacks,
    multipliers and K come in units of ||G_i||. The one mutable member
    is a private dict of the KKT blocks of the active sets solve_qp has
    ended at, each read-only and built on first use."""
    H: np.ndarray
    G: np.ndarray
    norms: np.ndarray = field(init=False, repr=False, compare=False)
    H_inv: np.ndarray = field(init=False, repr=False, compare=False)
    K: np.ndarray = field(init=False, repr=False, compare=False)
    K_rows: tuple = field(init=False, repr=False, compare=False)
    KKT: np.ndarray = field(init=False, repr=False, compare=False)
    _blocks: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        H = set_readonly(self, "H", self.H, 2)
        G = set_readonly(self, "G", self.G, 2)
        norms = np.sqrt(np.vecdot(G, G))
        norms[norms == 0.0] = 1.0
        Gu = G / set_readonly(self, "norms", norms)[:, None]
        H_inv = set_readonly(self, "H_inv", np.linalg.inv(H))
        K = set_readonly(self, "K", Gu @ H_inv @ Gu.T)
        set_readonly(self, "KKT", np.block([[H, G.T], [G, np.zeros((G.shape[0],) * 2)]]))
        object.__setattr__(self, "K_rows", tuple(map(tuple, K.tolist())))
        object.__setattr__(self, "_blocks", {})


def solve_qp(dual: DualQp, g: np.ndarray, w: np.ndarray):
    """Return (z, lam, active) for the inequality-constrained QP whose
    H and G dual holds, at the right-hand side (g, w); a g that is not
    of length nz or a w that is not of length q, or one with an entry
    that is NaN or infinite, is a ValueError.

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
    on the active rows and only the partial step exists. r comes from a
    lower Cholesky factor L of K_AA that each step updates: a row
    appended when p joins A, a row deleted and the triangle restored by
    Givens rotations when a row leaves.

    lp.feasible_point decides the verdict whenever the iteration cannot:
    when no step exists (the dual is unbounded), or when it ends with
    rows left out as rounding. Infeasible raises QpInfeasible. A feasible
    verdict after an unbounded step means the set is empty by no more
    than that LP's tolerance: the iteration then runs again on the rows
    relaxed just enough to hold the LP's point. Finally z and lam_A come
    from the KKT system of the active rows as given, whose block of
    dual's KKT matrix is taken once per active set and kept in dual.
    """
    G, norms = dual.G, dual.norms
    nz, q = dual.H.shape[0], G.shape[0]
    g = np.asarray(g, dtype=float)
    w = np.asarray(w, dtype=float)
    if g.size != nz or w.size != q:
        raise ValueError(f"g of shape {g.shape} and w of shape {w.shape} do "
                         f"not fit a QP of {nz} variables and {q} rows")
    g, w = g.reshape(-1), w.reshape(-1)
    for name, v in (("g", g), ("w", w)):
        # the sum is finite when every entry is, bar an overflow of huge ones
        if not math.isfinite(sum(v.tolist())):
            bad = np.flatnonzero(~np.isfinite(v))
            if bad.size:
                raise ValueError(f"{name}[{bad[0]}] = {v[bad[0]]} is not finite")
    # -G z0, from g: slacks mapped from a state round otherwise, and a
    # weakly active row's entry turns on their last bits
    GHg = G @ (dual.H_inv @ g)

    active, unsure = _dual_steps(dual, (w + GHg) / norms)
    if active is None or unsure:
        feasible, x = lp.feasible_point(G, w)
        if not feasible:
            raise QpInfeasible("constraint set is empty for this parameter")
        if active is None:
            w = np.maximum(w, G @ x)
            active, _ = _dual_steps(dual, (w + GHg) / norms)
            if active is None:
                raise QpNoConvergence("dual step unbounded on a feasible set")
    block = dual._blocks.get(active)
    if block is None:
        idx = np.array([*range(nz), *(nz + i for i in active)])
        block = dual._blocks[active] = dual.KKT[idx[:, None], idx]
        block.flags.writeable = False
    rows = list(active)
    sol = np.linalg.solve(block, np.concatenate([-g, w[rows]]))
    lam = np.zeros(q)
    lam[rows] = np.maximum(sol[nz:], 0.0)
    return sol[:nz], lam, active


def _dual_steps(dual, s0):
    """solve_qp's iteration from lam = 0: (active, unsure), where active
    is None when the dual is unbounded and unsure says that rows were
    left out as rounding at the end.

    Only the slacks of all q rows are computed as an array. The active
    rows, their multipliers and the factor L of K_AA (row i holds i + 1
    floats) are lists in entry order. K is symmetric only to rounding,
    and K_Ap is read off the active rows of K, so the K_AA that L
    factors takes each pair of active rows from the row that entered
    first.
    """
    K, K_rows, s0_rows = dual.K, dual.K_rows, s0.tolist()
    work: list = []
    lam: list = []
    L: list = []
    quiet: list = []
    p = -1
    for _ in range(MAX_ITER):
        if p < 0:
            slack = (s0 + np.dot(lam, K.take(work, 0))).tolist() if work else s0_rows[:]
            for i in work + quiet:    # not entering
                slack[i] = math.inf
            worst = min(slack, default=math.inf)
            if not worst < -VIOLATION_TOL:
                return tuple(sorted(work)), bool(quiet)
            tie = worst + TIE_TOL
            p = slack.index(worst)
            if p and min(slack[:p]) <= tie:    # a lower row ties
                p = next(i for i, s in enumerate(slack) if s <= tie)
            KAp = [K_rows[i][p] for i in work]
            summed = sum(map(mul, map(abs, KAp), lam))
            if -worst <= ROUNDING * (abs(s0_rows[p]) + summed):
                quiet.append(p)
                p = -1
                continue
            lam_p = 0.0
        else:
            KAp = [K_rows[i][p] for i in work]
        Kpp = K_rows[p][p]
        l, r, gain = _factor_solve(L, KAp, Kpp)
        s_p = s0_rows[p] + sum(map(mul, lam, KAp)) + lam_p * Kpp
        full = math.inf
        if gain > DEPENDENT_TOL * Kpp:
            full = -s_p / gain
        partial = math.inf
        drop = -1
        for i, (li, ri) in enumerate(zip(lam, r)):
            if ri > 0.0 and li / ri < partial:
                partial = li / ri
                drop = i
        if drop < 0 and full == math.inf:
            return None, False
        t = min(full, partial)
        lam = [li - t * ri for li, ri in zip(lam, r)]
        lam_p += t
        if full <= partial:
            L.append(l + [math.sqrt(gain)])
            lam.append(lam_p)
            work.append(p)
            quiet.clear()
            p = -1
        else:
            del work[drop], lam[drop]
            _factor_drop(L, drop)
    raise QpNoConvergence("active-set iteration limit reached")


def _factor_solve(L, KAp, Kpp):
    """(l, r, gain) with l = L^-1 K_Ap, r = L^-T l = K_AA^-1 K_Ap and
    gain = K_pp - l'l = K_pp - K_pA r, for the lower factor
    L = [[L_00], [L_10, L_11], ...] of K_AA = L L'. When p joins A,
    [l, sqrt(gain)] is the new last row of L."""
    l: list = []
    for row, b in zip(L, KAp):
        l.append((b - sum(map(mul, row, l))) / row[-1])
    r = l[:]
    for i in range(len(L) - 1, -1, -1):
        row = L[i]
        ri = r[i] = r[i] / row[i]
        for j in range(i):
            r[j] -= row[j] * ri
    return l, r, Kpp - sum(map(mul, l, l))


def _factor_drop(L, d):
    """Make L the factor of K_AA without row and column d: deleting row
    d of L leaves each later row one entry past the diagonal, and a
    Givens rotation of columns i and i + 1 clears that entry of row i,
    for i = d, d + 1, ..."""
    del L[d]
    for i in range(d, len(L)):
        row = L[i]
        a, b = row[i], row.pop()
        h = math.hypot(a, b)
        c, s = a / h, b / h
        row[i] = h
        for below in L[i + 1:]:
            x, y = below[i], below[i + 1]
            below[i] = c * x + s * y
            below[i + 1] = c * y - s * x


def _solve_at(qp, x):
    """solve_qp on the condensed QP qp at state x, with g and w the two
    slices of one product with qp's stacked map; a NaN or infinite entry
    of x is a ValueError naming the state, raised before any arithmetic."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if not all(map(math.isfinite, x.tolist())):
        raise ValueError(f"state {x.tolist()} is not finite")
    nz = qp.H.shape[0]
    gw = qp.rhs_map @ x + qp.rhs_offset
    return solve_qp(qp, gw[:nz], gw[nz:])


def solve_qp_oracle(qp, x):
    """(z_star, active_set, multipliers) for the condensed QP at x."""
    z, lam, active = _solve_at(qp, x)
    return z, active, lam


def implicit_control(qp, x):
    """First input of the optimal horizon at parameter x.

    Returns (u0, z, active). qp is a CondensedQp; raising QpInfeasible
    marks x outside the feasible set, and a non-finite x is a ValueError.
    """
    z, lam, active = _solve_at(qp, x)
    return z[:qp.m], z, active
