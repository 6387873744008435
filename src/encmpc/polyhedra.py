"""Polyhedra in halfspace form {x : Ax <= b} and the geometry used by
region synthesis: Chebyshev centers, membership, redundancy pruning.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp
from .config import DEFAULT_TOL

# sentinel bound on the Chebyshev radius; optima at or above half of it
# are reported as unbounded
RADIUS_CAP = 1e8


@dataclass
class Polyhedron:
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.b = np.asarray(self.b, dtype=float).reshape(-1)
        if self.A.shape[0] != self.b.shape[0]:
            raise ValueError("row count mismatch between A and b")

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    @property
    def nrows(self) -> int:
        return self.A.shape[0]

    def contains(self, x: np.ndarray, tol: float = None) -> bool:
        if tol is None:
            tol = DEFAULT_TOL.feasibility
        x = np.asarray(x, dtype=float).reshape(-1)
        return bool(np.all(self.A @ x - self.b <= tol))

    def chebyshev_center(self):
        return chebyshev_center(self.A, self.b)


def box(lower, upper) -> Polyhedron:
    """Axis-aligned box as [I; -I] x <= [upper; -lower].

    Non-finite bounds contribute no row, so open directions are
    representable; an all-open box is the 0-row polyhedron.
    """
    lower = np.asarray(lower, dtype=float).reshape(-1)
    upper = np.asarray(upper, dtype=float).reshape(-1)
    if lower.shape != upper.shape:
        raise ValueError("bound shape mismatch")
    if np.any(lower > upper):
        raise ValueError("lower bound exceeds upper bound")
    eye = np.eye(lower.size)
    up = np.isfinite(upper)
    lo = np.isfinite(lower)
    return Polyhedron(np.vstack([eye[up], -eye[lo]]),
                      np.concatenate([upper[up], -lower[lo]]))


def chebyshev_center(A: np.ndarray, b: np.ndarray):
    """Largest inscribed ball of {x : Ax <= b}.

    Returns (center, radius). radius < 0 flags an empty interior (the
    optimal ball has negative radius), radius = +inf an unbounded set.
    Zero rows of A act as pure sign conditions on b: a zero row with
    b_i < 0 makes the set empty outright.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).reshape(-1)
    m, n = A.shape
    norms = np.linalg.norm(A, axis=1)
    if m == 0:
        return np.zeros(n), np.inf
    dead = norms <= 1e-300
    if np.any(b[dead] < 0):
        return None, -np.inf
    A = A[~dead]
    b = b[~dead]
    norms = norms[~dead]
    if A.shape[0] == 0:
        return np.zeros(n), np.inf
    # variables (x, r): max r  s.t.  A x + ||a_i|| r <= b, r <= RADIUS_CAP
    A_lp = np.hstack([A, norms[:, None]])
    A_lp = np.vstack([A_lp, np.concatenate([np.zeros(n), [1.0]])])
    b_lp = np.concatenate([b, [RADIUS_CAP]])
    obj = np.concatenate([np.zeros(n), [1.0]])
    status, xr, value = lp.max_linear(obj, A_lp, b_lp)
    if status == lp.INFEASIBLE:
        return None, -np.inf
    radius = float(value)
    if radius >= 0.5 * RADIUS_CAP:
        return xr[:n], np.inf
    return xr[:n], radius


def irredundant_rows(A: np.ndarray, b: np.ndarray, tol: float = 1e-9):
    """Drop rows whose removal does not change the set.

    Row i is redundant iff max a_i'x over the others staying <= b_j is
    itself <= b_i. Returns (A_red, b_red, kept_indices). Exact duplicate
    rows are collapsed first so ties cannot delete both copies.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).reshape(-1)
    m = A.shape[0]
    order = np.ones(m, dtype=bool)
    # collapse duplicates (keep first occurrence)
    rows = np.hstack([A, b[:, None]])
    for i in range(m):
        if not order[i]:
            continue
        same = np.flatnonzero(order & (np.abs(rows - rows[i]).max(axis=1) < 1e-12))
        for j in same:
            if j > i:
                order[j] = False
    idx = np.flatnonzero(order)
    keep = list(idx)
    for i in list(keep):
        others = [j for j in keep if j != i]
        if not others:
            continue
        status, _, value = lp.max_linear(A[i], A[others], b[others])
        if status == lp.OPTIMAL and value <= b[i] + tol:
            keep.remove(i)
    keep = sorted(keep)
    return A[keep], b[keep], np.array(keep, dtype=int)
