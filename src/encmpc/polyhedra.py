"""Polyhedra in halfspace form {x : Ax <= b} and the geometry used by
region synthesis: Chebyshev centers and redundancy pruning.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp
from .config import set_readonly

# sentinel bound on the Chebyshev radius; optima at or above half of it
# are reported as unbounded
RADIUS_CAP = 1e8


@dataclass(frozen=True)
class Polyhedron:
    """{x : Ax <= b}; frozen, A and b read-only copies, A at least 2-D."""
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        set_readonly(self, "A", self.A, 2)
        set_readonly(self, "b", self.b, 1)
        if self.A.shape[0] != self.b.shape[0]:
            raise ValueError("row count mismatch between A and b")

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    @property
    def nrows(self) -> int:
        return self.A.shape[0]


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
    b_i < 0 makes the set empty outright.  With no other row (A may have
    none at all) the set is R^n, returned as (zeros(n), inf).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).reshape(-1)
    n = A.shape[1]
    norms = np.linalg.norm(A, axis=1)
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
    if status != lp.OPTIMAL:
        raise lp.LpError(f"Chebyshev LP returned {status}")
    radius = float(value)
    if radius >= 0.5 * RADIUS_CAP:
        return xr[:n], np.inf
    return xr[:n], radius


REDUNDANCY_TOL = 1e-9  # the tol of irredundant_rows


def irredundant_rows(A: np.ndarray, b: np.ndarray, center: np.ndarray,
                     stats: dict = None):
    """Drop rows whose removal does not change the set P = {x : Ax <= b}.

    Row i is redundant iff max a_i'x over the others is <= b_i + tol (REDUNDANCY_TOL).
    One LP per row decides that, removing rows in index order, so of
    rows that give the same facet (positive multiples) the last stays.
    Four stages keep exactly that answer, and spend LPs only on the
    rows the first three leave undecided:

    1. Duplicates. A row within 1e-12 of an earlier surviving row goes,
       so ties cannot delete both copies.
    2. Ray witnesses. The ray from `center`, an interior point of P
       (synthesis passes its Chebyshev center), along each row's own
       normal first hits some row k. The point w halfway between its
       first and second hit is checked on the rows themselves: if w
       violates row k by more than tol and satisfies every other row,
       w lies in the set without row k but not in P. Every LP over a
       subset of the other rows then exceeds b_k + tol, so row k stays.
    3. Box certificates. 2n LPs give P's bounding box. A row whose
       maximum over the box is below b_i by more than tol times the
       size of its terms is tight nowhere on P. A point that violates
       only such rows would put one of them tight on the segment from P
       to it, so they all go at once and P is unchanged. (If that is
       every row, P is all of R^n and the last is left to stage 4,
       which keeps a lone row.)
    4. LPs. The per-row LP loop runs, in index order, on the rows still
       undecided, over the rows not yet removed.

    Stages 2 and 3 need a center strictly inside every row. On rows of
    rounding noise the LPs can return one outside a row; there the LPs
    and the rows disagree about P, and every row goes to stage 4.

    stats, if given, gets redundancy_lps (box and per-row LPs) and the
    rows settled per stage: rows_duplicate, rows_ray, rows_box, rows_lp.
    Returns (A_red, b_red, kept_indices).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).reshape(-1)
    m, n = A.shape
    idx = np.flatnonzero(_first_copies(A, b))
    Ai, bi = A[idx], b[idx]
    inner = idx.size > 0 and bool(np.all(Ai @ center < bi))
    facet = np.zeros(idx.size, dtype=bool)
    if inner:
        facet[_ray_facets(Ai, bi, center)] = True
    boxed = np.zeros(idx.size, dtype=bool)
    box_lps = 0
    if inner and not facet.all():
        bounds, box_lps = _bounding_box(Ai, bi)
        if bounds is not None:
            boxed = ~facet & _below_box(Ai, bi, bounds)
            if boxed.all():
                boxed[-1] = False
    # 4. one LP per undecided row, over the rows not yet removed
    inside = np.zeros(m, dtype=bool)
    inside[idx[~boxed]] = True
    undecided = idx[~facet & ~boxed]
    row_lps = 0
    for i in undecided:
        inside[i] = False
        others = np.flatnonzero(inside)
        if others.size:
            status, _, value = lp.max_linear(A[i], A[others], b[others])
            row_lps += 1
            if status == lp.OPTIMAL and value <= b[i] + REDUNDANCY_TOL:
                continue
        inside[i] = True
    if stats is not None:
        for key, count in (("redundancy_lps", box_lps + row_lps),
                           ("rows_duplicate", m - idx.size),
                           ("rows_ray", int(facet.sum())),
                           ("rows_box", int(boxed.sum())),
                           ("rows_lp", undecided.size)):
            stats[key] = stats.get(key, 0) + count
    keep = np.flatnonzero(inside)
    return A[keep], b[keep], keep


def _first_copies(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask of rows (a_i, b_i) not within 1e-12 of an earlier kept row."""
    rows = np.hstack([A, b[:, None]])
    close = np.abs(rows[:, None] - rows[None]).max(axis=2) < 1e-12
    keep = np.ones(len(b), dtype=bool)
    for j in np.flatnonzero(np.triu(close, 1).any(axis=0)):
        keep[j] = not (close[:j, j] & keep[:j]).any()
    return keep


def _ray_facets(A: np.ndarray, b: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Rows certified irredundant by a witness on a ray along a row's normal."""
    rate = A @ A.T                                       # (rows, rays)
    hit = np.divide((b - A @ center)[:, None], rate,
                    out=np.full(rate.shape, np.inf), where=rate > 0)
    rays = np.arange(len(A))
    first = hit.argmin(axis=0)
    near = hit[first, rays]
    hit[first, rays] = np.inf
    far = hit.min(axis=0)
    shot = np.isfinite(near)     # a ray that hits no row leaves no witness
    first, near, far = first[shot], near[shot], far[shot]
    step = np.where(np.isfinite(far), 0.5 * (near + far), 2.0 * near)
    excess = A @ (center + step[:, None] * A[shot]).T - b[:, None]
    ok = ((excess[first, np.arange(first.size)] > REDUNDANCY_TOL)
          & ((excess > 0).sum(axis=0) == 1))
    return first[ok]


def _bounding_box(A: np.ndarray, b: np.ndarray):
    """max x_j for each axis j, then max -x_j, over {Ax <= b} (inf when
    unbounded), or None if the set is empty; and the LPs solved."""
    n = A.shape[1]
    bounds = np.empty(2 * n)
    for j, direction in enumerate(np.vstack([np.eye(n), -np.eye(n)])):
        status, _, value = lp.max_linear(direction, A, b)
        if status == lp.INFEASIBLE:
            return None, j + 1
        bounds[j] = np.inf if status == lp.UNBOUNDED else value
    return bounds, 2 * n


def _below_box(A: np.ndarray, b: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Rows whose maximum over the box is below b_i by more than
    REDUNDANCY_TOL times the magnitude of the terms that maximum sums."""
    n = A.shape[1]
    hi, lo = bounds[:n], -bounds[n:]
    # a row that rises toward an open side has no finite maximum
    open_side = ((A > 0) & np.isinf(hi) | (A < 0) & np.isinf(lo)).any(axis=1)
    hi, lo = np.where(np.isinf(hi), 0.0, hi), np.where(np.isinf(lo), 0.0, lo)
    top = np.where(A > 0, A * hi, A * lo).sum(axis=1)
    scale = np.abs(A) @ np.maximum(np.abs(hi), np.abs(lo)) + np.abs(b)
    return ~open_side & (top < b - REDUNDANCY_TOL * (1.0 + scale))
