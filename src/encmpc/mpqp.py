"""Multi-parametric QP synthesis for linear MPC.

Condenses a constrained LQR problem over a finite horizon into the
parametric QP

    min_z  1/2 z'Hz + x'F'z   s.t.  G z <= h + E x,

then walks its critical regions across their facets (Tondel, Johansen &
Bemporad, Automatica 39(3), 2003) to produce the explicit piecewise-
affine law u(x) = K_s x + b_s over polyhedral regions. Each region costs
one Chebyshev LP plus the redundancy LPs that ray witnesses and its
bounding box leave, not one LP per feasible subset of the constraint
rows; where degeneracy hides the neighbour across a facet, the QP oracle
names it.
"""
from __future__ import annotations

import json
import logging
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import lp
from .config import ConfigError, DEFAULT_TOL, load_json
from .polyhedra import Polyhedron, chebyshev_center, irredundant_rows
from .qp import DualQp, QpInfeasible, QpNoConvergence, solve_qp_oracle

log = logging.getLogger(__name__)


class StateNotCovered(ValueError):
    """State lies in no region of the explicit controller."""


class InvalidRegion(ValueError):
    """Region index outside the controller's partition."""


@dataclass
class LtiSystem:
    """Discrete-time linear plant x+ = Ax + Bu (its output map is the scenario's)."""
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.B = np.atleast_2d(np.asarray(self.B, dtype=float))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ConfigError("A must be square")
        if self.B.shape[0] != n:
            raise ConfigError("B row count must match A")
        for M in (self.A, self.B):
            if not np.all(np.isfinite(M)):
                raise ConfigError("system matrices must be finite")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass
class MpcSpec:
    """Horizon, weights and polyhedral constraint sets.

    Q weighs every state x_0..x_N, so Q also weighs the terminal state,
    and R every input.  U constrains the inputs u_0..u_{N-1} and X the
    predicted states x_1..x_N; a set left as None is absent.  R must be
    PD, Q PSD.
    """
    horizon: int
    Q: np.ndarray
    R: np.ndarray
    U: Polyhedron = None
    X: Polyhedron = None

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        self.Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        self.R = np.atleast_2d(np.asarray(self.R, dtype=float))
        for name in ("Q", "R"):
            M = getattr(self, name)
            if np.linalg.norm(M - M.T) > 1e-12:
                raise ConfigError(f"{name} must be symmetric")
        if np.linalg.eigvalsh(self.R).min() <= DEFAULT_TOL.spd_min_eig:
            raise ConfigError("R must be positive definite")
        if np.linalg.eigvalsh(self.Q).min() < -1e-10:
            raise ConfigError("Q must be positive semidefinite")


@dataclass(frozen=True)
class CondensedQp:
    """Parametric QP data; u_0 is the first m entries of z. dual, the
    factor of (H, G) that qp.solve_qp takes, is built once with the QP,
    since no state changes it; the fields are frozen so that it cannot
    go stale (dataclasses.replace builds a new QP and factor)."""
    H: np.ndarray
    F: np.ndarray
    G: np.ndarray
    E: np.ndarray
    h: np.ndarray
    n: int
    m: int
    horizon: int
    dual: DualQp = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "dual", DualQp(self.H, self.G))

    @property
    def q(self) -> int:
        return self.G.shape[0]


def prediction_matrices(sys: LtiSystem, N: int):
    """Stacked maps X = Sx x0 + Su U with X = [x0; x1; ...; xN]."""
    n, m = sys.n, sys.m
    powers = [np.eye(n)]
    for _ in range(N):
        powers.append(sys.A @ powers[-1])
    Sx = np.vstack(powers)
    Su = np.zeros(((N + 1) * n, N * m))
    for k in range(1, N + 1):
        for j in range(k):
            Su[k * n:(k + 1) * n, j * m:(j + 1) * m] = powers[k - 1 - j] @ sys.B
    return Sx, Su


def condense(sys: LtiSystem, spec: MpcSpec) -> CondensedQp:
    """Eliminate the state sequence to get the parametric QP in U alone.

    Constraint rows are stacked in a fixed order: U's rows for inputs
    0..N-1, then X's rows for states 1..N, so active-set indices are
    reproducible.  An absent set is a polyhedron with no rows.
    """
    n, m, N = sys.n, sys.m, spec.horizon
    if spec.Q.shape != (n, n):
        raise ConfigError("Q must be n x n")
    if spec.R.shape != (m, m):
        raise ConfigError("R must be m x m")
    U = Polyhedron(np.zeros((0, m)), np.zeros(0)) if spec.U is None else spec.U
    X = Polyhedron(np.zeros((0, n)), np.zeros(0)) if spec.X is None else spec.X
    if U.dim != m:
        raise ConfigError("U polyhedron dimension must equal m")
    if X.dim != n:
        raise ConfigError("X polyhedron dimension must equal n")
    Sx, Su = prediction_matrices(sys, N)
    Qbar = np.zeros(((N + 1) * n, (N + 1) * n))
    for k in range(N + 1):
        Qbar[k * n:(k + 1) * n, k * n:(k + 1) * n] = spec.Q
    Rbar = np.kron(np.eye(N), spec.R)
    H = Su.T @ Qbar @ Su + Rbar
    H = 0.5 * (H + H.T)
    F = Su.T @ Qbar @ Sx
    eigmin = float(np.linalg.eigvalsh(H).min())
    if eigmin <= DEFAULT_TOL.spd_min_eig:
        raise ConfigError(f"condensed Hessian is not positive definite (min eig {eigmin:.3e})")

    G_rows, E_rows, h_rows = [], [], []
    for k in range(N):
        sel = np.zeros((m, N * m))
        sel[:, k * m:(k + 1) * m] = np.eye(m)
        G_rows.append(U.A @ sel)
        E_rows.append(np.zeros((U.nrows, n)))
        h_rows.append(U.b)
    for k in range(1, N + 1):
        G_rows.append(X.A @ Su[k * n:(k + 1) * n])
        E_rows.append(-X.A @ Sx[k * n:(k + 1) * n])
        h_rows.append(X.b)
    return CondensedQp(H=H, F=F, G=np.vstack(G_rows), E=np.vstack(E_rows),
                       h=np.concatenate(h_rows), n=n, m=m, horizon=N)


@dataclass
class Region:
    """One critical region of the explicit solution.

    poly holds the (reduced) halfspace description in x; the control law
    on the region is u = K x + b for the first input of the horizon.
    """
    active_set: tuple
    poly: Polyhedron
    K: np.ndarray
    b: np.ndarray
    cheb_center: np.ndarray
    cheb_radius: float


@dataclass
class PwaController:
    """The explicit law u = K_s x + b_s over the regions of a partition.

    The regions are read once, when the controller is built: their rows
    stack into A_all/b_all (owner[i] is row i's region), which locate
    scans, and their laws into gains (nreg, m, n) and offsets (nreg, m),
    which eval_region and the protocol's parties read.  With no regions
    every stack keeps its shape, with 0 leading.
    """
    regions: list
    n: int
    m: int
    horizon: int
    meta: dict = field(default_factory=dict)
    A_all: np.ndarray = field(init=False, repr=False, compare=False)
    b_all: np.ndarray = field(init=False, repr=False, compare=False)
    owner: np.ndarray = field(init=False, repr=False, compare=False)
    gains: np.ndarray = field(init=False, repr=False, compare=False)
    offsets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, m = self.n, self.m
        for i, r in enumerate(self.regions):
            got = (np.shape(r.K), np.shape(r.b), r.poly.dim)
            if got != ((m, n), (m,), n):
                raise ConfigError(
                    f"region {i}: K has shape {got[0]}, b {got[1]} and its rows "
                    f"{got[2]} columns; a controller for n = {n} states and "
                    f"m = {m} inputs needs ({m}, {n}), ({m},) and {n}")
        # the trailing empty block gives the right shapes with no regions
        polys = [r.poly for r in self.regions]
        self.A_all = np.vstack([p.A for p in polys] + [np.zeros((0, self.n))])
        self.b_all = np.concatenate([p.b for p in polys] + [np.zeros(0)])
        self.owner = np.repeat(np.arange(len(polys)), [p.nrows for p in polys])
        nreg = len(self.regions)
        self.gains = np.array([r.K for r in self.regions], dtype=float).reshape(nreg, m, n)
        self.offsets = np.array([r.b for r in self.regions], dtype=float).reshape(nreg, m)

    @property
    def nregions(self) -> int:
        return len(self.regions)

    def locate(self, x, tol: float = None) -> int:
        """Index of the first region containing x, or -1.

        One product over the stacked rows of all regions gives every
        slack; x lies in a region when none of its rows has slack above
        tol (a NaN slack counts as above, so a non-finite state lands
        only in a 0-row region). Of those regions the lowest index wins,
        so states on shared facets resolve deterministically.
        """
        if tol is None:
            tol = DEFAULT_TOL.feasibility
        x = np.asarray(x, dtype=float).reshape(-1)
        out = ~(self.A_all @ x - self.b_all <= tol)
        # violated rows per region, plus a slot past the last region that
        # stays 0, so argmin lands on the first region with none
        missed = np.bincount(self.owner[out], minlength=len(self.regions) + 1)
        sigma = int(missed.argmin())
        return sigma if sigma < len(self.regions) else -1

    def eval_region(self, sigma: int, x):
        """Affine law of region sigma applied to x."""
        if not 0 <= sigma < len(self.regions):
            raise InvalidRegion(f"region index {sigma} out of range")
        return (self.gains[sigma] @ np.asarray(x, dtype=float).reshape(-1)
                + self.offsets[sigma])

    def evaluate(self, x):
        """Return (u, sigma) at state x; raises outside the partition."""
        sigma = self.locate(x)
        if sigma < 0:
            raise self.not_covered(x)
        return self.eval_region(sigma, x), sigma

    def not_covered(self, x) -> StateNotCovered:
        """The error for a state in no region.

        It names the nearest region, the one whose most violated row is
        violated least (a 0-row region covers every state, so each
        region here has a row).
        """
        x = np.asarray(x, dtype=float).reshape(-1)
        text = f"state {x.tolist()} lies in no region"
        if self.regions:
            with np.errstate(invalid="ignore"):  # non-finite x: NaN slack
                slack = self.A_all @ x - self.b_all
                worst = np.full(len(self.regions), -np.inf)
                np.maximum.at(worst, self.owner, slack)
            sigma = int(np.argmin(worst))
            own = slack[self.owner == sigma]
            row = int(np.argmax(own))
            text += (f"; nearest is region {sigma}, whose row {row} is "
                     f"violated by {own[row]:.3e}")
        return StateNotCovered(text)

    def to_json(self) -> str:
        obj = {
            "format": "pwa-controller/1",
            "n": self.n,
            "m": self.m,
            "horizon": self.horizon,
            "meta": self.meta,
            "regions": [
                {
                    "active_set": list(r.active_set),
                    "A_ineq": r.poly.A.tolist(),
                    "b_ineq": r.poly.b.tolist(),
                    "K": r.K.tolist(),
                    "b": r.b.tolist(),
                    "cheb_center": r.cheb_center.tolist(),
                    "cheb_radius": r.cheb_radius,
                }
                for r in self.regions
            ],
        }
        return _dumps_17g(obj)

    @staticmethod
    def from_json(text: str) -> "PwaController":
        return PwaController._from_obj(json.loads(text), "controller JSON")

    @staticmethod
    def _from_obj(obj, what) -> "PwaController":
        """Controller from to_json's object; anything else, a region of
        the wrong shape included, is a ConfigError naming `what`."""
        if not isinstance(obj, dict) or obj.get("format") != "pwa-controller/1":
            raise ConfigError(f"{what}: not a pwa-controller/1 object")
        try:
            n = int(obj["n"])
            regions = []
            for r in obj["regions"]:
                A = np.array(r["A_ineq"], dtype=float)
                regions.append(Region(
                    active_set=tuple(r["active_set"]),
                    # a region with no rows is written as []
                    poly=Polyhedron(A if A.size else A.reshape(0, n),
                                    np.array(r["b_ineq"], dtype=float)),
                    K=np.array(r["K"], dtype=float),
                    b=np.array(r["b"], dtype=float),
                    cheb_center=np.array(r["cheb_center"], dtype=float),
                    cheb_radius=float(r["cheb_radius"]),
                ))
            return PwaController(regions=regions, n=n, m=int(obj["m"]),
                                 horizon=int(obj["horizon"]),
                                 meta=obj.get("meta", {}))
        except KeyError as exc:
            raise ConfigError(f"{what}: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{what}: {exc}") from exc

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @staticmethod
    def load(path) -> "PwaController":
        return PwaController._from_obj(load_json(path), path)


def fmt_17g(x: float) -> str:
    """%.17g text of a float, which parses back to the same float."""
    if x != x:
        raise ValueError("NaN has no JSON representation")
    if x == float("inf"):
        return "1e400"  # parses back to inf
    if x == float("-inf"):
        return "-1e400"
    if x == 0.0:
        return "0"  # folds -0.0, which would reparse as int 0 anyway
    return "%.17g" % x


def _dumps_17g(obj, indent: int = 0) -> str:
    """JSON writer with %.17g floats so files are byte-stable."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k, v in obj.items():
            items.append(f'{pad}  "{k}": ' + _dumps_17g(v, indent + 2))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        flat = all(not isinstance(v, (dict, list, tuple)) for v in obj)
        if flat:
            return "[" + ", ".join(_dumps_17g(v) for v in obj) + "]"
        return ("[\n" + ",\n".join(pad + "  " + _dumps_17g(v, indent + 2) for v in obj)
                + "\n" + pad + "]")
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_17g(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj)!r}")


# steps past a facet, tried in turn until the oracle names its region
_FACET_STEPS = (1e-6, 1e-7, 1e-8)


def enumerate_regions(qp: CondensedQp, stats: dict = None) -> list:
    """All full-dimensional critical regions, by crossing their facets.

    Starts from the oracle's active set at the Chebyshev center of the
    lifted feasible set {(x, z): Gz - Ex <= h} (none: no feasible state)
    and visits each active set once: LICQ (rank floor, determinant
    guard), KKT law and region rows, dead-row kill, Chebyshev LP against
    the cutoff. Irredundant primal row i is crossed to A + {i}, the
    multiplier row of a_j to A - {a_j}. If degeneracy leaves that set
    without a region, the oracle's active set, or its strongly active
    set, a step past the facet's Chebyshev center is taken instead: an
    infeasible oracle marks the feasible set's boundary, one failing at
    every step raises ConfigError, and a step whose sets give no region
    (ill-conditioned G_A) is logged as unresolved. Coinciding (region,
    law) pairs keep the set smallest in (size, indices) order, as
    exhaustive enumeration did. Sorted by active set.

    stats gets the funnel: candidates = rank_fails + dead_kills +
    lp_calls, regions = lp_calls - empty - thin - merged, and per facet
    step oracle_steps (feasible), boundary_facets and unresolved. Each
    region's redundancy elimination, which starts from its Chebyshev
    center, adds redundancy_lps and the rows each of its stages settled
    (rows_duplicate, rows_ray, rows_box, rows_lp; see irredundant_rows).
    """
    Hinv = np.linalg.inv(qp.H)
    HinvF = Hinv @ qp.F
    stats = {} if stats is None else stats
    stats.update(dict.fromkeys(
        ("candidates", "rank_fails", "dead_kills", "lp_calls", "empty", "thin",
         "merged", "oracle_steps", "boundary_facets", "unresolved",
         "redundancy_lps", "rows_duplicate", "rows_ray", "rows_box", "rows_lp"), 0))
    found = {}      # active set -> (rows A, rows b) of its region, or None
    kept = {}       # (region, law) signature -> Region
    frontier = deque()

    def visit(aset: tuple):
        """Rows of aset's region, or None: LICQ on the active rows G_A,
        the KKT law z = Z x + z0 with multipliers lam = Lam x + lam0, and
        the region's rows, primal (all q rows, the active ones 0 <= 0)
        then multiplier.  The products after the solves are einsums,
        whose rounding is what controller.json pins."""
        if aset in found:
            return found[aset]
        found[aset] = None
        stats["candidates"] += 1
        idx = list(aset)
        GA = qp.G[idx]                         # (k, nz)
        sv = np.linalg.svd(GA, compute_uv=False)
        M = GA @ Hinv @ GA.T
        if not ((sv > DEFAULT_TOL.rank * sv.max(initial=1.0)).all()
                and np.linalg.slogdet(M)[0] > 0):
            stats["rank_fails"] += 1
            return None
        Lam = -np.linalg.solve(M, qp.E[idx] + GA @ HinvF)   # (k, n)
        lam0 = -np.linalg.solve(M, qp.h[idx])                # (k,)
        Z = -(HinvF + np.einsum("zk,kn->zn", Hinv @ GA.T, Lam))
        z0 = -np.einsum("zj,jk,k->z", Hinv, GA.T, lam0)
        rows_A = np.vstack([np.einsum("qz,zn->qn", qp.G, Z) - qp.E, -Lam])
        rows_b = np.concatenate([qp.h - np.einsum("qz,z->q", qp.G, z0), lam0])
        dead = np.linalg.norm(rows_A, axis=1) <= DEFAULT_TOL.zero_row
        if (rows_b[dead] < -DEFAULT_TOL.feasibility).any():
            stats["dead_kills"] += 1
            return None
        # vacuous zero rows are neutralized instead of removed
        rows_b = np.where(dead, 1.0, rows_b)
        rows_A = np.where(dead[:, None], 0.0, rows_A)
        stats["lp_calls"] += 1
        center, radius = chebyshev_center(rows_A, rows_b)
        if not (radius > DEFAULT_TOL.cheb_cutoff):
            stats["empty" if radius < 0 else "thin"] += 1
            return None
        Ar, br, facets = irredundant_rows(rows_A, rows_b, center=center, stats=stats)
        found[aset] = Ar, br
        frontier.append((aset, Ar, br, facets.tolist()))
        region = Region(active_set=aset, poly=Polyhedron(Ar, br),
                        K=Z[:qp.m].copy(), b=z0[:qp.m].copy(),
                        cheb_center=center, cheb_radius=float(radius))
        key = _region_signature(Ar, br, region.K, region.b)
        old = kept.get(key)
        if old is not None:
            stats["merged"] += 1
        if old is None or (len(aset), aset) < (len(old.active_set), old.active_set):
            kept[key] = region
        return found[aset]

    def step_across(aset, Ar, br, row, facet):
        """Settle a facet through the oracle just past its center."""
        normal = Ar[row] / np.linalg.norm(Ar[row])
        center = _facet_center(Ar, br, row)
        converged = False
        for step in _FACET_STEPS:
            x = center + step * normal
            try:
                _, active, lam = solve_qp_oracle(qp, x)
            except QpInfeasible:
                stats["boundary_facets"] += 1
                return
            except (QpNoConvergence, lp.LpError):
                continue
            converged = True
            stats["oracle_steps"] += 1
            for cand in (active, tuple(i for i in active if lam[i] > 1e-9)):
                rows = visit(cand)
                if rows is not None and np.all(
                        rows[0] @ x - rows[1] <= DEFAULT_TOL.feasibility):
                    return
        where = f"facet row {facet} of the region of active set {aset}"
        if not converged:
            raise ConfigError(f"QP oracle failed at every step across {where}")
        stats["unresolved"] += 1
        log.warning("no full-dimensional region found across %s", where)

    start, radius = chebyshev_center(np.hstack([-qp.E, qp.G]), qp.h)
    if radius < 0:
        raise ConfigError("MPC constraints are infeasible for every state")
    _, active, _ = solve_qp_oracle(qp, start[:qp.n])
    visit(active)
    while frontier:
        aset, Ar, br, facets = frontier.popleft()
        for row, facet in enumerate(facets):
            if not Ar[row].any():
                continue  # a lone neutralized row: the region is all of R^n
            j = facet - qp.q
            nb = tuple(sorted(aset + (facet,))) if j < 0 else aset[:j] + aset[j + 1:]
            if visit(nb) is None:
                step_across(aset, Ar, br, row, facet)
    return sorted(kept.values(), key=lambda r: r.active_set)


def _facet_center(A: np.ndarray, b: np.ndarray, row: int) -> np.ndarray:
    """Chebyshev center of facet a_row'x = b_row of {Ax <= b}, found in
    the facet's own coordinates x = x0 + N y (N orthonormal)."""
    a, others = A[row], np.arange(len(b)) != row
    x0 = a * (b[row] / (a @ a))
    N = np.linalg.svd(a[None])[2][1:].T    # (n, n-1)
    y, radius = chebyshev_center(A[others] @ N, b[others] - A[others] @ x0)
    return x0 if radius < 0 else x0 + N @ y


def _region_signature(A: np.ndarray, b: np.ndarray,
                      K: np.ndarray, off: np.ndarray) -> tuple:
    """Canonical key for (region, law): unit rows, rounded, sorted."""
    norms = np.linalg.norm(A, axis=1)
    norms[norms == 0] = 1.0
    M = np.round(np.hstack([A / norms[:, None], (b / norms)[:, None]]), 9)
    M[M == 0.0] = 0.0  # normalize -0.0
    rows = tuple(sorted(tuple(row) for row in M))
    law = np.round(np.concatenate([K.ravel(), off.ravel()]), 9)
    law[law == 0.0] = 0.0
    return rows, tuple(law)


def synthesize(sys: LtiSystem, spec: MpcSpec, stats: dict = None) -> PwaController:
    """Condense and explore the regions; returns the explicit controller."""
    qp = condense(sys, spec)
    regions = enumerate_regions(qp, stats=stats)
    if not regions:
        raise ConfigError("synthesis produced no full-dimensional regions")
    return PwaController(regions=regions, n=qp.n, m=qp.m, horizon=qp.horizon)
