"""Multi-parametric QP synthesis for linear MPC.

Condenses a constrained LQR problem over a finite horizon into the
parametric QP

    min_z  1/2 z'Hz + x'F'z   s.t.  G z <= h + E x,

then enumerates optimal active sets exhaustively to produce the explicit
piecewise-affine law u(x) = K_s x + b_s over polyhedral regions. The
enumeration is batched over candidates of equal cardinality so the rank
tests and KKT solves run as stacked numpy calls; per-candidate work is
reduced to one small Chebyshev LP, and most empty candidates are killed
beforehand by a bounding-box certificate.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from . import lp
from .config import ConfigError, DEFAULT_TOL, Tolerances
from .polyhedra import Polyhedron, chebyshev_center, irredundant_rows


class StateNotCovered(ValueError):
    """State lies in no region of the explicit controller."""


class InvalidRegion(ValueError):
    """Region index outside the controller's partition."""


@dataclass
class LtiSystem:
    """Discrete-time linear plant x+ = Ax + Bu, y = C_out x."""
    A: np.ndarray
    B: np.ndarray
    C_out: np.ndarray = None

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.B = np.atleast_2d(np.asarray(self.B, dtype=float))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ConfigError("A must be square")
        if self.B.shape[0] != n:
            raise ConfigError("B row count must match A")
        if self.C_out is None:
            self.C_out = np.eye(n)
        else:
            self.C_out = np.atleast_2d(np.asarray(self.C_out, dtype=float))
            if self.C_out.shape[1] != n:
                raise ConfigError("C_out column count must match A")
        for M in (self.A, self.B, self.C_out):
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

    U constrains u_0..u_{N-1}, X the predicted states x_1..x_{N-1}, and
    T_term the terminal state x_N. T_term defaults to X; any set left as
    None is simply absent. R must be PD, Q and P_term PSD.
    """
    horizon: int
    Q: np.ndarray
    R: np.ndarray
    P_term: np.ndarray = None
    U: Polyhedron = None
    X: Polyhedron = None
    T_term: Polyhedron = None

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        self.Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        self.R = np.atleast_2d(np.asarray(self.R, dtype=float))
        self.P_term = (self.Q if self.P_term is None
                       else np.atleast_2d(np.asarray(self.P_term, dtype=float)))
        if self.T_term is None:
            self.T_term = self.X
        for name in ("Q", "R", "P_term"):
            M = getattr(self, name)
            if np.linalg.norm(M - M.T) > 1e-12:
                raise ConfigError(f"{name} must be symmetric")
        if np.linalg.eigvalsh(self.R).min() <= DEFAULT_TOL.spd_min_eig:
            raise ConfigError("R must be positive definite")
        for name in ("Q", "P_term"):
            if np.linalg.eigvalsh(getattr(self, name)).min() < -1e-10:
                raise ConfigError(f"{name} must be positive semidefinite")


@dataclass
class CondensedQp:
    """Parametric QP data plus the selector picking u_0 out of z."""
    H: np.ndarray
    F: np.ndarray
    G: np.ndarray
    E: np.ndarray
    h: np.ndarray
    selector: np.ndarray
    n: int
    m: int
    horizon: int

    @property
    def q(self) -> int:
        return self.G.shape[0]

    @property
    def nz(self) -> int:
        return self.H.shape[0]


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


def condense(sys: LtiSystem, spec: MpcSpec,
             tol: Tolerances = DEFAULT_TOL) -> CondensedQp:
    """Eliminate the state sequence to get the parametric QP in U alone.

    Constraint rows are stacked in a fixed order: inputs for steps
    0..N-1, states for steps 1..N-1, then the terminal set, so active-set
    indices are reproducible.
    """
    n, m, N = sys.n, sys.m, spec.horizon
    if spec.Q.shape != (n, n) or spec.P_term.shape != (n, n):
        raise ConfigError("Q/P_term must be n x n")
    if spec.R.shape != (m, m):
        raise ConfigError("R must be m x m")
    Sx, Su = prediction_matrices(sys, N)
    Qbar = np.zeros(((N + 1) * n, (N + 1) * n))
    for k in range(N):
        Qbar[k * n:(k + 1) * n, k * n:(k + 1) * n] = spec.Q
    Qbar[N * n:, N * n:] = spec.P_term
    Rbar = np.kron(np.eye(N), spec.R)
    H = Su.T @ Qbar @ Su + Rbar
    H = 0.5 * (H + H.T)
    F = Su.T @ Qbar @ Sx
    eigmin = float(np.linalg.eigvalsh(H).min())
    if eigmin <= tol.spd_min_eig:
        raise ConfigError(f"condensed Hessian is not positive definite (min eig {eigmin:.3e})")

    G_rows, E_rows, h_rows = [], [], []
    if spec.U is not None:
        if spec.U.dim != m:
            raise ConfigError("U polyhedron dimension must equal m")
        for k in range(N):
            sel = np.zeros((m, N * m))
            sel[:, k * m:(k + 1) * m] = np.eye(m)
            G_rows.append(spec.U.A @ sel)
            E_rows.append(np.zeros((spec.U.nrows, n)))
            h_rows.append(spec.U.b)
    if spec.X is not None:
        if spec.X.dim != n:
            raise ConfigError("X polyhedron dimension must equal n")
        for k in range(1, N):
            Sxk = Sx[k * n:(k + 1) * n]
            Suk = Su[k * n:(k + 1) * n]
            G_rows.append(spec.X.A @ Suk)
            E_rows.append(-spec.X.A @ Sxk)
            h_rows.append(spec.X.b)
    if spec.T_term is not None:
        if spec.T_term.dim != n:
            raise ConfigError("terminal polyhedron dimension must equal n")
        SxN = Sx[N * n:]
        SuN = Su[N * n:]
        G_rows.append(spec.T_term.A @ SuN)
        E_rows.append(-spec.T_term.A @ SxN)
        h_rows.append(spec.T_term.b)
    if G_rows:
        G = np.vstack(G_rows)
        E = np.vstack(E_rows)
        h = np.concatenate(h_rows)
    else:
        G = np.zeros((0, N * m))
        E = np.zeros((0, n))
        h = np.zeros(0)
    selector = np.zeros((m, N * m))
    selector[:, :m] = np.eye(m)
    return CondensedQp(H=H, F=F, G=G, E=E, h=h, selector=selector,
                       n=n, m=m, horizon=N)


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
    regions: list
    n: int
    m: int
    horizon: int
    meta: dict = field(default_factory=dict)

    @property
    def nregions(self) -> int:
        return len(self.regions)

    def locate(self, x, tol: float = None) -> int:
        """Index of the first region containing x, or -1.

        Regions are checked in stored order, so states on shared facets
        resolve to the lowest index deterministically.
        """
        if tol is None:
            tol = DEFAULT_TOL.feasibility
        x = np.asarray(x, dtype=float).reshape(-1)
        for i, reg in enumerate(self.regions):
            if np.all(reg.poly.A @ x - reg.poly.b <= tol):
                return i
        return -1

    def eval_region(self, sigma: int, x):
        """Affine law of region sigma applied to x."""
        if not 0 <= sigma < len(self.regions):
            raise InvalidRegion(f"region index {sigma} out of range")
        reg = self.regions[sigma]
        return reg.K @ np.asarray(x, dtype=float).reshape(-1) + reg.b

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
            slack = [r.poly.A @ x - r.poly.b for r in self.regions]
            sigma = int(np.argmin([s.max() for s in slack]))
            row = int(np.argmax(slack[sigma]))
            text += (f"; nearest is region {sigma}, whose row {row} is "
                     f"violated by {slack[sigma][row]:.3e}")
        return StateNotCovered(text)

    def gain_table(self):
        """Stacked gains (nreg, m, n) and offsets (nreg, m)."""
        K = np.stack([r.K for r in self.regions])
        b = np.stack([r.b for r in self.regions])
        return K, b

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
        obj = json.loads(text)
        if obj.get("format") != "pwa-controller/1":
            raise ValueError("unrecognized controller file format")
        regions = []
        for r in obj["regions"]:
            regions.append(Region(
                active_set=tuple(r["active_set"]),
                poly=Polyhedron(np.array(r["A_ineq"], dtype=float).reshape(-1, int(obj["n"])),
                                np.array(r["b_ineq"], dtype=float)),
                K=np.array(r["K"], dtype=float),
                b=np.array(r["b"], dtype=float),
                cheb_center=np.array(r["cheb_center"], dtype=float),
                cheb_radius=float(r["cheb_radius"]),
            ))
        return PwaController(regions=regions, n=int(obj["n"]), m=int(obj["m"]),
                             horizon=int(obj["horizon"]), meta=obj.get("meta", {}))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @staticmethod
    def load(path) -> "PwaController":
        with open(path) as fh:
            return PwaController.from_json(fh.read())


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


def parameter_box(qp: CondensedQp):
    """Bounding box of the feasible parameter set.

    Solves 2n LPs over the lifted polytope {(x, z): Gz - Ex <= h}. A
    direction where the LP is unbounded gets a large sentinel so the box
    always contains the true feasible set.
    """
    BIG = 1e6
    n, nz = qp.n, qp.nz
    lo = np.full(n, -BIG)
    hi = np.full(n, BIG)
    if qp.q == 0:
        return lo, hi
    A_ub = np.hstack([-qp.E, qp.G])
    for i in range(n):
        obj = np.zeros(n + nz)
        obj[i] = 1.0
        status, _, value = lp.max_linear(obj, A_ub, qp.h)
        if status == lp.OPTIMAL:
            hi[i] = value
        elif status == lp.INFEASIBLE:
            raise ConfigError("MPC constraints are infeasible for every state")
        status, _, value = lp.max_linear(-obj, A_ub, qp.h)
        if status == lp.OPTIMAL:
            lo[i] = -value
    return lo, hi


# candidates per batch; bounds the (B, q, n) row arrays held at once
_CHUNK = 20000


def enumerate_regions(qp: CondensedQp, tol: Tolerances = DEFAULT_TOL,
                      stats: dict = None) -> list:
    """All full-dimensional critical regions by active-set enumeration.

    Candidates are all row subsets up to size nz, the empty set included.
    Pruning, in order: rank-deficient G_A (LICQ), a bounding-box
    emptiness certificate, then the Chebyshev LP; regions whose ball
    radius is below the cutoff are dropped as lower-dimensional, and a
    later candidate reproducing an already-kept (region, law) pair is
    merged away. The returned list is sorted by active set, so region
    numbering is independent of enumeration internals.
    """
    q, nz = qp.q, qp.nz
    Hinv = np.linalg.inv(qp.H)
    HinvF = Hinv @ qp.F
    box_lo, box_hi = parameter_box(qp)
    box_c = 0.5 * (box_lo + box_hi)
    box_w = 0.5 * (box_hi - box_lo)
    if stats is not None:
        stats.update(candidates=0, rank_fails=0,
                     box_kills=0, lp_calls=0, empty=0, thin=0, merged=0)

    regions = []
    seen = set()

    def flush(cands: np.ndarray):
        if len(cands) == 0:
            return
        GA = qp.G[cands]                      # (B, k, nz)
        EA = qp.E[cands]                      # (B, k, n)
        hA = qp.h[cands]                      # (B, k)
        M = GA @ Hinv @ GA.transpose(0, 2, 1)
        # LICQ already holds; M = G_A H^-1 G_A' is then PD, but guard anyway
        sign, _ = np.linalg.slogdet(M)
        ok = sign > 0
        if stats is not None:
            stats["rank_fails"] += int((~ok).sum())
        if not ok.all():
            cands, GA, EA, hA, M = cands[ok], GA[ok], EA[ok], hA[ok], M[ok]
            if len(cands) == 0:
                return
        SA = EA + GA @ HinvF                  # (B, k, n)
        Lam = -np.linalg.solve(M, SA)         # (B, k, n)
        lam0 = -np.linalg.solve(M, hA[..., None])[..., 0]  # (B, k)
        GAT = GA.transpose(0, 2, 1)
        Z = -(HinvF[None] + np.einsum("bzk,bkn->bzn", Hinv[None] @ GAT, Lam))
        z0 = -np.einsum("zj,bjk,bk->bz", Hinv, GAT, lam0)
        # primal rows over all q constraints; active rows turn into 0 <= 0
        prim_A = np.einsum("qz,bzn->bqn", qp.G, Z) - qp.E[None]
        prim_b = qp.h[None] - np.einsum("qz,bz->bq", qp.G, z0)
        dual_A = -Lam
        dual_b = lam0
        rows_A = np.concatenate([prim_A, dual_A], axis=1)
        rows_b = np.concatenate([prim_b, dual_b], axis=1)

        norms = np.linalg.norm(rows_A, axis=2)
        dead = norms <= tol.zero_row
        bad_dead = dead & (rows_b < -tol.feasibility)
        kill = bad_dead.any(axis=1)
        # vacuous zero rows are neutralized instead of removed
        rows_b = np.where(dead, 1.0, rows_b)
        rows_A = np.where(dead[..., None], 0.0, rows_A)
        # bounding-box certificate: region lies inside the feasible set,
        # so a row whose minimum over the parameter box exceeds its
        # offset proves emptiness
        lower = rows_A @ box_c - np.abs(rows_A) @ box_w
        kill |= (lower > rows_b + 1e-9).any(axis=1)
        if stats is not None:
            stats["box_kills"] += int(kill.sum())
        for ci in np.flatnonzero(~kill):
            if stats is not None:
                stats["lp_calls"] += 1
            center, radius = chebyshev_center(rows_A[ci], rows_b[ci])
            if not (radius > tol.cheb_cutoff):
                if stats is not None:
                    stats["empty" if radius < 0 else "thin"] += 1
                continue
            aset = tuple(int(v) for v in cands[ci])
            K = Z[ci][:qp.m].copy()
            b = z0[ci][:qp.m].copy()
            Ar, br, _ = irredundant_rows(rows_A[ci], rows_b[ci])
            key = _region_signature(Ar, br, K, b)
            if key in seen:
                if stats is not None:
                    stats["merged"] += 1
                continue
            seen.add(key)
            regions.append(Region(
                active_set=aset,
                poly=Polyhedron(Ar, br),
                K=K,
                b=b,
                cheb_center=center,
                cheb_radius=float(radius),
            ))

    for k in range(min(q, nz) + 1):
        combos = np.array(list(itertools.combinations(range(q), k)), dtype=int)
        if stats is not None:
            stats["candidates"] += len(combos)
        # LICQ: batched singular values of G_A, all above the rank floor
        for start in range(0, len(combos), _CHUNK):
            block = combos[start:start + _CHUNK]
            sv = np.linalg.svd(qp.G[block], compute_uv=False)
            full_rank = (sv > tol.rank * np.maximum(sv[:, :1], 1.0)).all(axis=1)
            if stats is not None:
                stats["rank_fails"] += int((~full_rank).sum())
            flush(block[full_rank])
    regions.sort(key=lambda r: r.active_set)
    return regions


def _region_signature(A: np.ndarray, b: np.ndarray,
                      K: np.ndarray, off: np.ndarray) -> tuple:
    """Canonical key for (region, law): unit rows, rounded, sorted."""
    norms = np.linalg.norm(A, axis=1) if len(A) else np.zeros(0)
    if len(norms):
        norms[norms == 0] = 1.0
        M = np.hstack([A / norms[:, None], (b / norms)[:, None]])
        M = np.round(M, 9)
        M[M == 0.0] = 0.0  # normalize -0.0
        rows = tuple(sorted(tuple(row) for row in M))
    else:
        rows = ()
    law = np.round(np.concatenate([K.ravel(), off.ravel()]), 9)
    law[law == 0.0] = 0.0
    return rows, tuple(law)


def synthesize(sys: LtiSystem, spec: MpcSpec, tol: Tolerances = DEFAULT_TOL,
               meta: dict = None, stats: dict = None) -> PwaController:
    """Condense and enumerate; returns the explicit controller."""
    qp = condense(sys, spec, tol)
    regions = enumerate_regions(qp, tol, stats=stats)
    if not regions:
        raise ConfigError("enumeration produced no full-dimensional regions")
    return PwaController(regions=regions, n=qp.n, m=qp.m, horizon=qp.horizon,
                         meta=meta or {})
