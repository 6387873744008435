"""qp.solve_qp and lp.feasible_point against their loop-by-loop references.

`reference_solve_qp` is the primal active-set loop as it was written with
one dot product per row in the ratio test and a KKT matrix assembled by
`np.block` on every iteration; `reference_feasible_point` builds the
phase-1 tableau from `hstack`/`eye`/`vstack` pieces. The program's
versions must take the same steps: the same verdicts, active sets and
pivots, with z and the multipliers equal up to the rounding of one
matrix-vector product in place of per-row dot products.
"""
import numpy as np
import pytest

from encmpc import lp
from encmpc.config import DEFAULT_TOL
from encmpc.mpqp import LtiSystem, MpcSpec, condense
from encmpc.polyhedra import box
from encmpc.qp import QpInfeasible, QpNoConvergence, solve_qp


def reference_solve_qp(H, g, G, w, tol=DEFAULT_TOL, max_iter=500):
    H = np.atleast_2d(np.asarray(H, dtype=float))
    g = np.asarray(g, dtype=float).reshape(-1)
    G = np.atleast_2d(np.asarray(G, dtype=float))
    w = np.asarray(w, dtype=float).reshape(-1)
    nz = H.shape[0]
    q = G.shape[0]

    feasible, z = lp.feasible_point(G, w)
    if not feasible:
        raise QpInfeasible("constraint set is empty for this parameter")

    work: list = []
    settled = False
    for _ in range(max_iter):
        k = len(work)
        grad = H @ z + g
        if k:
            GW = G[work]
            KKT = np.block([[H, GW.T], [GW, np.zeros((k, k))]])
            rhs = np.concatenate([-grad, np.zeros(k)])
            sol = np.linalg.solve(KKT, rhs)
            d = sol[:nz]
            lam_w = sol[nz:]
        else:
            d = np.linalg.solve(H, -grad)
            lam_w = np.zeros(0)

        if settled or np.linalg.norm(d) <= 1e-11:
            neg = [i for i, lv in enumerate(lam_w) if lv < -tol.dual_feas]
            if not neg:
                lam = np.zeros(q)
                for i, row in enumerate(work):
                    lam[row] = max(lam_w[i], 0.0)
                return z, lam, tuple(sorted(work))
            drop = min(neg, key=lambda i: work[i])
            work.pop(drop)
            settled = False
            continue

        alpha = 1.0
        blocker = -1
        for i in range(q):
            if i in work:
                continue
            gd = G[i] @ d
            if gd <= 1e-12:
                continue
            ratio = max((w[i] - G[i] @ z) / gd, 0.0)
            if ratio < alpha - 1e-12:
                alpha = ratio
                blocker = i
        z = z + alpha * d
        settled = blocker < 0
        if blocker >= 0:
            work.append(blocker)
    raise QpNoConvergence("active-set iteration limit reached")


def reference_feasible_point(A_ub, b_ub, tol=1e-9):
    A_ub = np.atleast_2d(np.asarray(A_ub, dtype=float))
    b_ub = np.asarray(b_ub, dtype=float)
    m, n = A_ub.shape
    if m == 0:
        return True, np.zeros(n)
    flip = b_ub < 0
    rows = np.hstack([A_ub, -A_ub, -np.eye(m), np.eye(m), b_ub[:, None]])
    rows[flip] *= -1.0
    ncols = 2 * n + 2 * m
    basis = np.where(flip, 2 * n, 2 * n + m) + np.arange(m)
    cost = np.zeros(ncols + 1)
    cost[2 * n:2 * n + m] = 1.0
    T = np.vstack([rows, cost - rows[flip].sum(axis=0)])
    status = lp._bland_iterate(T, basis, ncols)
    if status != lp.OPTIMAL:
        raise lp.LpError(f"phase-1 feasibility LP returned {status}")
    y = np.zeros(ncols)
    y[basis] = T[:m, -1]
    x = y[:n] - y[n:2 * n]
    return -T[-1, -1] <= tol, x


def double_integrator(horizon):
    sys = LtiSystem(A=[[1.0, 1.0], [0.0, 1.0]], B=[[0.5], [1.0]],
                    C_out=[[1.0, 0.0]])
    spec = MpcSpec(horizon=horizon, Q=np.diag([1.0, 0.1]), R=[[0.5]],
                   U=box([-1.0], [1.0]), X=box([-5.0, -5.0], [5.0, 5.0]))
    return condense(sys, spec)


def random_plant(seed):
    """The seeded 2-state, 1-input plants of tests/test_mpqp.py."""
    rng = np.random.default_rng(seed)
    sys = LtiSystem(A=rng.normal(size=(2, 2)), B=rng.normal(size=(2, 1)))
    spec = MpcSpec(horizon=3, Q=np.eye(2), R=[[1.0]], U=box([-1.0], [1.0]),
                   X=box([-5.0, -5.0], [5.0, 5.0]))
    return condense(sys, spec)


def coupled_integrators(horizon):
    """The 4-state, 2-input plant of BENCH_redundancy.json: two double
    integrators, each velocity driven by the other's position."""
    A = [[1.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.1, 0.0],
         [0.0, 0.0, 1.0, 1.0], [0.1, 0.0, 0.0, 1.0]]
    B = [[0.5, 0.0], [1.0, 0.0], [0.0, 0.5], [0.0, 1.0]]
    spec = MpcSpec(horizon=horizon, Q=np.eye(4), R=np.eye(2),
                   U=box([-1.0] * 2, [1.0] * 2), X=box([-5.0] * 4, [5.0] * 4))
    return condense(LtiSystem(A=A, B=B), spec)


# (condensed QP, state box half-widths, states drawn, least feasible count)
PROBLEMS = {
    "benchmark": (lambda: double_integrator(5), [11.0, 6.0], 300, 100),
    "horizon10": (lambda: double_integrator(10), [11.0, 6.0], 200, 60),
    "random4": (lambda: random_plant(4), [6.0, 6.0], 200, 40),
    "random24": (lambda: random_plant(24), [6.0, 6.0], 200, 40),
    "random40": (lambda: random_plant(40), [6.0, 6.0], 200, 40),
    "coupled4x2": (lambda: coupled_integrators(3), [5.0] * 4, 300, 60),
}


def solve_at(solver, qp, x):
    try:
        return solver(qp.H, qp.F @ x, qp.G, qp.h + qp.E @ x)
    except QpInfeasible:
        return None


@pytest.mark.parametrize("name", list(PROBLEMS))
def test_solve_qp_matches_reference(name):
    """Same verdict and active set at every seeded state; z and the
    multipliers within 1e-12 relative to 1 + |reference| (multipliers
    reach ~1e3 on random plant 4 and the 4-state plant), and bit for bit
    on the benchmark."""
    make, half, count, least = PROBLEMS[name]
    qp = make()
    rng = np.random.default_rng(7)
    half = np.asarray(half)
    feasible = 0
    for x in rng.uniform(-half, half, size=(count, half.size)):
        got = solve_at(solve_qp, qp, x)
        ref = solve_at(reference_solve_qp, qp, x)
        assert (got is None) == (ref is None), f"verdicts differ at {x}"
        if got is None:
            continue
        feasible += 1
        (z, lam, active), (z_ref, lam_ref, active_ref) = got, ref
        assert active == active_ref, f"active sets differ at {x}"
        if name == "benchmark":
            assert np.array_equal(z, z_ref) and np.array_equal(lam, lam_ref)
        else:
            assert np.all(np.abs(z - z_ref) <= 1e-12 * (1 + np.abs(z_ref)))
            assert np.all(np.abs(lam - lam_ref) <= 1e-12 * (1 + np.abs(lam_ref)))
    assert feasible >= least


@pytest.mark.parametrize("rows, w, active", [
    # rows 0 and 1 block at alpha = 0.5, row 2 at 0.5 + 0.5e-12: row 0
    # enters, and z = (1, 0) is optimal on it alone
    ([[1.0, 0.0], [1.0, 1.0], [1.0, 0.0]], [1.0, 1.0, 1.0 + 1e-12], (0,)),
    # the tied pair swapped: x1 + x2 <= 1 enters first, and the walk along
    # it picks up x1 <= 1 at a zero step
    ([[1.0, 1.0], [1.0, 0.0], [1.0, 0.0]], [1.0, 1.0, 1.0 + 1e-12], (0, 1)),
    # the late row scanned first keeps the step: the exact rows behind it
    # block less than 1e-12 sooner, so x1 <= 1 + 1e-12 enters
    ([[1.0, 0.0], [1.0, 1.0], [1.0, 0.0]], [1.0 + 1e-12, 1.0, 1.0], (0,)),
])
def test_ratio_test_tie_goes_to_lower_index(rows, w, active):
    """From z = 0 the step d = (2, 0) hits two rows together and a third
    0.5e-12 later; of rows blocking within 1e-12 of each other, the lowest
    index enters the working set."""
    G, w = np.array(rows), np.array(w)
    H, g = np.eye(2), np.array([-2.0, 0.0])
    z, lam, got = solve_qp(H, g, G, w)
    assert got == active
    assert got == reference_solve_qp(H, g, G, w)[2]
    assert z == pytest.approx([1.0, 0.0], abs=1e-11)


def feasible_point_cases():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 12))
        yield rng.normal(size=(m, n)), rng.normal(size=m)
    # the benchmark's constraint sets at seeded states, feasible or not
    qp = double_integrator(5)
    for x in rng.uniform([-11.0, -6.0], [11.0, 6.0], size=(100, 2)):
        yield qp.G, qp.h + qp.E @ x


def test_feasible_point_matches_reference_tableau():
    """(feasible, x) bit for bit, on right-hand sides of both signs."""
    verdicts = []
    signs = set()
    for A, b in feasible_point_cases():
        ok, x = lp.feasible_point(A, b)
        ok_ref, x_ref = reference_feasible_point(A, b)
        assert ok == ok_ref
        assert x.tobytes() == x_ref.tobytes()
        verdicts.append(ok)
        signs.add((bool((b < 0).any()), bool((b >= 0).any())))
    assert any(verdicts) and not all(verdicts)
    assert (True, True) in signs
