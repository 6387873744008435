"""qp.solve_qp against the primal active-set method, and lp.feasible_point
against its loop-by-loop reference.

`reference_solve_qp` is the primal active-set method the oracle used
before the dual one: a phase-1 feasible point from lp.feasible_point,
then a working set grown by a ratio test with one dot product per row
and a KKT matrix assembled by `np.block` on every iteration. The dual
method takes another path to the same optimizer, so the two must agree
on every verdict and active set, with z and the multipliers within
1e-12 relative. On random QPs with duplicate, scaled, zero and
hair-shifted rows, the verdict must be lp.feasible_point's and a
feasible solve must meet the benchmark's KKT bound, with complementarity
scaled by the largest multiplier.
`reference_feasible_point` builds the phase-1 tableau from
`hstack`/`eye`/`vstack` pieces, and lp.feasible_point must match it bit
for bit.
"""
import dataclasses
import hashlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from encmpc import lp
from encmpc.mpqp import LtiSystem, MpcSpec, condense
from encmpc.polyhedra import box
from encmpc.qp import (DualQp, QpInfeasible, QpNoConvergence, implicit_control,
                       kkt_residuals, solve_qp, solve_qp_oracle)


def reference_solve_qp(H, g, G, w, max_iter=500):
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
            neg = [i for i, lv in enumerate(lam_w) if lv < -1e-9]
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
    sys = LtiSystem(A=[[1.0, 1.0], [0.0, 1.0]], B=[[0.5], [1.0]])
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
        if solver is solve_qp:
            return solve_qp(qp.dual, qp.F @ x, qp.h + qp.E @ x)
        return solver(qp.H, qp.F @ x, qp.G, qp.h + qp.E @ x)
    except QpInfeasible:
        return None


@pytest.mark.parametrize("name", list(PROBLEMS))
def test_solve_qp_matches_reference(name):
    """Same verdict and active set at every seeded state; z and the
    multipliers within 1e-12 relative to 1 + |reference| (multipliers
    reach ~1e3 on random plant 4 and the 4-state plant)."""
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
        assert np.all(np.abs(z - z_ref) <= 1e-12 * (1 + np.abs(z_ref)))
        assert np.all(np.abs(lam - lam_ref) <= 1e-12 * (1 + np.abs(lam_ref)))
    assert feasible >= least


@pytest.mark.parametrize("rows, w, active", [
    # rows 0 and 1 are violated by 1 per unit norm and row 2 by 0.5e-12
    # less: row 0 enters, though row 1's raw violation is twice as large
    ([[1.0, 0.0], [2.0, 0.0], [1.0, 0.0]], [1.0, 2.0, 1.0 + 0.5e-12], (0,)),
    # the tied pair swapped: the positive multiple now has the lower index
    ([[2.0, 0.0], [1.0, 0.0], [1.0, 0.0]], [2.0, 1.0, 1.0], (0,)),
    # the late row violated by 0.5e-12 more still ties, so row 0 enters,
    # and the late row is then violated by less than VIOLATION_TOL
    ([[1.0, 0.0], [1.0, 1.0], [1.0, 0.0]], [1.0, 2.0, 1.0 - 0.5e-12], (0,)),
    # 2e-12 more is no tie: the late row enters and row 0 stays slack
    ([[1.0, 0.0], [1.0, 1.0], [1.0, 0.0]], [1.0, 2.0, 1.0 - 2e-12], (2,)),
])
def test_entering_tie_goes_to_lower_index(rows, w, active):
    """From z = -H^-1 g = (2, 0) every x1 <= 1 row is violated by about 1
    per unit norm; of rows whose normalized violations lie within TIE_TOL
    of the largest, the lowest index enters the active set."""
    G, w = np.array(rows), np.array(w)
    H, g = np.eye(2), np.array([-2.0, 0.0])
    z, lam, got = solve_qp(DualQp(H, G), g, w)
    assert got == active
    assert z == pytest.approx([1.0, 0.0], abs=1e-11)
    assert z == pytest.approx(reference_solve_qp(H, g, G, w)[0], abs=1e-11)


@pytest.mark.parametrize("hair, feasible", [(1e-11, True), (1e-7, False)])
def test_unbounded_dual_defers_to_certificate(hair, feasible, monkeypatch):
    """x1 <= 1 and x1 >= 1 + hair: from z = (2, 0) row 0 enters, and then
    row 1 depends on it with no row to drop, so the dual is unbounded.
    lp.feasible_point calls the set feasible at a hair of 1e-11, within
    its tolerance, and the solve then returns z = (1, 0) within that hair;
    at 1e-7 it calls the set empty, and so does the solve."""
    calls = []
    certify = lp.feasible_point
    monkeypatch.setattr(lp, "feasible_point",
                        lambda *a: calls.append(a) or certify(*a))
    G = np.array([[1.0, 0.0], [-1.0, 0.0]])
    w = np.array([1.0, -1.0 - hair])
    H, g = np.eye(2), np.array([-2.0, 0.0])
    if not feasible:
        with pytest.raises(QpInfeasible):
            solve_qp(DualQp(H, G), g, w)
        assert len(calls) == 1
        return
    z, lam, active = solve_qp(DualQp(H, G), g, w)
    assert len(calls) == 1
    assert z == pytest.approx([1.0, 0.0], abs=2 * hair)
    assert lam[list(active)] == pytest.approx([1.0], abs=1e-9)
    assert np.max(G @ z - w) <= 2 * hair


def test_feasible_solves_skip_the_certificate(monkeypatch):
    """On the benchmark's states lp.feasible_point runs once per
    infeasible verdict and never for a feasible one."""
    calls = []
    certify = lp.feasible_point
    monkeypatch.setattr(lp, "feasible_point",
                        lambda *a: calls.append(a) or certify(*a))
    qp = double_integrator(5)
    verdicts = []
    for x in np.random.default_rng(7).uniform([-11.0, -6.0], [11.0, 6.0], (300, 2)):
        before = len(calls)
        verdicts.append(solve_at(solve_qp, qp, x) is not None)
        assert len(calls) - before == (not verdicts[-1])
    assert any(verdicts) and not all(verdicts)


ORACLE_SHA256 = "2f3004fdabcc6f92b78b8780c9706cc7c1aa8e551c49819a944a29371314e1a1"


def test_oracle_bytes_pinned():
    """SHA-256 of solve_qp_oracle's z, multipliers and active set, or
    its QpInfeasible verdict, at 1,000 seeded states of the benchmark QP
    (H 5x5, G 30x5): 340 feasible and 660 infeasible. Like the other pins
    it holds only under this host's default BLAS kernels and NumPy SIMD
    dispatch (ROADMAP item 1)."""
    qp = double_integrator(5)
    digest = hashlib.sha256()
    verdicts = []
    for x in np.random.default_rng(2024).uniform([-11.0, -6.0], [11.0, 6.0], (1000, 2)):
        try:
            z, active, lam = solve_qp_oracle(qp, x)
        except QpInfeasible:
            digest.update(b"infeasible;")
            verdicts.append(False)
            continue
        digest.update(np.asarray(z, dtype="<f8").tobytes())
        digest.update(np.asarray(lam, dtype="<f8").tobytes())
        digest.update(repr(active).encode() + b";")
        verdicts.append(True)
    assert 0 < sum(verdicts) < len(verdicts)
    assert digest.hexdigest() == ORACLE_SHA256


FACTOR = ("H", "G", "norms", "H_inv", "K")


def test_factor_is_read_only_data_of_the_qp():
    """The factor condense builds with the QP is read-only, copied from
    the QP's H and G (which stay writeable), and replacing G builds a new
    one. Doubling G doubles the row norms and leaves the unit rows, and
    so K, bit for bit."""
    qp = double_integrator(5)
    for name in FACTOR:
        value = getattr(qp.dual, name)
        assert not value.flags.writeable, name
        with pytest.raises(ValueError):
            value[0] = 0.0
    assert qp.H.flags.writeable and qp.G.flags.writeable
    assert np.array_equal(qp.dual.H, qp.H) and np.array_equal(qp.dual.G, qp.G)
    with pytest.raises(dataclasses.FrozenInstanceError):
        qp.dual.K = qp.dual.K
    doubled = dataclasses.replace(qp, G=2.0 * qp.G)
    assert doubled.dual is not qp.dual
    assert np.array_equal(doubled.dual.G, 2.0 * qp.G)
    assert np.array_equal(doubled.dual.norms, 2.0 * qp.dual.norms)
    assert doubled.dual.K.tobytes() == qp.dual.K.tobytes()
    assert np.array_equal(qp.dual.G, qp.G)


def test_condensed_qp_is_frozen():
    """A field of the QP cannot be assigned, so qp.dual, built from its
    H and G, cannot go stale and leave the oracle solving constraints
    the QP no longer holds."""
    qp = double_integrator(5)
    for field in dataclasses.fields(qp):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(qp, field.name, getattr(qp, field.name))


def test_fresh_factor_solves_bit_for_bit_as_the_oracle():
    """solve_qp on a DualQp built anew from the QP's H and G gives the
    oracle's z, multipliers and active set to the last bit, and the same
    verdict, at seeded benchmark states."""
    qp = double_integrator(5)
    fresh = DualQp(qp.H, qp.G)
    verdicts = []
    for x in np.random.default_rng(31).uniform([-11.0, -6.0], [11.0, 6.0], (200, 2)):
        try:
            z, active, lam = solve_qp_oracle(qp, x)
        except QpInfeasible:
            with pytest.raises(QpInfeasible):
                solve_qp(fresh, qp.F @ x, qp.h + qp.E @ x)
            verdicts.append(False)
            continue
        z2, lam2, active2 = solve_qp(fresh, qp.F @ x, qp.h + qp.E @ x)
        assert z2.tobytes() == z.tobytes() and lam2.tobytes() == lam.tobytes()
        assert active2 == active
        verdicts.append(True)
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("x", [[np.nan, 0.0], [np.inf, 0.0], [0.0, -np.inf]])
def test_oracle_refuses_non_finite_state(x, monkeypatch):
    """A NaN or infinite state is a ValueError naming it, raised before
    the QP is touched (at the parent [nan, 0] gave u = [nan] and an empty
    active set)."""
    qp = double_integrator(5)
    monkeypatch.setattr("encmpc.qp.solve_qp", None)
    for oracle in (implicit_control, solve_qp_oracle):
        with pytest.raises(ValueError, match=r"state \[.*\] is not finite"):
            oracle(qp, x)


def random_qp(seed):
    """A strictly convex QP with nz 2-6 and up to 20 rows, built around a
    point with mostly nonnegative slack. Some rows are then replaced by
    an exact duplicate or a positive multiple of an earlier plain row, by
    a zero row, or by the reverse of an earlier plain row shifted by a
    hair of 1e-14 to 1e-7 either way, which leaves a thin slab or, shifted
    the other way, a set empty by that hair."""
    rng = np.random.default_rng(seed)
    nz = int(rng.integers(2, 7))
    q = int(rng.integers(1, 21))
    M = rng.normal(size=(nz, nz))
    H = M @ M.T + 0.1 * np.eye(nz)
    g = 3.0 * rng.normal(size=nz)
    G = rng.normal(size=(q, nz))
    w = G @ rng.normal(size=nz) + rng.uniform(-0.5, 2.0, size=q)
    base = [0]
    for j in range(1, q):
        i = base[int(rng.integers(0, len(base)))]
        kind = int(rng.integers(0, 8))
        if kind < 4:
            base.append(j)
        c = float(rng.uniform(0.1, 10.0))
        if kind == 4:
            G[j], w[j] = G[i], w[i]
        elif kind == 5:
            G[j], w[j] = c * G[i], c * w[i]
        elif kind == 6:
            G[j], w[j] = 0.0, rng.choice([1.0, 0.0, -1e-12, -1.0])
        elif kind == 7:
            hair = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-14, -7)
            G[j], w[j] = -c * G[i], -c * (w[i] + hair)
    return H, g, G, w


@settings(max_examples=400, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_random_qp_verdict_and_kkt(seed):
    """The verdict is lp.feasible_point's, and a feasible solve returns a
    point within the benchmark's KKT bound of 1e-8 on stationarity,
    primal and dual feasibility. Complementarity is a product with the
    multiplier, so its bound scales with the largest one: multipliers
    reach 1e5 here, and the primal reference's residuals then exceed
    1e-8 as well."""
    H, g, G, w = random_qp(seed)
    feasible, _ = lp.feasible_point(G, w)
    try:
        z, lam, active = solve_qp(DualQp(H, G), g, w)
    except QpInfeasible:
        assert not feasible
        return
    assert feasible
    problem = SimpleNamespace(H=H, F=g[:, None], G=G, E=w[:, None],
                              h=np.zeros_like(w))
    res = kkt_residuals(problem, np.ones(1), z, lam)
    assert max(res["stationarity"], res["primal"], res["dual"]) <= 1e-8, res
    assert res["complementarity"] <= 1e-8 * max(1.0, lam.max()), res
    assert set(np.flatnonzero(lam)) <= set(active)


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
