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
`exact_kkt` solves the KKT system of an active set in rationals, from
the binary64 data: it certifies the active set a solve reports, and
measures z and the multipliers against the exact solution, with no
rounding on the reference's side. Its tests (named `*exact*`) decide
verdicts that must not depend on the BLAS kernel or SIMD dispatch.
"""
import dataclasses
import hashlib
import math
from fractions import Fraction
from operator import mul
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from encmpc import lp
from encmpc.mpqp import LtiSystem, MpcSpec, condense
from encmpc.polyhedra import box
from encmpc import qp as qp_module
from encmpc.qp import (DEPENDENT_TOL, DualQp, QpInfeasible, QpNoConvergence,
                       _factor_drop, _factor_solve, implicit_control,
                       solve_qp, solve_qp_oracle)


def kkt_residuals(qp, x, z, lam):
    """Stationarity and complementarity residuals at (z, lam) for x.

    Certifies a claimed optimizer of the parametric QP qp (H, F, G, E,
    h): stationarity ||Hz + Fx + G'lam||_inf, worst primal violation,
    worst negative multiplier, and worst complementarity product.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    slack = qp.h + qp.E @ x - qp.G @ z
    stat = np.linalg.norm(qp.H @ z + qp.F @ x + qp.G.T @ lam, ord=np.inf)
    primal = float(max(0.0, -slack.min())) if slack.size else 0.0
    dual = float(max(0.0, -lam.min())) if lam.size else 0.0
    comp = float(np.abs(lam * slack).max()) if slack.size else 0.0
    return {"stationarity": float(stat), "primal": primal,
            "dual": dual, "complementarity": comp}


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


def exact_kkt(H, g, G, w, active):
    """The KKT system of min 1/2 z'Hz + g'z s.t. Gz <= w with the rows
    in active tight, solved by Gauss-Jordan elimination in Fractions
    from the binary64 H, g, G and w, so nothing in it is rounded.
    Returns z, lam (zero off the active rows) and every row's slack as
    Fractions, and the exact certificate that the active set is
    optimal: primal (every slack >= 0), dual (lam >= 0) and
    complementarity (every lam_i times its slack is 0). Stationarity
    holds by construction."""
    H, G = (np.atleast_2d(np.asarray(a, dtype=float)).tolist() for a in (H, G))
    g, w = (np.asarray(a, dtype=float).reshape(-1).tolist() for a in (g, w))
    nz, rows = len(H), list(active)
    n = nz + len(rows)
    M = [[Fraction(v) for v in row] for row in (
        [H[i] + [G[j][i] for j in rows] + [-g[i]] for i in range(nz)]
        + [G[j] + [0.0] * len(rows) + [w[j]] for j in rows])]
    for c in range(n):
        pivot = next(i for i in range(c, n) if M[i][c])
        M[c], M[pivot] = M[pivot], M[c]
        for i in range(n):
            if i != c and M[i][c]:
                f = M[i][c] / M[c][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[c])]
    sol = [M[i][n] / M[i][i] for i in range(n)]
    z = sol[:nz]
    lam = [Fraction(0)] * len(G)
    for j, v in zip(rows, sol[nz:]):
        lam[j] = v
    slack = [Fraction(wj) - sum(map(mul, map(Fraction, Gj), z))
             for Gj, wj in zip(G, w)]
    return SimpleNamespace(
        z=z, lam=lam, slack=slack,
        primal=all(s >= 0 for s in slack), dual=all(v >= 0 for v in lam),
        complementarity=all(v * s == 0 for v, s in zip(lam, slack)))


def exact_relative_error(got, exact):
    """max |got - exact| / max |exact| (absolute where exact is 0),
    computed in Fractions."""
    diff = max(abs(Fraction(a) - b) for a, b in zip(np.ravel(got).tolist(), exact))
    return float(diff / (max(map(abs, exact)) or 1))


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
            return solve_qp(qp, qp.F @ x, qp.h + qp.E @ x)
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


def quiet_row_qp():
    """(H, g, G, w) of test_quiet_row_is_readmitted_after_a_full_step."""
    eps = 1e-3
    G = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0],
                  [0.0, 1.0, -eps]])
    w = np.array([-1000.0, -1.0, -1000.0 - np.sqrt(2) * 1e-11, -1.0 - 5e-12])
    return np.eye(3), np.zeros(3), G, w


def test_quiet_row_is_readmitted_after_a_full_step():
    """Rows 0 and 1 enter in turn, violated by 1000 and 1. Row 2 is then
    violated by 1e-11 per unit norm, within ROUNDING of the ~1414 summed
    into its slack, so it is left out as rounding. Row 3, nearly parallel
    to row 1 and violated by 5e-12, enters with a full step of 5e-6 (its
    gain is eps^2), which moves z_3 by 5e-9 and leaves row 2 violated by
    about 3.5e-9. Row 2 enters only because quiet rows are let back in
    after a full step; without that the solve stops at active set
    (0, 1, 3) with row 2 violated by 5e-9. The reference's z is 8e-11 off
    the exact optimizer here, so z is compared to it within 1e-10."""
    H, g, G, w = quiet_row_qp()
    z, lam, active = solve_qp(DualQp(H, G), g, w)
    z_ref, lam_ref, active_ref = reference_solve_qp(H, g, G, w)
    assert active == active_ref == (0, 2, 3)
    assert z == pytest.approx(z_ref, rel=1e-12, abs=1e-10)
    assert lam == pytest.approx(lam_ref, rel=1e-12, abs=1e-10)
    problem = SimpleNamespace(H=H, F=g[:, None], G=G, E=w[:, None],
                              h=np.zeros_like(w))
    assert max(kkt_residuals(problem, np.ones(1), z, lam).values()) <= 1e-12


def test_dual_solver_is_exact_on_the_quiet_row_qp():
    """On the quiet-row QP, where the primal reference is 8e-11 off, the
    exact solution of the reported active set (0, 2, 3) is feasible,
    dual feasible and complementary, and the dual solver's z and
    multipliers are within 1e-15 relative of it."""
    H, g, G, w = quiet_row_qp()
    z, lam, active = solve_qp(DualQp(H, G), g, w)
    exact = exact_kkt(H, g, G, w, active)
    assert active == (0, 2, 3)
    assert exact.primal and exact.dual and exact.complementarity
    assert exact_relative_error(z, exact.z) <= 1e-15
    assert exact_relative_error(lam, exact.lam) <= 1e-15


def test_oracle_active_sets_are_exactly_optimal():
    """At 150 of test_oracle_bytes_pinned's 1,000 states, drawn by seed,
    every active set the oracle reports at a feasible one (54 of them)
    is optimal for the binary64 QP by the exact certificate, and z and
    the multipliers are within test_solve_qp_matches_reference's 1e-12
    relative of the exact solution. The same holds on horizon 10 (10
    variables, 60 rows) at 60 states drawn from the same box (24
    feasible)."""
    states = np.random.default_rng(2024).uniform([-11.0, -6.0], [11.0, 6.0], (1000, 2))
    for horizon, count, least in ((5, 150, 40), (10, 60, 15)):
        qp = double_integrator(horizon)
        certified = 0
        for x in states[np.random.default_rng(5).choice(1000, count, replace=False)]:
            try:
                z, active, lam = solve_qp_oracle(qp, x)
            except QpInfeasible:
                continue
            exact = exact_kkt(qp.H, qp.F @ x, qp.G, qp.h + qp.E @ x, active)
            assert exact.primal and exact.dual and exact.complementarity, (horizon, x)
            assert exact_relative_error(z, exact.z) <= 1e-12, (horizon, x)
            assert exact_relative_error(lam, exact.lam) <= 1e-12, (horizon, x)
            certified += 1
        assert certified >= least, horizon


def entry_order_block(K, A):
    """K_AA as the dual iteration factors it: A in entry order, and each
    pair of rows taken from the row that entered first (K is symmetric
    only to rounding: 2e-14 relative on horizon 10)."""
    return np.array([[K[A[min(a, b)], A[max(a, b)]] for b in range(len(A))]
                     for a in range(len(A))]).reshape(len(A), len(A))


@pytest.mark.parametrize("name", ["benchmark", "horizon10", "coupled4x2"])
def test_factor_updates_match_a_fresh_solve(name):
    """A seeded walk of 150 steps on the QP's K: a row enters when its
    gain exceeds DEPENDENT_TOL * K_pp, as in the dual iteration, and
    the first, a middle or the last active row leaves in turn (at most
    nz rows are active). After each step, for every inactive row p, the
    updated factor's r and gain match np.linalg.solve(K_AA, K_Ap) to
    1e-12 relative; where K_AA is worse conditioned than 1e4 the bound
    is 1e-16 cond(K_AA), since any backward-stable solve, LAPACK's
    included, is good only to about cond * eps."""
    qp = PROBLEMS[name][0]()
    K, nz, q = qp.K, qp.H.shape[0], qp.G.shape[0]
    rng = np.random.default_rng(17)
    L, A, drops, dependent = [], [], set(), 0
    for step in range(150):
        k = len(A)
        if k and (k == nz or rng.random() < 0.4):
            d = (0, k // 2, k - 1)[step % 3]
            if k >= 3:
                drops.add("first" if d == 0 else "last" if d == k - 1 else "middle")
            _factor_drop(L, d)
            del A[d]
        else:
            p = int(rng.choice([i for i in range(q) if i not in A]))
            l, _, gain = _factor_solve(L, K[A, p].tolist(), K[p, p])
            if gain > DEPENDENT_TOL * K[p, p]:
                L.append(l + [math.sqrt(gain)])
                A.append(p)
            else:
                dependent += 1
        KAA = entry_order_block(K, A)
        tol = max(1e-12, 1e-16 * np.linalg.cond(KAA)) if A else 1e-12
        for p in range(q):
            if p in A:
                continue
            _, r, gain = _factor_solve(L, K[A, p].tolist(), K[p, p])
            r_ref = np.linalg.solve(KAA, K[A, p]) if A else np.zeros(0)
            gain_ref = K[p, p] - K[A, p] @ r_ref
            assert np.all(np.abs(np.array(r) - r_ref) <= tol * np.abs(r_ref).max(initial=0.0))
            assert abs(gain - gain_ref) <= tol * K[p, p]
    assert drops == {"first", "middle", "last"} and dependent > 0


def test_dependent_entering_row_takes_only_the_partial_step(monkeypatch):
    """From z0 = (2, 2), x1 <= 0 and then x2 <= 0.5 enter with full
    steps. Row 2, -x1 + x2 <= -0.1, is then violated but lies in the
    span of both active rows (its gain is 0 to rounding), so the step
    is partial: x2 <= 0.5, the one active row whose multiplier falls,
    leaves, and row 2 then enters against x1 <= 0 alone, at the
    optimizer (0, -0.1)."""
    steps = []
    solve, drop = qp_module._factor_solve, qp_module._factor_drop

    def spy_solve(L, KAp, Kpp):
        out = solve(L, KAp, Kpp)
        steps.append(("enter", len(L), out[2] > DEPENDENT_TOL * Kpp))
        return out

    def spy_drop(L, d):
        steps.append(("drop", d))
        drop(L, d)

    monkeypatch.setattr(qp_module, "_factor_solve", spy_solve)
    monkeypatch.setattr(qp_module, "_factor_drop", spy_drop)
    H, g = np.eye(2), np.array([-2.0, -2.0])
    G, w = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 1.0]]), np.array([0.0, 0.5, -0.1])
    z, lam, active = solve_qp(DualQp(H, G), g, w)
    assert steps == [("enter", 0, True), ("enter", 1, True),
                     ("enter", 2, False), ("drop", 1), ("enter", 1, True)]
    assert active == (0, 2) == reference_solve_qp(H, g, G, w)[2]
    assert z == pytest.approx([0.0, -0.1], abs=1e-14)


@pytest.mark.parametrize("g_len, w_len", [(5, 1), (5, 31), (6, 30), (4, 30)])
def test_solve_qp_refuses_a_right_hand_side_of_the_wrong_length(g_len, w_len, monkeypatch):
    """On the benchmark QP (nz 5, q 30) a g not of length 5 or a w not of
    length 30 is a ValueError naming both shapes, raised before the
    iteration (unchecked, a length-1 w broadcast over every row and
    returned active set (), and the others died inside numpy)."""
    qp = double_integrator(5)
    monkeypatch.setattr(qp_module, "_dual_steps", None)
    with pytest.raises(ValueError, match=rf"g of shape \({g_len},\) and w of shape \({w_len},\)"):
        solve_qp(qp, np.zeros(g_len), np.ones(w_len))


@pytest.mark.parametrize("arg, entry, value", [("w", 3, np.nan), ("g", 0, np.inf),
                                                ("w", 29, -np.inf), ("g", 4, np.nan)])
def test_solve_qp_refuses_a_non_finite_right_hand_side(arg, entry, value, monkeypatch):
    """On the benchmark QP at x = (1, 0.5), a NaN or infinite entry of g
    or w is a ValueError naming the argument, raised before the
    iteration (unchecked, w_3 = NaN returned active set (1,), and g_0 =
    inf an all-NaN z)."""
    qp = double_integrator(5)
    x = np.array([1.0, 0.5])
    rhs = {"g": qp.F @ x, "w": qp.h + qp.E @ x}
    rhs[arg][entry] = value
    monkeypatch.setattr(qp_module, "_dual_steps", None)
    with pytest.raises(ValueError, match=rf"^{arg}\[{entry}\] = {value} is not finite"):
        solve_qp(qp, rhs["g"], rhs["w"])


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


FACTOR = ("H", "G", "norms", "H_inv", "K", "KKT", "rhs_map", "rhs_offset")


def test_factor_is_read_only_data_of_the_qp():
    """The QP condense builds is its own factor: H, G, the stacked map
    [F; E] with its offset [-0; h], and what solve_qp derives from H and
    G are read-only, K's rows are tuples of its floats, and replacing G
    builds a new factor. Doubling G doubles the row norms and the KKT
    matrix's G blocks, and leaves the unit rows, and so K and its rows,
    bit for bit; replacing E builds a new map. Each KKT block memoized
    by a solve is read-only and is its active set's block of the KKT
    matrix; a new QP starts with none."""
    qp = double_integrator(5)
    assert isinstance(qp, DualQp) and not hasattr(qp, "dual")
    for name in FACTOR:
        value = getattr(qp, name)
        assert not value.flags.writeable, name
        with pytest.raises(ValueError):
            value[0] = 0.0
    for value in (qp.K_rows, qp.K_rows[0]):
        with pytest.raises(TypeError):
            value[0] = 0.0
    assert np.array(qp.K_rows).tobytes() == qp.K.tobytes()
    nz = qp.H.shape[0]
    assert np.array_equal(qp.KKT, np.block([[qp.H, qp.G.T], [qp.G, np.zeros((qp.q, qp.q))]]))
    for name in ("K", "K_rows", "KKT"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(qp, name, getattr(qp, name))
    doubled = dataclasses.replace(qp, G=2.0 * qp.G)
    assert np.array_equal(doubled.G, 2.0 * qp.G)
    assert np.array_equal(doubled.norms, 2.0 * qp.norms)
    assert doubled.K.tobytes() == qp.K.tobytes()
    assert doubled.K_rows == qp.K_rows and doubled.K_rows is not qp.K_rows
    assert np.array_equal(doubled.KKT[nz:, :nz], 2.0 * qp.G)
    assert np.array_equal(doubled.KKT[:nz, nz:], 2.0 * qp.G.T)
    assert np.array_equal(doubled.KKT[:nz, :nz], qp.H)
    assert np.array_equal(doubled.F, qp.F) and np.array_equal(doubled.h, qp.h)
    assert np.array_equal(qp.rhs_map, np.vstack([qp.F, qp.E]))
    assert qp.rhs_offset.tobytes() == np.concatenate([np.full(nz, -0.0), qp.h]).tobytes()
    moved = dataclasses.replace(qp, E=2.0 * qp.E)
    assert np.array_equal(moved.rhs_map, np.vstack([qp.F, 2.0 * qp.E]))
    assert not moved.rhs_map.flags.writeable and moved.rhs_map is not qp.rhs_map
    assert moved.rhs_offset.tobytes() == qp.rhs_offset.tobytes()
    for x in np.random.default_rng(3).uniform([-11.0, -6.0], [11.0, 6.0], (100, 2)):
        try:
            solve_qp_oracle(qp, x)
        except QpInfeasible:
            pass
    assert len(qp._blocks) > 1 and doubled._blocks == {} and moved._blocks == {}
    for active, block in qp._blocks.items():
        idx = [*range(nz), *(nz + i for i in active)]
        assert not block.flags.writeable, active
        assert block.tobytes() == qp.KKT[idx][:, idx].tobytes(), active


def general_solve(fresh, qp, x):
    """solve_qp on a DualQp built anew from qp's H and G, with g and w
    from their own products; None for an infeasible verdict."""
    try:
        return solve_qp(fresh, qp.F @ x, qp.h + qp.E @ x)
    except QpInfeasible:
        return None


def test_fresh_factor_solves_bit_for_bit_as_the_oracle(bench_controller):
    """The parametric path (g and w sliced from one product with the QP's
    stacked map, KKT blocks memoized per active set) gives the general
    path's verdicts, and its z, multipliers and active set to the last
    bit, for solve_qp_oracle and implicit_control alike. The states are
    200 seeded ones per problem of PROBLEMS and, on the benchmark QP, the
    foot of every facet of the benchmark partition, where the active set
    changes and a row can be weakly active."""
    from test_mpqp import facet_feet   # test_mpqp imports this module

    def states(name):
        make, half, count, least = PROBLEMS[name]
        half = np.asarray(half)
        yield from np.random.default_rng(31).uniform(-half, half, (200, half.size))
        if name == "benchmark":
            yield from facet_feet(bench_controller)

    for name in PROBLEMS:
        qp = PROBLEMS[name][0]()
        fresh = DualQp(qp.H, qp.G)
        verdicts = []
        for x in states(name):
            ref = general_solve(fresh, qp, x)
            verdicts.append(ref is not None)
            for oracle in (solve_qp_oracle, implicit_control):
                if ref is None:
                    with pytest.raises(QpInfeasible):
                        oracle(qp, x)
                    continue
                if oracle is solve_qp_oracle:
                    z, active, lam = oracle(qp, x)
                    assert lam.tobytes() == ref[1].tobytes(), (name, x)
                else:
                    u0, z, active = oracle(qp, x)
                    assert u0.tobytes() == ref[0][:qp.m].tobytes(), (name, x)
                assert z.tobytes() == ref[0].tobytes(), (name, x)
                assert active == ref[2], (name, x)
        assert any(verdicts) and not all(verdicts), name


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
