import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from encmpc.config import ConfigError, RunConfig
from encmpc.mpqp import (InvalidRegion, LtiSystem, MpcSpec, PwaController,
                         StateNotCovered, condense, parameter_box, synthesize)
from encmpc.polyhedra import box
from encmpc.protocol import make_parties
from encmpc.qp import (QpInfeasible, implicit_control, kkt_residuals,
                       solve_qp, solve_qp_oracle)


def scalar_problem():
    sys = LtiSystem(A=[[1.0]], B=[[1.0]])
    spec = MpcSpec(horizon=1, Q=[[1.0]], R=[[1.0]], U=box([-1.0], [1.0]))
    return sys, spec


def bench_system():
    return LtiSystem(A=[[1.0, 1.0], [0.0, 1.0]], B=[[0.5], [1.0]],
                     C_out=[[1.0, 0.0]])


def bench_spec():
    return MpcSpec(horizon=5, Q=np.diag([1.0, 0.1]), R=[[0.5]],
                   U=box([-1.0], [1.0]), X=box([-5.0, -5.0], [5.0, 5.0]))


def test_condense_scalar_matrices():
    qp = condense(*scalar_problem())
    assert qp.H == pytest.approx(np.array([[2.0]]))      # R + B'PB
    assert qp.F == pytest.approx(np.array([[1.0]]))      # B'PA
    assert qp.G == pytest.approx(np.array([[1.0], [-1.0]]))
    assert qp.h == pytest.approx(np.array([1.0, 1.0]))
    assert qp.E == pytest.approx(np.zeros((2, 1)))
    assert qp.selector == pytest.approx(np.array([[1.0]]))


def test_selector_extracts_first_input():
    qp = condense(bench_system(), bench_spec())
    z = np.arange(1.0, 6.0)
    assert qp.selector @ z == pytest.approx(z[:1])


def test_scalar_explicit_law():
    ctl = synthesize(*scalar_problem())
    assert ctl.nregions == 3
    assert [r.active_set for r in ctl.regions] == [(), (0,), (1,)]
    # saturated region boundaries sit at |x| = 2
    for x in np.linspace(-6, 6, 121):
        u, _ = ctl.evaluate([x])
        assert u[0] == pytest.approx(np.clip(-x / 2, -1.0, 1.0), abs=1e-12)


def test_scalar_facet_tiebreak():
    # x = -2 lies on the facet between the LQR region (index 0) and the
    # upper-saturation region (index 1); the lowest index wins
    ctl = synthesize(*scalar_problem())
    assert ctl.locate([-2.0]) == 0
    assert ctl.locate([2.0]) == 0
    assert ctl.locate([-2.0000001]) == 1
    assert ctl.evaluate([0.3])[1] == 0


def test_scalar_qp_oracle_saturation():
    qp = condense(*scalar_problem())
    z, active, lam = solve_qp_oracle(qp, [-4.0])
    assert z == pytest.approx([1.0], abs=1e-10)  # u <= 1 active
    assert active == (0,)
    assert lam[0] > 0
    z, active, lam = solve_qp_oracle(qp, [0.5])
    assert z == pytest.approx([-0.25], abs=1e-12)
    assert active == ()


def test_unconstrained_single_region():
    sys = bench_system()
    spec = MpcSpec(horizon=3, Q=np.eye(2), R=[[1.0]])
    qp = condense(sys, spec)
    assert qp.q == 0
    ctl = synthesize(sys, spec)
    assert ctl.nregions == 1
    reg = ctl.regions[0]
    assert reg.active_set == ()
    assert reg.poly.nrows == 0
    assert reg.cheb_radius == np.inf
    K_expect = -(np.linalg.solve(qp.H, qp.F))[:1]
    assert reg.K == pytest.approx(K_expect, abs=1e-12)
    assert ctl.locate([123.0, -77.0]) == 0
    # oracle agrees: unconstrained minimizer is -H^-1 F x
    z, active, _ = solve_qp_oracle(qp, [2.0, 1.0])
    assert active == ()
    assert z == pytest.approx(-np.linalg.solve(qp.H, qp.F @ np.array([2.0, 1.0])), abs=1e-9)


def test_spec_validation():
    with pytest.raises(ConfigError):
        MpcSpec(horizon=1, Q=[[1.0]], R=[[0.0]])            # R not PD
    with pytest.raises(ConfigError):
        MpcSpec(horizon=1, Q=[[-1.0]], R=[[1.0]])           # Q not PSD
    with pytest.raises(ConfigError):
        MpcSpec(horizon=0, Q=[[1.0]], R=[[1.0]])
    with pytest.raises(ConfigError):
        LtiSystem(A=[[1.0, 0.0]], B=[[1.0]])                # non-square A
    with pytest.raises(ConfigError):
        LtiSystem(A=[[np.inf]], B=[[1.0]])


def test_condense_rejects_indefinite_hessian():
    sys = LtiSystem(A=[[1.0]], B=[[1.0]])
    # R barely PD but Q=P=0 leaves H=R; shrink R below the SPD floor
    with pytest.raises(ConfigError):
        spec = MpcSpec(horizon=1, Q=[[0.0]], R=[[1.0]], U=box([-1.0], [1.0]))
        spec.R = np.array([[0.0]])  # bypass spec validation to hit condense's check
        condense(sys, spec)


# enumeration results for the double-integrator workbench problem,
# cross-checked against an independent implementation (scipy-based
# linprog enumeration produced the identical collection); order is
# lexicographic by active set
BENCH_ACTIVE_SETS = [
    (), (0,), (0, 2), (0, 2, 4), (0, 2, 4, 6), (0, 2, 4, 6, 8),
    (0, 2, 4, 7), (0, 2, 5), (0, 2, 5, 7), (0, 2, 7), (0, 3), (0, 3, 5),
    (0, 3, 5, 7), (0, 5), (0, 5, 7), (1,), (1, 2), (1, 2, 4),
    (1, 2, 4, 6), (1, 3), (1, 3, 4), (1, 3, 4, 6), (1, 3, 5),
    (1, 3, 5, 6), (1, 3, 5, 7), (1, 3, 5, 7, 9), (1, 3, 6), (1, 4),
    (1, 4, 6), (2,), (2, 4), (2, 4, 6), (2, 4, 6, 8, 10), (2, 4, 6, 10),
    (3,), (3, 5), (3, 5, 7), (3, 5, 7, 9, 12), (3, 5, 7, 12),
]


def test_benchmark_partition(bench_controller):
    ctl = bench_controller
    assert ctl.nregions == 39
    assert [r.active_set for r in ctl.regions] == BENCH_ACTIVE_SETS
    # region 0 is the empty active set, which goes through the same
    # candidate batch as every other size
    # region 0 carries the unconstrained LQR gain
    qp = condense(bench_system(), bench_spec())
    K_lqr = -(np.linalg.solve(qp.H, qp.F))[:1]
    assert ctl.regions[0].K == pytest.approx(K_lqr, abs=1e-12)
    assert ctl.regions[0].b == pytest.approx(np.zeros(1), abs=1e-15)
    radii = np.array([r.cheb_radius for r in ctl.regions])
    assert np.all(radii > 1e-9)
    assert np.all(np.isfinite(radii))


def test_benchmark_synthesis_funnel(bench_synthesis):
    """Pruning funnel of the benchmark synthesis, counts pinned: every
    one of the C(30, <=5) row subsets is either rank-deficient, killed by
    the box certificate, or costs one Chebyshev LP."""
    ctl, stats = bench_synthesis
    assert stats == {"candidates": 174437, "rank_fails": 114886,
                     "box_kills": 51088, "lp_calls": 8463, "empty": 8424,
                     "thin": 0, "merged": 0}
    assert stats["candidates"] == (stats["rank_fails"] + stats["box_kills"]
                                   + stats["lp_calls"])
    assert stats["lp_calls"] - stats["empty"] == ctl.nregions == 39
    assert [r.active_set for r in ctl.regions] == BENCH_ACTIVE_SETS


def test_benchmark_parameter_box():
    qp = condense(bench_system(), bench_spec())
    lo, hi = parameter_box(qp)
    assert lo == pytest.approx([-10.0, -5.5], abs=1e-7)
    assert hi == pytest.approx([10.0, 5.5], abs=1e-7)


def test_explicit_matches_implicit(bench_controller):
    """Dual-route exactness: the stored PWA law and a fresh active-set
    solve of the QP agree at random feasible states."""
    qp = condense(bench_system(), bench_spec())
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 80:
        x = rng.uniform([-11, -6], [11, 6])
        try:
            u_imp, z, _ = implicit_control(qp, x)
        except QpInfeasible:
            continue
        sigma = bench_controller.locate(x)
        assert sigma >= 0, f"feasible state {x} not covered by any region"
        u_exp, _ = bench_controller.evaluate(x)
        assert u_exp == pytest.approx(u_imp, abs=1e-8)
        checked += 1


def test_coverage_of_known_feasible_box(bench_controller):
    """Every state in a box verified feasible (by corners + convexity of
    the feasible set) must land in some region."""
    qp = condense(bench_system(), bench_spec())
    corners = [np.array([sx * 2.0, sv * 1.0]) for sx in (-1, 1) for sv in (-1, 1)]
    for c in corners:
        implicit_control(qp, c)  # raises if infeasible
    rng = np.random.default_rng(11)
    pts = rng.uniform([-2.0, -1.0], [2.0, 1.0], size=(2000, 2))
    hits = sum(bench_controller.locate(p) >= 0 for p in pts)
    assert hits / len(pts) >= 0.999


def test_implicit_solution_kkt_certified():
    qp = condense(bench_system(), bench_spec())
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 40:
        x = rng.uniform([-11, -6], [11, 6])
        try:
            z, lam, active = solve_qp(qp.H, qp.F @ x, qp.G, qp.h + qp.E @ x)
        except QpInfeasible:
            continue
        res = kkt_residuals(qp, x, z, lam)
        assert res["stationarity"] <= 1e-8
        assert res["primal"] <= 1e-8
        assert res["dual"] <= 1e-9
        assert res["complementarity"] <= 1e-7
        checked += 1


def test_infeasible_state_raises(bench_controller):
    qp = condense(bench_system(), bench_spec())
    with pytest.raises(QpInfeasible):
        implicit_control(qp, np.array([50.0, 50.0]))
    assert bench_controller.locate([50.0, 50.0]) == -1
    with pytest.raises(StateNotCovered):
        bench_controller.evaluate([50.0, 50.0])
    with pytest.raises(InvalidRegion):
        bench_controller.eval_region(39, [0.0, 0.0])
    with pytest.raises(InvalidRegion):
        bench_controller.eval_region(-1, [0.0, 0.0])


def test_state_not_covered_names_nearest_region(bench_controller):
    x = np.array([50.0, 50.0])
    viol = [np.max(r.poly.A @ x - r.poly.b) for r in bench_controller.regions]
    sigma = int(np.argmin(viol))
    row = int(np.argmax(bench_controller.regions[sigma].poly.A @ x
                        - bench_controller.regions[sigma].poly.b))
    with pytest.raises(StateNotCovered) as info:
        bench_controller.evaluate(x)
    text = str(info.value)
    assert text == (f"state [50.0, 50.0] lies in no region; nearest is "
                    f"region {sigma}, whose row {row} is violated by "
                    f"{viol[sigma]:.3e}")
    assert viol[sigma] > 0
    # the sensor raises the same error for the same state
    sensor = make_parties(bench_controller, "plaintext", RunConfig())[0]
    with pytest.raises(StateNotCovered, match=re.escape(text)):
        sensor.step(x, 0)


def test_eval_pwa_affine_form(bench_controller):
    x = np.array([0.3, -0.2])
    u, sigma = bench_controller.evaluate(x)
    reg = bench_controller.regions[sigma]
    assert u == pytest.approx(reg.K @ x + reg.b)
    assert bench_controller.eval_region(sigma, x) == pytest.approx(u)
    # x=0 returns the offset of whatever region holds the origin
    u0, s0 = bench_controller.evaluate([0.0, 0.0])
    assert u0 == pytest.approx(bench_controller.regions[s0].b)


def test_chebyshev_center_is_interior(bench_controller):
    for sigma, reg in enumerate(bench_controller.regions):
        assert bench_controller.locate(reg.cheb_center) == sigma or \
            bench_controller.locate(reg.cheb_center) < sigma  # earlier region may overlap only on facets
        slack = reg.poly.b - reg.poly.A @ reg.cheb_center
        norms = np.linalg.norm(reg.poly.A, axis=1)
        assert np.all(slack >= reg.cheb_radius * norms - 1e-7)


def test_serialization_roundtrip(bench_controller, tmp_path):
    path = tmp_path / "ctl.json"
    bench_controller.save(path)
    again = PwaController.load(path)
    assert again.nregions == bench_controller.nregions
    assert again.n == 2 and again.m == 1 and again.horizon == 5
    rng = np.random.default_rng(3)
    for _ in range(30):
        x = rng.uniform([-9, -5], [9, 5])
        s1 = bench_controller.locate(x)
        s2 = again.locate(x)
        assert s1 == s2
        if s1 >= 0:
            u1, _ = bench_controller.evaluate(x)
            u2, _ = again.evaluate(x)
            assert u1 == pytest.approx(u2, abs=0)  # exact: %.17g round-trips


def test_serialization_deterministic(bench_controller):
    a = bench_controller.to_json()
    b = PwaController.from_json(a).to_json()
    assert a == b
    json.loads(a)  # stays valid JSON


@settings(max_examples=40, deadline=None)
@given(x1=st.floats(min_value=-9.9, max_value=9.9),
       x2=st.floats(min_value=-5.4, max_value=5.4))
def test_pwa_law_continuous_near_boundaries(bench_controller, x1, x2):
    """The optimal law is continuous, so values from adjacent regions in
    a small neighbourhood stay close."""
    ctl = bench_controller
    x = np.array([x1, x2])
    s = ctl.locate(x)
    if s < 0:
        return
    u0, _ = ctl.evaluate(x)
    for dx in np.array([[1e-9, 0], [-1e-9, 0], [0, 1e-9], [0, -1e-9]]):
        s2 = ctl.locate(x + dx)
        if s2 >= 0:
            u2, _ = ctl.evaluate(x + dx)
            assert abs(u2 - u0).max() < 1e-6
