import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from encmpc import lp
from encmpc.config import DEFAULT_TOL, ConfigError, RunConfig
from encmpc.mpqp import (InvalidRegion, LtiSystem, MpcSpec, PwaController,
                         Region, StateNotCovered, condense, enumerate_regions,
                         synthesize)
from encmpc.polyhedra import Polyhedron, box, chebyshev_center
from encmpc.protocol import make_parties
from encmpc.qp import QpInfeasible, implicit_control, solve_qp, solve_qp_oracle
from test_qp import coupled_integrators, kkt_residuals


def scalar_problem():
    sys = LtiSystem(A=[[1.0]], B=[[1.0]])
    spec = MpcSpec(horizon=1, Q=[[1.0]], R=[[1.0]], U=box([-1.0], [1.0]))
    return sys, spec


def bench_system():
    return LtiSystem(A=[[1.0, 1.0], [0.0, 1.0]], B=[[0.5], [1.0]])


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


def test_scalar_explicit_law():
    ctl = synthesize(*scalar_problem())
    assert ctl.nregions == 3
    assert [r.active_set for r in ctl.regions] == [(), (0,), (1,)]
    # saturated region boundaries sit at |x| = 2
    for x in np.linspace(-6, 6, 121):
        u = ctl.eval_region(ctl.locate([x]), [x])
        assert u[0] == pytest.approx(np.clip(-x / 2, -1.0, 1.0), abs=1e-12)


def test_scalar_facet_tiebreak():
    # x = -2 lies on the facet between the LQR region (index 0) and the
    # upper-saturation region (index 1); the lowest index wins
    ctl = synthesize(*scalar_problem())
    assert ctl.locate([-2.0]) == 0
    assert ctl.locate([2.0]) == 0
    assert ctl.locate([-2.0000001]) == 1
    assert ctl.locate([0.3]) == 0


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


@pytest.mark.parametrize("system, spec", [
    (bench_system(), MpcSpec(horizon=3, Q=np.eye(2), R=[[1.0]])),
    scalar_problem(),
], ids=["unconstrained", "u-only-scalar"])
def test_absent_set_is_a_set_with_no_rows(system, spec):
    """An absent U or X condenses to the bytes of a box with no finite
    bound, which has no rows."""
    open_u = box([-np.inf] * system.m, [np.inf] * system.m)
    open_x = box([-np.inf] * system.n, [np.inf] * system.n)
    got = condense(system, spec)
    want = condense(system, dataclasses.replace(
        spec, U=open_u if spec.U is None else spec.U,
        X=open_x if spec.X is None else spec.X))
    assert open_u.nrows == open_x.nrows == 0
    for name in ("H", "F", "G", "E", "h"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def test_zero_state_weight_single_region():
    # with Q = P = 0 the optimum is u = 0 everywhere: every region row
    # degenerates to the neutralized 0 <= 1, which is no facet to cross
    stats = {}
    ctl = synthesize(LtiSystem(A=[[1.0]], B=[[1.0]]),
                     MpcSpec(horizon=2, Q=[[0.0]], R=[[1.0]],
                             U=box([-1.0], [1.0])), stats=stats)
    assert [r.active_set for r in ctl.regions] == [()]
    assert ctl.regions[0].poly.A.tolist() == [[0.0]]
    assert ctl.regions[0].cheb_radius == np.inf
    assert stats["candidates"] == 1 and stats["oracle_steps"] == 0


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
    # the spec passes its own floors (R PD above 1e-10, Q PSD within -1e-10),
    # but H = Q + R = 5e-11 is below the SPD floor: condense's own check
    spec = MpcSpec(horizon=1, Q=[[-1e-10]], R=[[1.5e-10]], U=box([-1.0], [1.0]))
    with pytest.raises(ConfigError, match="condensed Hessian is not positive definite"):
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
    # region 0 is the empty active set and carries the unconstrained LQR gain
    qp = condense(bench_system(), bench_spec())
    K_lqr = -(np.linalg.solve(qp.H, qp.F))[:1]
    assert ctl.regions[0].K == pytest.approx(K_lqr, abs=1e-12)
    assert ctl.regions[0].b == pytest.approx(np.zeros(1), abs=1e-15)
    radii = np.array([r.cheb_radius for r in ctl.regions])
    assert np.all(radii > 1e-9)
    assert np.all(np.isfinite(radii))


def test_benchmark_synthesis_funnel(bench_synthesis):
    """Pruning funnel of the benchmark synthesis, counts pinned: every
    active set the facet crossing tries either fails LICQ, dies on a
    dead row, or costs one Chebyshev LP; every facet whose crossed set
    gives no region is settled by the oracle, here 30 of them on the
    feasible set's boundary. The 6 candidates with more rows than the
    5 variables fail LICQ on their row count, under every kernel, so no
    LP finds an empty region. Of the regions' rows, rays certify 153
    facets and the bounding boxes 748 redundant rows, so 179 are left to
    per-row LPs: 335 redundancy LPs with the 156 box LPs."""
    ctl, stats = bench_synthesis
    assert stats == {"candidates": 71, "rank_fails": 32, "dead_kills": 0,
                     "lp_calls": 39, "empty": 0, "thin": 0, "merged": 0,
                     "oracle_steps": 8, "boundary_facets": 30,
                     "unresolved": 0, "redundancy_lps": 335,
                     "rows_duplicate": 206, "rows_ray": 153, "rows_box": 748,
                     "rows_lp": 179}
    assert stats["candidates"] == (stats["rank_fails"] + stats["dead_kills"]
                                   + stats["lp_calls"])
    assert stats["lp_calls"] - stats["empty"] == ctl.nregions == 39
    assert [r.active_set for r in ctl.regions] == BENCH_ACTIVE_SETS


def test_everywhere_infeasible_constraints_raise():
    # the state set asks for x_1 <= 2 and x_1 >= 3 at once, so no
    # state admits a feasible input
    sys = LtiSystem(A=[[1.0]], B=[[1.0]])
    spec = MpcSpec(horizon=1, Q=[[1.0]], R=[[1.0]], U=box([-1.0], [1.0]),
                   X=Polyhedron([[1.0], [-1.0]], [2.0, -3.0]))
    with pytest.raises(ConfigError, match="infeasible for every state"):
        synthesize(sys, spec)


# the benchmark plant at horizon 3 with the input bound u <= 1 given
# twice, once scaled as 2u <= 2: rows 3k and 3k + 2 of the condensed QP
# describe the same constraint, so crossing a facet can land on a
# rank-deficient or lower-dimensional active set; these 17 sets are what
# exhaustive enumeration kept (the smallest set of each region and law)
DUPLICATE_ROW_ACTIVE_SETS = [
    (), (0,), (0, 3), (0, 3, 6), (0, 4), (0, 4, 7), (1,), (1, 3),
    (1, 3, 6), (1, 4), (1, 4, 7), (3,), (3, 6), (3, 6, 9), (4,), (4, 7),
    (4, 7, 11),
]


def duplicate_row_spec():
    return MpcSpec(horizon=3, Q=np.diag([1.0, 0.1]), R=[[0.5]],
                   U=Polyhedron([[1.0], [-1.0], [2.0]], [1.0, 1.0, 2.0]),
                   X=box([-5.0, -5.0], [5.0, 5.0]))


def test_duplicate_input_row_partition():
    stats = {}
    ctl = synthesize(bench_system(), duplicate_row_spec(), stats=stats)
    assert [r.active_set for r in ctl.regions] == DUPLICATE_ROW_ACTIVE_SETS
    assert stats["merged"] > 0
    assert ctl.nregions == (stats["lp_calls"] - stats["empty"] - stats["thin"]
                            - stats["merged"])


def random_plant(seed):
    rng = np.random.default_rng(seed)
    sys = LtiSystem(A=rng.normal(size=(2, 2)), B=rng.normal(size=(2, 1)))
    spec = MpcSpec(horizon=3, Q=np.eye(2), R=[[1.0]], U=box([-1.0], [1.0]),
                   X=box([-5.0, -5.0], [5.0, 5.0]))
    return sys, spec


def oracle_feasible_samples(qp, seed, count, lo, hi):
    """(x, u) at seeded uniform states where the implicit controller is feasible."""
    rng = np.random.default_rng(seed)
    out = []
    for x in rng.uniform(lo, hi, size=(count, len(lo))):
        try:
            out.append((x, implicit_control(qp, x)[0]))
        except QpInfeasible:
            continue
    return out


def assert_covers(ctl, samples, tol):
    for x, u in samples:
        sigma = ctl.locate(x)
        assert sigma >= 0, f"oracle-feasible state {x} not covered"
        assert ctl.eval_region(sigma, x) == pytest.approx(u, abs=tol)


# active sets of the parent's exhaustive enumeration for seeded random
# plants: plain crossing finds 11 of seed 24's 15 regions, and on seeds 4
# and 40 the oracle once cycled to max_iter just past a facet; seeds 4
# and 40 also have near-singular active sets logged as unresolved
RANDOM_PLANT_ACTIVE_SETS = {
    24: [(), (0,), (0, 2), (0, 2, 17), (0, 13), (1,), (1, 3), (1, 3, 15),
         (1, 11), (2, 9), (3, 7), (7,), (7, 11), (9,), (9, 13)],
    4: [(), (0,), (0, 11), (1,), (1, 13), (7,), (9,)],
    40: [(), (0,), (0, 2), (0, 2, 4), (0, 3), (0, 3, 4), (0, 3, 14), (0, 4),
         (1,), (1, 2), (1, 2, 5), (1, 2, 16), (1, 3), (1, 3, 5), (1, 5), (2,),
         (2, 11), (3,), (3, 13)],
}


@pytest.mark.parametrize("seed", sorted(RANDOM_PLANT_ACTIVE_SETS))
def test_random_plant_partition(seed):
    """Stepping across the facets whose crossed set gives no region finds
    every region exhaustive enumeration found, and they cover."""
    sys, spec = random_plant(seed)
    stats = {}
    ctl = synthesize(sys, spec, stats=stats)
    assert stats["oracle_steps"] > 0
    assert [r.active_set for r in ctl.regions] == RANDOM_PLANT_ACTIVE_SETS[seed]
    samples = oracle_feasible_samples(condense(sys, spec), 0, 300,
                                      [-6.0, -6.0], [6.0, 6.0])
    assert len(samples) > 100
    assert_covers(ctl, samples, 1e-9)


def test_singular_simplex_basis_raises_lp_error(monkeypatch):
    """A Chebyshev LP that ends on a singular basis, forced under every
    kernel by a basis solve that raises as numpy's does on a singular
    matrix (synthesis solves nothing before its first LP): the simplex
    names it as LpError instead of letting numpy's LinAlgError escape."""
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(lp.LpError, match="singular simplex basis"):
        synthesize(*random_plant(176))


def test_coupled_integrators_synthesize_at_horizon_2():
    """The 4-state, 2-input plant at horizon 2 (nz = 4): an active set of
    5 or more rows once passed LICQ and its Chebyshev LP ended on a
    singular basis, an LpError.  Refused on its row count, it no longer
    costs an LP, and the 141 regions cover the oracle-feasible states."""
    qp = coupled_integrators(2)
    stats = {}
    ctl = PwaController(regions=enumerate_regions(qp, stats=stats), n=4, m=2,
                        horizon=2)
    assert ctl.nregions == stats["lp_calls"] == 141 and stats["empty"] == 0
    samples = oracle_feasible_samples(qp, 0, 300, [-5.0] * 4, [5.0] * 4)
    assert len(samples) > 100
    assert_covers(ctl, samples, 1e-9)


@pytest.mark.parametrize("seed, x", [
    (4, [-25.164025697570253, 55.93767824747539]),
    (40, [-0.14839979026932965, 4.332435904050954]),
])
def test_oracle_stops_after_full_step(seed, x):
    """Just past a facet of these plants the working-set KKT system is so
    ill-conditioned that after the full step to its minimizer the next
    solve still gives |d| ~ 3e-11, above the 1e-11 stop; the solver
    must check multipliers there instead of stepping until max_iter."""
    qp = condense(*random_plant(seed))
    z, _, lam = solve_qp_oracle(qp, x)
    res = kkt_residuals(qp, np.array(x), z, lam)
    assert res["primal"] <= 1e-9 and res["dual"] <= 1e-9
    assert res["stationarity"] <= 1e-8 * max(1.0, np.abs(lam).max())


def facet_segment(A, b, row):
    """End points of facet `row` of the bounded 2-D polygon {x : Ax <= b}."""
    a = A[row]
    x0 = a * b[row] / (a @ a)
    d = np.array([-a[1], a[0]]) / np.linalg.norm(a)
    others = np.arange(len(b)) != row
    rate = A[others] @ d
    room = b[others] - A[others] @ x0
    t_hi = min(room[rate > 1e-12] / rate[rate > 1e-12])
    t_lo = max(room[rate < -1e-12] / rate[rate < -1e-12])
    assert t_hi - t_lo > 1e-9, "irredundant row is no facet"
    return np.array([x0 + t_lo * d, x0 + t_hi * d])


def certify_partition(ctl, qp):
    """Each facet is the same facet of exactly one other region, or lies on
    the feasible set's boundary (the oracle is infeasible just outside
    its midpoint); touching regions are interior-disjoint. Returns the
    adjacent pairs."""
    unit = []
    for reg in ctl.regions:
        norms = np.linalg.norm(reg.poly.A, axis=1)
        unit.append((reg.poly.A / norms[:, None], reg.poly.b / norms))
    pairs = set()
    for s, (A, b) in enumerate(unit):
        for row in range(len(b)):
            ends = facet_segment(A, b, row)
            sharing = []
            for t, (A2, b2) in enumerate(unit):
                opposite = np.flatnonzero(
                    (np.abs(A2 + A[row]).max(axis=1) < 1e-7)
                    & (np.abs(b2 + b[row]) < 1e-7))
                for r2 in opposite:
                    e2 = facet_segment(A2, b2, r2)
                    if (np.allclose(e2, ends, atol=1e-7)
                            or np.allclose(e2[::-1], ends, atol=1e-7)):
                        sharing.append(t)
            if sharing:
                assert len(sharing) == 1, f"region {s} row {row}: {sharing}"
                pairs.add((min(s, sharing[0]), max(s, sharing[0])))
            else:
                with pytest.raises(QpInfeasible):
                    implicit_control(qp, ends.mean(axis=0) + 1e-6 * A[row])
    for s, t in pairs:
        P, Q = ctl.regions[s].poly, ctl.regions[t].poly
        _, radius = chebyshev_center(np.vstack([P.A, Q.A]),
                                     np.concatenate([P.b, Q.b]))
        assert radius <= 1e-9, f"regions {s} and {t} overlap"
    return pairs


@pytest.fixture(scope="module")
def horizon10():
    spec = dataclasses.replace(bench_spec(), horizon=10)
    return synthesize(bench_system(), spec), condense(bench_system(), spec)


def test_benchmark_partition_certificate(bench_controller):
    qp = condense(bench_system(), bench_spec())
    pairs = certify_partition(bench_controller, qp)
    assert len(pairs) >= bench_controller.nregions - 1
    samples = oracle_feasible_samples(qp, 5, 600, [-11.0, -6.0], [11.0, 6.0])
    assert len(samples) > 150
    assert_covers(bench_controller, samples, 1e-9)


def test_horizon10_partition_certificate(horizon10):
    ctl, qp = horizon10
    assert ctl.horizon == 10 and ctl.nregions == 87
    pairs = certify_partition(ctl, qp)
    assert len(pairs) >= ctl.nregions - 1
    samples = oracle_feasible_samples(qp, 5, 600, [-11.0, -6.0], [11.0, 6.0])
    assert len(samples) > 150
    assert_covers(ctl, samples, 1e-9)


def pinned_problem(name):
    """(system, spec) of a synthesis problem whose controller is pinned."""
    if name == "benchmark":
        return bench_system(), bench_spec()
    if name == "horizon10":
        return bench_system(), dataclasses.replace(bench_spec(), horizon=10)
    if name == "duplicate_row":
        return bench_system(), duplicate_row_spec()
    return random_plant(int(name.removeprefix("random")))


# SHA-256 of controller.json text (to_json()) for every problem the tests
# synthesize and certify, recorded with one LP per row in redundancy
# elimination
CONTROLLER_SHA256 = {
    "benchmark": "b966458d1dfc710333a84cdc67947dd7a6c13c2b70a242d102f4fea8065f9311",
    "horizon10": "c4eae2c9a0110e4bc8796bfff97bbba095bebb25d7c61e1f5217b80e683fcf79",
    "duplicate_row": "0cad3fc80d61f93a24370138491947e30814bbae1a15c0fb24db9023214340cf",
    "random4": "c04ca34d9e356da44c5e64960d544f94ecb4b7c75a743d4ae90432225931406d",
    "random24": "73787d688efc8f050f576f2616953d8987f222180e079e7e332434b782af7be0",
    "random40": "aeedff07cfbc936eacfebe47631db8438fa92ec1c982572c7c1e6a1bafff0708",
}


@pytest.mark.parametrize("name", list(CONTROLLER_SHA256))
def test_controller_json_pinned(name, bench_controller, horizon10):
    """Every row, gain and Chebyshev center of these controllers, to the
    last bit of its %.17g text."""
    if name == "benchmark":
        ctl = bench_controller
    elif name == "horizon10":
        ctl = horizon10[0]
    else:
        ctl = synthesize(*pinned_problem(name))
    digest = hashlib.sha256(ctl.to_json().encode()).hexdigest()
    assert digest == CONTROLLER_SHA256[name]


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
        u_exp = bench_controller.eval_region(sigma, x)
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
            z, lam, active = solve_qp(qp, qp.F @ x, qp.h + qp.E @ x)
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
    with pytest.raises(InvalidRegion):
        bench_controller.eval_region(39, [0.0, 0.0])
    with pytest.raises(InvalidRegion):
        bench_controller.eval_region(-1, [0.0, 0.0])
    # a state of other than n values is refused, never truncated
    for x in ([0.5], [0.5, 0.5, 0.5]):
        with pytest.raises(ValueError):
            bench_controller.eval_region(0, x)


def test_state_not_covered_names_nearest_region(bench_controller):
    x = np.array([50.0, 50.0])
    viol = [np.max(r.poly.A @ x - r.poly.b) for r in bench_controller.regions]
    sigma = int(np.argmin(viol))
    row = int(np.argmax(bench_controller.regions[sigma].poly.A @ x
                        - bench_controller.regions[sigma].poly.b))
    assert bench_controller.locate(x) == -1
    text = str(bench_controller.not_covered(x))
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
    sigma = bench_controller.locate(x)
    reg = bench_controller.regions[sigma]
    assert bench_controller.eval_region(sigma, x) == pytest.approx(reg.K @ x + reg.b)
    # x=0 returns the offset of whatever region holds the origin
    s0 = bench_controller.locate([0.0, 0.0])
    assert bench_controller.eval_region(s0, [0.0, 0.0]) == pytest.approx(
        bench_controller.regions[s0].b)


def test_chebyshev_center_is_interior(bench_controller):
    for sigma, reg in enumerate(bench_controller.regions):
        assert bench_controller.locate(reg.cheb_center) == sigma
        slack = reg.poly.b - reg.poly.A @ reg.cheb_center
        norms = np.linalg.norm(reg.poly.A, axis=1)
        assert np.all(slack >= reg.cheb_radius * norms - 1e-7)


def scan_locate(ctl, x):
    """Reference point location: the first region, in stored order, none
    of whose rows has slack above the feasibility tolerance; a
    non-finite state lies in no region."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if not np.isfinite(x).all():
        return -1
    for sigma, reg in enumerate(ctl.regions):
        if np.all(reg.poly.A @ x - reg.poly.b <= DEFAULT_TOL.feasibility):
            return sigma
    return -1


def facet_feet(ctl):
    """Projection of each region's Chebyshev center onto each of its
    facets: points on shared facets, where the lowest index must win."""
    for reg in ctl.regions:
        c = reg.cheb_center
        for a, b in zip(reg.poly.A, reg.poly.b):
            if a.any():
                yield c + (b - a @ c) / (a @ a) * a


def assert_locates_like_scan(ctl, states):
    sigmas = [ctl.locate(x) for x in states]
    assert sigmas == [scan_locate(ctl, x) for x in states]
    return sigmas


@pytest.mark.parametrize("which", ["benchmark", "horizon10", 4, 24, 40])
def test_locate_matches_scan(which, bench_controller, horizon10):
    """Seeded box states and the facet foot points of every region locate
    to the region the first-hit scan names, and each Chebyshev center
    to its own region."""
    if which == "benchmark":
        ctl, lo, hi = bench_controller, [-11.0, -6.0], [11.0, 6.0]
    elif which == "horizon10":
        ctl, lo, hi = horizon10[0], [-11.0, -6.0], [11.0, 6.0]
    else:
        ctl, lo, hi = synthesize(*random_plant(which)), [-6.0, -6.0], [6.0, 6.0]
    rng = np.random.default_rng(17)
    feet = list(facet_feet(ctl))
    assert_locates_like_scan(ctl, list(rng.uniform(lo, hi, size=(1500, 2))) + feet)
    centers = [r.cheb_center for r in ctl.regions]
    assert assert_locates_like_scan(ctl, centers) == list(range(ctl.nregions))


def zero_row_controller(at):
    """Two unit boxes side by side, with a region of no rows (it holds
    every finite state) inserted at index `at`; with `at` None, that
    region alone."""
    def region(poly):
        return Region(active_set=(), poly=poly, K=np.zeros((1, 2)),
                      b=np.zeros(1), cheb_center=np.zeros(2), cheb_radius=1.0)
    free = region(box([-np.inf] * 2, [np.inf] * 2))
    assert free.poly.nrows == 0
    if at is None:
        return PwaController(regions=[free], n=2, m=1, horizon=1)
    regions = [region(box([-1.0, 0.0], [0.0, 1.0])),
               region(box([0.0, 0.0], [1.0, 1.0]))]
    regions.insert(at, free)
    return PwaController(regions=regions, n=2, m=1, horizon=1)


@pytest.mark.parametrize("at, expect", [(0, [0, 0, 0, 0, -1]),
                                        (1, [0, 0, 1, 1, -1]),
                                        (2, [0, 0, 1, 2, -1]),
                                        pytest.param(None, [0, 0, 0, 0, -1], id="alone")])
def test_locate_zero_row_region(at, expect):
    """A region of no rows holds every finite state (it is stacked as the
    neutral row 0'x <= 1), a NaN state none."""
    ctl = zero_row_controller(at)
    states = [[-0.5, 0.5], [0.0, 0.5], [0.5, 0.5], [3.0, 3.0], [np.nan, 0.0]]
    assert assert_locates_like_scan(ctl, states) == expect
    assert str(ctl.not_covered(states[-1])).startswith("state [nan, 0.0] lies in no region")


def test_locate_without_regions():
    ctl = PwaController(regions=[], n=2, m=1, horizon=1)
    assert ctl.gain_rows == ctl.offset_rows == ()
    assert ctl.locate([0.0, 0.0]) == -1
    assert str(ctl.not_covered([0.0, 0.0])) == "state [0.0, 0.0] lies in no region"


def reload(ctl, tmp_path):
    """The controller read back by PwaController.load from its to_json."""
    path = tmp_path / "controller.json"
    path.write_text(ctl.to_json(), encoding="utf-8")
    return PwaController.load(path)


def test_meta_is_a_read_only_copy(bench_controller, tmp_path):
    """meta is copied read-only at construction, nested objects and
    arrays too; replace, to_json and load carry it unchanged."""
    meta = {"note": {"by": ["synthesize"]}, "step": 1}
    ctl = dataclasses.replace(bench_controller, meta=meta)
    meta["note"]["by"].append("caller")
    for write in (lambda: ctl.meta.__setitem__("note", 1),
                  lambda: ctl.meta["note"].__setitem__("by", 1),
                  lambda: ctl.meta["note"]["by"].append("x")):
        with pytest.raises((TypeError, AttributeError)):
            write()
    assert ctl.meta == {"note": {"by": ("synthesize",)}, "step": 1}
    text = ctl.to_json()
    assert '"note": {\n      "by": ["synthesize"]\n    },\n    "step": 1' in text
    assert reload(ctl, tmp_path).to_json() == text
    assert dataclasses.replace(ctl, horizon=7).meta == ctl.meta
    assert dataclasses.replace(ctl, meta={}).to_json() == bench_controller.to_json()


@pytest.mark.parametrize("change, named", [
    ({"K": np.zeros((1, 3))}, "K has shape (1, 3)"),
    ({"K": np.zeros(2)}, "K has shape (2,)"),
    ({"b": np.zeros(2)}, "b (2,)"),
    ({"poly": box([-1.0] * 3, [1.0] * 3)}, "its rows 3 columns"),
    ({"active_set": (4, 2)}, "active_set must be strictly increasing"),
    ({"active_set": (1, 1)}, "active_set must be strictly increasing"),
    ({"active_set": (0.0,)}, "active_set must be strictly increasing"),
    ({"cheb_center": np.zeros(3)}, "cheb_center (3,)"),
], ids=["wide-gain", "flat-gain", "long-offset", "wide-rows", "unsorted-set",
        "repeated-row", "float-row", "long-center"])
def test_controller_refuses_misshapen_region(change, named):
    """Every region's K is m x n, its b and its Chebyshev center have m
    and n entries, its rows have n columns and its active set is a tuple
    of strictly increasing row indices; anything else is a ConfigError
    that names the region."""
    regions = list(zero_row_controller(1).regions)
    regions[2] = dataclasses.replace(regions[2], **change)
    with pytest.raises(ConfigError, match=r"region 2: .*" + re.escape(named)):
        PwaController(regions=regions, n=2, m=1, horizon=1)


# inf * 0 in the slack product warns, as the per-region product did
@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
@pytest.mark.parametrize("x", [[np.nan, 0.0], [0.0, np.nan], [np.inf, 0.0],
                               [-np.inf, 0.0], [0.0, np.inf], [np.inf, -np.inf]])
def test_non_finite_state_not_covered(bench_controller, x):
    """A non-finite state lies in no region, and its fault names none:
    it says the state is not finite, and never forms the slack product
    (inf * 0 there would raise under errstate; at the parent, a NaN
    slack made np.argmin name region 0 as the nearest)."""
    assert bench_controller.locate(x) == -1
    assert scan_locate(bench_controller, x) == -1
    text = f"state {x} lies in no region: it is not finite"
    with np.errstate(all="raise"):
        assert str(bench_controller.not_covered(x)) == text
    sensor = make_parties(bench_controller, "plaintext", RunConfig())[0]
    with pytest.raises(StateNotCovered, match=re.escape(text)):
        sensor.step(np.array(x), 0)


def test_stacked_rows_stay_out_of_json(bench_controller, tmp_path):
    """The law's rows are each region's own, in region order, and a JSON
    round trip rebuilds them from the regions alone."""
    ctl = bench_controller
    assert len(ctl.gain_rows) == len(ctl.offset_rows) == ctl.nregions
    for K, b, r in zip(ctl.gain_rows, ctl.offset_rows, ctl.regions):
        assert np.array(K).tobytes() == r.K.tobytes()
        assert np.array(b).tobytes() == r.b.tobytes()
    text = ctl.to_json()
    assert not any(name in text for name in ("gain_rows", "offset_rows", "stack"))
    again = reload(ctl, tmp_path)
    # equal values; JSON writes -0.0 as 0
    assert again.gain_rows == ctl.gain_rows and again.offset_rows == ctl.offset_rows


def test_serialization_roundtrip(bench_controller, tmp_path):
    path = tmp_path / "ctl.json"
    path.write_text(bench_controller.to_json() + "\n", encoding="utf-8")
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
            u1 = bench_controller.eval_region(s1, x)
            u2 = again.eval_region(s2, x)
            assert u1 == pytest.approx(u2, abs=0)  # exact: %.17g round-trips


def test_serialization_deterministic(bench_controller, tmp_path):
    a = bench_controller.to_json()
    b = reload(bench_controller, tmp_path).to_json()
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
    u0 = ctl.eval_region(s, x)
    for dx in np.array([[1e-9, 0], [-1e-9, 0], [0, 1e-9], [0, -1e-9]]):
        s2 = ctl.locate(x + dx)
        if s2 >= 0:
            u2 = ctl.eval_region(s2, x + dx)
            assert abs(u2 - u0).max() < 1e-6
