"""Closed-loop benchmark runs: exactness, constraints, faults, determinism."""

import contextlib
import dataclasses
import hashlib
import io
import json
import pathlib
import re

import numpy as np
import pytest

from encmpc import simulation
from encmpc.attack import probe_dither
from encmpc.config import ConfigError, RunConfig, from_dict
from encmpc.mpqp import LtiSystem, StateNotCovered, condense
from encmpc.paillier import FixedPointOverflow
from encmpc.polyhedra import Polyhedron
from encmpc.protocol import CycleMetrics, make_parties, run_cycle
from encmpc.qe_cipher import CiphertextError, MagnitudeError, RangeError
from encmpc.simulation import (
    Scenario,
    StepRecord,
    Trajectory,
    attack_scenario,
    benchmark_scenario,
    episode_steps,
    input_mismatch,
    load_scenario,
    run_closed_loop,
    step_plant,
    tracking_rmse,
    trajectory_csv,
)


def scenario_to_dict(sc):
    """The JSON object form of a scenario: one key per Scenario field."""
    out = {}
    for f in dataclasses.fields(sc):
        val = getattr(sc, f.name)
        out[f.name] = val.tolist() if isinstance(val, np.ndarray) else val
    return out


def test_step_plant_examples():
    sc = benchmark_scenario()
    sys = sc.system()
    assert np.allclose(step_plant(sys, [0.0, 1.0], [0.0]), [1.0, 1.0])

    ident = LtiSystem(np.eye(2), [[0.5], [1.0]])
    assert np.allclose(step_plant(ident, [3.0, -2.0], [0.0]), [3.0, -2.0])

    rng = np.random.default_rng(0)
    x1, x2 = rng.normal(size=2), rng.normal(size=2)
    u1, u2 = rng.normal(size=1), rng.normal(size=1)
    lhs = step_plant(sys, x1 + x2, u1 + u2)
    rhs = step_plant(sys, x1, u1) + step_plant(sys, x2, u2) - step_plant(sys, [0, 0], [0])
    assert np.allclose(lhs, rhs)


def test_steady_state_shift():
    sc = benchmark_scenario()
    x_ss, u_ss = sc.steady_state(1.5)
    assert np.allclose(x_ss, [1.5, 0.0])
    assert np.allclose(u_ss, [0.0])
    # a reference of 0 is the only one this output's steady state reaches
    bad = dataclasses.replace(benchmark_scenario(), C_out=[[0.0, 1.0]],
                              r_steps=((0, 0.0),))
    with pytest.raises(ConfigError):
        bad.steady_state(1.0)  # no equilibrium holds x2 at a nonzero value


def test_closed_loop_settles_before_its_first_cycle(bench_controller, monkeypatch):
    """The parties and every reference's steady state are built before
    step 0: a reference that no steady state reaches is refused when the
    scenario is built, and, when the step-20 reference's steady state
    fails in the loop, by the loop with no cycle run, as is a dither
    shorter than the episode.  The loop's backend is the config's."""
    with pytest.raises(ConfigError, match=r"no steady state for reference \[1.5\]"):
        dataclasses.replace(benchmark_scenario(), C_out=[[0.0, 1.0]])
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return run_cycle(*args, **kwargs)

    def unsettled(self, r):
        if r[0] == 1.5:
            raise ConfigError(f"no steady state for reference {r}")
        return settle(self, r)

    settle = Scenario.steady_state
    sc = benchmark_scenario()
    monkeypatch.setattr(simulation, "run_cycle", spy)
    with monkeypatch.context() as patch:
        patch.setattr(Scenario, "steady_state", unsettled)
        with pytest.raises(ConfigError, match=r"no steady state for reference \[1.5\]"):
            run_closed_loop(sc, RunConfig(backend="plaintext"), controller=bench_controller)
    with pytest.raises(ValueError, match="dither has 4 rows for 60 steps"):
        run_closed_loop(sc, RunConfig(backend="plaintext"), controller=bench_controller,
                        dither=np.zeros((4, 1)))
    assert calls == []
    traj = run_closed_loop(benchmark_scenario(), RunConfig(backend="plaintext", steps=2),
                           controller=bench_controller)
    assert traj.backend == "plaintext" and len(calls) == 2
    assert {args[1].backend for args in calls} == {"plaintext"}


def reference_closed_loop(scenario, cfg, controller, log=None, dither=None):
    """The closed loop step by step: each step's reference by
    scenario.reference(k) and its steady state, u_plain by eval_region
    and the plant by step_plant, both given lists, and the inputs as
    numpy sums, one step at a time."""
    sensor, cloud, actuator = make_parties(controller, cfg.backend, cfg)
    traj = Trajectory(backend=cfg.backend)
    x = scenario.x0
    for k in range(episode_steps(scenario, cfg)):
        r = scenario.reference(k)
        x_ss, u_ss = scenario.steady_state(r)
        x_shift = x - x_ss
        try:
            u_tilde, metrics = run_cycle(x_shift, sensor, cloud, actuator, k, log=log)
            u_plain_tilde = controller.eval_region(metrics.sigma, x_shift.tolist())
        except (StateNotCovered, RangeError, MagnitudeError,
                CiphertextError, FixedPointOverflow) as exc:
            traj.fault = f"{type(exc).__name__}: {exc}"
            traj.fault_k = k
            break
        u = u_tilde + u_ss
        u_plain = u_plain_tilde + u_ss
        if dither is not None:
            u = u + dither[k]
            u_plain = u_plain + dither[k]
        traj.records.append(StepRecord(k=k, x=x, u=u, u_plain=u_plain,
                                       y=scenario.C_out @ x, r=r, cycle=metrics))
        x = step_plant(scenario, x.tolist(), u.tolist())
    return traj


def record_bits(rec):
    """A step record as bytes and exact values; wall times are left out."""
    arrays = (rec.x, rec.u, rec.u_plain, rec.y, rec.r)
    return (rec.k, [(a.dtype.str, a.shape, a.tobytes()) for a in arrays],
            rec.cycle.sigma, dict(rec.cycle.counts), rec.cycle.payload_bits)


@pytest.fixture(scope="module")
def stepped_probe():
    """The attack-probe plant at horizon 2 with a stepped reference, whose
    steady inputs are not 0, and its controller."""
    sc = dataclasses.replace(attack_scenario(), horizon=2, T=8,
                             r_steps=((0, 0.0), (3, 0.3), (5, -0.7)))
    return sc, sc.synthesize_controller()


@pytest.mark.parametrize("dither", ["none", "probe", "faulting"])
@pytest.mark.parametrize("backend", ["plaintext", "qe", "qe_quantized", "paillier"])
def test_closed_loop_matches_reference_loop(stepped_probe, backend, dither):
    """run_closed_loop's records, tap and fault equal the step-by-step
    loop's bit for bit, under every backend, through two reference
    changes and, Paillier aside, past the scenario's T; a dither of 3
    pushes the state out of the partition at step 6, and that fault is
    the same."""
    sc, ctl = stepped_probe
    cfg = RunConfig(backend=backend, key_bits=256,
                    steps=7 if backend == "paillier" else 12)
    steps = episode_steps(sc, cfg)
    pushes = {"none": None, "probe": probe_dither(steps, 1, 7),
              "faulting": np.full((steps, 1), 3.0)}
    logs = [], []
    want = reference_closed_loop(sc, cfg, ctl, log=logs[0], dither=pushes[dither])
    got = run_closed_loop(sc, cfg, ctl, log=logs[1], dither=pushes[dither])
    assert (got.backend, got.fault, got.fault_k) == (want.backend, want.fault,
                                                      want.fault_k)
    assert [record_bits(rec) for rec in got.records] == [
        record_bits(rec) for rec in want.records]
    assert logs[1] == logs[0]
    if dither == "faulting":
        assert got.fault.startswith("StateNotCovered") and got.fault_k == 6
    else:
        assert not got.fault and len(got.records) == steps


def test_closed_loop_refuses_parties_of_another_backend(bench_controller, monkeypatch):
    """Parties handed to a loop must be of its config's backend; others
    are refused before any cycle, and the loop's own are not built."""
    calls = []
    monkeypatch.setattr(simulation, "run_cycle", lambda *args, **kw: calls.append(args))
    monkeypatch.setattr(simulation, "make_parties", lambda *args: calls.append(args))
    qe = make_parties(bench_controller, "qe", RunConfig())
    for parties in (qe, qe[:2] + make_parties(bench_controller, "plaintext",
                                              RunConfig())[2:]):
        with pytest.raises(ValueError, match="handed to a plaintext loop"):
            run_closed_loop(benchmark_scenario(), RunConfig(backend="plaintext"),
                            bench_controller, parties=parties)
    assert calls == []


def test_qe_closed_loop_exact(bench_controller):
    sc = benchmark_scenario()
    traj = run_closed_loop(sc, RunConfig(backend="qe"), controller=bench_controller)
    assert len(traj.records) == 60 and not traj.fault
    mean, mx = input_mismatch(traj)
    assert mean <= 1e-10
    assert mx <= 1e-9
    for rec in traj.records:
        assert np.all(np.abs(rec.u) <= 1.0 + 1e-9)
        assert np.all(np.abs(rec.x) <= 5.0 + 1e-9)


def test_plaintext_mismatch_is_zero(bench_controller):
    sc = benchmark_scenario()
    traj = run_closed_loop(sc, RunConfig(backend="plaintext"), controller=bench_controller)
    assert input_mismatch(traj) == (0.0, 0.0)


def test_origin_equilibrium(bench_controller):
    sc = dataclasses.replace(benchmark_scenario(), x0=[0.0, 0.0], r_steps=((0, 0.0),))
    traj = run_closed_loop(sc, RunConfig(backend="qe", steps=10),
                           controller=bench_controller)
    for rec in traj.records:
        assert np.abs(rec.u).max() <= 1e-9
        assert np.abs(rec.x).max() <= 1e-8


def test_paillier_closed_loop_within_budget(bench_controller):
    sc = benchmark_scenario()
    cfg = RunConfig(backend="paillier", key_bits=256)
    traj = run_closed_loop(sc, cfg, controller=bench_controller)
    assert len(traj.records) == 60 and not traj.fault
    K_max = max(abs(r.K).max() for r in bench_controller.regions)
    budget = (2 * 2.0**cfg.gamma * K_max + 2) * float(cfg.rho) ** -cfg.delta
    _, mx = input_mismatch(traj)
    assert mx <= budget


def test_paillier_fixed_point_overflow_is_a_recorded_fault(bench_controller):
    """At gamma = 1 the codec holds |x| <= 2, so the benchmark's x0 =
    (-3, 0.5) stops the loop at step 0 with a recorded fault, not a raise."""
    cfg = RunConfig(backend="paillier", key_bits=256, gamma=1)
    traj = run_closed_loop(benchmark_scenario(), cfg, controller=bench_controller)
    assert traj.fault_k == 0 and not traj.records
    assert traj.fault == "FixedPointOverflow: |-3.0| exceeds rho^gamma = 2"


def test_rmse_nonincreasing_in_word_budget(bench_controller):
    """More wire precision never hurts tracking; diverged runs score inf."""
    sc = benchmark_scenario()
    means = []
    for w in (4, 8, 12, 16, 20):
        vals = []
        for seed_q in (2, 12, 22):
            cfg = RunConfig(backend="qe_quantized", w=w, seed_quant=seed_q)
            traj = run_closed_loop(sc, cfg, controller=bench_controller)
            vals.append(tracking_rmse(traj))
        finite = [v for v in vals if np.isfinite(v)]
        means.append(np.mean(finite) if finite else float("inf"))
    for a, b in zip(means, means[1:]):
        assert a >= b * (1 - 1e-9)
    assert np.isfinite(means[-1])


def test_fault_recorded_not_raised(bench_controller):
    sc = dataclasses.replace(benchmark_scenario(), x0=[40.0, 40.0])
    traj = run_closed_loop(sc, RunConfig(backend="qe"), controller=bench_controller)
    assert traj.fault.startswith("StateNotCovered")
    assert traj.fault_k == 0
    assert len(traj.records) == 0
    assert tracking_rmse(traj) == float("inf")


def test_trajectory_csv_shape_and_determinism(bench_controller):
    sc = benchmark_scenario()
    run = lambda: run_closed_loop(sc, RunConfig(backend="qe"),
                                  controller=bench_controller)
    a, b = trajectory_csv(run()), trajectory_csv(run())
    assert a == b
    lines = a.split("\r\n")
    assert lines[0] == "k,x0,x1,sigma,u0,u_plain0,y0,r0,payload_bits"
    assert len(lines) == 62  # header + 60 rows + trailing newline
    assert lines[1].split(",")[0] == "0"


# SHA-256 of trajectory_csv for qe_quantized: the first recorded when
# the plaintext law of the u_plain column became one math.fsum per input
# (apply_law), the second from the earlier word-object implementation of
# the quantized wire; the second config faults with StateNotCovered at
# step 1, before u_plain differs
QUANTIZED_CSV_SHA256 = [
    ({}, "d6b113db15c12317cc6e31d5ed23b7a8d72fa974b784d4fd26c3d391833afdf7"),
    ({"epsilon_q": 0.001},
     "da9c693811c107fa431c32e35da66f3ba781bd3a570366fed001cc7260e24064"),
]


@pytest.mark.parametrize("overrides,digest", QUANTIZED_CSV_SHA256)
def test_quantized_trajectory_bytes_pinned(bench_controller, overrides, digest):
    cfg = RunConfig(backend="qe_quantized", **overrides)
    traj = run_closed_loop(benchmark_scenario(), cfg, controller=bench_controller)
    text = trajectory_csv(traj)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# SHA-256 of trajectory_csv for qe, recorded when the plaintext law of
# the u_plain column became one math.fsum per input (apply_law);
# seed_keys moves every ciphertext
QE_CSV_SHA256 = [
    ({}, "12c8d2430573f1fa84faaa31257c61c5b9c61306b041e886a2405e1c37028c59"),
    ({"seed_keys": 7},
     "cf18832930904270fe9cf2fd33158250b87201542c9dfedf2a0aab365102a3cc"),
]


@pytest.mark.parametrize("overrides,digest", QE_CSV_SHA256)
def test_qe_trajectory_bytes_pinned(bench_controller, overrides, digest):
    traj = run_closed_loop(benchmark_scenario(), RunConfig(backend="qe", **overrides),
                           controller=bench_controller)
    text = trajectory_csv(traj)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_rmse_and_mismatch_trivia():
    cycle = CycleMetrics(sigma=0, counts={}, payload_bits={"total": 416},
                         wall_time={})
    rec = StepRecord(k=0, x=np.zeros(2), u=np.array([0.3]),
                     u_plain=np.array([0.3]), y=np.array([1.0]),
                     r=np.array([1.0]), cycle=cycle)
    traj = Trajectory(backend="qe", records=[rec])
    assert tracking_rmse(traj) == 0.0
    assert input_mismatch(traj) == (0.0, 0.0)
    with pytest.raises(ValueError):
        input_mismatch(Trajectory(backend="qe"))


def test_scenario_json_roundtrip(tmp_path):
    sc = benchmark_scenario()
    d = scenario_to_dict(sc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(d))
    back = load_scenario(path)
    assert np.allclose(back.A, sc.A) and np.allclose(back.Q, sc.Q)
    assert back.r_steps == sc.r_steps
    assert back.T == 60
    with pytest.raises(ConfigError):
        from_dict(Scenario, {"name": "broken", "A": [[1]]}, "scenario")
    path.write_text('{\n  "name": "broken",\n  "A": [[1]\n}')
    with pytest.raises(ConfigError, match="line 4 column 1"):
        load_scenario(path)


@pytest.mark.parametrize("r_steps", [
    [[40, -1.0], [0, 0.0], [20, 1.5]],   # out of order
    [[-1, 0.0], [20, 1.5]],              # negative start
    [[0, 0.0], [20, 1.5], [20, -1.0]],   # repeated start
    [],                                  # no reference at all
    [[5, 1.0], [20, 1.5]],               # starts after step 0
])
def test_scenario_refuses_unordered_reference_steps(r_steps):
    """A start step that is negative or not past the one before would
    silently drop a reference value, and no step leaves no reference, so
    the scenario is refused."""
    d = scenario_to_dict(benchmark_scenario())
    d["r_steps"] = r_steps
    with pytest.raises(ConfigError, match="r_steps"):
        from_dict(Scenario, d, "scenario")


@pytest.mark.parametrize("change,match", [
    ({"T": 0}, "T must be >= 1"),
    ({"r_steps": ((5, 1.0),)}, "r_steps"),
])
def test_replaced_scenario_meets_the_same_rules(change, match):
    """A dataclasses.replace copy is checked like a scenario file."""
    with pytest.raises(ConfigError, match=match):
        dataclasses.replace(benchmark_scenario(), **change)


@pytest.mark.parametrize("field,value", [
    ("A", [[1.0, 1.0]]),
    ("B", [[0.5], [1.0], [0.0]]),
    ("Q", [[1.0]]),
    ("R", [[0.5, 0.0], [0.0, 0.5]]),
    ("u_lo", [-1.0, -1.0]),
    ("u_hi", [1.0, 1.0]),
    ("x_lo", [-5.0]),
    ("x_hi", [5.0, 5.0, 5.0]),
    ("x0", [1.0]),
    ("C_out", [[1.0, 0.0, 0.0]]),
])
def test_scenario_refuses_mismatched_shapes(field, value):
    """Every array is checked against n = 2 states and m = 1 input of the
    benchmark plant, and the error names the field."""
    d = scenario_to_dict(benchmark_scenario())
    d[field] = value
    with pytest.raises(ConfigError, match=rf": {field} has shape"):
        from_dict(Scenario, d, "scenario")


def test_scenario_refuses_more_than_one_output():
    """Reference values are scalars, so a second output row has none."""
    d = scenario_to_dict(benchmark_scenario())
    d["C_out"] = [[1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(ConfigError, match="C_out has 2 rows.*r_steps"):
        from_dict(Scenario, d, "scenario")


def frozen_case(name, ctrl):
    """An instance of the class name built from a writable array of the
    caller's, the instance's arrays (and the controller's region list)
    to write into, the caller's array and the instance's copy of it."""
    sc = benchmark_scenario()
    if name == "RunConfig":
        return RunConfig(epsilon_q=1e-3), [], None, None
    if name == "Scenario":
        mine = np.array([1.0, -1.0])
        obj = dataclasses.replace(sc, x0=mine)
        return obj, [obj.x0, obj.A], mine, obj.x0
    if name == "LtiSystem":
        mine = np.array(sc.A)
        obj = LtiSystem(mine, sc.B)
        return obj, [obj.A, obj.B], mine, obj.A
    if name == "MpcSpec":
        mine = np.array(sc.Q)
        obj = dataclasses.replace(sc.mpc_spec(), Q=mine)
        return obj, [obj.Q, obj.R, obj.U.A], mine, obj.Q
    if name == "Polyhedron":
        mine = np.array([[1.0, 0.0]])
        obj = Polyhedron(mine, [1.0])
        return obj, [obj.A, obj.b], mine, obj.A
    if name == "CondensedQp":
        qp = condense(sc.system(), sc.mpc_spec())
        mine = np.array(qp.E)
        obj = dataclasses.replace(qp, E=mine)
        return obj, [obj.E, obj.F, obj.h, obj.H], mine, obj.E
    mine = np.array(ctrl.regions[33].K)
    if name == "Region":
        obj = dataclasses.replace(ctrl.regions[33], K=mine)
        return obj, [obj.K, obj.b, obj.cheb_center, obj.poly.A], mine, obj.K
    obj = dataclasses.replace(ctrl, regions=[
        dataclasses.replace(r, K=mine) if i == 33 else r for i, r in enumerate(ctrl.regions)])
    return (obj, [obj.regions[33].K, obj.regions[33].b, obj.regions],
            mine, obj.regions[33].K)


@pytest.mark.parametrize("name", ["Scenario", "CondensedQp", "Region", "PwaController",
                                  "RunConfig", "LtiSystem", "MpcSpec", "Polyhedron"])
def test_frozen_data(bench_controller, name):
    """Inputs, the QP and the law are checked once, when they are built,
    so none can be changed after: assigning any field raises, every
    array field is read-only, so are the arrays (and the controller's
    region list) reached through one, and the arrays are copies, so the
    caller's array stays writable and its writes do not reach them."""
    obj, writes, mine, seen = frozen_case(name, bench_controller)
    assert type(obj).__name__ == name
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field.name, value)
        if isinstance(value, np.ndarray):
            assert not value.flags.writeable, field.name
    for target in writes:
        with pytest.raises((ValueError, TypeError), match="read-only"):
            target[0] = target[0]
    if mine is not None:
        before = seen.copy()
        mine[0] = 40.0
        assert np.array_equal(seen, before) and not np.array_equal(mine, before)


def test_reference_schedule():
    sc = benchmark_scenario()
    assert sc.reference(0) == [0.0]
    assert sc.reference(19) == [0.0]
    assert sc.reference(20) == [1.5]
    assert sc.reference(40) == [-1.0]
    assert sc.reference(59) == [-1.0]

def test_integer_fields_take_numpy_integers():
    """NumPy integers pass the integer checks of the run config and the
    scenario, which stores Python ints."""
    cfg = RunConfig(steps=np.int64(3), w_b=np.int32(16), seed_keys=np.uint64(7),
                    key_bits=np.int64(512), delta=np.int16(10))
    assert (cfg.steps, cfg.w_b, cfg.seed_keys, cfg.key_bits) == (3, 16, 7, 512)
    sc = dataclasses.replace(benchmark_scenario(), T=np.int64(5),
                             horizon=np.int16(5), r_steps=((np.int64(0), 0.0),))
    assert (sc.T, sc.horizon, sc.r_steps) == (5, 5, ((0, 0.0),))
    assert all(type(v) is int for v in (sc.T, sc.horizon, sc.r_steps[0][0]))


def test_readme_library_sketch_runs():
    """The README's python block runs, and gives the 39 regions and the
    sub-1e-11 input mismatch that its comments state."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert "# 39 regions" in block and "~1e-12" in block
    out, env = io.StringIO(), {}
    with contextlib.redirect_stdout(out):
        exec(block, env)
    assert env["controller"].nregions == 39
    assert 0.0 <= float(out.getvalue()) <= 1e-11
