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
from encmpc.config import ConfigError, RunConfig, from_dict
from encmpc.protocol import CycleMetrics, run_cycle
from encmpc.simulation import (
    Scenario,
    StepRecord,
    Trajectory,
    benchmark_scenario,
    input_mismatch,
    load_scenario,
    run_closed_loop,
    scenario_to_dict,
    step_plant,
    tracking_rmse,
    trajectory_csv,
)


def test_step_plant_examples():
    sc = benchmark_scenario()
    sys = sc.system()
    assert np.allclose(step_plant(sys, [0.0, 1.0], [0.0]), [1.0, 1.0])

    from encmpc.mpqp import LtiSystem
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
    fails in the loop, by the loop with no cycle run.  The loop's
    backend is the config's."""
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
    assert calls == []
    traj = run_closed_loop(benchmark_scenario(), RunConfig(backend="plaintext", steps=2),
                           controller=bench_controller)
    assert traj.backend == "plaintext" and len(calls) == 2
    assert {args[1].backend for args in calls} == {"plaintext"}


def test_qe_closed_loop_exact(bench_controller):
    sc = benchmark_scenario()
    traj = run_closed_loop(sc, RunConfig(backend="qe"), controller=bench_controller)
    assert len(traj) == 60 and not traj.fault
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
    assert len(traj) == 60 and not traj.fault
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
    assert len(traj) == 0
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
# the cipher moved to libm on Python floats, the second from the earlier
# word-object implementation of the quantized wire; the second config
# faults with StateNotCovered at step 1
QUANTIZED_CSV_SHA256 = [
    ({}, "b570b8db7da9d91d44bdea76880020c53319556a35eb787e75f1888b27036e92"),
    ({"epsilon_q": 0.001},
     "da9c693811c107fa431c32e35da66f3ba781bd3a570366fed001cc7260e24064"),
]


@pytest.mark.parametrize("overrides,digest", QUANTIZED_CSV_SHA256)
def test_quantized_trajectory_bytes_pinned(bench_controller, overrides, digest):
    cfg = RunConfig(backend="qe_quantized", **overrides)
    traj = run_closed_loop(benchmark_scenario(), cfg, controller=bench_controller)
    text = trajectory_csv(traj)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# SHA-256 of trajectory_csv for qe, recorded when the cipher moved to
# libm on Python floats; seed_keys moves every ciphertext
QE_CSV_SHA256 = [
    ({}, "8b60c2155eac70c0cf76d76f43bb3c5a94955523b225007b8a9d47da728932a4"),
    ({"seed_keys": 7},
     "9cd1383ddae0496537d5cf7e4738b63a00db37886a3f2f73fbfa2a913bcf9dee"),
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


def test_scenario_is_frozen():
    """A scenario is checked once, when it is built, so it cannot be
    changed after: assigning a field raises, its arrays are read-only
    copies, and the caller's array stays writable."""
    x0 = np.array([1.0, -1.0])
    sc = dataclasses.replace(benchmark_scenario(), x0=x0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        sc.r_steps = ((5, 1.0),)
    with pytest.raises(ValueError, match="read-only"):
        sc.x0[0] = 40.0
    for name in ("A", "B", "C_out", "Q", "R", "u_lo", "u_hi", "x_lo", "x_hi", "x0"):
        assert not getattr(sc, name).flags.writeable, name
    x0[0] = 2.0
    assert sc.x0.tolist() == [1.0, -1.0]


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
