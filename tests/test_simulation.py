"""Closed-loop benchmark runs: exactness, constraints, faults, determinism."""

import json
import random

import numpy as np
import pytest

from encmpc.config import ConfigError, RunConfig
from encmpc.paillier import keygen
from encmpc.simulation import (
    Scenario,
    StepRecord,
    Trajectory,
    benchmark_scenario,
    input_mismatch,
    load_scenario,
    run_closed_loop,
    scenario_from_dict,
    scenario_to_dict,
    step_plant,
    tracking_rmse,
    trajectory_csv,
)


@pytest.fixture(scope="module")
def kp256():
    return keygen(256, random.Random(31))


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
    bad = benchmark_scenario()
    bad.C_out = np.array([[0.0, 1.0]])
    with pytest.raises(ConfigError):
        bad.steady_state(1.0)  # no equilibrium holds x2 at a nonzero value


def test_qe_closed_loop_exact(bench_controller):
    sc = benchmark_scenario()
    traj = run_closed_loop(sc, "qe", RunConfig(), controller=bench_controller)
    assert len(traj) == 60 and not traj.fault
    mean, mx = input_mismatch(traj)
    assert mean <= 1e-10
    assert mx <= 1e-9
    for rec in traj.records:
        assert np.all(np.abs(rec.u) <= 1.0 + 1e-9)
        assert np.all(np.abs(rec.x) <= 5.0 + 1e-9)


def test_plaintext_mismatch_is_zero(bench_controller):
    sc = benchmark_scenario()
    traj = run_closed_loop(sc, "plaintext", RunConfig(), controller=bench_controller)
    assert input_mismatch(traj) == (0.0, 0.0)


def test_origin_equilibrium(bench_controller):
    sc = benchmark_scenario()
    sc.x0 = np.array([0.0, 0.0])
    sc.r_steps = ((0, 0.0),)
    traj = run_closed_loop(sc, "qe", RunConfig(), controller=bench_controller,
                           T=10)
    for rec in traj.records:
        assert np.abs(rec.u).max() <= 1e-9
        assert np.abs(rec.x).max() <= 1e-8


def test_paillier_closed_loop_within_budget(bench_controller, kp256):
    sc = benchmark_scenario()
    cfg = RunConfig(backend="paillier", key_bits=256)
    traj = run_closed_loop(sc, "paillier", cfg, controller=bench_controller,
                           keypair=kp256)
    assert len(traj) == 60 and not traj.fault
    K_max = max(abs(r.K).max() for r in bench_controller.regions)
    budget = (2 * 2.0**cfg.gamma * K_max + 2) * float(cfg.rho) ** -cfg.delta
    _, mx = input_mismatch(traj)
    assert mx <= budget


def test_rmse_nonincreasing_in_word_budget(bench_controller):
    """More wire precision never hurts tracking; diverged runs score inf."""
    sc = benchmark_scenario()
    means = []
    for w in (4, 8, 12, 16, 20):
        vals = []
        for seed_q in (2, 12, 22):
            cfg = RunConfig(w=w, seed_quant=seed_q)
            traj = run_closed_loop(sc, "qe_quantized", cfg,
                                   controller=bench_controller)
            vals.append(tracking_rmse(traj))
        finite = [v for v in vals if np.isfinite(v)]
        means.append(np.mean(finite) if finite else float("inf"))
    for a, b in zip(means, means[1:]):
        assert a >= b * (1 - 1e-9)
    assert np.isfinite(means[-1])


def test_fault_recorded_not_raised(bench_controller):
    sc = benchmark_scenario()
    sc.x0 = np.array([40.0, 40.0])
    traj = run_closed_loop(sc, "qe", RunConfig(), controller=bench_controller)
    assert traj.fault.startswith("StateNotCovered")
    assert traj.fault_k == 0
    assert len(traj) == 0
    assert tracking_rmse(traj) == float("inf")


def test_trajectory_csv_shape_and_determinism(bench_controller):
    sc = benchmark_scenario()
    run = lambda: run_closed_loop(sc, "qe", RunConfig(),
                                  controller=bench_controller)
    a, b = trajectory_csv(run()), trajectory_csv(run())
    assert a == b
    lines = a.split("\r\n")
    assert lines[0] == "k,x0,x1,sigma,u0,u_plain0,y0,r0,payload_bits"
    assert len(lines) == 62  # header + 60 rows + trailing newline
    assert lines[1].split(",")[0] == "0"


def test_rmse_and_mismatch_trivia():
    rec = StepRecord(k=0, x=np.zeros(2), sigma=0, u=np.array([0.3]),
                     u_plain=np.array([0.3]), y=np.array([1.0]),
                     r=np.array([1.0]), payload_bits=416)
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
        scenario_from_dict({"name": "broken", "A": [[1]]})
    path.write_text('{\n  "name": "broken",\n  "A": [[1]\n}')
    with pytest.raises(ConfigError, match="line 4 column 1"):
        load_scenario(path)


def test_reference_schedule():
    sc = benchmark_scenario()
    assert sc.reference(0) == [0.0]
    assert sc.reference(19) == [0.0]
    assert sc.reference(20) == [1.5]
    assert sc.reference(40) == [-1.0]
    assert sc.reference(59) == [-1.0]