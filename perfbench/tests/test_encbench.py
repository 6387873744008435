"""The benchmark's own checks accept today's outputs and reject corrupted
ones; its inputs and tracing behave as the README says.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""
import dataclasses
import json
import os
import random
import warnings

import numpy as np
import pytest

from encmpc import attack, mpqp, paillier, protocol, qp, simulation
from encmpc.config import RunConfig
from encbench import checks, inputs, layers, measure, tracing, workloads
from encbench.inputs import Partition, stream_rng

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BACKENDS = ("plaintext", "qe", "qe_quantized", "paillier")


@pytest.fixture(scope="module")
def small():
    """The double integrator at horizon 2: same plant, quick synthesis."""
    sc = dataclasses.replace(simulation.benchmark_scenario(), horizon=2)
    ctrl = mpqp.synthesize(sc.system(), sc.mpc_spec())
    cqp = mpqp.condense(sc.system(), sc.mpc_spec())
    return sc, ctrl, cqp, Partition(ctrl)


@pytest.fixture(scope="module")
def keypair():
    return paillier.keygen(256, random.Random(5))


def cycle_output(backend, ctrl, kp, x):
    cfg = RunConfig(key_bits=256)
    parties = protocol.make_parties(ctrl, backend, cfg, keypair=kp)[:3]
    u, met = protocol.run_cycle(x, *parties, 0)
    return u, met, workloads.run_params(cfg, ctrl, kp.public.bits)


def interior_state(partition, sc, seed=3):
    return partition.sample(np.random.default_rng(seed), 1, sc.x_lo, sc.x_hi)[0]


@pytest.mark.parametrize("backend", BACKENDS)
def test_cycle_check_accepts_program_output(small, keypair, backend):
    sc, ctrl, _, part = small
    for x in part.sample(np.random.default_rng(7), 20, sc.x_lo, sc.x_hi):
        u, met, params = cycle_output(backend, ctrl, keypair, x)
        checks.check_cycle(part, backend, x, u, met, params)


def bound_of(backend, part, sigma, x, params):
    K = part.K[sigma]
    if backend in checks.U_TOL:
        return checks.U_TOL[backend]
    if backend == "qe_quantized":
        return float(checks.quantized_bound(K, params["n"], params["w_b"], params["w"]).max())
    return float(checks.paillier_bound(K, x, params["rho"], params["delta"]).max())


@pytest.mark.parametrize("backend", BACKENDS)
def test_cycle_check_rejects_perturbed_u(small, keypair, backend):
    sc, ctrl, _, part = small
    x = interior_state(part, sc)
    u, met, params = cycle_output(backend, ctrl, keypair, x)
    bound = bound_of(backend, part, met.sigma, x, params)
    # just past the bound, measured from the reference value
    u_ref = part.law(met.sigma, x)
    bad = u_ref + 1.5 * bound + 1e-12
    with pytest.raises(checks.CheckFailed, match="gap"):
        checks.check_cycle(part, backend, x, bad, met, params)


@pytest.mark.parametrize("backend", BACKENDS)
def test_cycle_check_rejects_wrong_bits_and_counters(small, keypair, backend):
    sc, ctrl, _, part = small
    x = interior_state(part, sc)
    u, met, params = cycle_output(backend, ctrl, keypair, x)
    bits = dict(met.payload_bits, total=met.payload_bits["total"] + 1)
    with pytest.raises(checks.CheckFailed, match="payload bits"):
        checks.check_cycle(part, backend, x, u, dataclasses.replace(met, payload_bits=bits),
                           params)
    counts = dict(met.counts, enc=met.counts["enc"] + 1)
    with pytest.raises(checks.CheckFailed, match="counters"):
        checks.check_cycle(part, backend, x, u, dataclasses.replace(met, counts=counts),
                           params)


def test_cycle_check_rejects_state_outside_reported_region(small, keypair):
    sc, ctrl, _, part = small
    x = interior_state(part, sc)
    u, met, params = cycle_output("plaintext", ctrl, keypair, x)
    other = next(i for i in range(len(part)) if not part.contains(i, x))
    with pytest.raises(checks.CheckFailed, match="outside the region"):
        checks.check_cycle(part, "plaintext", x, u, dataclasses.replace(met, sigma=other),
                           params)


def constrained_point(cqp, part, sc):
    """A feasible state whose optimum has an active constraint."""
    rng = np.random.default_rng(11)
    while True:
        x = rng.uniform(sc.x_lo, sc.x_hi)
        try:
            z, active, lam = qp.solve_qp_oracle(cqp, x)
        except qp.QpInfeasible:
            continue
        if active:
            return x, z, lam, part.law(part.region_of(x), x)


def test_oracle_check_accepts_and_rejects(small):
    sc, _, cqp, part = small
    x, z, lam, u = constrained_point(cqp, part, sc)
    checks.check_oracle_point(cqp, x, z, lam, u)
    dz = np.zeros_like(z)
    dz[0] = 1e-6
    with pytest.raises(checks.CheckFailed, match="residual"):
        checks.check_oracle_point(cqp, x, z + dz, lam, u)
    dl = np.zeros_like(lam)
    dl[int(np.flatnonzero(lam)[0])] = 1e-6
    with pytest.raises(checks.CheckFailed, match="residual"):
        checks.check_oracle_point(cqp, x, z, lam + dl, u)
    with pytest.raises(checks.CheckFailed, match="misses the oracle"):
        checks.check_oracle_point(cqp, x, z, lam, u + 1e-5)


def test_coverage_check(small):
    sc, _, cqp, part = small
    states = np.random.default_rng(2).uniform(sc.x_lo, sc.x_hi, size=(40, 2))
    feasible = []
    for x in states:
        try:
            qp.implicit_control(cqp, x)
            feasible.append(True)
        except qp.QpInfeasible:
            feasible.append(False)
    covered = list(part.covered(states))
    checks.check_coverage(states, feasible, covered)
    flipped = list(covered)
    flipped[0] = not flipped[0]
    with pytest.raises(checks.CheckFailed, match="covered by the partition"):
        checks.check_coverage(states, feasible, flipped)
    with pytest.raises(checks.CheckFailed, match="nothing to check"):
        checks.check_coverage([], [], [])
    with pytest.raises(checks.CheckFailed, match="no infeasible sample"):
        checks.check_coverage(states[:1], [True], [True])


def test_chebyshev_check(small):
    _, ctrl, _, _ = small
    checks.check_chebyshev_centers(ctrl)
    reg = ctrl.regions[0]
    row = reg.poly.A[0]
    outside = reg.cheb_center + 2 * reg.cheb_radius * row / np.linalg.norm(row)
    bad = dataclasses.replace(ctrl, regions=[dataclasses.replace(reg, cheb_center=outside)]
                              + ctrl.regions[1:])
    with pytest.raises(checks.CheckFailed, match="violates a facet"):
        checks.check_chebyshev_centers(bad)
    with pytest.raises(checks.CheckFailed, match="nothing to check"):
        checks.check_chebyshev_centers(dataclasses.replace(ctrl, regions=[]))


@pytest.fixture(scope="module")
def attack_table():
    probe = workloads.probe_scenario()
    ctrl = mpqp.synthesize(probe.system(), probe.mpc_spec())
    obs = attack.gather_observations(probe, ctrl, RunConfig(),
                                     ("plaintext", "qe", "qe_quantized"))
    return attack.run_attack_table(obs, attack.default_settings(trials=5), 1)


def test_attack_check_accepts_and_rejects(attack_table):
    checks.check_attack_table(attack_table)
    pulled = dict(attack_table)
    pulled[("gaussian", "qe")] = pulled[("gaussian", "plaintext")]
    with pytest.raises(checks.CheckFailed, match="gaussian/qe"):
        checks.check_attack_table(pulled)
    noisy = dict(attack_table)
    noisy[("none", "plaintext")] = 1e-3
    with pytest.raises(checks.CheckFailed, match="noise-free"):
        checks.check_attack_table(noisy)
    with pytest.raises(checks.CheckFailed, match="nothing to check"):
        checks.check_attack_table({})


def test_inputs_are_seeded_and_inside(small):
    sc, _, _, part = small
    a = part.sample(stream_rng(4, "scattered"), 200, sc.x_lo, sc.x_hi)
    b = part.sample(stream_rng(4, "scattered"), 200, sc.x_lo, sc.x_hi)
    c = part.sample(stream_rng(5, "scattered"), 200, sc.x_lo, sc.x_hi)
    assert np.array_equal(a, b) and not np.array_equal(a, c)
    assert part.covered(a).all()
    assert all(part.region_of(x) == ctrl_locate for x, ctrl_locate in
               zip(a[:20], [small[1].locate(x) for x in a[:20]]))
    eps = inputs.episodes(stream_rng(4, "loop"), part, sc, 3)
    assert eps == inputs.episodes(stream_rng(4, "loop"), part, sc, 3)
    for ep in eps:
        traj = inputs.exact_trajectory(part, sc.A, sc.B, sc.C_out, ep.x0, ep.r_steps)
        assert traj is not None and part.covered(traj).all()


def test_tracer_spans_nest_and_account_for_cycles(small):
    sc, ctrl, _, part = small
    original = protocol.run_cycle
    tr = tracing.Tracer()
    tr.install()
    try:
        assert protocol.run_cycle is not original
        parties = protocol.make_parties(ctrl, "qe_quantized", RunConfig())[:3]
        for k, x in enumerate(part.sample(np.random.default_rng(1), 5, sc.x_lo, sc.x_hi)):
            protocol.run_cycle(x, *parties, k)
    finally:
        tr.uninstall()
    assert protocol.run_cycle is original
    a = tr.arrays()
    start = np.array(tr.start)
    end = np.array(tr.end)
    child = a["parent"] >= 0
    assert (start[child] >= start[a["parent"][child]]).all()
    assert (end[child] <= end[a["parent"][child]]).all()
    roots = np.flatnonzero([n == "protocol.qe_quantized.cycle" for n in a["name"]])
    assert len(roots) == 5
    for r in roots:
        inside = a["cycle"] == r
        assert abs(a["self"][inside].sum() - a["dur"][r]) < 1e-9
    names = set(a["name"])
    for layer in ("mpqp.locate", "keys.generate_key", "qe_cipher.quantize",
                  "wire.pack_words", "protocol.qe_quantized.sensor"):
        assert layer in names


def test_metric_names_match_benchmark_json(small):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == measure.UNITS
    run = workloads.Run(0, 1)
    run.stats = [{"candidates": 1, "lp_calls": 2, "empty": 1, "thin": 0, "merged": 0}]
    tr = tracing.Tracer()
    tr.install()
    try:
        small[1].locate(np.zeros(2))
        protocol.run_cycle(np.zeros(2), *protocol.make_parties(small[1], "plaintext",
                                                               RunConfig())[:3], 0)
    finally:
        tr.uninstall()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # medians of no spans
        got = layers.per_layer(tr.arrays(), run, 0.0)
    assert {name: unit for name, (_, unit) in got.items()} == \
        {m["name"]: m["unit"] for m in spec["per_layer"]}


def test_timings_scale_by_the_host_factors():
    run = workloads.Run(0, 1)
    ref, block = workloads.REFERENCE_CHECK_US * 1e-6, workloads.BLOCK
    # the host ran at half speed for the first block of checks, then at full
    run.checking = [2 * ref] * block + [ref] * block
    run.setup = [2.0, 4.0, 3.0]
    run.implicit, run.implicit_at = [1e-3, 3e-3], [0, block]
    run.attack, run.attack_at = [0.5], [2 * block]   # after the last check
    for b in workloads.ONLINE_BACKENDS:
        run.cycles[b], run.cycle_at[b] = [4e-4, 1e-4], [block - 1, block]
    run.bigint = [3 * workloads.REFERENCE_BIGINT_US * 1e-6] * 2
    run.bits = {"qe": 416, "qe_quantized": 128, "paillier": 8224}
    measured, scaled = run.timings()
    assert measured["host_factor"] == pytest.approx(1.5)
    assert measured["qe_cycle_us"] == pytest.approx(250.0)
    assert scaled["qe_cycle_us"] == pytest.approx(150.0)    # (200 + 100) / 2
    assert scaled["implicit_solve_us"] == pytest.approx(1750.0)
    assert scaled["attack_s"] == pytest.approx(0.5)
    assert scaled["setup_s"] == pytest.approx(2.0)
    assert scaled["paillier_cycle_ms"] == pytest.approx(0.25 / 3)
    assert run.end_to_end()["qe_cycle_us"] == scaled["qe_cycle_us"]
