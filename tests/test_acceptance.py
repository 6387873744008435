"""Acceptance gate: ten workbench criteria, one test and one line each.

Every test measures its quantity, prints a single PASS/FAIL line with
the numbers and the bound (visible under -s, or in captured output on
failure), and then asserts.  Runtime bounds are asserted too, so a slow
host shows up as a red criterion rather than a hung suite.
"""

import json
import math
import random
import time
from fractions import Fraction
from operator import mul

import numpy as np
import pytest

from encmpc.cli import main
from encmpc.config import RunConfig
from encmpc.mpqp import LtiSystem, MpcSpec, condense, synthesize
from encmpc.paillier import (FixedPointCodec, fp_decode, fp_encode, he_add,
                             he_dec, he_enc, he_scalar_mul, keygen)
from encmpc.polyhedra import box
from encmpc.protocol import make_parties, predict_cost, run_cycle
from encmpc.qe_cipher import g_map, quantize_stochastic
from encmpc.qp import QpInfeasible, implicit_control
from encmpc.simulation import attack_scenario, benchmark_scenario, run_closed_loop
from encmpc.attack import default_settings, gather_observations, run_attack_table

from test_protocol import plain_law, single_region_controller


def report(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def exact_law(K, b, x):
    """K x + b in Fractions, from the binary64 K, b and x as given."""
    xs = [Fraction(v) for v in np.ravel(x).tolist()]
    return [sum(map(mul, map(Fraction, row), xs), Fraction(bj))
            for row, bj in zip(np.atleast_2d(K).tolist(), np.ravel(b).tolist())]


def test_criterion_01_qe_exact_recovery(bench_controller):
    """qe's u against the float plaintext law, and against the exact
    rational law at every step: K x + b of the region sent, at the
    shifted state the cycle saw, plus the steady-state input u_ss, all
    taken as the binary64 numbers the loop used."""
    scenario = benchmark_scenario()
    t0 = time.perf_counter()
    traj = run_closed_loop(scenario, RunConfig(backend="qe"),
                           controller=bench_controller)
    dt = time.perf_counter() - t0
    gaps = np.array([np.abs(r.u - r.u_plain).max() for r in traj.records])
    exact_gaps = []
    for rec in traj.records:
        x_ss, u_ss = scenario.steady_state(rec.r)
        sigma = rec.cycle.sigma
        law = exact_law(bench_controller.gain_rows[sigma],
                        bench_controller.offset_rows[sigma], rec.x - x_ss)
        exact_gaps.append(max(float(abs(Fraction(u) - v - Fraction(us)))
                              for u, v, us in zip(rec.u.tolist(), law,
                                                  u_ss.tolist())))
    exact_gaps = np.array(exact_gaps)
    ok = (not traj.fault and len(traj.records) == 60
          and gaps.mean() <= 1e-10 and gaps.max() <= 1e-9
          and exact_gaps.mean() <= 1e-10 and exact_gaps.max() <= 1e-9
          and dt < 5.0)
    report(1, ok, f"qe over 60 steps: vs plaintext mismatch mean "
                  f"{gaps.mean():.3e} (<=1e-10), max {gaps.max():.3e} "
                  f"(<=1e-9); vs exact K x + b mean {exact_gaps.mean():.3e} "
                  f"(<=1e-10), max {exact_gaps.max():.3e} (<=1e-9); "
                  f"{dt:.2f}s (<5s)")
    assert not traj.fault and len(traj.records) == 60
    assert gaps.mean() <= 1e-10
    assert gaps.max() <= 1e-9
    assert exact_gaps.mean() <= 1e-10
    assert exact_gaps.max() <= 1e-9
    assert dt < 5.0


def test_criterion_02_pwa_matches_qp_oracle(bench_controller):
    sys = LtiSystem(A=[[1.0, 1.0], [0.0, 1.0]], B=[[0.5], [1.0]])
    spec = MpcSpec(horizon=5, Q=np.diag([1.0, 0.1]), R=[[0.5]],
                   U=box([-1.0], [1.0]), X=box([-5.0, -5.0], [5.0, 5.0]))
    qp = condense(sys, spec)
    rng = np.random.default_rng(12345)
    t0 = time.perf_counter()
    worst = 0.0
    feasible = 0
    while feasible < 10000:
        x = rng.uniform([-5.0, -5.0], [5.0, 5.0])
        try:
            u_oracle, _, _ = implicit_control(qp, x)
        except QpInfeasible:
            continue
        feasible += 1
        u_pwa = plain_law(bench_controller, x)
        worst = max(worst, float(np.max(np.abs(u_oracle - u_pwa))))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-6 and dt < 60.0
    report(2, ok, f"10000 feasible states: max |u_oracle - u_pwa| "
                  f"{worst:.3e} (<=1e-6), {dt:.1f}s (<60s)")
    assert worst <= 1e-6
    assert dt < 60.0


def test_criterion_03_quantizer_moments():
    t0 = time.perf_counter()
    draws = 10**5
    worst_line = ""
    ok = True
    for w in (4, 8, 12):
        rng = np.random.default_rng(999 + w)
        mean_bound = 4 * 2.0**-w / math.sqrt(draws)
        mse_bound = 2.0 ** (-2 * w) * 1.05
        # v = 2 exactly needs the word 2^w, one past the top code, so the
        # sweep ends at the largest representable value g_inv(2 - 2^(1-w))
        for v in np.linspace(0.5, 2.0 - 2.0 ** (1 - w), 20):
            y = g_map(v)
            codes = quantize_stochastic([v] * draws, w, rng)
            err = np.array(codes) * 2.0 ** (1 - w) - y
            me, mse = abs(err.mean()), float((err**2).mean())
            if me > mean_bound or mse > mse_bound:
                ok = False
                worst_line = (f" VIOLATION at w={w} v={v:.4f}: "
                              f"mean {me:.3e}/{mean_bound:.3e} "
                              f"mse {mse:.3e}/{mse_bound:.3e}")
    dt = time.perf_counter() - t0
    ok = ok and dt < 30.0
    report(3, ok, f"w in (4,8,12), 20 values, {draws} draws each: "
                  f"|mean err| <= 4*2^-w/sqrt(n) and mse <= 1.05*2^-2w, "
                  f"{dt:.1f}s (<30s){worst_line}")
    assert ok


def test_criterion_04_paillier_laws():
    t0 = time.perf_counter()
    worst_fp = 0.0
    for L in (256, 512):
        kp = keygen(L, random.Random(41 + L))
        pk = kp.public
        rng = random.Random(7)
        herng = random.Random(8)
        nrng = np.random.default_rng(17)
        codec = FixedPointCodec(rho=2, gamma=4, delta=10, modulus=pk.n)
        for _ in range(1000):
            a = rng.randint(-2**20, 2**20)
            b = rng.randint(-2**20, 2**20)
            c = rng.randint(-2**10, 2**10)
            ca = he_enc(a % pk.n, pk, herng)
            cb = he_enc(b % pk.n, pk, herng)
            assert (he_dec(he_add(ca, cb, pk), kp) - (a + b)) % pk.n == 0
            assert (he_dec(he_scalar_mul(c, ca, pk), kp) - c * a) % pk.n == 0
            x = float(nrng.uniform(-16.0, 16.0))
            worst_fp = max(worst_fp,
                           abs(fp_decode(fp_encode(x, codec), codec) - x))
    dt = time.perf_counter() - t0
    ok = worst_fp <= 2.0**-10 and dt < 60.0
    report(4, ok, f"1000 pairs at L in (256,512): add/scalar-mul exact, "
                  f"fixed-point worst {worst_fp:.3e} (<=2^-10), "
                  f"{dt:.1f}s (<60s)")
    assert worst_fp <= 2.0**-10
    assert dt < 60.0


def test_criterion_05_primitive_counts():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    kp = keygen(256, random.Random(77))
    bad = []
    for n in range(1, 7):
        for m in range(1, 7):
            controller = single_region_controller(n, m, rng)
            x = np.full(n, 0.1)
            cfg = RunConfig(key_bits=256)
            for backend, expected in (
                ("qe", {"enc": n + m, "con": m * n,
                        "dec": m * n + m, "sums": m * n}),
                ("paillier", {"he_enc": n + m, "he_mul": m * n,
                              "he_add": m * n, "he_dec": m}),
            ):
                parties = make_parties(controller, backend, cfg,
                                       keypair=kp if backend == "paillier"
                                       else None)
                _, metrics = run_cycle(x, *parties, 0)
                got = {k: metrics.counts[k] for k in expected}
                if got != expected:
                    bad.append((n, m, backend, got, expected))
    dt = time.perf_counter() - t0
    ok = not bad and dt < 5.0
    report(5, ok, f"counters match closed forms for (n,m) in [1,6]^2, "
                  f"both backends, {dt:.1f}s (<5s)"
                  + (f" mismatches: {bad[:3]}" if bad else ""))
    assert not bad
    assert dt < 5.0


def test_criterion_06_payload_ordering(bench_controller):
    cfg = RunConfig(epsilon_q=2.0**-10, key_bits=2048)
    x = np.asarray(benchmark_scenario().x0, dtype=float)
    kp = keygen(2048, random.Random(1))
    qe_parties = make_parties(bench_controller, "qe", cfg)
    _, qe_metrics = run_cycle(x, *qe_parties, 0)
    he_parties = make_parties(bench_controller, "paillier", cfg, keypair=kp)
    _, he_metrics = run_cycle(x, *he_parties, 0)
    qe_bits = qe_metrics.payload_bits["total"]
    he_bits = he_metrics.payload_bits["total"]
    ok = qe_bits < 0.10 * he_bits
    report(6, ok, f"eps_q=2^-10, L=2048, p=64: qe {qe_bits} bits vs "
                  f"paillier {he_bits} bits per cycle "
                  f"({100 * qe_bits / he_bits:.2f}% < 10%)")
    assert qe_bits < 0.10 * he_bits


def test_criterion_07_timing_ordering(bench_controller):
    scenario = benchmark_scenario()
    walls = {}
    for backend in ("qe", "paillier"):
        traj = run_closed_loop(scenario, RunConfig(backend=backend, key_bits=1024),
                               controller=bench_controller)
        walls[backend] = sum(rec.cycle.wall_time["total"]
                             for rec in traj.records) / len(traj.records)
    ok = walls["qe"] < walls["paillier"]
    report(7, ok, f"L=1024 per-cycle mean wall: qe {walls['qe']:.3e}s vs "
                  f"paillier {walls['paillier']:.3e}s "
                  f"(ratio {walls['qe'] / walls['paillier']:.4f})")
    assert walls["qe"] < walls["paillier"]


def test_criterion_08_cost_model_formulas():
    rng = np.random.default_rng(2024)
    bad = 0
    for _ in range(20):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        L = int(rng.choice([256, 512, 1024, 2048, 4096]))
        p = int(rng.choice([8, 16, 32, 64, 128]))
        b_K = int(rng.integers(1, 65))
        pred = predict_cost(n, m, L, p, b_K)
        want_he = (n + 2 * m) * L**3 + m * n * (b_K + 1) * L**2
        want_qe = (m * n + n + m) * p**3
        if pred["C_HE"] != want_he or pred["C_QE"] != want_qe:
            bad += 1
    ok = bad == 0
    report(8, ok, f"predict_cost equals (n+2m)L^3+mn(b_K+1)L^2 and "
                  f"(mn+n+m)p^3 on 20 random tuples ({bad} mismatches)")
    assert bad == 0


def test_criterion_09_confidentiality_ordering():
    t0 = time.perf_counter()
    scenario = attack_scenario()
    controller = scenario.synthesize_controller()
    cfg = RunConfig(key_bits=512)
    backends = ("plaintext", "paillier", "qe", "qe_quantized")
    obs = gather_observations(scenario, controller, cfg, backends)
    table = run_attack_table(obs, default_settings(trials=200),
                             cfg.seed_attack)
    worst = math.inf
    where = ""
    for kind in ("none", "gaussian", "uniform", "impulse"):
        plain = table[(kind, "plaintext")]
        for backend in backends[1:]:
            ratio = table[(kind, backend)] / plain
            if ratio < worst:
                worst, where = ratio, f"{kind}/{backend}"
    dt = time.perf_counter() - t0
    ok = worst >= 5.0 and dt < 300.0
    report(9, ok, f"200 trials x 4 settings x 3 encrypted backends: "
                  f"min encrypted/plaintext ratio {worst:.1f} at {where} "
                  f"(>=5), {dt:.1f}s (<300s)")
    assert worst >= 5.0
    assert dt < 300.0


def test_criterion_10_cli_determinism(tmp_path):
    out = tmp_path / "out"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"attack_trials": 25, "key_bits": 256, "out_dir": str(out)}))
    commands = (
        ["synthesize", "--config", str(cfg_path)],
        ["run", "--backend", "qe", "--config", str(cfg_path)],
        ["bench", "--config", str(cfg_path), "--sweep",
         "backend=qe,paillier"],
        ["attack", "--config", str(cfg_path)],
    )
    artifacts = ("controller.json", "trajectory_qe.csv", "bench.csv",
                 "attack.csv")
    for argv in commands:
        assert main(argv) == 0
    first = {name: (out / name).read_bytes() for name in artifacts}
    for argv in commands:
        assert main(argv) == 0
    stable = [name for name in artifacts
              if (out / name).read_bytes() == first[name]]
    ok = len(stable) == len(artifacts)
    report(10, ok, f"rerunning all four commands reproduced "
                   f"{len(stable)}/{len(artifacts)} artifacts byte-identically"
                   + ("" if ok else f" (changed: "
                      f"{sorted(set(artifacts) - set(stable))})"))
    assert stable == list(artifacts)
