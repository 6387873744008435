"""Least-squares adversary: fit, rollout, score, and the ordering table.

`reference_run_attack_table` is the table as it was computed one trial
at a time, with one norm per step; the program evaluates the table's
trials in stacked blocks that span cells and must give the same floats,
bit for bit.
"""

import dataclasses
import hashlib
import math
import re
import warnings

import numpy as np
import pytest

from encmpc import attack
from encmpc.attack import (
    DIVERGENCE_CAP,
    NORM_FLOOR,
    RIDGE,
    AttackSetting,
    DEFAULT_SCALES,
    NOISE_KINDS,
    apply_noise,
    attack_table_csv,
    confidentiality_score,
    default_settings,
    fit_ls_predictor,
    gather_observations,
    probe_dither,
    rollout,
    run_attack_table,
)
from encmpc.config import ConfigError, RunConfig
from encmpc.simulation import attack_scenario, benchmark_scenario

BACKENDS = ("plaintext", "qe", "qe_quantized", "paillier")


@pytest.fixture(scope="module")
def probe_controller():
    return attack_scenario().synthesize_controller()


@pytest.fixture(scope="module")
def observations(probe_controller):
    cfg = RunConfig(key_bits=512)
    return gather_observations(attack_scenario(), probe_controller, cfg,
                               BACKENDS)


def synthetic_linear_data(T=40, seed=0):
    A = np.array([[0.9, 0.1], [0.0, 0.8]])
    B = np.array([[0.0], [1.0]])
    rng = np.random.default_rng(seed)
    us = rng.uniform(-1.0, 1.0, size=(T, 1))
    x = np.array([1.0, -1.0])
    xs = [x.copy()]
    for u in us:
        x = A @ x + B @ u
        xs.append(x.copy())
    return A, B, np.array(xs), us


def test_fit_recovers_plant_on_exact_data():
    A, B, xs, us = synthetic_linear_data()
    theta = fit_ls_predictor(xs[None], us[None])
    assert np.max(np.abs(theta[0] - np.hstack([A, B]))) <= 1e-8


def test_fit_requires_enough_samples():
    xs = np.zeros((3, 2))
    us = np.zeros((3, 1))
    with pytest.raises(ValueError):
        fit_ls_predictor(xs[None], us[None])  # needs n+m+1 = 4


def test_constant_proxy_flagged_and_useless():
    _, _, xs, us = synthetic_linear_data()
    const = np.ones_like(xs)
    theta = fit_ls_predictor(const[None], us[None])
    xhat, steps = rollout(theta, xs[None, 0], us[None])
    score = confidentiality_score(xs[None], xhat, steps)
    assert score.value[0] > 0.5


def test_rollout_exact_theta_reproduces_truth():
    A, B, xs, us = synthetic_linear_data()
    theta = np.hstack([A, B])[None]
    xhat, steps = rollout(theta, xs[None, 0], us[None])
    assert steps[0] == len(us) + 1
    assert np.allclose(xhat[0], xs, atol=1e-12)


def test_rollout_zero_theta_predicts_origin():
    _, _, xs, us = synthetic_linear_data()
    theta = np.zeros((1, 2, 3))
    xhat, steps = rollout(theta, xs[None, 0], us[None])
    assert steps[0] == len(us) + 1
    assert np.allclose(xhat[0, 0], xs[0])
    assert np.all(xhat[0, 1:] == 0.0)


def test_rollout_truncates_on_divergence():
    _, _, xs, us = synthetic_linear_data()
    theta = np.hstack([10.0 * np.eye(2), np.zeros((2, 1))])[None]
    xhat, steps = rollout(theta, xs[None, 0], us[None])
    assert steps[0] < len(us) + 1
    xhat = xhat[0, : steps[0]]
    assert np.linalg.norm(xhat[-1]) > 1e6
    assert all(np.linalg.norm(row) <= 1e6 for row in xhat[:-1])


def test_score_trivia():
    truth = np.array([[[1.0, 0.0], [0.0, 2.0], [3.0, 4.0]]])
    assert confidentiality_score(truth, truth).value[0] == 0.0
    doubled = confidentiality_score(truth, 2.0 * truth)
    assert doubled.value[0] == pytest.approx(1.0)


def test_score_scale_invariance():
    rng = np.random.default_rng(5)
    truth = rng.normal(size=(20, 2))[None]
    pred = truth + rng.normal(scale=0.1, size=truth.shape)
    base = confidentiality_score(truth, pred).value[0]
    for c in (1e-3, 7.0, 1e4):
        scaled = confidentiality_score(c * truth, c * pred).value[0]
        assert scaled == pytest.approx(base, rel=1e-12)


def test_score_skips_zero_norm_steps():
    truth = np.array([[[1.0, 0.0], [0.0, 0.0], [0.0, 3.0]]])
    pred = np.array([[[1.0, 0.0], [9.0, 9.0], [0.0, 3.0]]])
    res = confidentiality_score(truth, pred)
    assert res.counted[0] == 2
    assert res.value[0] == 0.0

    allzero = confidentiality_score(np.zeros((1, 4, 2)), np.ones((1, 4, 2)))
    assert not allzero.defined[0]
    assert math.isnan(allzero.value[0])


def test_apply_noise_shapes_and_scaling():
    rng = np.random.default_rng(11)
    F = rng.normal(size=(200, 3))
    rms = float(np.sqrt(np.mean(F**2)))

    none = apply_noise(F, AttackSetting("none"), np.random.default_rng(0), 2)
    assert none.shape == (2, 200, 3)
    assert np.array_equal(none[0], F) and np.array_equal(none[1], F)
    none[0, 0, 0] = 99.0  # returned copy, input untouched
    assert F[0, 0] != 99.0 and none[1, 0, 0] != 99.0

    g = apply_noise(F, AttackSetting("gaussian"), np.random.default_rng(1), 1)[0]
    dev = g - F
    assert np.std(dev) == pytest.approx(0.01 * rms, rel=0.1)

    u = apply_noise(F, AttackSetting("uniform"), np.random.default_rng(2), 1)[0]
    dev = u - F
    assert np.max(np.abs(dev)) <= 0.02 * rms + 1e-15

    s = apply_noise(F, AttackSetting("impulse"), np.random.default_rng(3), 1)[0]
    dev = s - F
    hit = np.abs(dev) > 0
    assert 0.01 < np.mean(hit) < 0.12  # sparse, around the 5% rate
    assert np.allclose(np.abs(dev[hit]), 0.5 * rms)


@pytest.mark.parametrize("kind", NOISE_KINDS)
def test_apply_noise_stack_is_one_trial_after_another(kind):
    """A stack of k trials holds the same floats as k one-trial calls on
    the same generator, in order: the attack table's stream does not
    depend on how its trials are blocked."""
    F = np.random.default_rng(5).normal(size=(60, 2))
    setting = AttackSetting(kind)
    stack = apply_noise(F, setting, np.random.default_rng(9), 5)
    rng = np.random.default_rng(9)
    one_by_one = np.stack([apply_noise(F, setting, rng, 1)[0] for _ in range(5)])
    assert stack.tobytes() == one_by_one.tobytes()


def test_default_settings_cover_all_kinds():
    settings = default_settings()
    assert tuple(s.noise_kind for s in settings) == NOISE_KINDS
    for s in settings:
        assert s.noise_scale == DEFAULT_SCALES[s.noise_kind]
    with pytest.raises(ValueError):
        AttackSetting("salt-and-pepper")
    with pytest.raises(ValueError):
        AttackSetting("none", trials=0)


def test_probe_dither_deterministic_and_bounded():
    d1 = probe_dither(60, 1, seed=3)
    d2 = probe_dither(60, 1, seed=3)
    assert np.array_equal(d1, d2)
    assert d1.shape == (60, 1)
    assert np.max(np.abs(d1)) <= 0.3
    assert not np.array_equal(d1, probe_dither(60, 1, seed=4))


def test_observation_shapes_and_feature_domains(observations):
    T = attack_scenario().T
    for backend in BACKENDS:
        feats, inputs, truth = observations[backend]
        assert feats.shape == (T, 2)
        assert inputs.shape == (T, 1)
        assert truth.shape == (T, 2)
    assert np.all(observations["qe"][0] > 0)  # exp-domain ciphertexts
    # log2 of nonzero residues mod n^2 stays below 2L bits
    assert np.all(observations["paillier"][0] <= 2 * 512)
    # qe tracks the plaintext loop to roundoff, paillier to its
    # fixed-point budget; the quantized loop genuinely drifts (wire
    # quantization error feeds back through the plant)
    base = observations["plaintext"][2]
    assert np.allclose(observations["qe"][2], base, atol=1e-9)
    assert np.allclose(observations["paillier"][2], base, atol=1e-2)


# qe's digest recorded when the cipher moved to libm on Python floats,
# plaintext's when its law became one math.fsum per input (apply_law)
FEATURE_DIGESTS = {
    "plaintext": "57590352cc14515d35aeed692c8a3f703132c1bdee668ec4a51d3cb64208cfea",
    "qe": "ae90dd752b58cba866c59b28128d2274d5ce1fe57023071a932f81f6b108df6e",
    "qe_quantized": "ec056ffda5172658ad6232fabe0ba52be4516a22c89d05cf4b1abb4f2645a45f",
    "paillier": "5a11120d53867210190d9f9af1377c33b62fab88d21d1b32edb8a06b76ec9a3d",
}


def test_observed_features_pinned(observations):
    """SHA-256 of each backend's binary64 feature array: the adversary's
    reading of the sensor link stays bit for bit what it was."""
    for backend in BACKENDS:
        feats = np.ascontiguousarray(observations[backend][0], dtype="<f8")
        assert feats.shape == (attack_scenario().T, 2)
        digest = hashlib.sha256(feats.tobytes()).hexdigest()
        assert digest == FEATURE_DIGESTS[backend], backend


def test_noise_free_single_trial_ratios(observations):
    setting = AttackSetting("none", trials=1)
    scores = {}
    for backend in BACKENDS:
        feats, inputs, truth = observations[backend]
        theta = fit_ls_predictor(feats[None], inputs[None])
        xhat, steps = rollout(theta, truth[None, 0], inputs[None])
        scores[backend] = confidentiality_score(truth[None], xhat, steps).value[0]
    assert scores["plaintext"] < 1e-3
    for backend in BACKENDS[1:]:
        assert scores[backend] >= 10 * scores["plaintext"]
        assert scores[backend] >= 0.005


def test_ordering_table_and_separation(observations):
    """Encrypted scores beat plaintext by >= 5x in all four settings."""
    table = run_attack_table(observations, default_settings(trials=200), seed=3)
    for kind in NOISE_KINDS:
        plain = table[(kind, "plaintext")]
        for backend in BACKENDS[1:]:
            assert table[(kind, backend)] > plain
            assert table[(kind, backend)] >= 5.0 * plain, (kind, backend)
    assert table[("none", "plaintext")] < 1e-3


# recorded when the plaintext law became one math.fsum per input
# (apply_law), which moved the plaintext loop's states
ATTACK_TABLE_DIGESTS = {
    (200, 3): "8794ecbe3e4e1c0dd6472d83b416fb06c536a255195311eae12248deaa8f1344",
    (8, 0): "6c2c1c0b136609f08cbcd5e65f4e8c6e0d068e67585d5c490bace716cc6465f9",
    (8, 1): "463938558041281bdd8ab845a0bcbf8c089efd81f63b6d039a47118b881ce366",
    (8, 2): "d827f7824d24acd18edc0227b4630c33967a99a0811819bd8d59bb25bd4ecf29",
}


def test_attack_table_pinned(observations):
    """SHA-256 of the table's CSV text: every cell stays bit for bit."""
    for (trials, seed), expected in ATTACK_TABLE_DIGESTS.items():
        table = run_attack_table(observations,
                                 default_settings(trials=trials), seed=seed)
        text = attack_table_csv(table, BACKENDS)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == expected, (trials, seed)


def test_attack_table_csv_shape():
    table = {(kind, b): 1.0 for kind in NOISE_KINDS for b in BACKENDS}
    table[("none", "plaintext")] = float("nan")
    text = attack_table_csv(table, BACKENDS)
    lines = text.strip().split("\r\n")
    assert lines[0] == "noise," + ",".join(BACKENDS)
    assert len(lines) == 1 + len(NOISE_KINDS)
    assert lines[1].split(",")[1] == "undefined"


def test_attack_table_deterministic(observations):
    settings = (AttackSetting("gaussian", trials=20),)
    t1 = run_attack_table(observations, settings, seed=7)
    t2 = run_attack_table(observations, settings, seed=7)
    assert t1 == t2
    t3 = run_attack_table(observations, settings, seed=8)
    assert t1 != t3


def reference_fit(P, U):
    n, m = P.shape[1], U.shape[1]
    Z = np.hstack([P[:-1], U[: P.shape[0] - 1]])
    Y = P[1:]
    G = Z.T @ Z + RIDGE * np.eye(n + m)
    return np.linalg.solve(G, Z.T @ Y).T


def reference_rollout(theta, x0, U):
    x = np.asarray(x0, dtype=float).ravel().copy()
    out = [x.copy()]
    for u in U:
        x = theta @ np.concatenate([x, np.ravel(u)])
        out.append(x.copy())
        if np.linalg.norm(x) > DIVERGENCE_CAP:
            break
    return np.array(out)


def reference_score(X, Xh):
    terms = []
    for k in range(min(X.shape[0], Xh.shape[0])):
        nrm = np.linalg.norm(X[k])
        if nrm <= NORM_FLOOR:
            continue
        terms.append(np.linalg.norm(Xh[k] - X[k]) / nrm)
    return math.fsum(terms) / len(terms) if terms else float("nan")


def reference_run_attack_table(observations, settings, seed):
    """One trial at a time: perturb, fit, roll out, score."""
    table = {}
    for si, setting in enumerate(settings):
        for bi, (backend, (features, inputs, truth)) in enumerate(
                observations.items()):
            rng = np.random.default_rng(np.random.SeedSequence([seed, si, bi]))
            vals = []
            for _ in range(setting.trials):
                noisy = apply_noise(features, setting, rng, 1)[0]
                theta = reference_fit(noisy, inputs)
                value = reference_score(
                    truth, reference_rollout(theta, truth[0], inputs))
                if not math.isnan(value):
                    vals.append(value)
            table[(setting.noise_kind, backend)] = (
                math.fsum(vals) / len(vals) if vals else float("nan"))
    return table


def assert_same_table(got, expected):
    """Same cells, same floats bit for bit (NaN matches NaN)."""
    assert list(got) == list(expected)
    for cell, value in expected.items():
        assert float(got[cell]).hex() == value.hex(), cell


@pytest.mark.parametrize("trials,seeds", [(1, (0, 4, 9)), (3, (1, 6)), (8, (2, 5))])
def test_table_matches_reference_on_fixture(observations, trials, seeds):
    for seed in seeds:
        settings = default_settings(trials=trials)
        assert_same_table(run_attack_table(observations, settings, seed),
                          reference_run_attack_table(observations, settings, seed))


def unstable_observations(T=60):
    """Synthetic cells: an unstable plant whose fitted rollouts diverge,
    the same fit rolled out from 1e150, whose rollout would overflow
    within T steps were it not stopped at the cap, a truth with exact
    zero rows, and a truth that is zero throughout."""
    A = np.array([[1.4, 0.3], [0.0, 1.3]])
    B = np.array([[0.2], [1.0]])
    rng = np.random.default_rng(17)
    U = rng.uniform(-1.0, 1.0, size=(T, 1))
    X = np.empty((T, 2))
    X[0] = [1.0, -0.5]
    for k in range(T - 1):
        X[k + 1] = A @ X[k] + B @ U[k]
    gapped = rng.normal(size=(T, 2))
    gapped[[0, 7, 31]] = 0.0
    zero = np.zeros((T, 2))
    return {
        "unstable": (X, U, X),
        "explosive": (X, U, np.full((T, 2), 1e150)),
        "distorted": (np.tanh(X / 50.0), U, X),
        "gapped": (gapped, U, gapped),
        "zero": (rng.normal(size=(T, 2)), U, zero),
    }


def test_table_matches_reference_on_divergent_and_degenerate_cells():
    """Diverging rollouts raise no overflow warning, a zero-norm truth row
    is skipped, and an all-zero truth leaves its cells undefined."""
    obs = unstable_observations()
    settings = (AttackSetting("none", trials=2), AttackSetting("gaussian", trials=5),
                AttackSetting("uniform", trials=1), AttackSetting("impulse", trials=4))
    for seed in (0, 13):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = run_attack_table(obs, settings, seed)
        expected = reference_run_attack_table(obs, settings, seed)
        assert_same_table(table, expected)
        assert all(math.isnan(table[(s.noise_kind, "zero")]) for s in settings)
        assert all(math.isfinite(table[(s.noise_kind, b)])
                   for s in settings
                   for b in ("unstable", "explosive", "distorted", "gapped"))
    # the unstable cell does diverge, and its stacked rollout stops there
    X, U, _ = obs["unstable"]
    theta = fit_ls_predictor(X[None], U[None])
    xhat, steps = rollout(theta, X[None, 0], U[None])
    assert steps[0] < len(U) + 1
    assert np.array_equal(xhat[0, : steps[0]],
                          reference_rollout(theta[0], X[0], U))


def test_table_blocks_and_cell_shapes_match_reference(observations, monkeypatch):
    """A cell split over several blocks (the last one short) gives the
    reference floats; backends may differ in length; no settings, no
    cells."""
    obs = dict(observations)
    feats, inputs, truth = obs.pop("paillier")
    obs["short"] = (feats[:40], inputs[:40], truth[:40])
    monkeypatch.setattr(attack, "TRIAL_BLOCK", 3)
    settings = default_settings(trials=8)
    assert_same_table(run_attack_table(obs, settings, 11),
                      reference_run_attack_table(obs, settings, 11))
    assert run_attack_table(obs, (), 11) == {}


def test_benchmark_shaped_table_is_one_stacked_pass(observations, monkeypatch):
    """Twelve cells of equal length and 8 trials each (the benchmark's
    reduced experiment: 4 noise kinds x 3 backends) make one block: one
    fit and one rollout of all 96 trials, with the reference floats."""
    obs = {b: observations[b] for b in BACKENDS[:3]}
    calls = []

    def spy(name, fn):
        def counted(*args):
            calls.append((name, len(args[0])))
            return fn(*args)
        return counted

    monkeypatch.setattr(attack, "fit_ls_predictor", spy("fit", fit_ls_predictor))
    monkeypatch.setattr(attack, "rollout", spy("rollout", rollout))
    settings = default_settings(trials=8)
    table = run_attack_table(obs, settings, 21)
    assert calls == [("fit", 96), ("rollout", 96)]
    assert_same_table(table, reference_run_attack_table(obs, settings, 21))


def test_overflowing_trial_in_a_stack_keeps_its_reference_rows(monkeypatch):
    """A trial that passes the cap and then steps on to inf and NaN
    shares its stack with a steady trial and one that diverges slowly:
    each keeps its one-trial reference's steps and rows, is frozen at
    its last row after them, and no RuntimeWarning is raised."""
    A, B, xs, us = synthetic_linear_data(T=60)
    thetas = np.stack([np.hstack([A, B]),
                       np.hstack([1e8 * np.eye(2), np.ones((2, 1))]),
                       np.hstack([10.0 * np.eye(2), np.zeros((2, 1))])])
    x0 = np.stack([xs[0], [1e-10, -1e-10], xs[0]])
    U = np.broadcast_to(us, (3,) + us.shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        xhat, steps = rollout(thetas, x0, U)
        # without the cap the second trial's rows reach inf, then NaN
        monkeypatch.setattr(attack, "DIVERGENCE_CAP", np.inf)
        uncapped, _ = rollout(thetas, x0, U)
    assert np.isinf(uncapped[1]).any() and np.isnan(uncapped[1, -1]).all()
    assert steps.tolist() == [len(us) + 1, 3, 7]
    for i in range(3):
        ref = reference_rollout(thetas[i], x0[i], us)
        assert steps[i] == len(ref)
        assert np.array_equal(xhat[i, : steps[i]], ref)
        assert np.all(xhat[i, steps[i]:] == ref[-1])


def test_stacked_fit_rollout_score_match_one_trial_each(observations):
    """Every field of a stacked fit, rollout and score equals its
    one-trial reference."""
    rng = np.random.default_rng(4)
    feats, inputs, truth = observations["qe"]
    noisy = np.stack([apply_noise(feats, AttackSetting("gaussian", noise_scale=s), rng, 1)[0]
                      for s in (0.0, 0.01, 0.3, 3.0)])
    U = np.broadcast_to(inputs, (4,) + inputs.shape)
    X = np.broadcast_to(truth, (4,) + truth.shape)
    thetas = fit_ls_predictor(noisy, U)
    xhat, steps = rollout(thetas, X[:, 0], U)
    score = confidentiality_score(X, xhat, steps)
    for i in range(4):
        theta = reference_fit(noisy[i], inputs)
        assert thetas[i].tobytes() == theta.tobytes()
        ref = reference_rollout(theta, truth[0], inputs)
        assert steps[i] == len(ref)
        assert np.array_equal(xhat[i, : steps[i]], ref)
        assert score.value[i] == reference_score(truth, ref)


@pytest.mark.parametrize("steps, T, named", [(3, 60, "steps = 3"),
                                             (None, 3, "'attack-probe' T = 3")])
def test_observations_refuse_too_short_episode(probe_controller, steps, T, named):
    """Fewer steps than the n + m + 1 = 4 samples of the fit are refused
    before any loop runs, whether cfg.steps or the scenario's T sets them;
    4 steps run."""
    scenario = dataclasses.replace(attack_scenario(), T=T)
    need = re.escape("at least n + m + 1 = 4 steps")
    with pytest.raises(ConfigError, match=re.escape(named) + ".*" + need):
        gather_observations(scenario, probe_controller, RunConfig(steps=steps),
                            ("plaintext",))
    obs = gather_observations(scenario, probe_controller, RunConfig(steps=4),
                              ("plaintext",))
    assert obs["plaintext"][0].shape == (4, 2)


def test_observations_refuse_nonzero_reference(bench_controller):
    """Wire features are x - x_ss while truth is absolute, so a scenario
    with a nonzero reference would be scored in mixed frames."""
    with pytest.raises(ConfigError, match="reference program"):
        gather_observations(benchmark_scenario(), bench_controller,
                            RunConfig(), ("plaintext",))
