"""Least-squares identification adversary against the wire traffic.

The eavesdropper sees every sensor-link message and reads its first n
fields through the link's own field codec (protocol.wire_field), so its
view is the protocol's decode of the wire.  Those fields are the
regression features (plaintext: the state itself; QE: the positive real
ciphertexts; quantized QE: the dequantized words), except that Paillier's
residues become their log2.  It fits a one-step linear predictor by
ridge-regularized least squares, and rolls it out from the true initial
state with the true input sequence.  Confidentiality is measured as the
average relative error of that rollout against the true trajectory, so
bigger is better for the defender.

Observation noise (gaussian, uniform, or sparse impulses, scaled by the
feature RMS) perturbs only what the adversary records, never the loop.

A table runs each cell's trials as one batch (blocks of TRIAL_BLOCK):
the cell draws its noise trial by trial from its own seeded generator,
as a one-trial loop would, and then one fit, one rollout (one stacked
product per step) and one score handle the whole stack.  Fit, rollout
and score take stacks of trials only (trials x T x .; one trial is a
stack of one), and every trial's result equals that of the trial run
alone, bit for bit.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import wire
from .config import ConfigError
from .mpqp import fmt_17g
from .protocol import make_parties, wire_field
from .simulation import episode_steps, run_closed_loop

NOISE_KINDS = ("none", "gaussian", "uniform", "impulse")

# noise magnitudes relative to the feature RMS
DEFAULT_SCALES = {"none": 0.0, "gaussian": 0.01, "uniform": 0.02, "impulse": 0.5}
IMPULSE_RATE = 0.05

DIVERGENCE_CAP = 1e6
NORM_FLOOR = 1e-12
RIDGE = 1e-9
# most trials per stacked pass, so memory does not grow with the trial count
TRIAL_BLOCK = 256


@dataclass(frozen=True)
class AttackSetting:
    noise_kind: str
    noise_scale: float = None
    trials: int = 200
    T: int = 60

    def __post_init__(self):
        if self.noise_kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.noise_kind!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.noise_scale is None:
            object.__setattr__(self, "noise_scale",
                               DEFAULT_SCALES[self.noise_kind])


def default_settings(trials=200, T=60):
    return tuple(AttackSetting(kind, trials=trials, T=T) for kind in NOISE_KINDS)


def _norms(V):
    """Euclidean norm of each row along the last axis, as np.linalg.norm
    takes it of one vector (sqrt of its dot product with itself)."""
    return np.sqrt(np.vecdot(V, V))


def fit_ls_predictor(proxies, inputs):
    """Theta = argmin sum ||proxy(k+1) - Theta [proxy(k); u(k)]||^2.

    Solved through the ridge-regularized normal equations, so a feature
    matrix without full column rank is still solved.  proxies (trials,
    T, n) and inputs (trials, T or T-1, m) fit every trial at once;
    returns Theta, trials x n x (n+m).
    """
    P = np.asarray(proxies, dtype=float)
    U = np.asarray(inputs, dtype=float)
    T, n = P.shape[1:]
    m = U.shape[2]
    if U.shape[:2] not in ((P.shape[0], T), (P.shape[0], T - 1)):
        raise ValueError("inputs must cover every proxy transition")
    if T < n + m + 1:
        raise ValueError(f"need at least {n + m + 1} samples, got {T}")
    Z = np.concatenate([P[:, :-1], U[:, : T - 1]], axis=2)
    Y = P[:, 1:]
    Zt = Z.transpose(0, 2, 1)
    G = Zt @ Z + RIDGE * np.eye(n + m)
    # each trial's theta is the F-ordered transpose of its solve, the
    # layout every later product of the rollout is rounded in
    return np.linalg.solve(G, Zt @ Y).transpose(0, 2, 1)


def rollout(theta, x0, inputs):
    """Iterate xhat(k+1) = Theta [xhat(k); u(k)] from the true x(0).

    theta is fit_ls_predictor's trials x n x (n+m), x0 trials x n and
    inputs trials x T x m; every trial steps with one product per step.
    Returns (xhat, steps): trial i's rollout is xhat[i, :steps[i]],
    truncated after its first row over the divergence cap, and a
    diverged trial stays frozen at that row after it.
    """
    U = np.asarray(inputs, dtype=float)
    x = np.asarray(x0, dtype=float)
    N, T, m = U.shape
    n = x.shape[1]
    out = np.empty((N, T + 1, n))
    out[:, 0] = x
    z = np.empty((N, n + m, 1))
    live = np.ones(N, dtype=bool)
    steps = np.full(N, T + 1)
    for k in range(T):
        z[:, :n, 0] = out[:, k]
        z[:, n:, 0] = U[:, k]
        x = np.matmul(theta, z)[:, :, 0]
        out[:, k + 1] = np.where(live[:, None], x, out[:, k])
        over = live & (_norms(x) > DIVERGENCE_CAP)
        steps[over] = k + 2
        live &= ~over
    return out, steps


@dataclass
class ScoreResult:
    """A stack's scores, one entry per trial."""

    value: np.ndarray
    counted: np.ndarray

    @property
    def defined(self):
        return self.counted > 0


def confidentiality_score(truth, predicted, steps=None):
    """Average over steps of ||xhat(k) - x(k)|| / ||x(k)||.

    Steps with ||x(k)|| at numerical zero are skipped; an
    all-skipped comparison is undefined (value nan).  Terms accumulate
    with compensated summation so trial order cannot change the result.
    Stacks of trials (trials x T x n) are scored at once, each over its
    first steps[i] rows when steps is given.
    """
    X = np.asarray(truth, dtype=float)
    Xh = np.asarray(predicted, dtype=float)
    K = min(X.shape[1], Xh.shape[1])
    X, Xh = X[:, :K], Xh[:, :K]
    rows = np.arange(K) < (K if steps is None else np.asarray(steps)[:, None])
    nrm = _norms(X)
    keep = rows & ~(nrm <= NORM_FLOOR)
    terms = np.divide(_norms(Xh - X), nrm, out=np.zeros_like(nrm), where=keep)
    counted = keep.sum(axis=1)
    value = np.array([math.fsum(t[k].tolist()) / c if c else float("nan")
                      for t, k, c in zip(terms, keep, counted.tolist())])
    return ScoreResult(value=value, counted=counted)


def observe_features(log, backend, field, n):
    """Adversary's per-cycle feature vectors from the sensor messages in
    run_cycle's tap `log`: the n state fields past the plaintext region
    index, read with `field`."""
    rows = []
    for body in [msg.body for msg in log if msg.link == "s_to_c"]:
        vals, _ = field.decode(body, (n,), wire.decode_u32(body)[1])
        if backend == "paillier":
            vals = [math.log2(v) if v > 0 else 0.0 for v in vals]
        rows.append(vals)
    return np.array(rows, dtype=float)


def apply_noise(features, setting, rng, trials):
    """trials perturbed copies of the adversary's recording, stacked
    (trials x T x n); the loop itself is untouched.

    The features' rms is taken once per call. Gaussian and uniform noise
    come from one draw for the whole stack, which is the stream of one
    draw per trial; impulse noise interleaves its mask and spike signs
    trial by trial.
    """
    F = np.asarray(features, dtype=float)
    shape = (trials,) + F.shape
    if setting.noise_kind == "none":
        return np.broadcast_to(F, shape).copy()
    scale = setting.noise_scale * float(np.sqrt(np.mean(F**2)))
    if setting.noise_kind == "gaussian":
        return F + rng.normal(0.0, scale, size=shape)
    if setting.noise_kind == "uniform":
        return F + rng.uniform(-scale, scale, size=shape)
    spikes = np.empty(shape)
    for spike in spikes:
        mask = rng.random(F.shape) < IMPULSE_RATE
        spike[...] = mask * (scale * rng.choice([-1.0, 1.0], size=F.shape))
    return F + spikes


def attack_once(noisy, inputs, truth):
    """One adversary pass over a stack of trials (trials x T x .):
    fit, roll out and score every noisy recording at once."""
    theta = fit_ls_predictor(noisy, inputs)
    xhat, steps = rollout(theta, truth[:, 0], inputs)
    return confidentiality_score(truth, xhat, steps)


PROBE_SCALE = 0.3


def probe_dither(T, m, seed):
    """Seeded uniform probing sequence added to the applied input.

    The closed loop alone makes u a function of x, so the regression
    matrix [x; u] is collinear and the identified predictor is an
    artifact of the noise.  The probe decollinearizes the data the way
    any identification experiment must; it perturbs every backend's run
    identically.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9E0B]))
    return rng.uniform(-PROBE_SCALE, PROBE_SCALE, size=(T, m))


def check_episode(scenario, cfg):
    """Refuse an episode the attack cannot score, before any controller
    exists; n and m are the scenario's.

    The reference program must be 0 at every step: the wire carries the
    shifted state x - x_ss, and the truth and inputs are absolute, so
    they share a frame only when x_ss = 0 throughout.  An episode shorter
    than the fit's n + m + 1 samples is a ConfigError.
    """
    if any(np.any(np.asarray(r) != 0) for _, r in scenario.r_steps):
        raise ConfigError(
            "the attack needs a reference program that is 0 at every step: "
            "features come from the wire (x - x_ss) but truth is the "
            f"absolute state, so r_steps {list(scenario.r_steps)} would "
            "score the adversary in mixed frames")
    n, m = scenario.B.shape
    steps, need = episode_steps(scenario, cfg), n + m + 1
    if steps < need:
        name = "steps" if cfg.steps else f"scenario {scenario.name!r} T"
        raise ConfigError(f"{name} = {steps} is too short: the attack's fit "
                          f"needs at least n + m + 1 = {need} steps")


def gather_observations(scenario, controller, cfg, backends):
    """Run the true loop once per backend under an eavesdropper tap.

    Each run's parties, and the adversary's reading of their wire, come
    from cfg with that backend (run_closed_loop, wire_field); the episode
    and every run's parties are judged before the first loop runs.
    Returns {backend: (features, inputs, truth_states)} where inputs are
    the applied control sequence including the probing dither (granted
    to the adversary; the plaintext wire carries the state anyway and
    giving every adversary the true inputs only makes the
    confidentiality comparison conservative).
    """
    check_episode(scenario, cfg)
    dither = probe_dither(episode_steps(scenario, cfg), controller.m, cfg.seed_attack)
    runs = [replace(cfg, backend=backend) for backend in backends]
    for run in runs:
        make_parties(controller, run.backend, run)
    obs = {}
    for run in runs:
        log = []
        traj = run_closed_loop(scenario, run, controller=controller,
                               log=log, dither=dither)
        if traj.fault:
            raise RuntimeError(f"{run.backend} observation run faulted: {traj.fault}")
        features = observe_features(log, run.backend, wire_field(run.backend, run),
                                    controller.n)
        inputs = np.array([rec.u for rec in traj.records])
        truth = np.array([rec.x for rec in traj.records])
        obs[run.backend] = (features[: len(truth)], inputs, truth)
    return obs


def run_attack_table(observations, settings, seed):
    """Mean confidentiality score per (setting, backend).

    observations maps backend name to (features, inputs, truth_states).
    Each (setting, backend) cell averages setting.trials independent
    noise realizations from its own seeded generator.  A cell's trials
    are drawn, fitted, rolled out and scored as stacks of at most
    TRIAL_BLOCK trials, so memory does not grow with the trial count.
    """
    table = {}
    for si, setting in enumerate(settings):
        for bi, (backend, (features, inputs, truth)) in enumerate(
                observations.items()):
            rng = np.random.default_rng(np.random.SeedSequence([seed, si, bi]))
            vals = []
            for start in range(0, setting.trials, TRIAL_BLOCK):
                k = min(TRIAL_BLOCK, setting.trials - start)
                noisy = apply_noise(features, setting, rng, k)
                scores = attack_once(noisy,
                                     np.broadcast_to(inputs, (k,) + inputs.shape),
                                     np.broadcast_to(truth, (k,) + truth.shape))
                vals += scores.value[scores.defined].tolist()
            table[(setting.noise_kind, backend)] = (
                math.fsum(vals) / len(vals) if vals else float("nan"))
    return table


def attack_table_csv(table, backends):
    """CSV with one row per noise setting, one column per backend."""
    fmt = lambda v: "undefined" if math.isnan(v) else fmt_17g(v)
    lines = [",".join(["noise"] + list(backends))]
    for kind in NOISE_KINDS:
        row = [kind] + [fmt(table[(kind, b)]) for b in backends]
        lines.append(",".join(row))
    return "\r\n".join(lines) + "\r\n"
