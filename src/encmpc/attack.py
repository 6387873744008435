"""Least-squares identification adversary against the wire traffic.

The eavesdropper sees every sensor-link message, maps each one to an
n-vector of regression features (plaintext: the state itself; QE: the
positive real ciphertexts; quantized QE: the dequantized words; Paillier:
log2 of the ciphertext residues), fits a one-step linear predictor by
ridge-regularized least squares, and rolls it out from the true initial
state with the true input sequence.  Confidentiality is measured as the
average relative error of that rollout against the true trajectory, so
bigger is better for the defender.

Observation noise (gaussian, uniform, or sparse impulses, scaled by the
feature RMS) perturbs only what the adversary records, never the loop.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import wire
from .mpqp import fmt_17g
from .qe_cipher import dequantize

NOISE_KINDS = ("none", "gaussian", "uniform", "impulse")

# noise magnitudes relative to the feature RMS
DEFAULT_SCALES = {"none": 0.0, "gaussian": 0.01, "uniform": 0.02, "impulse": 0.5}
IMPULSE_RATE = 0.05

DIVERGENCE_CAP = 1e6
NORM_FLOOR = 1e-12
RIDGE = 1e-9


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


@dataclass
class LsPredictor:
    theta: np.ndarray  # n x (n+m)
    residual: float
    rank_deficient: bool


def fit_ls_predictor(proxies, inputs):
    """Theta = argmin sum ||proxy(k+1) - Theta [proxy(k); u(k)]||^2.

    Solved through the ridge-regularized normal equations; a feature
    matrix without full column rank is still solved but flagged.
    """
    P = np.atleast_2d(np.asarray(proxies, dtype=float))
    U = np.atleast_2d(np.asarray(inputs, dtype=float))
    if U.shape[0] not in (P.shape[0], P.shape[0] - 1):
        raise ValueError("inputs must cover every proxy transition")
    n = P.shape[1]
    m = U.shape[1]
    if P.shape[0] < n + m + 1:
        raise ValueError(f"need at least {n + m + 1} samples, got {P.shape[0]}")
    Z = np.hstack([P[:-1], U[: P.shape[0] - 1]])
    Y = P[1:]
    G = Z.T @ Z + RIDGE * np.eye(n + m)
    theta = np.linalg.solve(G, Z.T @ Y).T
    residual = float(np.linalg.norm(Y - Z @ theta.T))
    deficient = np.linalg.matrix_rank(Z) < n + m
    return LsPredictor(theta=theta, residual=residual, rank_deficient=deficient)


def rollout(pred, x0, inputs):
    """Iterate xhat(k+1) = Theta [xhat(k); u(k)] from the true x(0).

    Truncates once ||xhat|| exceeds the divergence cap; the flag reports
    whether that happened.
    """
    U = np.atleast_2d(np.asarray(inputs, dtype=float))
    x = np.asarray(x0, dtype=float).ravel().copy()
    out = [x.copy()]
    diverged = False
    for u in U:
        x = pred.theta @ np.concatenate([x, np.ravel(u)])
        out.append(x.copy())
        if np.linalg.norm(x) > DIVERGENCE_CAP:
            diverged = True
            break
    return np.array(out), diverged


@dataclass
class ScoreResult:
    value: float
    counted: int
    skipped: int

    @property
    def defined(self):
        return self.counted > 0

    def __float__(self):
        return self.value


def confidentiality_score(truth, predicted):
    """Average over steps of ||xhat(k) - x(k)|| / ||x(k)||.

    Steps with ||x(k)|| at numerical zero are skipped and counted; an
    all-skipped comparison is undefined (value nan).  Terms accumulate
    with compensated summation so trial order cannot change the result.
    """
    X = np.atleast_2d(np.asarray(truth, dtype=float))
    Xh = np.atleast_2d(np.asarray(predicted, dtype=float))
    K = min(X.shape[0], Xh.shape[0])
    terms = []
    skipped = 0
    for k in range(K):
        nrm = np.linalg.norm(X[k])
        if nrm <= NORM_FLOOR:
            skipped += 1
            continue
        terms.append(np.linalg.norm(Xh[k] - X[k]) / nrm)
    if not terms:
        return ScoreResult(value=float("nan"), counted=0, skipped=skipped)
    return ScoreResult(value=math.fsum(terms) / len(terms),
                       counted=len(terms), skipped=skipped)


def observe_features(log, backend, n, w=None):
    """Adversary's per-cycle feature vectors from the sensor link."""
    rows = []
    for body in log.bodies("s_to_c"):
        rest = body[4:]  # past the plaintext region index
        if backend in ("plaintext", "qe"):
            vals, _ = wire.decode_f64_vec(rest, n)
        elif backend == "qe_quantized":
            words, _ = wire.unpack_words(rest, n, w)
            vals = np.array([dequantize(word) for word in words])
        elif backend == "paillier":
            vals = np.empty(n)
            off = 0
            for i in range(n):
                v, off = wire.decode_he_ct(rest, off)
                vals[i] = math.log2(v) if v > 0 else 0.0
        else:
            raise ValueError(f"unknown backend {backend!r}")
        rows.append(vals)
    return np.array(rows)


def apply_noise(features, setting, rng):
    """Perturb the adversary's recording; the loop itself is untouched."""
    F = np.asarray(features, dtype=float)
    if setting.noise_kind == "none":
        return F.copy()
    rms = float(np.sqrt(np.mean(F**2)))
    scale = setting.noise_scale * rms
    if setting.noise_kind == "gaussian":
        return F + rng.normal(0.0, scale, size=F.shape)
    if setting.noise_kind == "uniform":
        return F + rng.uniform(-scale, scale, size=F.shape)
    mask = rng.random(F.shape) < IMPULSE_RATE
    spikes = scale * rng.choice([-1.0, 1.0], size=F.shape)
    return F + mask * spikes


def attack_once(features, inputs, truth, setting, rng):
    """One adversary trial: perturb, fit, roll out, score."""
    noisy = apply_noise(features, setting, rng)
    pred = fit_ls_predictor(noisy, inputs)
    xhat, _ = rollout(pred, truth[0], inputs)
    return confidentiality_score(truth, xhat)


PROBE_SCALE = 0.3


def probe_dither(T, m, seed, scale=PROBE_SCALE):
    """Seeded uniform probing sequence added to the applied input.

    The closed loop alone makes u a function of x, so the regression
    matrix [x; u] is collinear and the identified predictor is an
    artifact of the noise.  The probe decollinearizes the data the way
    any identification experiment must; it perturbs every backend's run
    identically.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9E0B]))
    return rng.uniform(-scale, scale, size=(T, m))


def gather_observations(scenario, controller, cfg, backends, keypair=None,
                        dither=None):
    """Run the true loop once per backend under an eavesdropper tap.

    Returns {backend: (features, inputs, truth_states)} where inputs are
    the applied control sequence including the probing dither (granted
    to the adversary; the plaintext wire carries the state anyway and
    giving every adversary the true inputs only makes the
    confidentiality comparison conservative).
    """
    from .protocol import EavesdropLog
    from .simulation import run_closed_loop

    if dither is None:
        dither = probe_dither(scenario.T, controller.m, cfg.seed_attack)
    obs = {}
    for backend in backends:
        log = EavesdropLog()
        traj = run_closed_loop(scenario, backend, cfg, controller=controller,
                               keypair=keypair if backend == "paillier" else None,
                               log=log, dither=dither)
        if traj.fault:
            raise RuntimeError(f"{backend} observation run faulted: {traj.fault}")
        features = observe_features(log, backend, controller.n, w=cfg.w)
        inputs = np.array([rec.u for rec in traj.records])
        truth = np.array([rec.x for rec in traj.records])
        obs[backend] = (features[: len(truth)], inputs, truth)
    return obs


def run_attack_table(observations, settings, seed):
    """Mean confidentiality score per (setting, backend).

    observations maps backend name to (features, inputs, truth_states).
    Each (setting, backend) cell averages setting.trials independent
    noise realizations from its own seeded generator.
    """
    table = {}
    for si, setting in enumerate(settings):
        for bi, (backend, (features, inputs, truth)) in enumerate(
                observations.items()):
            rng = np.random.default_rng(np.random.SeedSequence([seed, si, bi]))
            vals = []
            for _ in range(setting.trials):
                res = attack_once(features, inputs, truth, setting, rng)
                if res.defined:
                    vals.append(res.value)
            table[(setting.noise_kind, backend)] = (
                math.fsum(vals) / len(vals) if vals else float("nan"))
    return table


def attack_table_csv(table, backends, noise_kinds=NOISE_KINDS):
    """CSV with one row per noise setting, one column per backend."""
    fmt = lambda v: "undefined" if math.isnan(v) else fmt_17g(v)
    lines = [",".join(["noise"] + list(backends))]
    for kind in noise_kinds:
        row = [kind] + [fmt(table[(kind, b)]) for b in backends]
        lines.append(",".join(row))
    return "\r\n".join(lines) + "\r\n"
