"""Numerical tolerances and run configuration shared across the workbench."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Fixed numerical constants used by synthesis and point location.

    feasibility    slack allowed when testing membership in a polyhedron;
                   a raw slack on a_i'x - b_i, not a distance, since
                   stored region rows are not unit-normalized
    rank           singular values below this count as zero in LICQ checks
    cheb_cutoff    regions with Chebyshev radius at or below this are dropped
    dual_feas      multipliers may undershoot zero by this much
    zero_row       region rows with norm below this are degenerate
    spd_min_eig    smallest eigenvalue required of R and of the condensed H
    """

    feasibility: float = 1e-9
    rank: float = 1e-10
    cheb_cutoff: float = 1e-9
    dual_feas: float = 1e-9
    zero_row: float = 1e-11
    spd_min_eig: float = 1e-10


DEFAULT_TOL = Tolerances()

# exp() overflow guard for the exp/log cipher: |z/beta| above this is a
# configuration error (plant scaling incompatible with key magnitudes)
EXP_ARG_LIMIT = 700.0


class ConfigError(ValueError):
    """Raised when a run configuration is internally inconsistent."""


def load_json(path):
    """json.load with the parse location attached to any failure."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc


def align_accuracy(epsilon_q: float, rho: int) -> tuple[int, int, int]:
    """Matched-accuracy parameters (delta, w, p_min) for a target epsilon_q.

    delta is the smallest integer with rho**-delta <= epsilon_q, w the
    smallest with 2**-w <= epsilon_q, and p_min = w is the least internal
    precision for ciphertext arithmetic.
    """
    if not 0.0 < epsilon_q < 1.0:
        raise ConfigError(f"epsilon_q must be in (0, 1), got {epsilon_q}")
    if rho < 2:
        raise ConfigError(f"rho must be >= 2, got {rho}")
    # guard against log() landing a hair above an exact integer
    delta = math.ceil(math.log(1.0 / epsilon_q) / math.log(rho) - 1e-9)
    w = math.ceil(math.log2(1.0 / epsilon_q) - 1e-9)
    return max(delta, 1), max(w, 1), max(w, 1)


@dataclass
class RunConfig:
    """Everything a CLI command needs to be reproducible.

    delta and w left as None are derived from epsilon_q via
    align_accuracy, or default to 10 and 16 when epsilon_q is unset.
    With epsilon_q set, p_bits is raised to the derived minimum and
    explicit delta and w must still meet the target.
    """

    scenario_path: str = ""
    backend: str = "qe"
    seed_keys: int = 1
    seed_quant: int = 2
    seed_attack: int = 3
    w_b: int = 16
    w: int | None = None
    p_bits: int = 64
    rho: int = 2
    gamma: int = 4
    delta: int | None = None
    key_bits: int = 512
    epsilon_q: float | None = None
    out_dir: str = "out"
    steps: int | None = None
    attack_trials: int = 200

    def __post_init__(self) -> None:
        if self.epsilon_q is None:
            delta, w = 10, 16
        else:
            delta, w, p_min = align_accuracy(self.epsilon_q, self.rho)
            self.p_bits = max(self.p_bits, p_min)
        if self.delta is None:
            self.delta = delta
        if self.w is None:
            self.w = w
        self.validate_accuracy()

    def validate_accuracy(self) -> None:
        if self.epsilon_q is None:
            return
        eps = self.epsilon_q
        if self.rho ** -self.delta > eps * (1 + 1e-12):
            raise ConfigError(
                f"delta={self.delta} gives spacing {self.rho ** -self.delta} "
                f"> epsilon_q={eps}")
        if 2.0 ** -self.w > eps * (1 + 1e-12):
            raise ConfigError(
                f"w={self.w} gives quantizer RMS bound {2.0 ** -self.w} "
                f"> epsilon_q={eps}")
        if self.p_bits < self.w:
            raise ConfigError(
                f"p_bits={self.p_bits} below quantizer budget w={self.w}")
