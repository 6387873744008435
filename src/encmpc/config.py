"""Numerical tolerances and run configuration shared across the workbench."""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .paillier import VALID_KEY_BITS


@dataclass(frozen=True)
class Tolerances:
    """Fixed numerical constants used by synthesis and point location.

    feasibility    slack allowed when testing membership in a polyhedron;
                   a raw slack on a_i'x - b_i, not a distance, since
                   stored region rows are not unit-normalized
    rank           relative: LICQ keeps a singular value of G_A only above
                   rank * max(sigma_max, 1), sigma_max the largest
    cheb_cutoff    regions with Chebyshev radius at or below this are dropped
    zero_row       region rows with norm at or below this are degenerate
    spd_min_eig    smallest eigenvalue required of R and of the condensed H
    """

    feasibility: float = 1e-9
    rank: float = 1e-10
    cheb_cutoff: float = 1e-9
    zero_row: float = 1e-11
    spd_min_eig: float = 1e-10


DEFAULT_TOL = Tolerances()

BACKENDS = ("plaintext", "qe", "qe_quantized", "paillier")

# range of the key's bits per beta coefficient, which RunConfig and
# keys.KeyConfig both check
W_B_RANGE = (2, 62)

# the dtype of a float array, which eval_region and step_plant take as
# it is when it is also flat
FLOAT64 = np.dtype(float)

# exp() overflow guard for the exp/log cipher: |z/beta| above this is a
# configuration error (plant scaling incompatible with key magnitudes)
EXP_ARG_LIMIT = 700.0


class ConfigError(ValueError):
    """Raised when a run configuration is internally inconsistent."""


def is_int(v) -> bool:
    """True for a Python or NumPy integer; a bool, a float (16.0
    included) or a string is not one."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def set_readonly(obj, name: str, value, ndim: int = 0) -> np.ndarray:
    """Set the field name of the frozen dataclass obj to a read-only float
    copy of value, at least 2-D for ndim=2 and flat for ndim=1 (the
    caller's array stays writable); returns the copy."""
    arr = np.array(np.ravel(value) if ndim == 1 else value, dtype=float, ndmin=ndim)
    arr.flags.writeable = False
    object.__setattr__(obj, name, arr)
    return arr


def load_json(path):
    """json.load of a UTF-8 file; a file that cannot be read or decoded,
    or malformed JSON (with its parse location), is a ConfigError naming
    the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read: {exc}") from exc


def from_dict(cls, data, what):
    """cls(**data) from a JSON object keyed by the dataclass's fields; what
    names the input in the ConfigError for a non-object, an unknown key, a
    missing field with no default, or a value that cls refuses."""
    if not isinstance(data, dict):
        raise ConfigError(f"{what}: must be a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    missing = [f.name for f in fields(cls) if f.name not in data
               and f.default is MISSING and f.default_factory is MISSING]
    for problem, names in (("unknown", unknown), ("missing", missing)):
        if names:
            raise ConfigError(f"{what}: {problem} fields {names}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:  # ConfigError is a ValueError
        raise ConfigError(f"{what}: {exc}") from exc


def align_accuracy(epsilon_q: float, rho: int) -> tuple[int, int]:
    """Matched-accuracy parameters (delta, w) for a target epsilon_q.

    delta is the smallest integer with rho**-delta <= epsilon_q and w the
    smallest with 2**-w <= epsilon_q.
    """
    if not 0.0 < epsilon_q < 1.0:
        raise ConfigError(f"epsilon_q must be in (0, 1), got {epsilon_q}")
    if rho < 2:
        raise ConfigError(f"rho must be >= 2, got {rho}")
    # guard against log() landing a hair above an exact integer
    delta = math.ceil(math.log(1.0 / epsilon_q) / math.log(rho) - 1e-9)
    w = math.ceil(math.log2(1.0 / epsilon_q) - 1e-9)
    return max(delta, 1), max(w, 1)


@dataclass(frozen=True)
class RunConfig:
    """Everything a CLI command needs to be reproducible.

    delta and w left as None are derived once, at construction, from
    epsilon_q via align_accuracy, or default to 10 and 16 when epsilon_q
    is unset.  With epsilon_q set, explicit delta and w must still meet
    the target.  A field out of its range (backend not one of BACKENDS, a
    seed outside [0, 2^64), w_b outside W_B_RANGE, key_bits not a
    supported Paillier size, attack_trials < 1, rho < 2, gamma < 0,
    delta < 1, w < 1, steps < 1), an integer field holding a non-integer
    (is_int), a path that is not a string, or an epsilon_q that is not a
    real number, is a ConfigError, whichever backend runs.  It is frozen,
    so dataclasses.replace, which runs every check again, makes a variant.
    """

    scenario_path: str = ""
    backend: str = "qe"
    seed_keys: int = 1
    seed_quant: int = 2
    seed_attack: int = 3
    w_b: int = 16
    w: int | None = None
    rho: int = 2
    gamma: int = 4
    delta: int | None = None
    key_bits: int = 512
    epsilon_q: float | None = None
    out_dir: str = "out"
    steps: int | None = None
    attack_trials: int = 200

    def __post_init__(self) -> None:
        for name, ok, need in (
                *((path, lambda v: isinstance(v, str), "a string")
                  for path in ("scenario_path", "out_dir")),
                ("backend", lambda v: v in BACKENDS, f"one of {', '.join(BACKENDS)}"),
                *((seed, lambda v: is_int(v) and 0 <= v < 2**64,
                   "an integer in [0, 2^64)")
                  for seed in ("seed_keys", "seed_quant", "seed_attack")),
                ("w_b", lambda v: is_int(v) and W_B_RANGE[0] <= v <= W_B_RANGE[1],
                 "an integer in [{}, {}]".format(*W_B_RANGE)),
                ("key_bits", lambda v: is_int(v) and v in VALID_KEY_BITS,
                 f"one of {VALID_KEY_BITS}"),
                ("attack_trials", lambda v: is_int(v) and v >= 1, "an integer >= 1"),
                ("rho", lambda v: is_int(v) and v >= 2, "an integer >= 2"),
                ("gamma", lambda v: is_int(v) and v >= 0, "an integer >= 0"),
                ("delta", lambda v: v is None or is_int(v) and v >= 1,
                 "an integer >= 1"),
                ("w", lambda v: v is None or is_int(v) and v >= 1, "an integer >= 1"),
                ("steps", lambda v: v is None or is_int(v) and v >= 1,
                 "an integer >= 1 or null"),
                ("epsilon_q", lambda v: v is None or isinstance(v, numbers.Real)
                 and not isinstance(v, bool), "a real number or null")):
            if not ok(getattr(self, name)):
                raise ConfigError(f"{name} must be {need}, got {getattr(self, name)!r}")
        eps = self.epsilon_q
        derived = (10, 16) if eps is None else align_accuracy(eps, self.rho)
        for name, value in zip(("delta", "w"), derived):
            if getattr(self, name) is None:
                object.__setattr__(self, name, value)
        if eps is None:
            return
        if self.rho ** -self.delta > eps * (1 + 1e-12):
            raise ConfigError(
                f"delta={self.delta} gives spacing {self.rho ** -self.delta} "
                f"> epsilon_q={eps}")
        if 2.0 ** -self.w > eps * (1 + 1e-12):
            raise ConfigError(
                f"w={self.w} gives quantizer RMS bound {2.0 ** -self.w} "
                f"> epsilon_q={eps}")
