"""Shared-randomness key streams standing in for Bell-pair measurements.

Sensor and actuator each hold a KeySource built from the same seed; a
counter-based generator keyed on (seed, cycle) lets both ends derive the
identical w_q = (n+m)*w_b bits for a cycle without communicating. The
cloud never sees the seed. The bits are partitioned group-major,
MSB-first within each group, and each w_b-bit group maps to a nonzero
integer coefficient beta.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .config import ConfigError, W_B_RANGE


class KeyLengthError(ValueError):
    pass


class KeyReuseError(RuntimeError):
    """A cycle's key was requested out of monotone order."""


@dataclass(frozen=True)
class KeyConfig:
    n: int
    m: int
    w_b: int = 16

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ConfigError("dimensions must be positive")
        if not W_B_RANGE[0] <= self.w_b <= W_B_RANGE[1]:
            raise ConfigError("w_b must be in [{}, {}]".format(*W_B_RANGE))

    # the sizes and bit-split constants are read every cycle, so each is
    # computed once per config (cached_property writes the instance dict)
    @cached_property
    def d(self) -> int:
        return self.n + self.m

    @cached_property
    def w_q(self) -> int:
        return self.d * self.w_b

    @cached_property
    def n_words(self) -> int:
        """64-bit words that hold the w_q bits of one cycle."""
        return -(-self.w_q // 64)

    @cached_property
    def split(self) -> tuple:
        """betas' constants: the group mask, each group's shift in the
        words, first group first, and beta_from_bits' sign-bit value
        2^(w_b-1) and range 2^w_b."""
        w_b, drop = self.w_b, 64 * self.n_words - self.w_q
        return ((1 << w_b) - 1, tuple(range(self.w_q - w_b + drop, drop - 1, -w_b)),
                1 << (w_b - 1), 1 << w_b)


class BetaVector(NamedTuple):
    beta: tuple  # d = n + m nonzero ints: n state, then m offset coefficients
    n: int
    m: int


class KeySource:
    """One endpoint's view of the shared randomness, and the one place
    key bits are drawn.

    betas(k) is cycle k's beta vector, betas(generate_key(seed, k, cfg),
    cfg), a pure function of (seed, k), so two sources with the same seed
    agree bit for bit; but each source also enforces strictly increasing
    cycle indices: key material is never reused.  A cycle index outside
    64 bits is refused before it counts as used.  Each source re-keys one
    Philox per cycle instead of building a new one.
    """

    def __init__(self, seed: int, cfg: KeyConfig):
        if not 0 <= seed < 2 ** 64:
            raise ConfigError("seed must fit in 64 bits")
        self.seed = int(seed)
        self.cfg = cfg
        self._last_k = -1
        self._bitgen = np.random.Philox(key=self.seed << 64)

    def betas(self, k: int) -> BetaVector:
        # generate_key refuses a k outside 64 bits before it counts as used
        words = generate_key(self.seed, k, self.cfg, self._bitgen)
        if k <= self._last_k:
            raise KeyReuseError(
                f"cycle {k} requested after cycle {self._last_k}; keys are single-use")
        self._last_k = k
        return betas(words, self.cfg)


# a Philox state with its counter at zero and its buffer empty; only the
# key differs from cycle to cycle
_ZEROS = (0, 0, 0, 0)
_PHILOX_AT_ZERO = {"bit_generator": "Philox", "buffer": _ZEROS, "buffer_pos": 4,
                   "has_uint32": 0, "uinteger": 0}


def generate_key(seed: int, k: int, cfg: KeyConfig, bitgen=None) -> list:
    """Cycle k's key: cfg.n_words 64-bit ints whose first w_q bits,
    MSB-first, are uniform and reproducible from (seed, k).

    Philox is counter-based, so keying it on the 128-bit value
    (seed << 64) | k gives independent streams per cycle with no
    sequential state to keep in sync between the two parties.  The
    generator `bitgen` (a new one if None) is re-keyed with its counter
    at zero and its buffer empty, so its words are those of a fresh
    Philox(key=(seed << 64) | k).
    """
    if not 0 <= k < 2 ** 64:
        raise ConfigError("cycle index must fit in 64 bits")
    if bitgen is None:
        bitgen = np.random.Philox(key=0)
    bitgen.state = dict(_PHILOX_AT_ZERO, state={"counter": _ZEROS, "key": (k, seed)})
    # one word per call returns a Python int, twice as fast as a list
    # from an array at the benchmark's one word, and draws the same words
    return [bitgen.random_raw() for _ in range(cfg.n_words)]


def beta_from_bits(group: int, w_b: int) -> int:
    """Nonzero coefficient from one w_b-bit group b_{w_b-1}..b_0.

    beta = -(2^(w_b-1)+1) * b_{w_b-1} + sum_{j<w_b-1} 2^j b_j + 1, which
    covers [-2^(w_b-1), 2^(w_b-1)] and skips zero.
    """
    half = 1 << (w_b - 1)
    return (group & (half - 1)) + 1 - (half + 1) * (group >> (w_b - 1))


def betas(words: list, cfg: KeyConfig) -> BetaVector:
    """Split the first w_q bits of generate_key's words into d groups
    and map each to its beta in one pass: beta_from_bits, which the
    tests hold it to, is g + 1 for a group g below the sign bit and
    g - 2^w_b at or above it."""
    if len(words) != cfg.n_words:
        raise KeyLengthError(
            f"key has {len(words)} words, config requires {cfg.n_words}")
    mask, shifts, sign, span = cfg.split
    acc = 0
    for word in words:
        acc = acc << 64 | word
    beta = []
    for shift in shifts:
        g = acc >> shift & mask
        beta.append(g + 1 if g < sign else g - span)
    return BetaVector(tuple(beta), cfg.n, cfg.m)
