"""Exponential-logarithmic cipher over the shared key coefficients.

Encryption maps a real z to exp(z/beta); the cloud raises ciphertexts to
known-gain powers without any key access, and the actuator recovers the
linear combination through beta-weighted logarithms:

    sum_i beta_i * ln((exp(z_i/beta_i))^{K_ji}) = sum_i K_ji z_i

exactly, in real arithmetic. A stochastic rounding quantizer with the
domain fold g (values below 1 reflected by 2 - 1/v) turns ciphertexts
into the w-bit integer codes of the quantized backend's wire format.

exp, log and power are numpy ufuncs applied once per message: math's
versions differ from them in the last bit on some arguments, and a
ufunc's value for one element does not depend on the array's length.
"""
from __future__ import annotations

import math

import numpy as np

from .config import EXP_ARG_LIMIT
from .keys import BetaVector


class MagnitudeError(ValueError):
    """Plaintext too large for the key magnitude: |z/beta| exceeds the
    exp guard, so the plant scaling and w_b are incompatible."""


class CiphertextError(ValueError):
    """Nonpositive, infinite, or vanished ciphertext value."""


class DomainError(ValueError):
    """Argument outside the domain fold's definition."""


class RangeError(ValueError):
    """Folded value not representable in the requested bit budget."""


def _positive_finite(values) -> bool:
    # on Python floats: cheaper than numpy reductions over a few values
    return all(0.0 < v < math.inf for v in values)


def enc_vector(values, beta) -> np.ndarray:
    """exp(z_i / beta_i) for each component, in one np.exp.

    The guard comes first: the first component with |z/beta| above
    EXP_ARG_LIMIT raises MagnitudeError before any exp is taken.  The
    sensor encrypts its state and the region offset in one call.
    """
    args = [z / b for z, b in zip(values, beta, strict=True)]
    for i, arg in enumerate(args):
        if not abs(arg) <= EXP_ARG_LIMIT:
            raise MagnitudeError(
                f"component {i}: |z/beta| = {abs(arg):.3g} exceeds {EXP_ARG_LIMIT}")
    return np.exp(args)


# the sensor encrypts the state and the offset in one call, so both
# names are this one function
enc_state = enc_offset = enc_vector


def dec_vector(cts, beta) -> np.ndarray:
    """beta_i * ln(ct_i) for each component; inverts enc_vector."""
    cts = np.asarray(cts, dtype=float).reshape(-1)
    if not _positive_finite(cts.tolist()):
        raise CiphertextError("ciphertext vector has nonpositive or nonfinite entries")
    return np.asarray(beta, dtype=float) * np.log(cts)


# a decorator enters a fresh errstate per call, cheaper than a with block
@np.errstate(over="ignore", under="ignore")
def con(K, ct_vec) -> np.ndarray:
    """Cloud-side linear-term computation: entry (j,i) = ct_i ** K[j,i].

    Takes no key material by construction; raises if any power over- or
    underflows out of the positive reals.
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    ct_vec = np.asarray(ct_vec, dtype=float).reshape(-1)
    if K.shape[1] != ct_vec.size:
        raise ValueError("gain/ciphertext dimension mismatch")
    if not _positive_finite(ct_vec.tolist()):
        raise CiphertextError("ciphertext vector has nonpositive or nonfinite entries")
    T = ct_vec ** K
    if not _positive_finite(T.ravel().tolist()):
        raise CiphertextError("power overflowed or underflowed the positive reals")
    return T


def dec_aggregate(cts, bv: BetaVector) -> np.ndarray:
    """The actuator's decryption, in one np.log: u = K x + b.

    cts are the m*n + m ciphertexts the actuator receives, T = con(K,
    enc(x)) row-major and then enc(b); u_j = sum_i beta_i ln T[j,i] +
    beta_{n+j} ln enc(b)_j.
    """
    n, m = bv.n, bv.m
    cts = np.asarray(cts, dtype=float).reshape(-1)
    if cts.size != m * n + m:
        raise ValueError(f"{cts.size} ciphertexts, expected {m * n + m}")
    if not _positive_finite(cts.tolist()):
        raise CiphertextError("received ciphertexts have nonpositive or nonfinite entries")
    logs = np.log(cts)
    beta = np.asarray(bv.beta, dtype=float)
    return logs[:m * n].reshape(m, n) @ beta[:n] + beta[n:] * logs[m * n:]


# domain fold and stochastic quantizer

def g_map(v: float) -> float:
    """Fold (0,1] onto (-inf,1] by v -> 2 - 1/v; identity above 1."""
    if v == 0:
        raise DomainError("g is undefined at 0")
    return float(v) if v > 1 else 2.0 - 1.0 / float(v)


def g_inv(y: float) -> float:
    return float(y) if y > 1 else 1.0 / (2.0 - float(y))


def quantize_stochastic(values, w: int, rng: np.random.Generator) -> list:
    """Stochastically round each g_map(v) to a w-bit integer code.

    Code I stands for I * 2^(1-w).  With y = g_map(v) and eta the
    fractional part of 2^(w-1) y, the code rounds up with probability
    eta, so the decoded value is an unbiased estimate of y with squared
    error at most 2^(-2w).  Each value draws exactly one rng.random(),
    in order, rounding up when it is below eta; a value outside
    [0, 2 - 2^(1-w)] raises RangeError before its draw.
    """
    if w < 1:
        raise RangeError("bit budget must be >= 1")
    scale, top, top_code = 2.0 ** (w - 1), 2.0 - 2.0 ** (1 - w), 2 ** w - 1
    codes = []
    for v in values:
        y = g_map(v)
        if not -1e-12 <= y <= top + 1e-12:
            raise RangeError(
                f"g_map(v) = {y:.6g} outside [0, {top:.6g}] for w = {w}")
        scaled = y * scale
        base = math.floor(scaled)
        code = base + 1 if rng.random() < scaled - base else base
        # y within 1e-12 of the ends can round one code past them
        codes.append(0 if code < 0 else min(code, top_code))
    return codes


def dequantize(codes, w: int) -> np.ndarray:
    """Positive reals back from w-bit codes: g_inv of I * 2^(1-w)."""
    scale = 2.0 ** (1 - w)
    return np.array([g_inv(code * scale) for code in codes])
