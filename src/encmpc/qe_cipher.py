"""Exponential-logarithmic cipher over the shared key coefficients.

Encryption maps a real z to exp(z/beta); the cloud raises ciphertexts to
known-gain powers without any key access, and the actuator recovers the
linear combination through beta-weighted logarithms:

    sum_i beta_i * ln((exp(z_i/beta_i))^{K_ji}) = sum_i K_ji z_i

exactly, in real arithmetic. A stochastic rounding quantizer with the
domain fold g (values below 1 reflected by 2 - 1/v) turns ciphertexts
into the w-bit integer codes of the quantized backend's wire format.

A cycle handles n + m values, so the cipher works on Python floats, one
libm call per value: math.exp, float ** float (C pow) and math.log, and
each decrypted input is the math.fsum of its rounded beta-weighted
logarithms, a correctly rounded sum whatever the order of its terms.
Its bits then depend on the platform's libm alone, not on which SIMD
loops NumPy dispatches to (whose exp, log and power differ from libm's,
and from each other, in the last bit).  Every function returns a list.
"""
from __future__ import annotations

import math
from operator import mul

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
    """0 < v < inf for every v (a NaN fails it), in a plain loop, which
    at a cycle's 2-3 values beats all() over a generator or map()."""
    for v in values:
        if not 0.0 < v < math.inf:
            return False
    return True


def enc_vector(values, beta) -> list:
    """[exp(z_i / beta_i)] for each component, by math.exp.

    The guard comes first: the first component with |z/beta| above
    EXP_ARG_LIMIT raises MagnitudeError before any exp is taken.  The
    sensor encrypts its state and the region offset in one call.
    """
    args = [z / b for z, b in zip(values, beta, strict=True)]
    for i, arg in enumerate(args):
        if not abs(arg) <= EXP_ARG_LIMIT:
            raise MagnitudeError(
                f"component {i}: |z/beta| = {abs(arg):.3g} exceeds {EXP_ARG_LIMIT}")
    return list(map(math.exp, args))


# the sensor encrypts the state and the offset in one call, so both
# names are this one function
enc_state = enc_offset = enc_vector


def dec_vector(cts, beta) -> list:
    """[beta_i * ln(ct_i)] for each component; inverts enc_vector."""
    if not _positive_finite(cts):
        raise CiphertextError("ciphertext vector has nonpositive or nonfinite entries")
    return [b * math.log(ct) for ct, b in zip(cts, beta, strict=True)]


def con(K, ct_vec) -> list:
    """Cloud-side linear-term computation: the m*n powers ct_i ** K[j,i],
    row-major (entry j*n + i), for an (m, n) gain K.

    K is m rows of n Python floats, as the cloud holds its gains.  Takes
    no key material by construction; raises ValueError unless K is rows
    of len(ct_vec) numbers, CiphertextError if a ciphertext is not a
    positive finite float, or if any power overflows (Python's
    OverflowError) or underflows to 0.
    """
    if not _positive_finite(ct_vec):
        raise CiphertextError("ciphertext vector has nonpositive or nonfinite entries")
    try:
        T = [ct ** k for row in K for ct, k in zip(ct_vec, row, strict=True)]
        if _positive_finite(T):
            return T
    except OverflowError:
        pass
    except (TypeError, ValueError) as exc:  # K is no list of len(ct_vec)-rows
        raise ValueError("gain/ciphertext dimension mismatch") from exc
    raise CiphertextError("power overflowed or underflowed the positive reals")


def dec_aggregate(cts, bv: BetaVector) -> list:
    """The actuator's decryption: u = K x + b, one math.log per value.

    cts are the m*n + m ciphertexts the actuator receives, T = con(K,
    enc(x)) row-major and then enc(b); u_j is the math.fsum of
    beta_i ln T[j,i] over i and beta_{n+j} ln enc(b)_j.
    """
    n, m = bv.n, bv.m
    if len(cts) != m * n + m:
        raise ValueError(f"{len(cts)} ciphertexts, expected {m * n + m}")
    if not _positive_finite(cts):
        raise CiphertextError("received ciphertexts have nonpositive or nonfinite entries")
    logs = list(map(math.log, cts))
    beta_x, beta_b = bv.beta[:n], bv.beta[n:]
    return [math.fsum([*map(mul, beta_x, logs[j * n:j * n + n]),
                       beta_b[j] * logs[m * n + j]])
            for j in range(m)]


# domain fold and stochastic quantizer

def g_map(v: float) -> float:
    """Fold (0,1] onto (-inf,1] by v -> 2 - 1/v; identity above 1."""
    if v == 0:
        raise DomainError("g is undefined at 0")
    return float(v) if v > 1 else 2.0 - 1.0 / float(v)


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


def dequantize(codes, w: int) -> list:
    """Positive reals back from w-bit codes: the inverse fold of I *
    2^(1-w), y itself above 1 and 1 / (2 - y) at or below it."""
    scale = 2.0 ** (1 - w)
    return [y if (y := code * scale) > 1 else 1.0 / (2.0 - y) for code in codes]
