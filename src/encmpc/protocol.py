"""Sensor-cloud-actuator protocol over in-process byte links.

One control cycle is a strict pipeline: the sensor locates the active
region and encrypts, the cloud applies the region gain in ciphertext
space, the actuator decrypts and applies the input.  Each party only
turns its one input into one output; run_cycle times them, taps both
links and records sigma and the closed-form counts.  Messages are real
byte strings, so the tap sees exactly what a network observer would.
The backends differ in how they encrypt and in how a ciphertext field is
written: binary64 (plaintext, qe), stochastically rounded w-bit codes
(qe_quantized) or length-prefixed Paillier residues.  A field codec
(F64Field, WordField, HeField), picked by wire_field, owns that layout:
the parties write and read every field through it, and the adversary
(attack) reads the sensor link through it too.  A message's payload bits
are its field count times the codec's bits per field, plus the u32
region index on the sensor link; the codecs' framing is not payload
(see wire).

The cloud object holds gain matrices and (for Paillier) the public key
only; it has no field that can carry key material or plaintext state.
Region indices travel in plaintext on the sensor link, which is the
protocol's documented leak.
"""

import functools
import math
import random
import time
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import wire
from .config import ConfigError
from .keys import KeyConfig, KeySource
from .mpqp import InvalidRegion
from .paillier import (
    FixedPointCodec,
    HeCiphertext,
    encode_gain,
    fp_decode,
    fp_encode,
    he_dec,
    he_enc,
    he_eval_pwa,
    keygen,
)
from .qe_cipher import con, dec_aggregate, dequantize, enc_state, quantize_stochastic

QE_BACKENDS = ("qe", "qe_quantized")

COUNT_KEYS = ("enc", "con", "dec", "sums", "he_enc", "he_dec", "he_add", "he_mul")


@functools.lru_cache(maxsize=16)
def cycle_counts(backend, n, m):
    """One cycle's primitive operations in closed form, a read-only
    mapping over COUNT_KEYS built once per (backend, n, m) (Paillier: one
    scalar product and one addition per gain)."""
    counts = dict.fromkeys(COUNT_KEYS, 0)
    if backend in QE_BACKENDS:
        counts.update(enc=n + m, con=m * n, dec=m * n + m, sums=m * n)
    elif backend == "paillier":
        counts.update(he_enc=n + m, he_mul=m * n, he_add=m * n, he_dec=m)
    return MappingProxyType(counts)


@dataclass(frozen=True)
class WireMessage:
    """One transmission: raw bytes plus measured payload bits."""

    link: str  # "s_to_c" or "c_to_a"
    body: bytes
    payload_bits: int


@dataclass
class CycleMetrics:
    sigma: int
    counts: Mapping
    payload_bits: dict
    wall_time: dict


def predict_cost(n, m, L, p, b_K):
    """Closed-form worst-case bit-operation models for one cycle.

    Totals: C_HE = (n+2m)L^3 + mn(b_K+1)L^2 and C_QE = (mn+n+m)p^3,
    with the per-party upper bounds alongside.
    """
    if min(n, L, p, b_K) < 1 or m < 0:
        raise ValueError("dimensions and bit widths must be positive")
    per_party = {
        "he": {
            "sensor": (n + m) * L**3,
            "controller": m * n * (b_K + 1) * L**2,
            "actuator": m * L**3,
        },
        "qe": {
            "sensor": (n + m) * p**3,
            "controller": m * n * (p**3 + p**2),
            "actuator": (m * n + m) * p**3 + m * n * p**2,
        },
    }
    return {
        "C_HE": (n + 2 * m) * L**3 + m * n * (b_K + 1) * L**2,
        "C_QE": (m * n + n + m) * p**3,
        "per_party": per_party,
    }


class F64Field:
    """Fields as IEEE-754 binary64 (the plaintext and qe backends).

    encode/decode take consecutive fields of the given sizes, which carry
    no pad and so are one run; skip checks a field's framing unread."""

    bits = 64

    def encode(self, values, sizes):
        return wire.encode_f64_vec(values)

    def decode(self, data, sizes, off=0):
        return wire.decode_f64_vec(data, sum(sizes), off)

    def skip(self, data, count, off):
        return wire.f64_end(data, count, off)


class WordField:
    """QE ciphertext fields as w-bit codes, each value stochastically
    rounded with this party's own quantizer rng (qe_quantized); each
    field is zero-padded to a byte boundary on its own."""

    def __init__(self, w, rng=None):
        self.bits = w
        self.rng = rng

    def encode(self, values, sizes):
        codes = quantize_stochastic(values, self.bits, self.rng)
        parts, start = [], 0
        for size in sizes:
            parts.append(wire.pack_words(codes[start:start + size], self.bits))
            start += size
        return b"".join(parts)

    def decode(self, data, sizes, off=0):
        codes = []
        for size in sizes:
            part, off = wire.unpack_words(data, size, self.bits, off)
            codes += part
        return dequantize(codes, self.bits), off

    def skip(self, data, count, off):
        return wire.words_end(data, count, self.bits, off)


class HeField:
    """Paillier ciphertext fields: each residue mod n^2 as a 2L-bit
    string after its u32 length prefix, which is framing, not payload; a
    prefix other than the key's L/4 bytes is refused.  Values are ints,
    which the parties holding n^2 check with he_residues."""

    def __init__(self, key_bits):
        self.key_bits = key_bits
        self.bits = 2 * key_bits

    def encode(self, values, sizes):
        return b"".join(wire.encode_he_ct(v, self.key_bits) for v in values)

    def decode(self, data, sizes, off=0):
        values = []
        for _ in range(sum(sizes)):
            v, off = wire.decode_he_ct(data, off, self.key_bits)
            values.append(v)
        return values, off


def he_residues(values, n_sq):
    """Paillier ciphertexts of the residues read off the wire; one
    outside [1, n^2), or one that shares a factor with n (no unit mod
    n^2, so no ciphertext of any message), is a WireError before any
    arithmetic touches it."""
    for i, v in enumerate(values):
        if not 0 < v < n_sq:
            raise wire.WireError(f"ciphertext field {i} is outside [1, n^2)")
        if math.gcd(v, n_sq) != 1:
            raise wire.WireError(f"ciphertext field {i} is not a unit mod n^2")
    return [HeCiphertext(v, n_sq) for v in values]


def wire_field(backend, cfg, rng=None):
    """The field codec of a backend: binary64, cfg.w-bit words rounded
    with the encoding party's quantizer rng, or residues of a
    cfg.key_bits Paillier key."""
    if backend == "qe_quantized":
        return WordField(cfg.w, rng)
    if backend == "paillier":
        return HeField(cfg.key_bits)
    if backend in ("plaintext", "qe"):
        return F64Field()
    raise ValueError(f"unknown backend {backend!r}")


class Sensor:
    """Measures, locates the region, encrypts state and region offset.

    Holds the controller, whose partition it locates x in and whose
    offsets it encrypts, and its link's field codec; for QE backends
    also a key source synchronized with the actuator's, for Paillier a
    key and the fixed-point codec.  The Paillier key may be the public
    key or, on the plant side, the keypair, which computes the
    encryption randomizer by CRT (same ciphertexts).  step(x, cycle)
    returns the sensor message.
    """

    def __init__(self, controller, backend, key_source=None, field=None,
                 he_key=None, codec=None, he_rng=None):
        self.backend = backend
        self.controller = controller
        self.key_source = key_source
        self.field = field
        self.he_key = he_key
        self.codec = codec
        self.he_rng = he_rng

    def step(self, x, cycle):
        x = np.asarray(x, dtype=float).ravel()
        sigma = self.controller.locate(x)
        if sigma < 0:
            raise self.controller.not_covered(x)
        b_sig = self.controller.offsets[sigma].tolist()

        sizes = (self.controller.n, self.controller.m)
        if self.backend == "plaintext":
            values, sizes = x.tolist(), sizes[:1]
        elif self.backend in QE_BACKENDS:
            bv = self.key_source.betas(cycle)
            values = enc_state(x.tolist() + b_sig, bv.beta)
        else:
            key, codec, rng = self.he_key, self.codec, self.he_rng
            values = [he_enc(fp_encode(v, codec), key, rng).value for v in x]
            values += [he_enc(fp_encode(v, codec, scale_power=2), key, rng).value
                       for v in b_sig]

        body = wire.encode_u32(sigma) + self.field.encode(values, sizes)
        return WireMessage("s_to_c", body, 32 + sum(sizes) * self.field.bits)


class Cloud:
    """Holds the gain library only; applies it in ciphertext space.

    gains is the controller's stack (nreg, m, n), and so are the offsets
    (nreg, m) a plaintext cloud applies itself.  By construction there
    is no attribute that can hold a key source, beta vector, Paillier
    trapdoor, or plaintext state.  step(msg) returns the cloud message.
    """

    def __init__(self, gains, backend, offsets=None, field=None,
                 pk=None, gains_encoded=None):
        self.backend = backend
        self.gains = gains
        self.offsets = offsets
        self.field = field
        self.pk = pk
        self.gains_encoded = gains_encoded

    def step(self, msg):
        sigma, off = wire.decode_u32(msg.body)
        if not 0 <= sigma < len(self.gains):
            raise InvalidRegion(f"region index {sigma} out of range")
        _, m, n = self.gains.shape

        forwarded = 0
        if self.backend == "plaintext":
            x, off = self.field.decode(msg.body, (n,), off)
            wire.expect_end(msg.body, off)
            values = (self.gains[sigma] @ np.frombuffer(x)
                      + self.offsets[sigma]).tolist()
        elif self.backend in QE_BACKENDS:
            ct_x, off = self.field.decode(msg.body, (n,), off)
            # the m offset ciphertexts: framing checked, forwarded as they are
            wire.expect_end(msg.body, self.field.skip(msg.body, m, off))
            values = con(self.gains[sigma], ct_x)
            forwarded = m
        else:
            vals, off = self.field.decode(msg.body, (n, m), off)
            wire.expect_end(msg.body, off)
            cts = he_residues(vals, self.pk.n_sq)
            out = he_eval_pwa(cts[:n], self.gains_encoded[sigma], cts[n:],
                              self.pk)
            values = [c.value for c in out]

        # msg.body[off:] holds the forwarded fields, empty unless qe
        body = self.field.encode(values, (len(values),)) + msg.body[off:]
        bits = (len(values) + forwarded) * self.field.bits
        return WireMessage("c_to_a", body, bits)


class Actuator:
    """Decrypts the aggregate and applies u = v + offset term; step(msg,
    cycle) returns u."""

    def __init__(self, backend, n, m, key_source=None, field=None,
                 keypair=None, codec=None):
        self.backend = backend
        self.n = int(n)
        self.m = int(m)
        self.key_source = key_source
        self.field = field
        self.keypair = keypair
        self.codec = codec

    def step(self, msg, cycle):
        n, m = self.n, self.m
        qe = self.backend in QE_BACKENDS
        values, off = self.field.decode(msg.body, (m * n, m) if qe else (m,))
        wire.expect_end(msg.body, off)

        if self.backend == "plaintext":
            u = values
        elif qe:
            bv = self.key_source.betas(cycle)
            u = dec_aggregate(values, bv)
        else:
            kp = self.keypair
            u = [fp_decode(he_dec(c, kp), self.codec, scale_power=2)
                 for c in he_residues(values, kp.n_sq)]
        return np.array(u, dtype=float)


def run_cycle(x, sensor, cloud, actuator, cycle, log=None):
    """Execute one S -> C -> A pipeline; returns (u, CycleMetrics).

    Times each party's call on its own.  log, a list if given, gets each
    message before the next party runs, so a fault leaves every message
    that went out.  sigma is the index on the sensor message.
    """
    clock = time.perf_counter
    t0 = clock()
    msg1 = sensor.step(x, cycle)
    w1 = clock() - t0
    if log is not None:
        log.append(msg1)
    t0 = clock()
    msg2 = cloud.step(msg1)
    w2 = clock() - t0
    if log is not None:
        log.append(msg2)
    t0 = clock()
    u = actuator.step(msg2, cycle)
    w3 = clock() - t0

    return u, CycleMetrics(
        sigma=wire.decode_u32(msg1.body)[0],
        counts=cycle_counts(sensor.backend, sensor.controller.n,
                            sensor.controller.m),
        payload_bits={
            "s_to_c": msg1.payload_bits,
            "c_to_a": msg2.payload_bits,
            "total": msg1.payload_bits + msg2.payload_bits,
        },
        wall_time={"sensor": w1, "cloud": w2, "actuator": w3,
                   "total": w1 + w2 + w3},
    )


@functools.lru_cache(maxsize=8)
def _derived_keypair(bits, seed):
    """The Paillier keypair of (key_bits, seed_keys), generated once per
    pair in a process."""
    return keygen(bits, random.Random(seed))


def make_parties(controller, backend, cfg, keypair=None):
    """Wire up the three parties for a controller under one RunConfig.

    Returns (sensor, cloud, actuator), each with its wire_field codec;
    qe_quantized's sensor and cloud each own a quantizer rng (seeds
    seed_quant and seed_quant + 1).  Paillier's keypair is
    keygen(cfg.key_bits, random.Random(cfg.seed_keys)) unless one of
    cfg.key_bits bits is supplied; the plant-side sensor and actuator
    hold it, the cloud the public key only.  A gamma or delta that the
    key or the gains cannot hold is a ConfigError.
    """
    rng = np.random.default_rng
    s_field = wire_field(backend, cfg, rng(cfg.seed_quant))
    c_field = wire_field(backend, cfg, rng(cfg.seed_quant + 1))
    n, m = controller.n, controller.m
    s_kw, c_kw, a_kw = {}, {}, {}
    if backend == "plaintext":
        c_kw["offsets"] = controller.offsets
    elif backend in QE_BACKENDS:
        kc = KeyConfig(n=n, m=m, w_b=cfg.w_b)
        s_kw["key_source"] = KeySource(cfg.seed_keys, kc)
        a_kw["key_source"] = KeySource(cfg.seed_keys, kc)
    else:
        if keypair is None:
            keypair = _derived_keypair(cfg.key_bits, cfg.seed_keys)
        elif keypair.bits != cfg.key_bits:
            raise ConfigError(f"supplied Paillier key has {keypair.bits} bits, "
                              f"but key_bits is {cfg.key_bits}")
        try:
            codec = FixedPointCodec(cfg.rho, cfg.gamma, cfg.delta, keypair.n)
            gains_encoded = [encode_gain(K, codec) for K in controller.gains]
        except OverflowError as exc:
            raise ConfigError(f"gamma={cfg.gamma}, delta={cfg.delta} under a "
                              f"{cfg.key_bits}-bit key: {exc}") from exc
        s_kw = {"he_key": keypair, "codec": codec,
                "he_rng": random.Random(cfg.seed_keys + 1)}
        c_kw = {"pk": keypair.public, "gains_encoded": gains_encoded}
        a_kw = {"keypair": keypair, "codec": codec}
    return (Sensor(controller, backend, field=s_field, **s_kw),
            Cloud(controller.gains, backend, field=c_field, **c_kw),
            Actuator(backend, n, m, field=wire_field(backend, cfg), **a_kw))
