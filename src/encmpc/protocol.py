"""Sensor-cloud-actuator protocol over instrumented in-process links.

One control cycle is a strict pipeline: the sensor locates the active
region and encrypts, the cloud applies the region gain in ciphertext
space, the actuator decrypts and applies the input.  Messages are real
byte strings built by the wire codec, so an eavesdropper tap sees exactly
what a network observer would, and each message's payload bits are its
body's bits less framing (see wire).  The qe and qe_quantized backends
run the same cipher and differ only in how a ciphertext field is
written: binary64 or stochastically rounded w-bit codes (F64Field,
WordField).

The cloud object holds gain matrices and (for Paillier) the public key
only; it has no field that can carry key material or plaintext state.
Region indices travel in plaintext on the sensor link, which is the
protocol's documented leak.
"""

import random
import time
from dataclasses import dataclass

import numpy as np

from . import wire
from .keys import KeyConfig, KeySource, betas
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

BACKENDS = ("plaintext", "qe", "qe_quantized", "paillier")
QE_BACKENDS = ("qe", "qe_quantized")

COUNT_KEYS = ("enc", "con", "dec", "sums", "he_enc", "he_dec", "he_add", "he_mul")


def _zero_counts():
    return dict.fromkeys(COUNT_KEYS, 0)


@dataclass(frozen=True)
class WireMessage:
    """One transmission: raw bytes plus measured payload bits."""

    cycle: int
    link: str  # "s_to_c" or "c_to_a"
    body: bytes
    payload_bits: int
    timestamp: float


class EavesdropLog:
    """Append-only tap of both links; stores bytes only, never keys."""

    def __init__(self):
        self._entries = []

    def record(self, msg):
        self._entries.append(msg)

    @property
    def entries(self):
        return tuple(self._entries)

    def bodies(self, link):
        return [m.body for m in self._entries if m.link == link]


@dataclass
class CycleMetrics:
    backend: str
    sigma: int
    counts: dict
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
    """QE ciphertext fields as IEEE-754 binary64 (the qe backend).

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
        codes = quantize_stochastic(values.tolist(), self.bits, self.rng)
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


class Sensor:
    """Measures, locates the region, encrypts state and region offset.

    Holds the partition for point location and all region offsets in
    plaintext; for QE backends also a key source synchronized with the
    actuator's and a ciphertext field codec, for Paillier a key and the
    fixed-point codec.  The Paillier key may be the public key or, on the
    plant side, the keypair, which computes the encryption randomizer by
    CRT (same ciphertexts).  `sigma` is the region the last step located.
    """

    def __init__(self, controller, backend, key_source=None, field=None,
                 he_key=None, codec=None, he_rng=None):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}")
        self.backend = backend
        self.controller = controller
        self.n = controller.n
        self.m = controller.m
        self.offsets = [np.asarray(r.b, dtype=float).ravel().tolist()
                        for r in controller.regions]
        self.key_source = key_source
        self.field = field
        self.he_key = he_key
        self.codec = codec
        self.he_rng = he_rng
        self.sigma = None
        if backend in QE_BACKENDS and (key_source is None or field is None):
            raise ValueError(f"{backend} sensor needs a key source and a field")
        if backend == "paillier" and (he_key is None or codec is None
                                      or he_rng is None):
            raise ValueError("paillier sensor needs a key, codec, and rng")

    def step(self, x, cycle):
        t0 = time.perf_counter()
        counts = _zero_counts()
        x = np.asarray(x, dtype=float).ravel()
        sigma = self.controller.locate(x)
        if sigma < 0:
            raise self.controller.not_covered(x)
        self.sigma = sigma
        b_sig = self.offsets[sigma]
        head = wire.encode_u32(sigma)

        if self.backend == "plaintext":
            body = head + wire.encode_f64_vec(x)
            bits = 32 + self.n * 64
        elif self.backend in QE_BACKENDS:
            bv = betas(self.key_source.stream(cycle), self.key_source.cfg)
            ct = enc_state(x.tolist() + b_sig, bv.beta)
            counts["enc"] += self.n + self.m
            body = head + self.field.encode(ct, (self.n, self.m))
            bits = 32 + (self.n + self.m) * self.field.bits
        else:
            key, L = self.he_key, self.he_key.bits
            enc = []
            for v in x:
                enc.append(he_enc(fp_encode(v, self.codec), key, self.he_rng))
            for v in b_sig:
                enc.append(he_enc(fp_encode(v, self.codec, scale_power=2),
                                  key, self.he_rng))
            counts["he_enc"] += self.n + self.m
            body = head + b"".join(wire.encode_he_ct(c.value, L) for c in enc)
            bits = 32 + (self.n + self.m) * 2 * L

        msg = WireMessage(cycle, "s_to_c", body, bits, time.perf_counter())
        return msg, counts, time.perf_counter() - t0


class Cloud:
    """Holds the gain library only; applies it in ciphertext space.

    By construction there is no attribute that can hold a key source,
    beta vector, Paillier trapdoor, or plaintext state.
    """

    def __init__(self, gains, backend, n, m, offsets=None, field=None,
                 pk=None, gains_encoded=None):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}")
        self.backend = backend
        self.gains = [np.atleast_2d(np.asarray(K, dtype=float)) for K in gains]
        self.n = int(n)
        self.m = int(m)
        self.offsets = None
        if backend == "plaintext":
            if offsets is None:
                raise ValueError("plaintext cloud applies offsets itself")
            self.offsets = [np.asarray(b, dtype=float).ravel() for b in offsets]
        self.field = field
        self.pk = pk
        self.gains_encoded = gains_encoded
        if backend in QE_BACKENDS and field is None:
            raise ValueError(f"{backend} cloud needs a field")
        if backend == "paillier" and (pk is None or gains_encoded is None):
            raise ValueError("paillier cloud needs pk and encoded gains")

    def step(self, msg):
        t0 = time.perf_counter()
        counts = _zero_counts()
        n, m = self.n, self.m
        sigma, off = wire.decode_u32(msg.body)
        if not 0 <= sigma < len(self.gains):
            raise InvalidRegion(f"region index {sigma} out of range")

        if self.backend == "plaintext":
            x, off = wire.decode_f64_vec(msg.body, n, off)
            wire.expect_end(msg.body, off)
            u = self.gains[sigma] @ x + self.offsets[sigma]
            body = wire.encode_f64_vec(u)
            bits = m * 64
        elif self.backend in QE_BACKENDS:
            ct_x, off = self.field.decode(msg.body, (n,), off)
            # the m offset ciphertexts: framing checked, forwarded as they are
            wire.expect_end(msg.body, self.field.skip(msg.body, m, off))
            t_mat = con(self.gains[sigma], ct_x)
            counts["con"] += m * n
            body = self.field.encode(t_mat.ravel(), (m * n,)) + msg.body[off:]
            bits = (m * n + m) * self.field.bits
        else:
            cts = []
            for _ in range(n + m):
                val, off = wire.decode_he_ct(msg.body, off, self.pk.bits)
                cts.append(HeCiphertext(val, self.pk.n_sq))
            wire.expect_end(msg.body, off)
            out = he_eval_pwa(sigma, cts[:n], self.gains_encoded[sigma],
                              cts[n:], self.pk, counters=counts)
            body = b"".join(wire.encode_he_ct(c.value, self.pk.bits) for c in out)
            bits = m * 2 * self.pk.bits

        out_msg = WireMessage(msg.cycle, "c_to_a", body, bits, time.perf_counter())
        return out_msg, counts, time.perf_counter() - t0


class Actuator:
    """Decrypts the aggregate and applies u = v + offset term."""

    def __init__(self, backend, n, m, key_source=None, field=None,
                 keypair=None, codec=None):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}")
        self.backend = backend
        self.n = int(n)
        self.m = int(m)
        self.key_source = key_source
        self.field = field
        self.keypair = keypair
        self.codec = codec
        if backend in QE_BACKENDS and (key_source is None or field is None):
            raise ValueError(f"{backend} actuator needs a key source and a field")
        if backend == "paillier" and (keypair is None or codec is None):
            raise ValueError("paillier actuator needs the keypair and codec")

    def step(self, msg, cycle):
        t0 = time.perf_counter()
        counts = _zero_counts()
        n, m = self.n, self.m

        if self.backend == "plaintext":
            u, off = wire.decode_f64_vec(msg.body, m)
            wire.expect_end(msg.body, off)
        elif self.backend in QE_BACKENDS:
            cts, off = self.field.decode(msg.body, (m * n, m))
            wire.expect_end(msg.body, off)
            bv = betas(self.key_source.stream(cycle), self.key_source.cfg)
            u = dec_aggregate(cts, bv)
            counts["dec"] += m * n + m
            counts["sums"] += m * n
        else:
            off = 0
            u = np.empty(m)
            for j in range(m):
                val, off = wire.decode_he_ct(msg.body, off, self.keypair.bits)
                z = he_dec(HeCiphertext(val, self.keypair.n_sq), self.keypair)
                counts["he_dec"] += 1
                u[j] = fp_decode(z, self.codec, scale_power=2)
            wire.expect_end(msg.body, off)

        return np.array(u, dtype=float), counts, time.perf_counter() - t0


def run_cycle(x, sensor, cloud, actuator, cycle, log=None):
    """Execute one S -> C -> A pipeline; returns (u, CycleMetrics)."""
    msg1, c1, w1 = sensor.step(x, cycle)
    if log is not None:
        log.record(msg1)
    msg2, c2, w2 = cloud.step(msg1)
    if log is not None:
        log.record(msg2)
    u, c3, w3 = actuator.step(msg2, cycle)

    metrics = CycleMetrics(
        backend=sensor.backend,
        sigma=sensor.sigma,
        counts={k: c1[k] + c2[k] + c3[k] for k in COUNT_KEYS},
        payload_bits={
            "s_to_c": msg1.payload_bits,
            "c_to_a": msg2.payload_bits,
            "total": msg1.payload_bits + msg2.payload_bits,
        },
        wall_time={"sensor": w1, "cloud": w2, "actuator": w3,
                   "total": w1 + w2 + w3},
    )
    return u, metrics


def make_parties(controller, backend, cfg, keypair=None):
    """Wire up the three parties for a controller under one RunConfig.

    Returns (sensor, cloud, actuator).  The QE backends pick their field
    codec here; qe_quantized's sensor and cloud each own a quantizer rng
    (seeds seed_quant and seed_quant + 1).  For Paillier a keypair is
    generated from cfg.seed_keys unless one is supplied; the plant-side
    sensor and actuator hold it, the cloud receives the public key only.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    n, m = controller.n, controller.m
    gains = [r.K for r in controller.regions]
    offsets = [r.b for r in controller.regions]

    if backend == "plaintext":
        sensor = Sensor(controller, backend)
        cloud = Cloud(gains, backend, n, m, offsets=offsets)
        actuator = Actuator(backend, n, m)
    elif backend in QE_BACKENDS:
        if backend == "qe":
            fields = (F64Field(),) * 3
        else:
            rng = np.random.default_rng
            fields = (WordField(cfg.w, rng(cfg.seed_quant)),
                      WordField(cfg.w, rng(cfg.seed_quant + 1)),
                      WordField(cfg.w))
        kc = KeyConfig(n=n, m=m, w_b=cfg.w_b)
        sensor = Sensor(controller, backend, field=fields[0],
                        key_source=KeySource(cfg.seed_keys, kc))
        cloud = Cloud(gains, backend, n, m, field=fields[1])
        actuator = Actuator(backend, n, m, field=fields[2],
                            key_source=KeySource(cfg.seed_keys, kc))
    else:
        if keypair is None:
            keypair = keygen(cfg.key_bits, random.Random(cfg.seed_keys))
        codec = FixedPointCodec(cfg.rho, cfg.gamma, cfg.delta, keypair.n)
        enc_gains = [encode_gain(K, codec) for K in gains]
        sensor = Sensor(controller, backend, he_key=keypair, codec=codec,
                        he_rng=random.Random(cfg.seed_keys + 1))
        cloud = Cloud(gains, backend, n, m, pk=keypair.public,
                      gains_encoded=enc_gains)
        actuator = Actuator(backend, n, m, keypair=keypair, codec=codec)
    return sensor, cloud, actuator


def audit_no_plaintext_leak(log, states, n, tol=1e-6):
    """Check whether any sensor-link message carries the state in clear.

    Decodes the field region after the region index as doubles and
    reports a leak when the first n entries positionally match the
    corresponding cycle's state to within tol.  Returns True when no
    message leaks.
    """
    leaked = False
    for msg in log.entries:
        if msg.link != "s_to_c" or msg.cycle >= len(states):
            continue
        x = np.asarray(states[msg.cycle], dtype=float).ravel()
        rest = msg.body[4:]
        if len(rest) < 8 * n:
            continue
        vals, _ = wire.decode_f64_vec(rest, n)
        if np.all(np.abs(vals - x) <= tol):
            leaked = True
    return not leaked
