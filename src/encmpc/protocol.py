"""Sensor-cloud-actuator protocol over instrumented in-process links.

One control cycle is a strict pipeline: the sensor locates the active
region and encrypts, the cloud applies the region gain in ciphertext
space, the actuator decrypts and applies the input.  Messages are real
byte strings built by the wire codec, so payload accounting is measured,
not estimated, and an eavesdropper tap sees exactly what a network
observer would.

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
    gain_bitlen,
    he_dec,
    he_enc,
    he_eval_pwa,
    keygen,
)
from .qe_cipher import (
    con,
    dec_aggregate,
    dec_vector,
    dequantize,
    enc_offset,
    enc_state,
    quantize_stochastic,
)

BACKENDS = ("plaintext", "qe", "qe_quantized", "paillier")

COUNT_KEYS = ("enc", "con", "dec", "sums", "he_enc", "he_dec", "he_add", "he_mul")


def _zero_counts():
    return {k: 0 for k in COUNT_KEYS}


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
    model_cost: dict
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


@dataclass(frozen=True)
class CostParams:
    """Inputs the bit-cost model needs, fixed once per run."""

    L: int
    p: int
    b_K: int


class Sensor:
    """Measures, locates the region, encrypts state and region offset.

    Holds the partition for point location and all region offsets in
    plaintext; for QE backends also a key source synchronized with the
    actuator's, for Paillier the public key and codec.
    """

    def __init__(self, controller, backend, key_source=None, pk=None,
                 codec=None, quant_rng=None, w=None, he_rng=None):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}")
        self.backend = backend
        self.controller = controller
        self.n = controller.n
        self.m = controller.m
        self.offsets = [np.asarray(r.b, dtype=float) for r in controller.regions]
        self.key_source = key_source
        self.pk = pk
        self.codec = codec
        self.quant_rng = quant_rng
        self.w = w
        self.he_rng = he_rng
        if backend in ("qe", "qe_quantized") and key_source is None:
            raise ValueError(f"{backend} sensor needs a key source")
        if backend == "qe_quantized" and (quant_rng is None or w is None):
            raise ValueError("quantized sensor needs a quantizer rng and width")
        if backend == "paillier" and (pk is None or codec is None or he_rng is None):
            raise ValueError("paillier sensor needs pk, codec, and rng")

    def step(self, x, cycle):
        t0 = time.perf_counter()
        counts = _zero_counts()
        x = np.asarray(x, dtype=float).ravel()
        sigma = self.controller.locate(x)
        if sigma < 0:
            raise self.controller.not_covered(x)
        b_sig = self.offsets[sigma]
        head = wire.encode_u32(sigma)

        if self.backend == "plaintext":
            body = head + wire.encode_f64_vec(x)
            bits = 32 + self.n * 64
        elif self.backend in ("qe", "qe_quantized"):
            bv = betas(self.key_source.stream(cycle), self.key_source.cfg)
            ct_x = enc_state(x, bv)
            ct_b = enc_offset(b_sig, bv)
            counts["enc"] += self.n + self.m
            if self.backend == "qe":
                body = head + wire.encode_f64_vec(ct_x) + wire.encode_f64_vec(ct_b)
                bits = 32 + (self.n + self.m) * 64
            else:
                wx = [quantize_stochastic(v, self.w, self.quant_rng) for v in ct_x]
                wb = [quantize_stochastic(v, self.w, self.quant_rng) for v in ct_b]
                body = head + wire.pack_words(wx) + wire.pack_words(wb)
                bits = 32 + (self.n + self.m) * self.w
        else:
            enc = []
            for v in x:
                enc.append(he_enc(fp_encode(v, self.codec), self.pk, self.he_rng))
            for v in b_sig:
                enc.append(he_enc(fp_encode(v, self.codec, scale_power=2),
                                  self.pk, self.he_rng))
            counts["he_enc"] += self.n + self.m
            body = head + b"".join(wire.encode_he_ct(c.value, self.pk.bits) for c in enc)
            bits = 32 + (self.n + self.m) * 2 * self.pk.bits

        msg = WireMessage(cycle, "s_to_c", body, bits, time.perf_counter())
        return msg, counts, time.perf_counter() - t0


class Cloud:
    """Holds the gain library only; applies it in ciphertext space.

    By construction there is no attribute that can hold a key source,
    beta vector, Paillier trapdoor, or plaintext state.
    """

    def __init__(self, gains, backend, n, m, offsets=None, pk=None,
                 gains_encoded=None, quant_rng=None, w=None):
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
        self.pk = pk
        self.gains_encoded = gains_encoded
        self.quant_rng = quant_rng
        self.w = w
        if backend == "paillier" and (pk is None or gains_encoded is None):
            raise ValueError("paillier cloud needs pk and encoded gains")
        if backend == "qe_quantized" and (quant_rng is None or w is None):
            raise ValueError("quantized cloud needs a quantizer rng and width")

    def _check_sigma(self, sigma):
        if not 0 <= sigma < len(self.gains):
            raise InvalidRegion(f"region index {sigma} out of range")

    def step(self, msg):
        t0 = time.perf_counter()
        counts = _zero_counts()
        n, m = self.n, self.m
        sigma, off = wire.decode_u32(msg.body)
        self._check_sigma(sigma)

        if self.backend == "plaintext":
            x, off = wire.decode_f64_vec(msg.body, n, off)
            u = self.gains[sigma] @ x + self.offsets[sigma]
            body = wire.encode_f64_vec(u)
            bits = m * 64
        elif self.backend == "qe":
            ct_x, off = wire.decode_f64_vec(msg.body, n, off)
            t_mat = con(self.gains[sigma], ct_x)
            counts["con"] += m * n
            # offset ciphertexts forwarded byte-identical
            body = wire.encode_f64_vec(t_mat.ravel()) + msg.body[off:]
            bits = (m * n + m) * 64
        elif self.backend == "qe_quantized":
            wx, off = wire.unpack_words(msg.body, n, self.w, off)
            ct_x = np.array([dequantize(word) for word in wx])
            t_mat = con(self.gains[sigma], ct_x)
            counts["con"] += m * n
            wt = [quantize_stochastic(v, self.w, self.quant_rng)
                  for v in t_mat.ravel()]
            body = wire.pack_words(wt) + msg.body[off:]
            bits = (m * n + m) * self.w
        else:
            cts = []
            for _ in range(n + m):
                val, off = wire.decode_he_ct(msg.body, off)
                cts.append(HeCiphertext(val, self.pk.n_sq))
            out = he_eval_pwa(sigma, cts[:n], self.gains_encoded[sigma],
                              cts[n:], self.pk, counters=counts)
            body = b"".join(wire.encode_he_ct(c.value, self.pk.bits) for c in out)
            bits = m * 2 * self.pk.bits

        out_msg = WireMessage(msg.cycle, "c_to_a", body, bits, time.perf_counter())
        return out_msg, counts, time.perf_counter() - t0


class Actuator:
    """Decrypts the aggregate and applies u = v + offset term."""

    def __init__(self, backend, n, m, key_source=None, keypair=None,
                 codec=None, w=None):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}")
        self.backend = backend
        self.n = int(n)
        self.m = int(m)
        self.key_source = key_source
        self.keypair = keypair
        self.codec = codec
        self.w = w
        if backend in ("qe", "qe_quantized") and key_source is None:
            raise ValueError(f"{backend} actuator needs a key source")
        if backend == "qe_quantized" and w is None:
            raise ValueError("quantized actuator needs the word width")
        if backend == "paillier" and (keypair is None or codec is None):
            raise ValueError("paillier actuator needs the keypair and codec")

    def step(self, msg, cycle):
        t0 = time.perf_counter()
        counts = _zero_counts()
        n, m = self.n, self.m

        if self.backend == "plaintext":
            u, _ = wire.decode_f64_vec(msg.body, m)
        elif self.backend in ("qe", "qe_quantized"):
            if self.backend == "qe":
                flat, off = wire.decode_f64_vec(msg.body, m * n)
                ct_b, _ = wire.decode_f64_vec(msg.body, m, off)
            else:
                wt, off = wire.unpack_words(msg.body, m * n, self.w)
                wb, _ = wire.unpack_words(msg.body, m, self.w, off)
                flat = np.array([dequantize(word) for word in wt])
                ct_b = np.array([dequantize(word) for word in wb])
            bv = betas(self.key_source.stream(cycle), self.key_source.cfg)
            t_mat = flat.reshape(m, n)
            v = dec_aggregate(t_mat, bv.state_part)
            counts["dec"] += m * n
            counts["sums"] += m * n
            u = v + dec_vector(ct_b, bv.offset_part)
            counts["dec"] += m
        else:
            off = 0
            u = np.empty(m)
            for j in range(m):
                val, off = wire.decode_he_ct(msg.body, off)
                z = he_dec(HeCiphertext(val, self.keypair.n_sq), self.keypair)
                counts["he_dec"] += 1
                u[j] = fp_decode(z, self.codec, scale_power=2)

        return np.asarray(u, dtype=float), counts, time.perf_counter() - t0


def run_cycle(x, sensor, cloud, actuator, cycle, log=None, cost=None):
    """Execute one S -> C -> A pipeline; returns (u, CycleMetrics)."""
    msg1, c1, w1 = sensor.step(x, cycle)
    if log is not None:
        log.record(msg1)
    msg2, c2, w2 = cloud.step(msg1)
    if log is not None:
        log.record(msg2)
    u, c3, w3 = actuator.step(msg2, cycle)

    counts = _zero_counts()
    for part in (c1, c2, c3):
        for k, v in part.items():
            counts[k] += v
    sigma, _ = wire.decode_u32(msg1.body)
    model = {}
    if cost is not None:
        pred = predict_cost(sensor.n, sensor.m, cost.L, cost.p, cost.b_K)
        model = {"C_HE": pred["C_HE"], "C_QE": pred["C_QE"]}
    metrics = CycleMetrics(
        backend=sensor.backend,
        sigma=int(sigma),
        counts=counts,
        payload_bits={
            "s_to_c": msg1.payload_bits,
            "c_to_a": msg2.payload_bits,
            "total": msg1.payload_bits + msg2.payload_bits,
        },
        model_cost=model,
        wall_time={"sensor": w1, "cloud": w2, "actuator": w3,
                   "total": w1 + w2 + w3},
    )
    return u, metrics


def make_parties(controller, backend, cfg, keypair=None, log=None):
    """Wire up the three parties for a controller under one RunConfig.

    Returns (sensor, cloud, actuator, cost_params).  For Paillier a
    keypair is generated from cfg.seed_keys unless one is supplied; the
    cloud always receives public material only.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    n, m = controller.n, controller.m
    gains = [r.K for r in controller.regions]
    offsets = [r.b for r in controller.regions]

    # b_K from the fixed-point image of the gain library (used by the
    # cost model for every backend, not only the Paillier run)
    scale = cfg.rho**cfg.delta
    b_K = max(
        max((abs(round(float(v) * scale)).bit_length()
             for K in gains for v in np.atleast_2d(K).ravel()), default=0),
        1,
    )
    cost = CostParams(L=cfg.key_bits, p=cfg.p_bits, b_K=b_K)

    if backend == "plaintext":
        sensor = Sensor(controller, backend)
        cloud = Cloud(gains, backend, n, m, offsets=offsets)
        actuator = Actuator(backend, n, m)
    elif backend in ("qe", "qe_quantized"):
        kc = KeyConfig(n=n, m=m, w_b=cfg.w_b)
        sensor_keys = KeySource(cfg.seed_keys, kc)
        actuator_keys = KeySource(cfg.seed_keys, kc)
        if backend == "qe":
            sensor = Sensor(controller, backend, key_source=sensor_keys)
            cloud = Cloud(gains, backend, n, m)
            actuator = Actuator(backend, n, m, key_source=actuator_keys)
        else:
            sensor = Sensor(controller, backend, key_source=sensor_keys,
                            quant_rng=np.random.default_rng(cfg.seed_quant),
                            w=cfg.w)
            cloud = Cloud(gains, backend, n, m,
                          quant_rng=np.random.default_rng(cfg.seed_quant + 1),
                          w=cfg.w)
            actuator = Actuator(backend, n, m, key_source=actuator_keys,
                                w=cfg.w)
    else:
        if keypair is None:
            keypair = keygen(cfg.key_bits, random.Random(cfg.seed_keys))
        codec = FixedPointCodec(cfg.rho, cfg.gamma, cfg.delta, keypair.n)
        enc_gains = [encode_gain(K, codec) for K in gains]
        cost = CostParams(L=keypair.public.bits, p=cfg.p_bits,
                          b_K=max(gain_bitlen(k) for k in enc_gains))
        sensor = Sensor(controller, backend, pk=keypair.public, codec=codec,
                        he_rng=random.Random(cfg.seed_keys + 1))
        cloud = Cloud(gains, backend, n, m, pk=keypair.public,
                      gains_encoded=enc_gains)
        actuator = Actuator(backend, n, m, keypair=keypair, codec=codec)
    return sensor, cloud, actuator, cost


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
