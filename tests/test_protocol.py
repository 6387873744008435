"""Sensor/cloud/actuator pipeline: counts, payloads, isolation, equivalence."""

import collections
import dataclasses
import hashlib
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from encmpc import wire
from encmpc.attack import observe_features
from encmpc.config import ConfigError, RunConfig, align_accuracy
from encmpc.keys import BetaVector, KeyReuseError, KeySource
from encmpc.mpqp import InvalidRegion, PwaController, Region, StateNotCovered
from encmpc.paillier import PaillierKeypair, keygen
from encmpc.polyhedra import Polyhedron, box
from encmpc.qe_cipher import CiphertextError, RangeError
from encmpc.protocol import (
    COUNT_KEYS,
    Sensor,
    make_parties,
    predict_cost,
    run_cycle,
)


def single_region_controller(n, m, rng):
    """Synthetic one-region PWA law on a big box, any dimensions."""
    poly = box([-100.0] * n, [100.0] * n)
    K = rng.uniform(-0.5, 0.5, size=(m, n))
    b = rng.uniform(-0.5, 0.5, size=m)
    region = Region(active_set=(), poly=poly, K=K, b=b,
                    cheb_center=np.zeros(n), cheb_radius=100.0)
    return PwaController(regions=[region], n=n, m=m, horizon=1, meta={})


@pytest.fixture(scope="module")
def kp256():
    return keygen(256, random.Random(77))


def sample_feasible(controller, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        x = rng.uniform([-2.0, -1.0], [2.0, 1.0])
        if controller.locate(x) >= 0:
            out.append(x)
    return out


def test_qe_matches_plaintext(bench_controller):
    cfg = RunConfig()
    sensor, cloud, actuator = make_parties(bench_controller, "qe", cfg)
    errs = []
    for k, x in enumerate(sample_feasible(bench_controller, 50, 3)):
        u, _ = run_cycle(x, sensor, cloud, actuator, k)
        errs.append(abs(u - bench_controller.evaluate(x)[0]).max())
    assert max(errs) <= 1e-9
    assert np.mean(errs) <= 1e-10


def test_paillier_matches_plaintext_within_budget(bench_controller, kp256):
    cfg = RunConfig(key_bits=256)
    sensor, cloud, actuator = make_parties(
        bench_controller, "paillier", cfg, keypair=kp256)
    K_max = max(abs(r.K).max() for r in bench_controller.regions)
    budget = (bench_controller.n * 2.0**cfg.gamma * K_max + 2) * 2.0**-cfg.delta
    for k, x in enumerate(sample_feasible(bench_controller, 20, 4)):
        u, _ = run_cycle(x, sensor, cloud, actuator, k)
        assert abs(u - bench_controller.evaluate(x)[0]).max() <= budget


def test_quantized_error_scales_with_word_budget(bench_controller):
    """Wire quantization error is amplified by the key magnitudes: the
    decode multiplies each log by beta, so end error scales like
    2^(w_b-1) * 2^(1-w) times the number of aggregated terms.  States are
    drawn near the origin (unconstrained region, zero offset) so every
    ciphertext stays inside the fold's representable window no matter
    which betas the key stream draws."""
    cfg = RunConfig(w_b=4, w=24)
    sensor, cloud, actuator = make_parties(
        bench_controller, "qe_quantized", cfg)
    rng = np.random.default_rng(5)
    errs = []
    k = 0
    while k < 30:
        x = rng.uniform([-0.5, -0.25], [0.5, 0.25])
        if bench_controller.locate(x) != 0:
            continue
        u, _ = run_cycle(x, sensor, cloud, actuator, k)
        errs.append(abs(u - bench_controller.evaluate(x)[0]).max())
        k += 1
    assert max(errs) <= 1e-4


def test_plaintext_backend_zero_counts(bench_controller):
    cfg = RunConfig()
    sensor, cloud, actuator = make_parties(bench_controller, "plaintext", cfg)
    x = np.array([-1.0, 0.2])
    u, metrics = run_cycle(x, sensor, cloud, actuator, 0)
    assert all(v == 0 for v in metrics.counts.values())
    assert np.allclose(u, bench_controller.evaluate(x)[0])


def test_counts_on_benchmark(bench_controller, kp256):
    cfg = RunConfig(key_bits=256)
    x = np.array([-1.0, 0.2])
    sensor, cloud, actuator = make_parties(bench_controller, "qe", cfg)
    _, mq = run_cycle(x, sensor, cloud, actuator, 0)
    assert (mq.counts["enc"], mq.counts["con"]) == (3, 2)
    assert (mq.counts["dec"], mq.counts["sums"]) == (3, 2)
    assert all(mq.counts[k] == 0 for k in ("he_enc", "he_dec", "he_add", "he_mul"))

    sensor, cloud, actuator = make_parties(
        bench_controller, "paillier", cfg, keypair=kp256)
    _, mp = run_cycle(x, sensor, cloud, actuator, 0)
    assert (mp.counts["he_enc"], mp.counts["he_mul"]) == (3, 2)
    assert (mp.counts["he_add"], mp.counts["he_dec"]) == (2, 1)
    assert all(mp.counts[k] == 0 for k in ("enc", "con", "dec", "sums"))


def test_counts_closed_forms_all_dims(kp256):
    """A cycle's counts equal the per-step closed forms on (n,m) in [1,6]^2
    under every backend: qe_quantized counts as qe, plaintext nothing."""
    rng = np.random.default_rng(9)
    for n, m in itertools.product(range(1, 7), range(1, 7)):
        ctrl = single_region_controller(n, m, rng)
        x = rng.uniform(-1, 1, size=n)
        cfg = RunConfig(key_bits=256)

        sensor, cloud, actuator = make_parties(ctrl, "qe", cfg)
        _, mq = run_cycle(x, sensor, cloud, actuator, 0)
        assert mq.counts["enc"] == n + m
        assert mq.counts["con"] == m * n
        assert mq.counts["dec"] == m * n + m
        assert mq.counts["sums"] == m * n

        sensor, cloud, actuator = make_parties(
            ctrl, "paillier", cfg, keypair=kp256)
        _, mp = run_cycle(x, sensor, cloud, actuator, 0)
        assert mp.counts["he_enc"] == n + m
        assert mp.counts["he_mul"] == m * n
        assert mp.counts["he_add"] == m * n
        assert mp.counts["he_dec"] == m

        # half the state: every exponent stays inside the fold window
        sensor, cloud, actuator = make_parties(ctrl, "qe_quantized", cfg)
        _, mz = run_cycle(x / 2, sensor, cloud, actuator, 0)
        assert mz.counts == mq.counts

        sensor, cloud, actuator = make_parties(ctrl, "plaintext", cfg)
        _, m0 = run_cycle(x, sensor, cloud, actuator, 0)
        assert m0.counts == dict.fromkeys(COUNT_KEYS, 0)


def test_payload_bits(bench_controller, kp256):
    n, m = 2, 1
    x = np.array([-1.0, 0.2])
    cfg = RunConfig(key_bits=256)

    sensor, cloud, actuator = make_parties(bench_controller, "qe", cfg)
    _, mq = run_cycle(x, sensor, cloud, actuator, 0)
    assert mq.payload_bits["s_to_c"] == 32 + (n + m) * 64
    assert mq.payload_bits["c_to_a"] == (m * n + m) * 64
    assert mq.payload_bits["total"] == 416

    sensor, cloud, actuator = make_parties(
        bench_controller, "paillier", cfg, keypair=kp256)
    msg1 = sensor.step(x, 0)
    assert len(msg1.body) == 4 + (n + m) * (4 + 2 * 256 // 8)
    msg2 = cloud.step(msg1)
    assert msg1.payload_bits == 32 + (n + m) * 2 * 256
    assert msg2.payload_bits == m * 2 * 256

    cfg = RunConfig(w_b=4, w=24)
    sensor, cloud, actuator = make_parties(
        bench_controller, "qe_quantized", cfg)
    # small state: in range for the fold window under any key draw
    _, mz = run_cycle(np.array([-0.4, 0.2]), sensor, cloud, actuator, 0)
    assert mz.payload_bits["s_to_c"] == 32 + (n + m) * 24
    assert mz.payload_bits["c_to_a"] == (m * n + m) * 24


def test_fresh_keys_per_cycle(bench_controller):
    cfg = RunConfig()
    sensor, cloud, actuator = make_parties(bench_controller, "qe", cfg)
    x = np.array([-1.0, 0.2])
    msg_a = sensor.step(x, 0)
    msg_b = sensor.step(x, 1)
    assert msg_a.body != msg_b.body
    with pytest.raises(KeyReuseError):
        sensor.step(x, 1)


def test_offset_forwarded_byte_identical(bench_controller):
    cfg = RunConfig()
    sensor, cloud, actuator = make_parties(bench_controller, "qe", cfg)
    msg1 = sensor.step(np.array([-1.0, 0.2]), 0)
    msg2 = cloud.step(msg1)
    m, n = 1, 2
    assert msg2.body[8 * m * n:] == msg1.body[4 + 8 * n:]


def test_error_paths(bench_controller):
    cfg = RunConfig()
    sensor, cloud, actuator = make_parties(bench_controller, "qe", cfg)
    with pytest.raises(StateNotCovered):
        sensor.step(np.array([50.0, 50.0]), 0)
    msg1 = sensor.step(np.array([-1.0, 0.2]), 1)
    forged = wire.encode_u32(10_000) + msg1.body[4:]
    with pytest.raises(InvalidRegion):
        cloud.step(with_body(msg1, forged))


def test_cloud_holds_no_secrets(bench_controller, kp256):
    cfg = RunConfig(key_bits=256)
    for backend, kw in [("qe", {}), ("qe_quantized", {}),
                        ("paillier", {"keypair": kp256})]:
        if backend == "qe_quantized":
            cfg = RunConfig(key_bits=256, w_b=4, w=24)
        _, cloud, _ = make_parties(bench_controller, backend, cfg, **kw)
        for name, val in vars(cloud).items():
            assert not isinstance(val, (KeySource, BetaVector, PaillierKeypair))
            assert "key" not in name and "beta" not in name and "seed" not in name
        if cloud.pk is not None:
            for secret in ("p", "q", "lam", "mu"):
                assert not hasattr(cloud.pk, secret)


def test_paillier_keypair_derives_from_key_bits_and_seed(bench_controller, kp256):
    """Without a supplied key, make_parties takes keygen(key_bits,
    Random(seed_keys)), one shared keypair per (key_bits, seed_keys); a
    supplied key of another size than key_bits is a ConfigError."""
    cfg = RunConfig(key_bits=256, seed_keys=5)
    first, _, actuator = make_parties(bench_controller, "paillier", cfg)
    again = make_parties(bench_controller, "paillier", cfg)[0]
    assert first.he_key is again.he_key is actuator.keypair
    assert first.he_key == keygen(256, random.Random(5))
    other = make_parties(bench_controller, "paillier",
                         RunConfig(key_bits=256, seed_keys=6))[0]
    assert other.he_key.n != first.he_key.n
    with pytest.raises(ConfigError, match="256 bits.*key_bits is 512"):
        make_parties(bench_controller, "paillier", RunConfig(key_bits=512),
                     keypair=kp256)


def test_paillier_sensor_holds_keypair_same_bytes(bench_controller, kp256):
    """The plant-side sensor encrypts with the keypair (CRT r^n); a sensor
    holding only the public key sends the same bytes."""
    cfg = RunConfig(key_bits=256)
    sensor, _, _ = make_parties(bench_controller, "paillier", cfg,
                                   keypair=kp256)
    assert sensor.he_key is kp256
    public_only = Sensor(bench_controller, "paillier", he_key=kp256.public,
                         field=sensor.field, codec=sensor.codec,
                         he_rng=random.Random(cfg.seed_keys + 1))
    for k, x in enumerate(sample_feasible(bench_controller, 5, 8)):
        assert sensor.step(x, k).body == public_only.step(x, k).body


def with_body(msg, body):
    return dataclasses.replace(msg, body=body)


def malformed_he_bodies(body, head, count, L):
    """Misframed copies of a body of `count` Paillier ciphertexts after
    `head` header bytes, each with the error text its decoder must give."""
    vals, off = [], head
    for _ in range(count):
        v, off = wire.decode_he_ct(body, off, L)
        vals.append(v)

    def framed(width):
        return body[:head] + b"".join(
            wire.encode_u32(width) + v.to_bytes(width, "big") for v in vals)

    assert framed(L // 4) == body
    return [(framed(L // 4 + 1), "expected"), (framed(L // 2), "expected"),
            (body[:-1], "truncated"), (body[:head + 2], "truncated"),
            (body + b"\x00", "trailing"), (body + body[head:], "trailing")]


def test_paillier_framing_is_strict(bench_controller, kp256):
    """Cloud and actuator refuse a ciphertext prefix other than L/4, a
    truncated body, and bytes after the last ciphertext."""
    cfg = RunConfig(key_bits=256)
    sensor, cloud, actuator = make_parties(
        bench_controller, "paillier", cfg, keypair=kp256)
    msg1 = sensor.step(np.array([-1.0, 0.2]), 0)
    msg2 = cloud.step(msg1)
    actuator.step(msg2, 0)
    n, m = bench_controller.n, bench_controller.m
    for body, text in malformed_he_bodies(msg1.body, 4, n + m, 256):
        with pytest.raises(wire.WireError, match=text):
            cloud.step(with_body(msg1, body))
    for body, text in malformed_he_bodies(msg2.body, 0, m, 256):
        with pytest.raises(wire.WireError, match=text):
            actuator.step(with_body(msg2, body), 0)


BACKEND_NAMES = ("plaintext", "qe", "qe_quantized", "paillier")


@pytest.fixture(scope="module")
def framed_messages(bench_controller, kp256):
    """Per backend: fresh parties and one real sensor and cloud message."""
    cfg = RunConfig(key_bits=256)
    out = {}
    for backend in BACKEND_NAMES:
        sensor, cloud, actuator = make_parties(
            bench_controller, backend, cfg, keypair=kp256)
        msg1 = sensor.step(np.array([-1.0, 0.2]), 0)
        msg2 = cloud.step(msg1)
        out[backend] = (cloud, actuator, msg1, msg2)
    return out


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_junk_suffix_raises_on_every_backend(framed_messages, backend):
    cloud, actuator, msg1, msg2 = framed_messages[backend]
    with pytest.raises(wire.WireError, match="trailing"):
        cloud.step(with_body(msg1, msg1.body + b"junk"))
    with pytest.raises(wire.WireError, match="trailing"):
        actuator.step(with_body(msg2, msg2.body + b"junk"), 0)
    # the unaltered cloud message still decodes (wire errors come
    # before the actuator derives cycle 0's keys)
    u = actuator.step(msg2, 0)
    assert np.all(np.isfinite(u))


@settings(max_examples=40, deadline=None)
@given(backend=st.sampled_from(BACKEND_NAMES),
       cut=st.integers(-9, 9).filter(bool), to_cloud=st.booleans())
def test_misframed_length_raises(framed_messages, backend, cut, to_cloud):
    """Any body shorter or longer than its frame is refused."""
    cloud, actuator, msg1, msg2 = framed_messages[backend]
    msg = msg1 if to_cloud else msg2
    body = msg.body[:cut] if cut < 0 else msg.body + bytes(range(cut))
    with pytest.raises(wire.WireError):
        if to_cloud:
            cloud.step(with_body(msg, body))
        else:
            actuator.step(with_body(msg, body), 0)


@settings(max_examples=60, deadline=None)
@given(vals=st.lists(st.floats(allow_nan=False), max_size=6),
       junk=st.binary(max_size=9))
def test_f64_vec_roundtrip(vals, junk):
    data = wire.encode_f64_vec(vals) + junk
    got, off = wire.decode_f64_vec(data, len(vals))
    assert got.tolist() == vals and off == 8 * len(vals)
    if junk:
        with pytest.raises(wire.WireError, match="trailing"):
            wire.expect_end(data, off)
    else:
        wire.expect_end(data, off)


@settings(max_examples=60, deadline=None)
@given(w=st.integers(1, 40), data=st.data())
def test_word_packing_roundtrip(w, data):
    values = data.draw(st.lists(st.integers(0, 2**w - 1), min_size=1,
                                max_size=5))
    junk = data.draw(st.binary(max_size=3))
    packed = wire.pack_words(values, w)
    assert len(packed) == (len(values) * w + 7) // 8
    codes, off = wire.unpack_words(packed + junk, len(values), w)
    assert codes == values and off == len(packed)
    if junk:
        with pytest.raises(wire.WireError, match="trailing"):
            wire.expect_end(packed + junk, off)
    pad = 8 * len(packed) - len(values) * w
    if pad:
        bad = data.draw(st.integers(1, 2**pad - 1))
        dirty = packed[:-1] + bytes([packed[-1] | bad])
        with pytest.raises(wire.WireError, match="pad bits"):
            wire.unpack_words(dirty + junk, len(values), w)


def test_quantized_pad_bits_refused(bench_controller):
    """At w = 12 each field of one word ends in 4 pad bits: the cloud
    refuses a sensor body and the actuator a cloud body with any set."""
    cfg = RunConfig(w=12, w_b=4)
    sensor, cloud, actuator = make_parties(bench_controller, "qe_quantized", cfg)
    msg1 = sensor.step(np.array([-1.0, 0.2]), 0)
    msg2 = cloud.step(msg1)
    assert msg1.body[-1] & 0x0F == 0 and msg2.body[-1] & 0x0F == 0
    with pytest.raises(wire.WireError, match="pad bits"):
        cloud.step(with_body(msg1, msg1.body[:-1] + b"\x0f"))
    with pytest.raises(wire.WireError, match="pad bits"):
        actuator.step(with_body(msg2, msg2.body[:-1] + bytes([msg2.body[-1] | 1])), 0)
    u = actuator.step(msg2, 0)
    assert np.all(np.isfinite(u))


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_payload_bits_are_body_bits_less_framing(bench_controller, kp256,
                                                 backend):
    """Each message's payload_bits equals its body's bits less the zero
    pad of quantized fields and 32 per Paillier length prefix; the u32
    region index counts as payload.  w = 12 leaves 4 pad bits after
    every one-word field."""
    cfg = RunConfig(key_bits=256, w=12, w_b=4)
    sensor, cloud, _ = make_parties(bench_controller, backend, cfg,
                                    keypair=kp256)
    n, m = bench_controller.n, bench_controller.m
    msg1 = sensor.step(np.array([-0.4, 0.2]), 0)
    msg2 = cloud.step(msg1)
    for msg, off, fields in ((msg1, 4, (n, m)), (msg2, 0, (m * n, m))):
        framing = 0
        if backend == "qe_quantized":
            for count in fields:
                end = off + (count * cfg.w + 7) // 8
                pad = 8 * (end - off) - count * cfg.w
                assert int.from_bytes(msg.body[off:end], "big") % 2**pad == 0
                framing += pad
                off = end
            assert off == len(msg.body)
        elif backend == "paillier":
            while off < len(msg.body):
                _, off = wire.decode_he_ct(msg.body, off, cfg.key_bits)
                framing += 32
        assert msg.payload_bits == 8 * len(msg.body) - framing


def test_quantized_wire_stream_pinned(bench_controller):
    """One set of qe_quantized parties over a seeded state stream that
    faults often: w_b = 5 puts many ciphertexts outside the fold window,
    so RangeError comes from the sensor and, three times, from the cloud
    after the sensor message went out; some states lie outside the
    partition.  The bodies and fault steps match those recorded from the
    earlier word-object implementation, so each party's quantizer stream
    carries on across faults exactly as before."""
    parties = make_parties(bench_controller, "qe_quantized",
                           RunConfig(w=12, w_b=5))
    log = []
    rng = np.random.default_rng(12)
    faults = []
    for k in range(400):
        sent = len(log)
        try:
            run_cycle(rng.uniform([-6.0, -3.0], [6.0, 3.0]), *parties, k, log=log)
        except (RangeError, StateNotCovered) as exc:
            faults.append((k, type(exc).__name__, len(log) - sent))
    digest = hashlib.sha256(repr(faults).encode())
    for msg in log:
        digest.update(msg.body)
    kinds = collections.Counter((name, sent) for _, name, sent in faults)
    assert kinds == {("RangeError", 0): 105, ("RangeError", 1): 3,
                     ("StateNotCovered", 0): 81}
    assert digest.hexdigest() == (
        "498cb8566f6d090d22c4d93d917cfb7a4f3037d6063f0bc05bfbfa670164ce3b")


def wire_stream_digest(parties, count):
    """Run one set of parties over `count` seeded states, some of them
    outside the partition; return (faults, messages sent, SHA-256 of the
    faults, the inputs and every body on both links)."""
    log = []
    rng = np.random.default_rng(12)
    faults, inputs = [], []
    for k in range(count):
        sent = len(log)
        try:
            u, _ = run_cycle(rng.uniform([-6.0, -3.0], [6.0, 3.0]), *parties,
                             k, log=log)
            inputs.append(u.tobytes())
        except StateNotCovered as exc:
            faults.append((k, type(exc).__name__, len(log) - sent))
    digest = hashlib.sha256(repr(faults).encode())
    for data in inputs + [msg.body for msg in log]:
        digest.update(data)
    return faults, len(log), digest.hexdigest()


def test_qe_wire_stream_pinned(bench_controller):
    """One set of qe parties over a seeded state stream, some of it
    outside the partition.  The bodies, inputs and fault steps match
    those recorded before the cycle's key derivation and cipher were
    rewritten, so a fault burns no key and every ciphertext keeps its
    bytes."""
    parties = make_parties(bench_controller, "qe", RunConfig())
    faults, sent, digest = wire_stream_digest(parties, 400)
    assert len(faults) == 81 and sent == 2 * 319
    assert digest == (
        "f635d623e1eabe64caf427069c3a16275676bfcf33cef9ff8a9d23c6e2354b19")


def test_plaintext_wire_stream_pinned(bench_controller):
    """The qe pin's 400 seeded states through plaintext parties: the
    state and input travel as binary64, so the bodies pin the reference
    pipeline's layout and its inputs bit for bit."""
    parties = make_parties(bench_controller, "plaintext", RunConfig())
    faults, sent, digest = wire_stream_digest(parties, 400)
    assert len(faults) == 81 and sent == 2 * 319
    assert digest == (
        "14b1383ccbd7b4246d5c18b6c8f20f11c6588cedae0ac379589baa7535a4a267")


def test_paillier_wire_stream_pinned(bench_controller, kp256):
    """One set of Paillier parties over the qe pin's 400 seeded states:
    region 0 and four others with two negative gains, the saturated
    zero-gain regions, and 81 states outside the partition.  The first
    30 of those states follow at the benchmark's L = 1024.  The bodies, inputs and
    fault steps match those recorded before the randomizer and the
    cloud's inverses were rewritten, so every ciphertext keeps its bytes."""
    parties = make_parties(bench_controller, "paillier",
                           RunConfig(key_bits=256), keypair=kp256)
    faults, sent, digest = wire_stream_digest(parties, 400)
    assert len(faults) == 81 and sent == 2 * 319
    assert digest == (
        "c5cce856add057e0727272d0d9f9dbba9a56cd7f6ee1c2fdff5694b762531731")
    parties = make_parties(bench_controller, "paillier",
                           RunConfig(key_bits=1024))
    faults, sent, digest = wire_stream_digest(parties, 30)
    assert len(faults) == 7 and sent == 2 * 23
    assert digest == (
        "3d358658aa3ced7c2b3906398bc14cf63c5bdd926021c51f0949e22565f8c0eb")


def test_cloud_fault_leaves_sensor_message_in_tap():
    """The tap gets the sensor message before the cloud runs: a gain of
    1e9 takes every power ct ** K out of the positive reals, and the
    tap then holds exactly the message the sensor sent."""
    ctrl = single_region_controller(2, 1, np.random.default_rng(0))
    ctrl.regions[0].K[:] = 1e9
    x = np.ones(2)
    log = []
    with pytest.raises(CiphertextError):
        run_cycle(x, *make_parties(ctrl, "qe", RunConfig()), 0, log=log)
    sent = make_parties(ctrl, "qe", RunConfig())[0].step(x, 0)
    assert log == [sent]


def test_eavesdrop_log_and_leak_audit(bench_controller):
    """What the adversary reads off the sensor link: qe features never
    equal the states, plaintext features are the states.  Each cycle's
    sigma is the region index on its sensor message."""
    cfg = RunConfig()
    states = sample_feasible(bench_controller, 10, 6)
    feats = {}
    for backend in ("qe", "plaintext"):
        log = []
        sensor, cloud, actuator = make_parties(bench_controller, backend, cfg)
        for k, x in enumerate(states):
            _, met = run_cycle(x, sensor, cloud, actuator, k, log=log)
            assert log[-2].link == "s_to_c"
            assert met.sigma == wire.decode_u32(log[-2].body)[0]
            assert met.sigma == bench_controller.locate(x)
        assert len(log) == 20
        assert all(isinstance(e.body, bytes) for e in log)
        feats[backend] = observe_features(log, backend, sensor.field,
                                          bench_controller.n)
    assert feats["plaintext"].shape == (10, bench_controller.n)
    assert np.array_equal(feats["plaintext"], np.array(states))
    for row, x in zip(feats["qe"], states):
        assert not np.all(np.abs(row - x) <= 1e-6)


def test_predict_cost_formulas():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n, m = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        L, p = int(rng.integers(2, 4096)), int(rng.integers(2, 256))
        b_K = int(rng.integers(1, 64))
        got = predict_cost(n, m, L, p, b_K)
        assert got["C_HE"] == (n + 2 * m) * L**3 + m * n * (b_K + 1) * L**2
        assert got["C_QE"] == (m * n + n + m) * p**3
        pp = got["per_party"]
        assert pp["he"]["sensor"] == (n + m) * L**3
        assert pp["he"]["controller"] == m * n * (b_K + 1) * L**2
        assert pp["he"]["actuator"] == m * L**3
        assert pp["qe"]["sensor"] == (n + m) * p**3
        assert pp["qe"]["controller"] == m * n * (p**3 + p**2)
        assert pp["qe"]["actuator"] == (m * n + m) * p**3 + m * n * p**2


def test_predict_cost_degenerate_and_scaling():
    base = predict_cost(3, 1, 512, 32, 16)
    octo = predict_cost(3, 1, 512, 64, 16)
    assert octo["C_QE"] == 8 * base["C_QE"]
    m0 = predict_cost(4, 0, 256, 16, 1)
    assert m0["C_HE"] == 4 * 256**3
    assert m0["C_QE"] == 4 * 16**3


def test_align_accuracy_examples():
    assert align_accuracy(2.0**-10, 2) == (10, 10)
    assert align_accuracy(0.5, 2) == (1, 1)
    assert align_accuracy(1e-3, 10) == (3, 10)
    with pytest.raises(ConfigError):
        align_accuracy(1.5, 2)
    with pytest.raises(ConfigError):
        align_accuracy(0.0, 2)


def test_runconfig_derives_accuracy_params():
    cfg = RunConfig(epsilon_q=2.0**-10, p_bits=64)
    assert (cfg.delta, cfg.w) == (10, 10)
    assert cfg.p_bits == 64
    tight = RunConfig(epsilon_q=2.0**-20, p_bits=8)
    assert tight.p_bits >= 20