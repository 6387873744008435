"""Sensor/cloud/actuator pipeline: counts, payloads, isolation, equivalence."""

import collections
import dataclasses
import hashlib
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from encmpc import paillier, protocol, qe_cipher, wire
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
    WireMessage,
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


def plain_law(controller, x):
    """The plaintext law at a state inside the partition."""
    return controller.eval_region(controller.locate(x), x)


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
        errs.append(abs(u - plain_law(bench_controller, x)).max())
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
        assert abs(u - plain_law(bench_controller, x)).max() <= budget


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
        errs.append(abs(u - plain_law(bench_controller, x)).max())
        k += 1
    assert max(errs) <= 1e-4


def test_plaintext_backend_zero_counts(bench_controller):
    cfg = RunConfig()
    sensor, cloud, actuator = make_parties(bench_controller, "plaintext", cfg)
    x = np.array([-1.0, 0.2])
    u, metrics = run_cycle(x, sensor, cloud, actuator, 0)
    assert all(v == 0 for v in metrics.counts.values())
    assert np.allclose(u, plain_law(bench_controller, x))


def test_exact_law_correctly_rounded(bench_controller):
    """At seeded states in every region of the benchmark partition, and of
    a 4-state, 3-input law, eval_region and the plaintext cloud give
    u_j = the correctly rounded value of the exact sum of the rounded
    products K_ji x_i and b_j, taken in Fractions, under every kernel."""
    rng = np.random.default_rng(31)
    for ctl in (bench_controller, single_region_controller(4, 3, rng)):
        cloud = make_parties(ctl, "plaintext", RunConfig())[1]
        for sigma, r in enumerate(ctl.regions):
            # 12 states inside the region's Chebyshev ball
            steps = rng.uniform(-1.0, 1.0, (12, ctl.n))
            steps *= 0.9 * min(r.cheb_radius, 50.0) / np.linalg.norm(
                steps, axis=1, keepdims=True)
            for x in (r.cheb_center + steps).tolist():
                want = [float(sum(map(Fraction, map(float.__mul__, row, x)),
                                  Fraction(bj)))
                        for row, bj in zip(r.K.tolist(), r.b.tolist())]
                assert ctl.eval_region(sigma, x).tolist() == want
                body = wire.encode_u32(sigma) + wire.encode_f64_vec(x)
                out = cloud.step(WireMessage("s_to_c", body, 0)).body
                assert wire.decode_f64_vec(out, ctl.m)[0].tolist() == want


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
    """No cloud holds key material; an encrypting cloud holds the gain
    library alone, and every party's law rows are the controller's own
    tuples, so no second copy of the law exists."""
    ctl = bench_controller
    cfg = RunConfig(key_bits=256)
    for backend, kw in [("plaintext", {}), ("qe", {}), ("qe_quantized", {}),
                        ("paillier", {"keypair": kp256})]:
        if backend == "qe_quantized":
            cfg = RunConfig(key_bits=256, w_b=4, w=24)
        sensor, cloud, _ = make_parties(ctl, backend, cfg, **kw)
        for name, val in vars(cloud).items():
            assert not isinstance(val, (KeySource, BetaVector, PaillierKeypair))
            assert "key" not in name and "beta" not in name and "seed" not in name
        if cloud.pk is not None:
            for secret in ("p", "q", "lam", "mu"):
                assert not hasattr(cloud.pk, secret)
        assert cloud.offset_rows is (ctl.offset_rows if backend == "plaintext" else None)
        assert sensor.offset_rows is ctl.offset_rows
        assert cloud.gain_rows is ctl.gain_rows


def tallied(calls, key, fn, size=lambda args, out: 1):
    """fn, adding size(args, result) to calls[key] on each call."""
    def counted(*args):
        out = fn(*args)
        calls[key] += size(args, out)
        return out
    return counted


def test_he_mul_counts_what_runs(bench_controller, kp256, monkeypatch):
    """One Paillier cycle per region, at its Chebyshev center, runs
    he_enc, he_scalar_mul, he_add and he_dec exactly as often as
    cycle_counts says, negative gains included."""
    calls = collections.Counter()
    for module, name in ((paillier, "he_scalar_mul"), (paillier, "he_add"),
                         (protocol, "he_enc"), (protocol, "he_dec")):
        monkeypatch.setattr(module, name, tallied(calls, name, getattr(module, name)))
    parties = make_parties(bench_controller, "paillier", RunConfig(key_bits=256),
                           keypair=kp256)
    for k, r in enumerate(bench_controller.regions):
        calls.clear()
        _, met = run_cycle(r.cheb_center, *parties, k)
        assert met.sigma == k
        assert [calls[name] for name in ("he_enc", "he_scalar_mul", "he_add", "he_dec")
                ] == [met.counts[key] for key in ("he_enc", "he_mul", "he_add", "he_dec")], k


class CountedMath:
    """The math module, with the calls that a tally counts swapped in."""

    def __getattr__(self, name):
        return getattr(math, name)


def test_qe_counts_what_runs(bench_controller, monkeypatch):
    """One qe cycle takes as many exps (enc), powers returned by con
    (con), logs (dec) and fsum additions (sums) as cycle_counts says:
    at every region's Chebyshev center of the benchmark law, and at
    seeded states of a 4-state, 3-input law."""
    calls = collections.Counter()
    counted_math = CountedMath()
    counted_math.exp = tallied(calls, "enc", math.exp)
    counted_math.log = tallied(calls, "dec", math.log)
    counted_math.fsum = tallied(calls, "sums", math.fsum,
                                lambda args, _: len(args[0]) - 1)
    monkeypatch.setattr(qe_cipher, "math", counted_math)
    monkeypatch.setattr(protocol, "con", tallied(calls, "con", protocol.con,
                                                 lambda _, out: len(out)))
    rng = np.random.default_rng(12)
    wide = single_region_controller(4, 3, rng)
    cases = [(bench_controller, [r.cheb_center for r in bench_controller.regions]),
             (wide, rng.uniform(-1.0, 1.0, size=(8, 4)))]
    for ctl, states in cases:
        parties = make_parties(ctl, "qe", RunConfig())
        want = protocol.cycle_counts("qe", ctl.n, ctl.m)
        for k, x in enumerate(states):
            calls.clear()
            _, met = run_cycle(x, *parties, k)
            assert met.counts is want
            assert dict(calls) == {key: want[key] for key in ("enc", "con", "dec", "sums")}
            assert not any(want[key] for key in COUNT_KEYS if key not in calls)


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
    return msg._replace(body=body)


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


def with_residue(msg, head, index, value, L):
    """msg with Paillier field `index` after `head` header bytes set to
    value, framed as the key's fields are."""
    off = head
    for _ in range(index):
        _, off = wire.decode_he_ct(msg.body, off, L)
    _, end = wire.decode_he_ct(msg.body, off, L)
    return with_body(msg, msg.body[:off] + wire.encode_he_ct(value, L)
                     + msg.body[end:])


# residues outside [1, n^2), as functions of n^2
OFF_RANGE = {"zero": lambda n_sq: 0, "n_sq": lambda n_sq: n_sq,
             "n_sq+7": lambda n_sq: n_sq + 7}


@pytest.mark.parametrize("bad", list(OFF_RANGE))
def test_cloud_refuses_residue_outside_range(bench_controller, kp256, bad):
    """A sensor-link ciphertext field outside [1, n^2), in any position,
    is a WireError at the cloud."""
    sensor, cloud, _ = make_parties(bench_controller, "paillier",
                                    RunConfig(key_bits=256), keypair=kp256)
    msg1 = sensor.step(np.array([-1.0, 0.2]), 0)
    value = OFF_RANGE[bad](kp256.n_sq)
    for i in range(bench_controller.n + bench_controller.m):
        with pytest.raises(wire.WireError, match=f"field {i} is outside"):
            cloud.step(with_residue(msg1, 4, i, value, 256))


@pytest.mark.parametrize("bad", list(OFF_RANGE))
def test_actuator_refuses_residue_outside_range(bench_controller, kp256, bad):
    """A cloud-link ciphertext field outside [1, n^2) is a WireError at
    the actuator, not a decryption of it."""
    sensor, cloud, actuator = make_parties(
        bench_controller, "paillier", RunConfig(key_bits=256), keypair=kp256)
    msg2 = cloud.step(sensor.step(np.array([-1.0, 0.2]), 0))
    value = OFF_RANGE[bad](kp256.n_sq)
    for i in range(bench_controller.m):
        with pytest.raises(wire.WireError, match=f"field {i} is outside"):
            actuator.step(with_residue(msg2, 0, i, value, 256), 0)


# residues in [1, n^2) that share a factor with n, so are no units mod n^2
NON_UNITS = {"n": lambda kp: kp.n, "p": lambda kp: kp.p,
             "q_sq": lambda kp: kp.q ** 2}


@pytest.mark.parametrize("bad", list(NON_UNITS))
def test_cloud_refuses_residue_not_a_unit(bench_controller, kp256, bad):
    """A sensor-link ciphertext field that is no unit mod n^2, in any
    position, is a WireError at the cloud naming the field."""
    sensor, cloud, _ = make_parties(bench_controller, "paillier",
                                    RunConfig(key_bits=256), keypair=kp256)
    msg1 = sensor.step(np.array([-1.0, 0.2]), 0)
    value = NON_UNITS[bad](kp256)
    for i in range(bench_controller.n + bench_controller.m):
        with pytest.raises(wire.WireError, match=f"field {i} is not a unit"):
            cloud.step(with_residue(msg1, 4, i, value, 256))


@pytest.mark.parametrize("bad", list(NON_UNITS))
def test_actuator_refuses_residue_not_a_unit(bench_controller, kp256, bad):
    """A cloud-link ciphertext field that is no unit mod n^2 is a
    WireError at the actuator, not a decryption of it (a field holding n
    decrypted to u of about -3.7e70)."""
    sensor, cloud, actuator = make_parties(
        bench_controller, "paillier", RunConfig(key_bits=256), keypair=kp256)
    msg2 = cloud.step(sensor.step(np.array([-1.0, 0.2]), 0))
    value = NON_UNITS[bad](kp256)
    for i in range(bench_controller.m):
        with pytest.raises(wire.WireError, match=f"field {i} is not a unit"):
            actuator.step(with_residue(msg2, 0, i, value, 256), 0)


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
    those recorded when the cipher moved to libm on Python floats, so a
    fault burns no key and every ciphertext keeps its bytes."""
    parties = make_parties(bench_controller, "qe", RunConfig())
    faults, sent, digest = wire_stream_digest(parties, 400)
    assert len(faults) == 81 and sent == 2 * 319
    assert digest == (
        "f2d761dc6ed33376f3f3d33b33777724a1101d50fb6a065c1ebe5a8bc4a5a27e")


def test_plaintext_wire_stream_pinned(bench_controller):
    """The qe pin's 400 seeded states through plaintext parties: the
    state and input travel as binary64, so the bodies pin the reference
    pipeline's layout and its inputs bit for bit, recorded when the
    cloud's law became one math.fsum per input (apply_law)."""
    parties = make_parties(bench_controller, "plaintext", RunConfig())
    faults, sent, digest = wire_stream_digest(parties, 400)
    assert len(faults) == 81 and sent == 2 * 319
    assert digest == (
        "992a59df813ad90a7a8593b555b8af48a4aa9df79b4d61d270e458dc648415e5")


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
    base = single_region_controller(2, 1, np.random.default_rng(0))
    region = dataclasses.replace(base.regions[0], K=np.full((1, 2), 1e9))
    ctrl = dataclasses.replace(base, regions=[region])
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
    cfg = RunConfig(epsilon_q=2.0**-10)
    assert (cfg.delta, cfg.w) == (10, 10)
    tight = RunConfig(epsilon_q=2.0**-20)
    assert (tight.delta, tight.w) == (20, 20)
    assert not hasattr(cfg, "p_bits")