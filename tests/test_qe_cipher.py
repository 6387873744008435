import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from encmpc import wire
from encmpc.keys import BetaVector, KeyConfig, betas, generate_key
from encmpc.qe_cipher import (CiphertextError, DomainError, MagnitudeError,
                              RangeError, con, dec_aggregate, dec_vector,
                              dequantize, enc_offset, enc_state, enc_vector,
                              g_map, quantize_stochastic)


def g_inv(y):
    """The inverse of the domain fold g_map, per value: the reference
    that dequantize folds inline."""
    return float(y) if y > 1 else 1.0 / (2.0 - float(y))


def test_enc_scalar_values():
    assert enc_vector([0.0], [7])[0] == 1.0
    assert enc_vector([3.0], [5])[0] == pytest.approx(math.exp(0.6), rel=1e-15)
    assert enc_vector([-2.0], [-1])[0] == pytest.approx(math.exp(2.0), rel=1e-15)


def test_enc_scalar_magnitude_guard():
    with pytest.raises(MagnitudeError):
        enc_vector([701.0], [1])
    with pytest.raises(MagnitudeError):
        enc_vector([1e9], [1000])
    enc_vector([700.0], [1])  # boundary allowed


def test_dec_scalar_values():
    assert dec_vector([1.0], [12345])[0] == 0.0
    assert dec_vector([math.exp(2.0)], [-1])[0] == pytest.approx(-2.0, abs=1e-14)
    assert dec_vector(enc_vector([3.0], [5]), [5])[0] == pytest.approx(3.0, rel=1e-12)


def test_dec_scalar_rejects_nonpositive():
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(CiphertextError):
            dec_vector([bad], [3])


def test_enc_vectors():
    assert enc_vector([0.0, 0.0, 0.0], [4, -9, 1]) == pytest.approx(np.ones(3))
    out = enc_vector([1.0, -1.0], [1, -1])
    assert out == pytest.approx([math.e, math.e])
    with pytest.raises(MagnitudeError):
        enc_vector([0.0, 1e6], [5, 1])


def test_enc_state_offset_split():
    cfg = KeyConfig(n=2, m=1, w_b=8)
    bv = betas(generate_key(3, 0, cfg), cfg)
    x = np.array([0.4, -1.2])
    b = np.array([0.7])
    ct_x = enc_state(x, bv.beta[:bv.n])
    ct_b = enc_offset(b, bv.beta[bv.n:])
    assert dec_vector(ct_x, bv.beta[:bv.n]) == pytest.approx(x, abs=1e-12)
    assert dec_vector(ct_b, bv.beta[bv.n:]) == pytest.approx(b, abs=1e-12)
    # the sensor's one call over (x, b) gives the same floats
    both = enc_state([0.4, -1.2, 0.7], bv.beta)
    assert hexes(both) == hexes(ct_x + ct_b)


def hexes(values):
    """Each float's exact bits, as float.hex (which tells -0.0 from 0.0)."""
    return [float(v).hex() for v in values]


def test_cipher_is_libm_bit_for_bit():
    """On seeded draws, enc is math.exp(z / beta), con is ct ** k on
    Python floats (C pow), and dec is math.fsum of the rounded
    beta * math.log(ct) terms, bit for bit: the cipher's bits rest on
    the platform's libm alone."""
    rng = np.random.default_rng(27)
    n, m = 3, 2
    cfg = KeyConfig(n=n, m=m, w_b=16)
    for trial in range(2000):
        beta = betas(generate_key(27, trial, cfg), cfg).beta
        z = rng.uniform(-50, 50, size=n + m).tolist()
        K = rng.uniform(-4, 4, size=(m, n)).tolist()
        ct = enc_vector(z, beta)
        assert hexes(ct) == hexes([math.exp(v / b) for v, b in zip(z, beta)])
        T = con(K, ct[:n])
        assert hexes(T) == hexes([ct[i] ** K[j][i] for j in range(m)
                                  for i in range(n)])
        logs = [math.log(c) for c in T + ct[n:]]
        want = [math.fsum([beta[i] * logs[j * n + i] for i in range(n)]
                          + [beta[n + j] * logs[m * n + j]]) for j in range(m)]
        got = dec_aggregate(T + ct[n:], BetaVector(beta=beta, n=n, m=m))
        assert hexes(got) == hexes(want)
        assert hexes(dec_vector(ct, beta)) == hexes(
            [b * math.log(c) for b, c in zip(beta, ct)])


def received(T, ct_b):
    """The actuator's view: T row-major, then the offset ciphertexts."""
    return np.concatenate([np.ravel(T), ct_b])


def test_con_basic():
    assert np.allclose(con([[0.0]], [5.7]), [[1.0]])
    assert np.allclose(con([[1.0]], [5.7]), [[5.7]])
    assert np.allclose(con([[2.0]], [math.exp(0.6)]), [[math.exp(1.2)]])


def test_con_rejects_bad_inputs():
    with pytest.raises(CiphertextError):
        con([[1.0]], [-2.0])
    with pytest.raises(CiphertextError):
        con([[4000.0]], [math.exp(0.7) * 4])  # overflows float range
    with pytest.raises(CiphertextError):
        con([[-4000.0]], [math.exp(0.7) * 4])  # underflows to 0
    with pytest.raises(ValueError):
        con([[1.0, 2.0]], [1.0])


def test_dec_aggregate_hand_chain():
    # x=3, beta=5, K=2: enc -> e^{0.6}; con -> e^{1.2}; aggregate -> 6 = Kx
    # and b=0.5 under beta=-3 adds 0.5
    ct = enc_vector([3.0], [5])
    T = con([[2.0]], ct)
    u = dec_aggregate(received(T, enc_vector([0.5], [-3])),
                      BetaVector(beta=(5, -3), n=1, m=1))
    assert u == pytest.approx([6.5], abs=1e-12)


def test_dec_aggregate_zero_gain():
    T = con([[0.0] * 3] * 2, [1.5, 0.3, 9.0])
    bv = BetaVector(beta=(4, -7, 2, 5, -6), n=3, m=2)
    assert dec_aggregate(received(T, [1.0, 1.0]), bv) == pytest.approx(
        np.zeros(2), abs=0)


def test_dec_aggregate_rejects_bad_ciphertexts():
    bv = BetaVector(beta=(4, -7, 2), n=2, m=1)
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(CiphertextError):
            dec_aggregate([1.0, 2.0, bad], bv)
        with pytest.raises(CiphertextError):
            dec_aggregate([bad, 2.0, 1.0], bv)
    with pytest.raises(ValueError):
        dec_aggregate([1.0, 2.0], bv)


@pytest.mark.parametrize("v, ok", [
    (float("nan"), False), (math.inf, False), (-math.inf, False),
    (0.0, False), (-0.0, False), (5e-324, True), (2.0 ** -1030, True)])
def test_ciphertext_edge_values(v, ok):
    """A ciphertext must be a positive finite float: NaN, +-inf and +-0.0
    are refused, and a subnormal is accepted, by con, dec_vector and
    dec_aggregate alike."""
    bv = BetaVector(beta=(4, -7, 2), n=2, m=1)
    for call in (lambda: con([[1.0]], [v]), lambda: dec_vector([v], [3]),
                 lambda: dec_aggregate([1.0, 2.0, v], bv)):
        if ok:
            call()
        else:
            with pytest.raises(CiphertextError):
                call()


def test_exact_recovery_chain_random():
    """Full f_Dec(f_Con(f_Enc)) chain: v = Kx and u = Kx + b."""
    rng = np.random.default_rng(8)
    cfg = KeyConfig(n=3, m=2, w_b=16)
    worst = 0.0
    for trial in range(10_000):
        bv = betas(generate_key(21, trial, cfg), cfg)
        x = rng.uniform(-5, 5, size=3)
        K = rng.uniform(-3, 3, size=(2, 3))
        T = con(K, enc_state(x, bv.beta[:bv.n]))
        v = dec_aggregate(received(T, enc_offset([0.0, 0.0], bv.beta[bv.n:])), bv)
        worst = max(worst, np.abs(v - K @ x).max())
    assert worst <= 1e-9


def test_exact_recovery_with_offset():
    rng = np.random.default_rng(9)
    cfg = KeyConfig(n=4, m=2, w_b=16)
    for trial in range(200):
        bv = betas(generate_key(5, trial, cfg), cfg)
        x = rng.uniform(-4, 4, size=4)
        b = rng.uniform(-2, 2, size=2)
        K = rng.uniform(-2, 2, size=(2, 4))
        u = dec_aggregate(received(con(K, enc_state(x, bv.beta[:bv.n])),
                                   enc_offset(b, bv.beta[bv.n:])), bv)
        assert u == pytest.approx(K @ x + b, abs=1e-9)


def test_wrong_key_garbles():
    """Decrypting under a fresh independent key must not recover Kx.

    The per-component scaling error beta'_i/beta_i is heavy tailed, so a
    small base rate of coincidental near-hits is expected; the decode must
    be wrong in the typical case, not merely sometimes.
    """
    rng = np.random.default_rng(10)
    cfg = KeyConfig(n=3, m=1, w_b=16)
    trials = 300
    rel = np.empty(trials)
    for trial in range(trials):
        bv = betas(generate_key(100, trial, cfg), cfg)
        wrong = betas(generate_key(200, trial, cfg), cfg)
        x = rng.uniform(-5, 5, size=3)
        K = rng.uniform(-3, 3, size=(1, 3))
        ref = K @ x
        v_bad = dec_aggregate(received(con(K, enc_state(x, bv.beta[:bv.n])),
                                       enc_offset([0.0], bv.beta[bv.n:])), wrong)
        rel[trial] = np.linalg.norm(v_bad - ref) / max(np.linalg.norm(ref), 1e-9)
    assert np.median(rel) > 0.5
    assert np.mean(rel < 0.1) <= 0.10


def test_con_signature_has_no_key_parameter():
    import inspect
    params = inspect.signature(con).parameters
    assert "beta" not in params and "betas_part" not in params and "key" not in params


def test_g_map_values():
    assert g_map(2.0) == 2.0
    assert g_map(1.0) == 1.0
    assert g_map(0.5) == 0.0
    assert g_map(4.7) == 4.7
    with pytest.raises(DomainError):
        g_map(0.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e6))
def test_g_roundtrip(v):
    assert g_inv(g_map(v)) == pytest.approx(v, rel=1e-12)


def test_dequantize_is_g_inv_per_code():
    """dequantize folds inline what g_inv does per code, bit for bit."""
    rng = np.random.default_rng(9)
    for w in (1, 2, 8, 16, 24, 40):
        codes = [0, 1, 2 ** (w - 1), 2 ** w - 1]
        codes += rng.integers(0, 2 ** w, 200).tolist()
        assert dequantize(codes, w) == [g_inv(c * 2.0 ** (1 - w)) for c in codes]


def test_g_monotone_on_positives():
    vs = np.concatenate([np.linspace(0.01, 1.0, 50), np.linspace(1.0, 5.0, 50)])
    ys = [g_map(v) for v in vs]
    assert all(a < b + 1e-15 for a, b in zip(ys, ys[1:]))


def test_quantize_grid_aligned_deterministic():
    rng = np.random.default_rng(0)
    # v = 1.5 > 1: y = 1.5; with w=4, 2^3*1.5 = 12 exactly
    for _ in range(50):
        codes = quantize_stochastic([1.5], 4, rng)
        assert codes == [12]
        assert dequantize(codes, 4) == [1.5]


def test_quantize_w1_coin():
    # g_map(2/3) = 0.5, w=1: eta = 0.5 -> equal mass on 0 and 1
    rng = np.random.default_rng(1)
    vals = quantize_stochastic([2.0 / 3.0] * 20_000, 1, rng)
    mean = np.mean(vals)
    assert 0.48 <= mean <= 0.52
    assert set(vals) == {0, 1}


def test_quantize_out_of_range():
    rng = np.random.default_rng(2)
    with pytest.raises(RangeError):
        quantize_stochastic([3.0], 4, rng)      # y = 3 > 2 - 2^-3
    with pytest.raises(RangeError):
        quantize_stochastic([0.4], 8, rng)      # y = -0.5 < 0
    with pytest.raises(RangeError):
        quantize_stochastic([-1.0], 8, rng)     # negative v folds above 2
    # the bad value raises before its draw: only the value ahead of it drew
    fresh = np.random.default_rng(2)
    with pytest.raises(RangeError):
        quantize_stochastic([1.5, 3.0, 1.5], 4, fresh)
    fresh_ref = np.random.default_rng(2)
    fresh_ref.random()
    assert fresh.random() == fresh_ref.random()


def test_quantizer_moments_small():
    """Unbiasedness and the 2^-2w MSE bound on a spot check grid.

    The acceptance suite runs the full version; this keeps a fast
    regression copy at w=6.
    """
    rng = np.random.default_rng(3)
    w = 6
    for v in (0.52, 0.8, 1.0, 1.37, 1.9):
        y = g_map(v)
        draws = np.array(quantize_stochastic([v] * 20_000, w, rng)) * 2.0 ** (1 - w)
        err = draws - y
        se = (2.0 ** -w) / math.sqrt(len(draws))
        assert abs(err.mean()) <= 4 * se + 1e-12
        assert (err ** 2).mean() <= (2.0 ** (-2 * w)) * 1.05


def test_quantized_word_bits_string():
    # codes go on the wire MSB-first, the last byte zero-padded
    assert wire.pack_words([0b10, 0b01], 2) == b"\x90"
    assert wire.unpack_words(b"\x90", 2, 2) == ([0b10, 0b01], 1)
    assert dequantize([0b10], 2) == [1.0]  # 2 * 2^(1-2)


# words drawn by the quantizer before its hot path was trimmed; the
# stream must not move, since trajectory CSVs depend on it
RECORDED_WORDS = [
    (0, 0.52, 4, [0, 1, 1, 1, 0, 0, 1, 0, 1, 0, 0, 1]),
    (7, 2.0 / 3.0, 1, [0, 0, 0, 1, 1, 0, 1, 0, 0, 1, 1, 1]),
    (11, 0.85, 8, [106, 105, 105, 106, 106, 105, 106, 106, 105, 105, 106, 105]),
    (2026, 1.37, 12, [2806, 2806, 2806, 2806, 2806, 2805, 2805, 2806, 2806,
                      2806, 2805, 2805]),
    (5, 1.9, 16, [62259, 62259, 62259, 62259, 62260, 62259, 62259, 62260,
                  62260, 62259, 62259, 62259]),
    (13, 0.6, 24, [2796202, 2796202, 2796202, 2796203, 2796203, 2796202,
                   2796203, 2796203, 2796202, 2796202, 2796203, 2796202]),
]


@pytest.mark.parametrize("seed,v,w,expected", RECORDED_WORDS)
def test_quantizer_stream_pinned(seed, v, w, expected):
    rng = np.random.default_rng(seed)
    assert quantize_stochastic([v] * len(expected), w, rng) == expected


def test_quantizer_one_draw_per_word():
    # a grid-aligned value (1.5 at w=4) still consumes its draw
    rng = np.random.default_rng(31)
    vals = quantize_stochastic((1.5, 0.52) * 6, 4, rng)
    assert vals == [12, 1, 12, 1, 12, 1, 12, 1, 12, 1, 12, 0]
    fresh = np.random.default_rng(31)
    fresh.random(12)
    assert rng.random() == fresh.random()


def test_quantized_word_range_checked():
    for code in (-1, 256):
        with pytest.raises(wire.WireError, match="outside"):
            wire.pack_words([0, code], 8)
    assert quantize_stochastic([2.0 - 2.0 ** -7], 8,
                               np.random.default_rng(0)) == [255]


def test_quantized_roundtrip_error_decays():
    rng = np.random.default_rng(4)
    roundtrip = lambda v, w, k: np.array(
        dequantize(quantize_stochastic([v] * k, w, rng), w))
    errs24 = np.abs(roundtrip(1.3, 24, 200) - 1.3)
    assert max(errs24) <= 2.0 ** -22
    errs16 = np.abs(roundtrip(0.75, 16, 10_000) - 0.75)
    assert np.mean(errs16) <= 1e-3
