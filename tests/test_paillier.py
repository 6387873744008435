"""Paillier primitives, fixed-point codec, and encrypted affine evaluation."""

import functools
import inspect
import itertools
import math
import random

import numpy as np
import pytest

from encmpc import wire
from encmpc.paillier import (
    FixedPointCodec,
    HeCiphertext,
    KeyMismatch,
    PaillierKeypair,
    PaillierPublicKey,
    PlaintextRange,
    VALID_KEY_BITS,
    encode_gain,
    fp_decode,
    fp_encode,
    gain_bitlen,
    he_add,
    he_dec,
    he_enc,
    he_eval_pwa,
    he_scalar_mul,
    is_probable_prime,
    keygen,
)


@pytest.fixture(scope="module")
def kp256():
    return keygen(256, random.Random(7))


@functools.cache
def seeded_keypair(bits):
    return keygen(bits, random.Random(bits))


@pytest.fixture(scope="module", params=[256, 1024])
def kp_sized(request):
    """Keypairs at a fast-test size and at the benchmark's size."""
    return seeded_keypair(request.param)


def lambda_dec(ct, kp):
    """Textbook decryption, the oracle for the CRT path:
    L(c^lambda mod n^2) mu mod n with lambda = lcm(p-1, q-1)."""
    lam = math.lcm(kp.p - 1, kp.q - 1)
    mu = pow(lam, -1, kp.n)
    return (pow(ct.value, lam, kp.n_sq) - 1) // kp.n * mu % kp.n


def test_miller_rabin_known_values():
    rng = random.Random(0)
    for p in [2, 3, 5, 97, 7919, 2**61 - 1]:
        assert is_probable_prime(p, rng)
    # 561 and 1729 are Carmichael numbers, strong tests must reject them
    for c in [1, 4, 100, 561, 1729, 2**61 - 3]:
        assert not is_probable_prime(c, rng)


def test_keygen_shape(kp256):
    assert kp256.n.bit_length() == 256
    assert kp256.n_sq == kp256.n * kp256.n
    assert kp256.p * kp256.q == kp256.n and kp256.p != kp256.q
    assert kp256.p.bit_length() == kp256.q.bit_length() == 128
    other = keygen(256, random.Random(8))
    assert other.n != kp256.n
    with pytest.raises(ValueError):
        keygen(300, random.Random(0))


def test_enc_dec_roundtrip(kp256):
    rng = random.Random(11)
    assert he_dec(he_enc(0, kp256.public, rng), kp256) == 0
    for _ in range(100):
        z = rng.randrange(kp256.n)
        assert he_dec(he_enc(z, kp256.public, rng), kp256) == z


def test_enc_is_randomized(kp256):
    rng = random.Random(12)
    a = he_enc(42, kp256.public, rng)
    b = he_enc(42, kp256.public, rng)
    assert a.value != b.value
    assert he_dec(a, kp256) == he_dec(b, kp256) == 42


def test_plaintext_range(kp256):
    rng = random.Random(13)
    with pytest.raises(PlaintextRange):
        he_enc(kp256.n, kp256.public, rng)
    with pytest.raises(PlaintextRange):
        he_enc(-1, kp256.public, rng)


def test_tiny_hand_keypair():
    """n = 5*7 = 35: fixed ciphertext value worked out by hand."""
    kp = PaillierKeypair(PaillierPublicKey(35, 1225, 6), 5, 7)
    # enc(4) with r = 2: (1 + 4*35) * 2^35 mod 1225 = 141 * 18 mod 1225 = 88
    assert pow(2, 35, 1225) == 18
    assert he_dec(HeCiphertext(88, 1225), kp) == 4
    for z in range(35):
        gz = (1 + z * 35) % 1225
        ct = HeCiphertext(gz * pow(3, 35, 1225) % 1225, 1225)
        assert he_dec(ct, kp) == z


def test_crt_dec_matches_lambda_formula(kp_sized):
    kp, pk = kp_sized, kp_sized.public
    rng = random.Random(pk.bits)
    zs = [0, 1, pk.n - 1] + [rng.randrange(pk.n) for _ in range(10)]
    cts = [he_enc(z, pk, rng) for z in zs]
    sums = [he_add(a, b, pk) for a, b in zip(cts, cts[1:])]
    for ct in cts + sums:
        assert he_dec(ct, kp) == lambda_dec(ct, kp)
    assert [he_dec(ct, kp) for ct in cts] == zs
    assert ([he_dec(ct, kp) for ct in sums]
            == [(a + b) % pk.n for a, b in zip(zs, zs[1:])])
    # any residue, not only well-formed encryptions
    for _ in range(5):
        ct = HeCiphertext(rng.randrange(1, pk.n_sq), pk.n_sq)
        assert he_dec(ct, kp) == lambda_dec(ct, kp)


def test_keypair_encryption_is_byte_identical(kp_sized):
    """The keypair's CRT r^n gives the public key's ciphertext, byte for
    byte, from the same rng state."""
    kp, L = kp_sized, kp_sized.bits
    zs = [0, 1, kp.n - 1] + [random.Random(L).randrange(kp.n) for _ in range(10)]
    by_pk, by_kp = random.Random(99), random.Random(99)
    for z in zs:
        a = he_enc(z, kp.public, by_pk)
        b = he_enc(z, kp, by_kp)
        assert wire.encode_he_ct(a.value, L) == wire.encode_he_ct(b.value, L)
        assert a == b
    assert by_pk.getstate() == by_kp.getstate()


@pytest.mark.parametrize("bits", VALID_KEY_BITS)
def test_pow_n_lift_is_textbook_power(bits):
    """The keypair's r^n mod n^2, lifted from r^q mod p and r^p mod q, is
    the textbook power for units, multiples of p or q, and 0."""
    kp = seeded_keypair(bits)
    n, p, q = kp.n, kp.p, kp.q
    rng = random.Random(bits + 1)
    rs = [0, 1, 2, n - 1, p, 2 * p, (q - 1) * p, q, 3 * q, (p - 1) * q]
    rs += [rng.randrange(1, n) for _ in range(4)]
    for r in rs:
        assert kp.pow_n(r) == pow(r, n, kp.n_sq), r


def test_pow_n_lift_hand_keypair():
    """n = 35: 2^35 mod 1225 = 18, from (2^7 mod 5)^5 mod 25 = 18 and
    (2^5 mod 7)^7 mod 49 = 18."""
    kp = PaillierKeypair(PaillierPublicKey(35, 1225, 6), 5, 7)
    assert kp.pow_n(2) == 18
    assert [kp.pow_n(r) for r in range(35)] == [pow(r, 35, 1225) for r in range(35)]
    # the lift needs gcd(n, (p-1)(q-1)) = 1: at n = 6, 2 mod (3-1) = 0
    for n, p, q in [(6, 3, 2), (21, 3, 7)]:
        with pytest.raises(ValueError):
            PaillierKeypair(PaillierPublicKey(n, n * n, n.bit_length()), p, q)


def test_keypair_rejects_inconsistent_factors(kp256):
    pub35 = PaillierPublicKey(35, 1225, 6)
    for p, q in [(5, 11), (3, 7), (1, 35), (35, 1)]:
        with pytest.raises(ValueError):
            PaillierKeypair(pub35, p, q)
    with pytest.raises(ValueError):
        PaillierKeypair(PaillierPublicKey(49, 2401, 6), 7, 7)
    with pytest.raises(ValueError):
        PaillierKeypair(PaillierPublicKey(35, 1224, 6), 5, 7)
    with pytest.raises(ValueError):
        PaillierKeypair(kp256.public, kp256.p, kp256.q + 2)
    assert PaillierKeypair(pub35, 7, 5).n == 35


def test_homomorphism_laws(kp256):
    rng = random.Random(14)
    pk = kp256.public
    c = he_add(he_enc(5, pk, rng), he_enc(7, pk, rng), pk)
    assert he_dec(c, kp256) == 12
    z = rng.randrange(pk.n)
    ct = he_enc(z, pk, rng)
    assert he_dec(he_scalar_mul(0, ct, pk), kp256) == 0
    assert he_dec(he_scalar_mul(1, ct, pk), kp256) == z
    for _ in range(300):
        z1 = rng.randrange(pk.n)
        z2 = rng.randrange(pk.n)
        a = rng.randrange(-(2**20), 2**20)
        s = he_add(he_enc(z1, pk, rng), he_enc(z2, pk, rng), pk)
        m = he_scalar_mul(a, he_enc(z1, pk, rng), pk)
        assert he_dec(s, kp256) == (z1 + z2) % pk.n
        assert he_dec(m, kp256) == a * z1 % pk.n


def test_key_mismatch(kp256):
    rng = random.Random(15)
    other = keygen(256, random.Random(16))
    ct = he_enc(1, kp256.public, rng)
    foreign = he_enc(1, other.public, rng)
    with pytest.raises(KeyMismatch):
        he_add(ct, foreign, kp256.public)
    with pytest.raises(KeyMismatch):
        he_scalar_mul(2, foreign, kp256.public)
    with pytest.raises(KeyMismatch):
        he_dec(foreign, kp256)


def test_fp_encode_examples(kp256):
    codec = FixedPointCodec(2, 4, 2, kp256.n)
    assert fp_encode(0.0, codec) == 0
    assert fp_decode(0, codec) == 0.0
    assert fp_encode(1.25, codec) == 5
    assert fp_encode(-1.25, codec) == kp256.n - 5
    assert fp_decode(kp256.n - 5, codec) == -1.25
    assert fp_decode(fp_encode(1.25, codec, scale_power=2), codec, scale_power=2) == 1.25


def test_fp_roundtrip_error_bound(kp256):
    codec = FixedPointCodec(2, 4, 10, kp256.n)
    rng = np.random.default_rng(17)
    xs = rng.uniform(-(2.0**4), 2.0**4, size=10_000)
    errs = np.array([abs(fp_decode(fp_encode(x, codec), codec) - x) for x in xs])
    assert errs.max() <= 2.0**-10


def test_fp_range_and_headroom(kp256):
    codec = FixedPointCodec(2, 4, 2, kp256.n)
    with pytest.raises(OverflowError):
        fp_encode(17.0, codec)
    with pytest.raises(OverflowError):
        encode_gain([[20.0]], codec)
    with pytest.raises(OverflowError):
        FixedPointCodec(2, 4, 10, 2 * 2 ** (4 + 20))  # modulus leaves no headroom
    with pytest.raises(ValueError):
        fp_encode(1.0, codec, scale_power=3)


def test_gain_encoding_and_bitlen(kp256):
    codec = FixedPointCodec(2, 4, 2, kp256.n)
    K_hat = encode_gain([[1.25, -0.5]], codec)
    assert K_hat == [[5, -2]]
    assert gain_bitlen(K_hat) == 3
    assert gain_bitlen([[0]]) == 1


def test_he_eval_pwa_zero(kp256):
    rng = random.Random(18)
    pk = kp256.public
    codec = FixedPointCodec(2, 4, 2, kp256.n)
    enc_x = [he_enc(fp_encode(1.5, codec), pk, rng)]
    enc_b = [he_enc(fp_encode(0.0, codec, scale_power=2), pk, rng)]
    out = he_eval_pwa(enc_x, [[0]], enc_b, pk)
    assert fp_decode(he_dec(out[0], kp256), codec, scale_power=2) == 0.0


def test_he_eval_pwa_exact_scalar(kp256):
    """K=2, x=3, b=1 are exactly representable, so the result is exact."""
    rng = random.Random(19)
    pk = kp256.public
    codec = FixedPointCodec(2, 4, 2, kp256.n)
    enc_x = [he_enc(fp_encode(3.0, codec), pk, rng)]
    enc_b = [he_enc(fp_encode(1.0, codec, scale_power=2), pk, rng)]
    out = he_eval_pwa(enc_x, encode_gain([[2.0]], codec), enc_b, pk)
    assert fp_decode(he_dec(out[0], kp256), codec, scale_power=2) == 7.0


def test_he_eval_pwa_error_budget(kp256):
    """Random affine laws stay inside (dim*rho^gamma*|K|_max + 2)*rho^-delta."""
    rng = random.Random(20)
    nprng = np.random.default_rng(21)
    pk = kp256.public
    codec = FixedPointCodec(2, 4, 10, kp256.n)
    for _ in range(25):
        n_dim, m_dim = int(nprng.integers(1, 4)), int(nprng.integers(1, 3))
        x = nprng.uniform(-8, 8, size=n_dim)
        K = nprng.uniform(-3, 3, size=(m_dim, n_dim))
        b = nprng.uniform(-4, 4, size=m_dim)
        enc_x = [he_enc(fp_encode(v, codec), pk, rng) for v in x]
        enc_b = [he_enc(fp_encode(v, codec, scale_power=2), pk, rng) for v in b]
        out = he_eval_pwa(enc_x, encode_gain(K, codec), enc_b, pk)
        u = np.array([fp_decode(he_dec(c, kp256), codec, scale_power=2) for c in out])
        budget = (n_dim * 2.0**4 * np.abs(K).max() + 2) * 2.0**-10
        assert np.abs(u - (K @ x + b)).max() <= budget


def per_term_eval(enc_x, K_hat, enc_b, pk):
    """Reference law: u~_j = b~_j prod_i x~_i^a, one inverse per negative a."""
    out = []
    for row, b in zip(K_hat, enc_b):
        acc = b.value
        for a, ct in zip(row, enc_x):
            acc = acc * pow(ct.value, a, pk.n_sq) % pk.n_sq
        out.append(acc)
    return out


def test_he_eval_pwa_matches_per_term_inverses(kp256):
    """Rows of positive, negative, mixed-sign and zero gains give the
    per-term reference's ciphertext integers at every (n, m) up to (6, 6)."""
    rng = random.Random(23)
    pk = kp256.public
    kinds = [(1, 4096), (-4096, -1), (-4096, 4096), (0, 0)]
    for n_dim, m_dim in itertools.product(range(1, 7), range(1, 7)):
        enc_x = [he_enc(rng.randrange(pk.n), pk, rng) for _ in range(n_dim)]
        enc_b = [he_enc(rng.randrange(pk.n), pk, rng) for _ in range(m_dim)]
        K_hat = [[rng.randint(*kinds[(j + n_dim) % 4]) for _ in range(n_dim)]
                 for j in range(m_dim)]
        out = he_eval_pwa(enc_x, K_hat, enc_b, pk)
        assert [c.value for c in out] == per_term_eval(enc_x, K_hat, enc_b, pk)
        assert all(c.n_sq == pk.n_sq for c in out)


def test_he_eval_pwa_refuses_non_unit_under_negative_gain(kp256):
    """A ciphertext sharing a factor with n has no inverse: a negative
    gain on it raises, as one inverse per negative gain did; a positive
    gain does not."""
    rng = random.Random(24)
    pk = kp256.public
    bad = HeCiphertext(kp256.p, pk.n_sq)
    enc_x = [he_enc(5, pk, rng), bad]
    enc_b = [he_enc(0, pk, rng)]
    with pytest.raises(ValueError):
        he_eval_pwa(enc_x, [[3, -2]], enc_b, pk)
    out = he_eval_pwa(enc_x, [[-3, 2]], enc_b, pk)
    assert [c.value for c in out] == per_term_eval(enc_x, [[-3, 2]], enc_b, pk)


def test_eval_rejects_shape_mismatch(kp256):
    rng = random.Random(22)
    pk = kp256.public
    codec = FixedPointCodec(2, 4, 2, kp256.n)
    enc_x = [he_enc(fp_encode(1.0, codec), pk, rng)]
    enc_b = [he_enc(0, pk, rng)]
    with pytest.raises(ValueError):
        he_eval_pwa(enc_x, [[1, 2]], enc_b, pk)
    with pytest.raises(ValueError):
        he_eval_pwa(enc_x, [[1], [2]], enc_b, pk)


def test_cloud_cannot_decrypt():
    """Evaluation takes only the public key, which carries no trapdoor."""
    params = inspect.signature(he_eval_pwa).parameters
    assert "pk" in params and "keypair" not in params
    pub_fields = set(PaillierPublicKey.__dataclass_fields__)
    assert pub_fields == {"n", "n_sq", "bits"}
    assert not pub_fields & {"p", "q", "lam", "mu"}
