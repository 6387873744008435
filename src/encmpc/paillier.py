"""Paillier cryptosystem with fixed-point encoding for encrypted affine control.

Implements the g = n+1 variant.  Ciphertexts live in Z_{n^2}^* and
support addition of plaintexts (ciphertext product) and multiplication
by a known plaintext constant (ciphertext power), which is all an affine
control law u = Kx + b needs.

The keypair keeps the factors p, q and computes both trapdoor
exponentiations by the Chinese remainder theorem modulo p^2 and q^2
(Paillier, EUROCRYPT 1999, section 7): decryption, and the randomizer
r^n mod n^2 when the encrypting party holds the keypair, there as the
p-th power of a residue mod p.  Both give the same integers as the
textbook formulas, so ciphertexts are the same bytes whichever key
encrypts them.

Real numbers enter through a fixed-point codec on the grid rho^{-delta}.
States and gains are encoded at scale delta; offsets are pre-scaled to
2*delta by the encrypting party so that gain-times-state products and
offsets share a scale and ciphertext addition is meaningful.  Negative
values use the upper half (n/2, n) of the residue ring.
"""

import math
from dataclasses import dataclass, field

import numpy as np


class PlaintextRange(ValueError):
    """Plaintext integer outside [0, n)."""


class KeyMismatch(ValueError):
    """Operands encrypted under different public keys."""


class FixedPointOverflow(OverflowError):
    """A value outside the fixed-point codec's range |x| <= rho^gamma."""


@dataclass(frozen=True)
class PaillierPublicKey:
    """Encryption half of a keypair: modulus only, no trapdoor material."""

    n: int
    n_sq: int
    bits: int


@dataclass(frozen=True)
class _CrtHalf:
    """Constants for one prime factor f of n, computed once per keypair."""

    f: int
    f_sq: int
    h: int  # L_f((n+1)^(f-1) mod f^2)^(-1) mod f, L_f(u) = (u-1)/f
    g_exp: int  # g mod (f-1) for the other prime g of n = f g

    @classmethod
    def of(cls, f, g):
        f_sq = f * f
        h = pow((pow(f * g + 1, f - 1, f_sq) - 1) // f, -1, f)
        return cls(f, f_sq, h, g % (f - 1))

    def dec(self, c):
        """m mod f = L_f(c^(f-1) mod f^2) h_f mod f."""
        return (pow(c, self.f - 1, self.f_sq) - 1) // self.f * self.h % self.f

    def pow_n(self, r):
        """r^n mod f^2 = (r^g)^f mod f^2, lifted from r^g mod f: y^f mod
        f^2 depends on y mod f only, and r^g = r^(g mod (f-1)) mod f by
        Fermat (both 0 when f divides r, as g mod (f-1) > 0)."""
        return pow(pow(r, self.g_exp, self.f), self.f, self.f_sq)


@dataclass(frozen=True)
class PaillierKeypair:
    """Public key plus the factorization n = p q, with CRT constants."""

    public: PaillierPublicKey
    p: int
    q: int
    _hp: _CrtHalf = field(init=False, repr=False, compare=False)
    _hq: _CrtHalf = field(init=False, repr=False, compare=False)
    _q_inv_p: int = field(init=False, repr=False, compare=False)
    _q_sq_inv_p_sq: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p, q, n = self.p, self.q, self.public.n
        if (p < 2 or q < 2 or p == q or p * q != n
                or math.gcd(n, (p - 1) * (q - 1)) != 1):
            raise ValueError("p and q must be distinct factors with p*q = n"
                             " and gcd(n, (p-1)(q-1)) = 1")
        if self.public.n_sq != n * n:
            raise ValueError("public key n_sq is not n^2")
        set_ = object.__setattr__
        set_(self, "_hp", _CrtHalf.of(p, q))
        set_(self, "_hq", _CrtHalf.of(q, p))
        set_(self, "_q_inv_p", pow(q, -1, p))
        set_(self, "_q_sq_inv_p_sq", pow(q * q, -1, p * p))

    @property
    def n(self):
        return self.public.n

    @property
    def n_sq(self):
        return self.public.n_sq

    @property
    def bits(self):
        return self.public.bits

    def decrypt(self, c):
        """Plaintext in [0, n): m mod p and m mod q, recombined."""
        mp = self._hp.dec(c)
        mq = self._hq.dec(c)
        return mq + self.q * ((mp - mq) * self._q_inv_p % self.p)

    def pow_n(self, r):
        """r^n mod n^2 from its residues mod p^2 and q^2."""
        xp = self._hp.pow_n(r)
        xq = self._hq.pow_n(r)
        return xq + self._hq.f_sq * ((xp - xq) * self._q_sq_inv_p_sq % self._hp.f_sq)


@dataclass(frozen=True)
class HeCiphertext:
    """Paillier ciphertext tagged with its modulus square for key checks."""

    value: int
    n_sq: int


_SMALL_PRIMES = [2, 3]
for _cand in range(5, 2000, 2):
    if all(_cand % _p for _p in _SMALL_PRIMES):
        _SMALL_PRIMES.append(_cand)


MR_ROUNDS = 40  # Miller-Rabin witnesses per candidate


def is_probable_prime(n, rng):
    """Miller-Rabin with trial division by small primes first."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(MR_ROUNDS):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(bits, rng):
    while True:
        cand = rng.getrandbits(bits)
        cand |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        if is_probable_prime(cand, rng):
            return cand


VALID_KEY_BITS = (256, 512, 1024, 2048)


def keygen(bits, rng):
    """Generate a keypair with an n of exactly `bits` bits.

    Sizes below 1024 are fast-test sizes, not secure parameters.  `rng`
    is a random.Random instance; seed it from os.urandom for real use.
    """
    if bits not in VALID_KEY_BITS:
        raise ValueError(f"key size {bits} not in {VALID_KEY_BITS}")
    half = bits // 2
    while True:
        p = _random_prime(half, rng)
        q = _random_prime(half, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        if math.gcd(n, (p - 1) * (q - 1)) != 1:
            continue
        return PaillierKeypair(PaillierPublicKey(n, n * n, bits), p, q)


def he_enc(z, key, rng):
    """Encrypt integer z in [0, n): c = (n+1)^z r^n mod n^2.

    key is the public key or the keypair.  The keypair computes r^n by
    CRT; r is drawn the same way, so the ciphertext is the same integer.
    """
    crt = isinstance(key, PaillierKeypair)
    pk = key.public if crt else key
    z = int(z)
    if not 0 <= z < pk.n:
        raise PlaintextRange(f"plaintext {z} outside [0, {pk.n})")
    while True:
        r = rng.randrange(1, pk.n)
        if math.gcd(r, pk.n) == 1:
            break
    rn = key.pow_n(r) if crt else pow(r, pk.n, pk.n_sq)
    # (n+1)^z mod n^2 collapses binomially to 1 + z n
    gz = (1 + z * pk.n) % pk.n_sq
    return HeCiphertext(gz * rn % pk.n_sq, pk.n_sq)


def he_dec(ct, keypair):
    """Decrypt to the plaintext residue in [0, n), by CRT over p and q."""
    if ct.n_sq != keypair.n_sq:
        raise KeyMismatch("ciphertext not under this keypair")
    return keypair.decrypt(ct.value)


def he_add(c1, c2, pk):
    """Ciphertext of z1 + z2 mod n."""
    if c1.n_sq != pk.n_sq or c2.n_sq != pk.n_sq:
        raise KeyMismatch("operands under different keys")
    return HeCiphertext(c1.value * c2.value % pk.n_sq, pk.n_sq)


def he_scalar_mul(a, ct, pk):
    """Ciphertext of a*z mod n for known signed integer a.

    Negative a goes through the modular inverse of the ciphertext, so
    the exponent magnitude (hence cost) tracks |a|, not a mod n.
    """
    if ct.n_sq != pk.n_sq:
        raise KeyMismatch("ciphertext under a different key")
    return HeCiphertext(pow(ct.value, int(a), pk.n_sq), pk.n_sq)


@dataclass(frozen=True)
class FixedPointCodec:
    """Signed fixed-point numbers on the grid rho^-delta inside Z_n.

    gamma bounds the integer part (|x| <= rho^gamma), delta sets the
    resolution.  One encrypted affine evaluation multiplies two scale-
    delta values and adds a scale-2*delta offset, so the headroom
    invariant 2 rho^(gamma + 2 delta) < n guarantees no wrap-around.
    """

    rho: int
    gamma: int
    delta: int
    modulus: int

    def __post_init__(self):
        if self.rho < 2:
            raise ValueError("rho must be >= 2")
        if self.gamma < 0 or self.delta < 1:
            raise ValueError("need gamma >= 0 and delta >= 1")
        if 2 * self.rho ** (self.gamma + 2 * self.delta) >= self.modulus:
            raise OverflowError(
                "modulus too small for one affine evaluation: "
                f"2*rho^(gamma+2delta) = {2 * self.rho ** (self.gamma + 2 * self.delta)}"
                f" >= n = {self.modulus}"
            )


def fp_encode(x, codec, scale_power=1):
    """Round x to the scale grid and reduce mod n (upper half = negative)."""
    x = float(x)
    if abs(x) > codec.rho ** codec.gamma:
        raise FixedPointOverflow(f"|{x}| exceeds rho^gamma = {codec.rho ** codec.gamma}")
    if scale_power not in (1, 2):
        raise ValueError("scale_power must be 1 or 2")
    q = round(x * codec.rho ** (codec.delta * scale_power))
    return q % codec.modulus


def fp_decode(v, codec, scale_power=1):
    """Invert fp_encode: lift the residue to a signed integer, rescale."""
    v = int(v) % codec.modulus
    if scale_power not in (1, 2):
        raise ValueError("scale_power must be 1 or 2")
    if v > codec.modulus // 2:
        v -= codec.modulus
    return v * float(codec.rho) ** -(codec.delta * scale_power)


def encode_gain(K, codec):
    """Quantize a gain matrix to signed scale-delta integers (not reduced)."""
    K = np.atleast_2d(np.asarray(K, dtype=float))
    top = codec.rho ** codec.gamma
    if np.any(np.abs(K) > top):
        raise OverflowError("gain entry exceeds rho^gamma")
    scale = codec.rho ** codec.delta
    return [[round(float(v) * scale) for v in row] for row in K]


def gain_bitlen(K_hat):
    """b_K: max bit length over encoded gain entries (>= 1)."""
    longest = max((abs(int(v)).bit_length() for row in K_hat for v in row), default=0)
    return max(longest, 1)


def he_eval_pwa(enc_x, K_hat, enc_b, pk):
    """Encrypted affine law of one region: u~_j = b~_j + sum_i K_hat[j][i] (x) x~_i.

    Takes only the public key, so decryption is impossible here by
    construction.  enc_x must be at scale delta and enc_b at scale
    2*delta; the result is at scale 2*delta.  The powers for negative
    gains are taken to |a| and multiplied apart, and their product is
    inverted once per row: the same residue mod n^2 as one inverse per
    negative gain.  The cycle's counts of these operations are
    protocol.cycle_counts, in closed form.
    """
    if len(K_hat) != len(enc_b):
        raise ValueError("gain rows and offset length disagree")
    out = []
    for j, row in enumerate(K_hat):
        if len(row) != len(enc_x):
            raise ValueError("gain columns and state length disagree")
        acc, neg = enc_b[j], None
        for a, ct in zip(row, enc_x):
            term = he_scalar_mul(abs(a), ct, pk)
            if a >= 0:
                acc = he_add(acc, term, pk)
            else:
                neg = term if neg is None else he_add(neg, term, pk)
        if neg is not None:
            acc = he_add(acc, he_scalar_mul(-1, neg, pk), pk)
        out.append(acc)
    return out
