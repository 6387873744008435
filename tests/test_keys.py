import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from encmpc.config import ConfigError
from encmpc.keys import (KeyConfig, KeyLengthError, KeyReuseError, KeySource,
                         beta_from_bits, betas, generate_key)


def stream_bits(words, cfg):
    """A key's w_q bits as a uint8 array, MSB-first."""
    raw = np.array(words, dtype=">u8")
    return np.unpackbits(np.frombuffer(raw.tobytes(), dtype=np.uint8))[:cfg.w_q]


def test_shared_randomness_contract():
    cfg = KeyConfig(n=2, m=1, w_b=16)
    a = KeySource(seed=99, cfg=cfg)
    b = KeySource(seed=99, cfg=cfg)
    for k in (0, 1, 7):
        assert a.betas(k) == b.betas(k) == betas(generate_key(99, k, cfg), cfg)
        assert stream_bits(generate_key(99, k, cfg), cfg).size == cfg.w_q == 48


def test_distinct_cycles_differ():
    cfg = KeyConfig(n=3, m=2, w_b=16)  # w_q = 80 >= 64
    s0 = generate_key(5, 0, cfg)
    s1 = generate_key(5, 1, cfg)
    assert not np.array_equal(stream_bits(s0, cfg), stream_bits(s1, cfg))


def test_distinct_seeds_differ():
    cfg = KeyConfig(n=2, m=2, w_b=16)
    assert not np.array_equal(stream_bits(generate_key(1, 0, cfg), cfg),
                              stream_bits(generate_key(2, 0, cfg), cfg))


def test_bit_mean_near_half():
    cfg = KeyConfig(n=5, m=5, w_b=50)  # 500 bits per cycle
    total = []
    for k in range(200):
        total.append(stream_bits(generate_key(123, k, cfg), cfg))
    mean = np.concatenate(total).mean()
    assert 0.49 <= mean <= 0.51


def test_key_reuse_rejected():
    cfg = KeyConfig(n=1, m=1, w_b=8)
    src = KeySource(seed=0, cfg=cfg)
    src.betas(0)
    src.betas(3)
    with pytest.raises(KeyReuseError):
        src.betas(3)
    with pytest.raises(KeyReuseError):
        src.betas(1)


def test_beta_from_bits_examples():
    assert beta_from_bits(0b0000, 4) == 1
    assert beta_from_bits(0, 16) == 1
    assert beta_from_bits(0b1000, 4) == -(8 + 1) + 0 + 1  # -8
    assert beta_from_bits(0b0111, 4) == 7 + 1              # 8


def test_betas_grouping():
    cfg = KeyConfig(n=1, m=1, w_b=4)
    # the key's first 8 bits are 0000 0111; the rest of the word is unused
    bv = betas([0b00000111 << 56 | 0xFFFF], cfg)
    assert list(bv.beta) == [1, 8]


def test_betas_all_zero_bits():
    cfg = KeyConfig(n=2, m=2, w_b=6)
    bv = betas([0], cfg)
    assert list(bv.beta) == [1, 1, 1, 1]


def test_betas_length_mismatch():
    cfg = KeyConfig(n=2, m=1, w_b=8)
    with pytest.raises(KeyLengthError):
        betas([0, 0], cfg)


def test_beta_image_exhaustive_w3():
    image = set()
    for pattern in range(8):
        image.add(beta_from_bits(pattern, 3))
    assert image == {-4, -3, -2, -1, 1, 2, 3, 4}


@pytest.mark.parametrize("w_b", [2, 3, 5, 8, 10])
def test_beta_nonzero_range_bruteforce(w_b):
    lo, hi = -(2 ** (w_b - 1)), 2 ** (w_b - 1)
    for pattern in range(2 ** w_b):
        beta = beta_from_bits(pattern, w_b)
        assert beta != 0
        assert lo <= beta <= hi


def reference_betas(seed, k, cfg):
    """Betas the way they were first derived: a fresh Philox keyed on
    (seed << 64) | k, its words unpacked to bits, cut into d groups of
    w_b bits and mapped by a matrix product.  Also returns the words."""
    words = np.random.Philox(key=(seed << 64) | k).random_raw(cfg.n_words)
    bits = np.unpackbits(np.frombuffer(words.astype(">u8").tobytes(),
                                       dtype=np.uint8))[:cfg.w_q]
    groups = bits.reshape(cfg.d, cfg.w_b).astype(np.int64)
    weights = 2 ** np.arange(cfg.w_b - 2, -1, -1, dtype=np.int64)
    beta = groups[:, 1:] @ weights + 1 - (2 ** (cfg.w_b - 1) + 1) * groups[:, 0]
    patterns = [int("".join(map(str, g)), 2) for g in groups]
    return words.tolist(), beta.tolist(), patterns


def test_betas_matches_scalar_path():
    """betas agrees with beta_from_bits on every group of the stream."""
    cfg = KeyConfig(n=3, m=2, w_b=11)
    bv = betas(generate_key(77, 4, cfg), cfg)
    _, _, patterns = reference_betas(77, 4, cfg)
    for i in range(cfg.d):
        assert bv.beta[i] == beta_from_bits(patterns[i], cfg.w_b)


# 1, 3, 5 and 10 words: the longer ones cross Philox's 4-word block
WORD_CONFIGS = [KeyConfig(n=2, m=1, w_b=16), KeyConfig(n=4, m=2, w_b=32),
                KeyConfig(n=5, m=3, w_b=40), KeyConfig(n=10, m=5, w_b=40),
                KeyConfig(n=3, m=1, w_b=32)]
EDGE_SEEDS = [0, 1, 2 ** 63, 2 ** 64 - 1]
EDGE_CYCLES = [0, 2 ** 32, 2 ** 63, 2 ** 64 - 1]


@pytest.mark.parametrize("cfg", WORD_CONFIGS, ids=lambda c: f"{c.n_words}words")
def test_rekeyed_generator_matches_fresh_philox(cfg):
    """One generator re-keyed per cycle, left mid-buffer by other draws
    between cycles, gives the words and betas of a fresh Philox keyed on
    (seed << 64) | k, and every beta is beta_from_bits of its group."""
    rng = np.random.default_rng(2024)
    seeds = EDGE_SEEDS + [int(s) for s in rng.integers(0, 2 ** 64, 4, dtype=np.uint64)]
    cycles = EDGE_CYCLES + [int(k) for k in rng.integers(0, 2 ** 64, 4, dtype=np.uint64)]
    bitgen = np.random.Philox(key=0)
    dirty = np.random.Generator(bitgen)
    for seed in seeds:
        for k in cycles:
            key = generate_key(seed, k, cfg, bitgen)
            words, beta, patterns = reference_betas(seed, k, cfg)
            assert key == words and len(words) == cfg.n_words
            bv = betas(key, cfg)
            assert list(bv.beta) == beta
            assert list(bv.beta) == [beta_from_bits(p, cfg.w_b) for p in patterns]
            assert generate_key(seed, k, cfg) == words
            dirty.integers(0, 2 ** 32, size=int(rng.integers(1, 4)), dtype=np.uint32)


@pytest.mark.parametrize("cfg", WORD_CONFIGS, ids=lambda c: f"{c.n_words}words")
def test_key_source_words_match_fresh_philox(cfg):
    """A KeySource's betas over increasing cycles are those of a fresh
    Philox per cycle, at every seed."""
    for seed in EDGE_SEEDS:
        src = KeySource(seed, cfg)
        for k in sorted(EDGE_CYCLES + [5, 6, 2 ** 40]):
            assert list(src.betas(k).beta) == reference_betas(seed, k, cfg)[1]


def test_bad_cycle_index_burns_nothing():
    """An out-of-range cycle index raises ConfigError and uses no key."""
    cfg = KeyConfig(n=1, m=1, w_b=8)
    src = KeySource(seed=0, cfg=cfg)
    with pytest.raises(ConfigError):
        src.betas(-1)
    with pytest.raises(ConfigError):
        src.betas(2 ** 64)
    assert src.betas(5) == betas(generate_key(0, 5, cfg), cfg)
    with pytest.raises(ConfigError):
        src.betas(2 ** 64)
    src.betas(6)
    with pytest.raises(KeyReuseError):
        src.betas(6)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
       k=st.integers(min_value=0, max_value=2 ** 32))
def test_generate_key_pure(seed, k):
    cfg = KeyConfig(n=2, m=1, w_b=8)
    assert generate_key(seed, k, cfg) == generate_key(seed, k, cfg)


def test_config_validation():
    with pytest.raises(ConfigError):
        KeyConfig(n=0, m=1)
    with pytest.raises(ConfigError):
        KeyConfig(n=1, m=1, w_b=1)
    with pytest.raises(ConfigError):
        KeyConfig(n=1, m=1, w_b=63)
    with pytest.raises(ConfigError):
        KeySource(seed=-1, cfg=KeyConfig(n=1, m=1))
    with pytest.raises(ConfigError):
        generate_key(0, -1, KeyConfig(n=1, m=1))
