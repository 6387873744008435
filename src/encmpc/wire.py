"""Byte-level wire codec for the sensor-cloud-actuator links.

Everything on a link is a real byte string, so payload accounting is done
on encodings rather than estimated from formulas.  Conventions:

* region index: unsigned 32-bit little-endian
* plain or QE ciphertext scalar: IEEE-754 binary64, little-endian
* quantized ciphertext: w-bit words packed MSB-first, zero-padded to a
  byte boundary per field; padding bits are excluded from payload counts,
  and a field whose padding is not zero is refused
* Paillier ciphertext: value mod n^2 as a fixed-width big-endian string
  of 2L bits, length-prefixed with an unsigned 32-bit; the prefix is
  framing, not payload
"""

import struct

import numpy as np

from .qe_cipher import QuantizedWord


class WireError(ValueError):
    """Malformed or truncated message body."""


def encode_u32(v):
    v = int(v)
    if not 0 <= v < 2**32:
        raise WireError(f"{v} does not fit in u32")
    return struct.pack("<I", v)


def decode_u32(data, off=0):
    if len(data) < off + 4:
        raise WireError("truncated u32")
    return struct.unpack_from("<I", data, off)[0], off + 4


def encode_f64_vec(values):
    arr = np.asarray(values, dtype=float).ravel()
    return struct.pack(f"<{arr.size}d", *arr)


def decode_f64_vec(data, count, off=0):
    end = off + 8 * count
    if len(data) < end:
        raise WireError("truncated f64 vector")
    return np.array(struct.unpack_from(f"<{count}d", data, off)), end


def pack_words(words):
    """Pack equal-width quantized words MSB-first into a padded bitstream."""
    if not words:
        return b""
    w = words[0].w
    bits = []
    for word in words:
        if word.w != w:
            raise WireError("mixed word widths in one field")
        bits.extend((word.value >> j) & 1 for j in range(w - 1, -1, -1))
    arr = np.array(bits, dtype=np.uint8)
    return np.packbits(arr).tobytes()


def unpack_words(data, count, w, off=0):
    total = count * w
    nbytes = (total + 7) // 8
    if len(data) < off + nbytes:
        raise WireError("truncated word field")
    chunk = np.frombuffer(data[off : off + nbytes], dtype=np.uint8)
    pad = 8 * nbytes - total
    if pad and chunk[-1] & ((1 << pad) - 1):
        raise WireError(f"nonzero pad bits after {count} words of {w} bits")
    bits = np.unpackbits(chunk)[:total]
    words = []
    for i in range(count):
        val = 0
        for bit in bits[i * w : (i + 1) * w]:
            val = (val << 1) | int(bit)
        words.append(QuantizedWord(val, w))
    return words, off + nbytes


def encode_he_ct(value, key_bits):
    """Fixed-width 2L-bit big-endian ciphertext body with a u32 length prefix."""
    body_len = key_bits // 4  # 2L bits = L/4 bytes times 2
    body = int(value).to_bytes(body_len, "big")
    return encode_u32(body_len) + body


def decode_he_ct(data, off=0, key_bits=None):
    """Read one length-prefixed ciphertext; returns (value, next offset).

    With key_bits, a prefix other than the L/4 bytes that key's
    ciphertexts take is a WireError; without it, any prefix is read.
    """
    body_len, off = decode_u32(data, off)
    if key_bits is not None and body_len != key_bits // 4:
        raise WireError(f"ciphertext length {body_len} bytes, "
                        f"expected {key_bits // 4} for L = {key_bits}")
    end = off + body_len
    if len(data) < end:
        raise WireError("truncated ciphertext body")
    return int.from_bytes(data[off:end], "big"), end


def expect_end(data, off):
    """Raise WireError if bytes follow the last expected field."""
    if len(data) != off:
        raise WireError(f"{len(data) - off} trailing bytes after offset {off}")
