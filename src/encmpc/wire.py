"""Byte-level wire codec for the sensor-cloud-actuator links.

Everything on a link is a real byte string.  A message's payload bits
are its body's bits less framing: the zero pad of quantized fields and
the length prefix of each Paillier ciphertext (tests check this against
the bytes; the u32 region index counts as payload).  Ciphertext fields
are read and written only through the protocol's field codecs
(protocol.wire_field).  Conventions:

* region index: unsigned 32-bit little-endian
* plain or QE ciphertext scalar: IEEE-754 binary64, little-endian
* quantized ciphertext: w-bit integer codes packed MSB-first, zero-padded
  to a byte boundary per field; a field whose padding is not zero is
  refused
* Paillier ciphertext: value mod n^2 as a fixed-width big-endian string
  of 2L bits, length-prefixed with an unsigned 32-bit; the prefix is
  framing, not payload
"""

import functools
import struct
from array import array


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


@functools.cache
def _f64_struct(count):
    """The precompiled layout of `count` little-endian binary64 values."""
    return struct.Struct(f"<{count}d")


def encode_f64_vec(values):
    """The values as consecutive little-endian binary64."""
    return _f64_struct(len(values)).pack(*values)


def f64_end(data, count, off=0):
    """End offset of `count` binary64 values at off, which must all be there."""
    end = off + 8 * count
    if len(data) < end:
        raise WireError("truncated f64 vector")
    return end


def decode_f64_vec(data, count, off=0):
    """(values, end): the `count` binary64 values at off, unpacked into
    a new array('d'), whose items are Python floats."""
    end = f64_end(data, count, off)
    return array("d", _f64_struct(count).unpack_from(data, off)), end


def pack_words(codes, w):
    """Pack w-bit integer codes MSB-first, zero-padded to a byte boundary."""
    acc = 0
    for code in codes:
        if not 0 <= code < 1 << w:
            raise WireError(f"code {code} outside [0, 2^{w})")
        acc = acc << w | code
    total = len(codes) * w
    nbytes = (total + 7) // 8
    return (acc << 8 * nbytes - total).to_bytes(nbytes, "big")


def words_end(data, count, w, off=0):
    """End offset of a field of `count` w-bit codes at off, checking that
    the field is all there and its pad bits are zero, without reading it."""
    total = count * w
    end = off + (total + 7) // 8
    if len(data) < end:
        raise WireError("truncated word field")
    pad = 8 * (end - off) - total
    if pad and data[end - 1] & ((1 << pad) - 1):
        raise WireError(f"nonzero pad bits after {count} words of {w} bits")
    return end


def unpack_words(data, count, w, off=0):
    """Read `count` w-bit codes written by pack_words; returns (codes, end)."""
    end = words_end(data, count, w, off)
    acc = int.from_bytes(data[off:end], "big") >> 8 * (end - off) - count * w
    mask = (1 << w) - 1
    return [acc >> w * j & mask for j in range(count - 1, -1, -1)], end


def encode_he_ct(value, key_bits):
    """Fixed-width 2L-bit big-endian ciphertext body with a u32 length prefix."""
    body_len = key_bits // 4  # 2L bits = L/4 bytes times 2
    body = int(value).to_bytes(body_len, "big")
    return encode_u32(body_len) + body


def decode_he_ct(data, off, key_bits):
    """Read one length-prefixed ciphertext; returns (value, next offset).

    A prefix other than the L/4 bytes that a key_bits key's ciphertexts
    take is a WireError.
    """
    body_len, off = decode_u32(data, off)
    if body_len != key_bits // 4:
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
