"""Vectorized bit-plane packing primitives shared by Plain- and Outlier-FLE.

Fixed-length encoding stores, for every block, the sign of each integer
(1 bit, aggregated into ``L/8`` bytes) followed by ``fl`` bit-planes of the
magnitudes, LSB plane first.  Within a plane, byte ``j`` holds the plane
bits of elements ``8j .. 8j+7``; element ``8j + k`` contributes bit ``k``
(LSB-first).  This layout makes both directions expressible as pure NumPy
tensor ops -- the software analogue of the paper's claim that FLE's
regularity is what makes full vectorization possible (Section IV-B).

Three observations make the conversions fast:

* The LSB-first byte layout is exactly :func:`np.packbits` /
  :func:`np.unpackbits` with ``bitorder="little"``, which handle the 0/1
  aggregations (sign bits) in one flat pass (``L`` is a multiple of 8).
* Plane packing is, per little-endian magnitude byte ``b`` and per group
  of 8 elements, an 8x8 *bit-matrix transpose*: byte ``b`` of elements
  ``8j..8j+7`` in, planes ``8b..8b+7`` of group ``j`` out.  Viewing each
  8-byte group as one uint64 turns that into the classic shift/mask
  transpose (Hacker's Delight 7-3) -- a handful of whole-array uint64
  ops, with no ``(g, fl, L)`` per-bit intermediate in any dtype wider
  than the uint8 plane slabs themselves.  Fixed lengths that are
  multiples of 8 are fully byte-aligned and skip the partial-top-byte
  trimming.
* Magnitude byte ``b`` enters as one contiguous ``(mag >> 8b)`` narrowed
  to uint8 and leaves as one widening OR: no strided byte image.

All functions operate on whole groups of blocks at once: shape
``(g, L)`` magnitudes -> shape ``(g, fl * L // 8)`` payload bytes.
"""

from __future__ import annotations

import numpy as np

_T8_M1 = np.uint64(0x00AA00AA00AA00AA)
_T8_M2 = np.uint64(0x0000CCCC0000CCCC)
_T8_M3 = np.uint64(0x00000000F0F0F0F0)
_T8_S1 = np.uint64(7)
_T8_S2 = np.uint64(14)
_T8_S3 = np.uint64(28)


def bit_length(mag: np.ndarray) -> np.ndarray:
    """Per-element bit length of non-negative integer magnitudes, exactly.

    Uses ``frexp`` on the float64 image, which is exact for integers below
    2**53 (our magnitudes are capped at 2**31 - 1 well before this point).
    """
    _, exp = np.frexp(mag.astype(np.float64))
    return exp.astype(np.uint8)  # frexp exponent of integer m equals bit_length(m); 0 -> 0


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a ``(..., 8k)`` array of 0/1 values into ``(..., k)`` bytes,
    LSB-first within each byte."""
    if bits.dtype != np.uint8 and bits.dtype != np.bool_:
        bits = bits.astype(np.uint8)
    return np.packbits(bits, axis=-1, bitorder="little")


def unpack_bits(packed: np.ndarray, nbits: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: ``(..., k)`` bytes -> ``(..., nbits)``
    0/1 uint8 values (``nbits`` must be at most ``8k``)."""
    if packed.dtype != np.uint8:
        packed = packed.astype(np.uint8)
    return np.unpackbits(packed, axis=-1, count=nbits, bitorder="little")


def pack_signs(deltas: np.ndarray) -> np.ndarray:
    """Aggregate sign bits of ``(g, L)`` signed deltas into ``(g, L//8)``
    bytes.  Bit value 1 marks a negative integer (paper's convention is one
    bit per integer; the polarity is internal to the stream format)."""
    g, length = deltas.shape
    return pack_bits((deltas < 0).reshape(-1)).reshape(g, length // 8)


def unpack_signs(sign_bytes: np.ndarray, length: int) -> np.ndarray:
    """Recover the ``(g, L)`` boolean negativity mask."""
    # unpackbits yields 0/1 uint8, which reinterprets as bool for free
    flat = unpack_bits(sign_bytes.reshape(-1), 8 * sign_bytes.size)
    return flat.view(np.bool_).reshape(sign_bytes.shape[0], length)


def _transpose8(tiles: np.ndarray) -> np.ndarray:
    """Transpose each uint64 as an 8x8 bit matrix (byte i, bit j) ->
    (byte j, bit i).  Self-inverse; ~18 whole-array uint64 ops."""
    x = tiles
    t = (x ^ (x >> _T8_S1)) & _T8_M1
    x = x ^ t ^ (t << _T8_S1)
    t = (x ^ (x >> _T8_S2)) & _T8_M2
    x = x ^ t ^ (t << _T8_S2)
    t = (x ^ (x >> _T8_S3)) & _T8_M3
    return x ^ t ^ (t << _T8_S3)


def pack_planes(mag: np.ndarray, fl: int) -> np.ndarray:
    """Encode bit-planes ``0 .. fl-1`` of ``(g, L)`` magnitudes as
    ``(g, fl * L // 8)`` bytes, LSB plane first (higher bits are ignored)."""
    g, length = mag.shape
    if fl == 0:
        return np.empty((g, 0), dtype=np.uint8)
    out = np.empty((g, fl, length // 8), dtype=np.uint8)
    for b in range((fl + 7) // 8):
        slab = (mag >> (8 * b)).astype(np.uint8)  # byte b of every element
        tiles = slab.reshape(g, length // 8, 8).view("<u8")[..., 0]
        planes = _transpose8(tiles).view(np.uint8).reshape(g, length // 8, 8)
        hi = min(8, fl - 8 * b)  # byte-aligned fl keeps all 8 planes
        out[:, 8 * b : 8 * b + hi, :] = planes[:, :, :hi].transpose(0, 2, 1)
    return out.reshape(g, fl * length // 8)


def unpack_planes(
    payload: np.ndarray, fl: int, length: int, dtype=np.int64
) -> np.ndarray:
    """Decode ``(g, fl * L // 8)`` bit-plane bytes back to ``(g, L)``
    integer magnitudes (``dtype`` int64 by default; decoders that know the
    magnitudes are narrow pass int32 to halve downstream traffic)."""
    g = payload.shape[0]
    if fl == 0:
        return np.zeros((g, length), dtype=dtype)
    planes = payload.reshape(g, fl, length // 8)
    for b in range((fl + 7) // 8):
        hi = min(8, fl - 8 * b)
        if hi == 8:  # byte-aligned: every plane of this slab is present
            tilebytes = np.ascontiguousarray(
                planes[:, 8 * b : 8 * b + 8, :].transpose(0, 2, 1)
            )
        else:
            tilebytes = np.zeros((g, length // 8, 8), dtype=np.uint8)
            tilebytes[:, :, :hi] = planes[:, 8 * b :, :].transpose(0, 2, 1)
        tiles = tilebytes.reshape(g, length).view("<u8")
        slab = _transpose8(tiles).view(np.uint8).reshape(g, length)
        if b == 0:
            mag = slab.astype(dtype)
        else:
            mag |= slab.astype(dtype) << (8 * b)
    return mag


def apply_signs(mag: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """Combine magnitudes and negativity mask into signed deltas, negating
    in place (``mag`` is always a decoder-owned scratch array).  Negation
    is two's complement under a 0/-1 mask, ``(m ^ -1) - (-1)``: three
    branch-free passes, where a masked ``np.negative`` mispredicts on the
    noisy signs of real fields."""
    minus = negative.view(np.uint8).astype(mag.dtype)
    np.negative(minus, out=minus)
    np.bitwise_xor(mag, minus, out=mag)
    np.subtract(mag, minus, out=mag)
    return mag
