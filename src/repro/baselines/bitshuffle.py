"""Bit-shuffle (bit transposition), the core of FZ-GPU's lossless stage.

FZ-GPU [22] follows its Lorenzo/quantization step with a *bitshuffle*: the
bits of a group of 32 values are transposed so that bit ``b`` of every
value lands in one 32-bit word.  On smooth data the quantized deltas are
tiny, so after the transpose the words holding high bit positions are all
zero and can be removed with a bitmap -- that removal is FZ-GPU's
"sparsification".

Shuffle layout: input values are processed in groups of 32; group ``g``
contributes 32 output words, where word ``b`` packs bit ``b`` of values
``32g .. 32g+31`` (value ``32g+j`` at bit position ``j``): the bit planes
of :func:`repro.core.bitpack.pack_planes` with each read as a word.
"""

from __future__ import annotations

import numpy as np

from repro.core import bitpack

GROUP = 32


def _pad_to_group(values: np.ndarray) -> np.ndarray:
    n = values.shape[0]
    if n % GROUP:
        values = np.concatenate([values, np.zeros(GROUP - n % GROUP, dtype=values.dtype)])
    return values


def shuffle(values: np.ndarray) -> np.ndarray:
    """Bit-transpose uint32 values; returns one uint32 word per (group,
    bit-position) in group-major order.  The input is zero-padded to a
    multiple of 32."""
    values = _pad_to_group(np.ascontiguousarray(values, dtype=np.uint32))
    groups = values.reshape(-1, GROUP)  # (G, 32) values
    return bitpack.pack_planes(groups, GROUP).view("<u4").reshape(-1)


def unshuffle(words: np.ndarray, count: int) -> np.ndarray:
    """Invert :func:`shuffle`; returns the first ``count`` original values."""
    planes = np.ascontiguousarray(words, dtype="<u4").view(np.uint8).reshape(-1, 4 * GROUP)
    return bitpack.unpack_planes(planes, GROUP, GROUP, np.uint32).reshape(-1)[:count]


def zigzag(values: np.ndarray) -> np.ndarray:
    """Map signed int64 to unsigned so small magnitudes keep small codes
    (0,-1,1,-2,... -> 0,1,2,3,...), maximizing zero words after the
    transpose."""
    v = values.astype(np.int64)
    return ((v << 1) ^ (v >> 63)).astype(np.uint64)


def unzigzag(codes: np.ndarray) -> np.ndarray:
    u = codes.astype(np.uint64)
    return ((u >> np.uint64(1)).astype(np.int64)) ^ -(u & np.uint64(1)).astype(np.int64)
