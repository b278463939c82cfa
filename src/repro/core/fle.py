"""Plain and Outlier fixed-length encoding (the paper's Section IV-A).

Given the ``(nblocks, L)`` signed delta blocks produced by the predictor,
this module performs the Lossless Encoding step of the cuSZp2 pipeline:

* **Plain-FLE** stores, per block, one sign bit per element plus ``fl``
  bit-planes where ``fl`` is the bit length of the largest magnitude in the
  block.  An all-zero block costs zero payload bytes.
* **Outlier-FLE** additionally extracts the block's first delta -- the
  value that differences against an implicit zero and therefore tends to
  dwarf its neighbours on smooth data (Fig. 6) -- storing it exactly in
  1..4 adaptive bytes so the plane width can shrink to the bit length of
  the *remaining* magnitudes.
* The **selection strategy** ("for each data block, selecting Outlier-FLE
  only when it offers a higher compression ratio") is a pure byte-count
  comparison; no re-encoding is needed, matching the paper's single
  magnitude pass.

Every block runs the same code, as on the GPU (Sections III and IV-B).
Blocks are processed in tiles of :data:`TILE_BLOCKS`; inside a tile each
non-zero block gets one *padded row*: ``L/8`` sign bytes, 4 outlier bytes,
then bit-planes up to the tile's largest ``fl`` (planes past the first
magnitude byte are packed only for the blocks that reach them).  A block's
offset byte alone says which bytes of its row the stream keeps, so a
256-row boolean *layout table* (:func:`layout`) holds that answer for every
offset byte.  Compacting the rows in block order through the table is the
paper's prefix-sum concatenation and yields the payload exactly; decoding
scatters the payload back into zeroed rows through the same table.  There
is no loop over block signatures: the only Python-level loops are over
tiles and over the (at most four) magnitude bytes.

Per-block reductions are flat passes, not ``axis=1`` row scans: row maxima
are a ``bitwise_or.reduceat`` (OR has the bit length of max) and payload
sizes a gather from the layout table.
"""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np

from . import bitpack, blockfmt
from .errors import QuantizationOverflowError, StreamFormatError
from .quantize import MAX_QUANT_MAGNITUDE

#: Blocks per tile: keeps a tile's rows, magnitudes and plane slabs
#: cache-sized on large fields.
TILE_BLOCKS = 1 << 14

#: Row bytes reserved for the outlier: the widest adaptive outlier.
_OUTLIER_BYTES = 4


def _check_row_max(row_max: np.ndarray) -> None:
    if row_max.size and int(row_max.max()) > int(MAX_QUANT_MAGNITUDE):
        raise QuantizationOverflowError(
            "a block delta exceeds 2**31 - 1 and cannot be represented by the "
            "5-bit fixed-length field; increase the error bound"
        )


@functools.lru_cache(maxsize=16)
def layout(block: int) -> Tuple[np.ndarray, np.ndarray]:
    """The layout table for ``block``-element blocks: ``keep[o, j]`` says
    whether byte ``j`` of a padded row (signs, outlier, planes 0..30) is in
    the stream for offset byte ``o``, and ``sizes[o]`` is that block's
    payload size (the number of bytes ``keep[o]`` selects).  Both are
    read-only."""
    sign_bytes = block // 8
    mode, onb, fl = blockfmt.decode_offset_bytes(np.arange(256, dtype=np.uint8))
    col = np.arange(sign_bytes + _OUTLIER_BYTES + 31 * sign_bytes)
    planes_end = sign_bytes + _OUTLIER_BYTES + fl.astype(np.int64) * sign_bytes
    keep = (col < sign_bytes + onb[:, None]) | (
        (col >= sign_bytes + _OUTLIER_BYTES) & (col < planes_end[:, None])
    )
    keep[(mode == blockfmt.MODE_PLAIN) & (fl == 0)] = False  # zero blocks
    sizes = blockfmt.payload_sizes(mode, onb, fl, block)
    keep.flags.writeable = False
    sizes.flags.writeable = False
    return keep, sizes


def _slabs(fl: np.ndarray, fl_max: int, base: int, sign_bytes: int):
    """``(b, sel, hi, cols)`` per magnitude byte ``b`` above the first:
    the blocks whose ``fl`` reaches its planes ``8b .. 8b+hi-1`` and the
    row columns those planes occupy."""
    for b in range(1, (fl_max + 7) // 8):
        hi = min(8, fl_max - 8 * b)
        lo = base + 8 * b * sign_bytes
        yield b, np.flatnonzero(fl > 8 * b), hi, slice(lo, lo + hi * sign_bytes)


def _pack_rows(signs, mag, outlier, fl, block: int) -> np.ndarray:
    """Padded rows for one tile's non-zero blocks (``mag`` already has each
    Outlier-FLE block's first element zeroed)."""
    n = mag.shape[0]
    sign_bytes = block // 8
    base = sign_bytes + _OUTLIER_BYTES
    fl_max = int(fl.max())
    # bytes a block's offset byte drops are never read, so no zero fill
    rows = np.empty((n, base + fl_max * sign_bytes), dtype=np.uint8)
    rows[:, :sign_bytes] = signs
    rows[:, sign_bytes:base] = outlier.astype("<u4").view(np.uint8).reshape(n, 4)
    hi = min(8, fl_max)
    rows[:, base : base + hi * sign_bytes] = bitpack.pack_planes(mag, hi)
    for b, sel, hi, cols in _slabs(fl, fl_max, base, sign_bytes):
        rows[sel, cols] = bitpack.pack_planes(mag[sel] >> (8 * b), hi)
    return rows


def _unpack_rows(rows, outlier_sel, fl, block: int, dtype) -> np.ndarray:
    """Signed ``(n, L)`` deltas from one tile's padded rows."""
    sign_bytes = block // 8
    base = sign_bytes + _OUTLIER_BYTES
    fl_max = int(fl.max())
    hi = min(8, fl_max)
    mag = bitpack.unpack_planes(rows[:, base : base + hi * sign_bytes], hi, block, dtype)
    for b, sel, hi, cols in _slabs(fl, fl_max, base, sign_bytes):
        mag[sel] |= bitpack.unpack_planes(rows[sel, cols], hi, block, dtype) << (8 * b)
    outlier = np.ascontiguousarray(rows[:, sign_bytes:base]).view("<u4")[:, 0]
    mag[:, 0] = np.where(outlier_sel, outlier, mag[:, 0])
    return bitpack.apply_signs(mag, bitpack.unpack_signs(rows[:, :sign_bytes], block))


def encode_blocks(dblocks: np.ndarray, use_outlier: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Encode delta blocks; returns ``(offset_bytes, payload)``.

    ``use_outlier`` selects the compressor mode: ``False`` is CUSZP2-P
    (strict Plain-FLE, the extreme-throughput mode), ``True`` is CUSZP2-O
    (per-block best of Plain/Outlier).
    """
    nblocks, L = dblocks.shape
    mag = np.abs(dblocks)
    heads = np.arange(0, mag.size, L)

    if use_outlier:
        # one flat OR-reduction per block over the magnitudes with column 0
        # zeroed gives the residual bit length; OR-ing the outlier back in
        # gives the plain one and the global check
        omag = mag[:, 0].astype(np.int64)
        mag[:, 0] = 0
        rest_or = np.bitwise_or.reduceat(mag.reshape(-1), heads)
        row_or = rest_or | omag
        _check_row_max(row_or)
        fl_plain = bitpack.bit_length(row_or).astype(np.int64)
        fl_rest = bitpack.bit_length(rest_or).astype(np.int64)
        onb = blockfmt.outlier_byte_count(omag)
        sign_bytes = L // 8
        cost_plain = np.where(fl_plain == 0, 0, sign_bytes * (1 + fl_plain))
        cost_outlier = sign_bytes + onb + fl_rest * sign_bytes
        mode = (cost_outlier < cost_plain).astype(np.uint8)
        # Outlier-FLE blocks' planes carry only the residual magnitudes;
        # Plain-FLE blocks get their first magnitude back
        mag[:, 0] = np.where(mode == blockfmt.MODE_OUTLIER, 0, omag)
    else:
        row_or = np.bitwise_or.reduceat(mag.reshape(-1), heads)
        _check_row_max(row_or)
        fl_plain = bitpack.bit_length(row_or).astype(np.int64)
        omag = np.zeros(nblocks, dtype=np.int64)
        onb = np.zeros(nblocks, dtype=np.int64)
        fl_rest = fl_plain  # unused
        mode = np.zeros(nblocks, dtype=np.uint8)

    fl = np.where(mode == blockfmt.MODE_OUTLIER, fl_rest, fl_plain)
    offsets = blockfmt.encode_offset_bytes(mode, np.maximum(onb, 1), fl)
    keep, _ = layout(L)
    signs = bitpack.pack_signs(dblocks)
    parts = []
    for lo in range(0, nblocks, TILE_BLOCKS):
        # offset byte 0 is exactly the all-zero Plain block: no payload
        nz = lo + np.flatnonzero(offsets[lo : lo + TILE_BLOCKS])
        if nz.size:
            rows = _pack_rows(
                np.take(signs, nz, axis=0),
                np.take(mag, nz, axis=0), omag[nz], fl[nz], L,
            )
            parts.append(rows[np.take(keep[:, : rows.shape[1]], offsets[nz], axis=0)])
    if len(parts) == 1:
        return offsets, parts[0]  # one tile: no concatenation copy
    return offsets, np.concatenate(parts or [np.empty(0, dtype=np.uint8)])


def delta_dtype(offsets: np.ndarray, block: int) -> np.dtype:
    """Narrowest integer dtype whose per-block prefix sums provably cannot
    overflow for this stream: every cumsum partial over a block is bounded
    by ``outlier + L * (2**fl_max - 1)``, so int32 is safe whenever that
    bound fits -- which is every realistic stream.  The bound is taken over
    the *stream's* offset bytes, not the data, so even corrupt (or
    adversarial) payloads stay exact in the chosen dtype."""
    if offsets.size == 0:
        return np.dtype(np.int32)
    _, onb, fl = blockfmt.decode_offset_bytes(offsets)
    if int(onb.max()) <= 3 and block << int(fl.max()) < 1 << 30:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


def decode_blocks(offsets: np.ndarray, payload: np.ndarray, block: int) -> np.ndarray:
    """Invert :func:`encode_blocks` back to ``(nblocks, L)`` signed deltas
    (int32 when :func:`delta_dtype` proves it exact, else int64)."""
    nblocks = offsets.shape[0]
    offsets = offsets.astype(np.uint8, copy=False)
    keep, row_sizes = layout(block)
    sizes = row_sizes[offsets]
    total = int(sizes.sum())
    if total != payload.size:
        raise StreamFormatError(
            f"offset bytes describe {total} payload bytes but stream holds {payload.size}"
        )
    dtype = delta_dtype(offsets, block)
    deltas = np.zeros((nblocks, block), dtype=dtype)
    pos = 0
    for lo in range(0, nblocks, TILE_BLOCKS):
        nz = lo + np.flatnonzero(sizes[lo : lo + TILE_BLOCKS])
        if nz.size == 0:
            continue
        off = offsets[nz]
        mode, _, fl = blockfmt.decode_offset_bytes(off)
        width = block // 8 + _OUTLIER_BYTES + int(fl.max()) * (block // 8)
        rows = np.zeros((nz.size, width), dtype=np.uint8)
        end = pos + int(sizes[nz].sum())
        rows[np.take(keep[:, :width], off, axis=0)] = payload[pos:end]
        pos = end
        deltas[nz] = _unpack_rows(rows, mode == blockfmt.MODE_OUTLIER, fl, block, dtype)
    return deltas


def block_payload_sizes(offsets: np.ndarray, block: int) -> np.ndarray:
    """Payload size per block from offset bytes alone (used by the global
    prefix-sum step and by random access): one gather from the layout
    table's size column."""
    return layout(block)[1][offsets.astype(np.uint8, copy=False)]
