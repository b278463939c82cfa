"""Blockwise first-order difference predictors (Lorenzo family).

cuSZp2 processes data in 1-D, applying a first-order difference within each
block: ``d[0] = q[0]``, ``d[i] = q[i] - q[i-1]`` (Section III).  Blocks are
fully independent -- the first element differences against an implicit zero
-- which is exactly what enables random access and what makes the first
element of a smooth block an *outlier* (Section IV-A, Fig. 6).

For Table VI the paper also evaluates 2-D (8x8) and 3-D (4x4x4) Lorenzo
variants; those are implemented here as tile predictors that share the same
downstream fixed-length encoding.

Every function is fully vectorized over blocks per the repo's HPC style:
the per-block recurrence in decoding is a cumulative sum, not a Python
loop.  The 1-D pair runs each direction as one contiguous pass over the
flat array, not a scan along every short row.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# 1-D (the cuSZp2 default)
# ---------------------------------------------------------------------------

def blockize_1d(q: np.ndarray, block: int) -> np.ndarray:
    """Reshape a flat quant array into ``(nblocks, block)``, padding the tail
    by repeating the final value so the padded deltas are zero (keeps the
    last block's fixed length small and reconstructs exactly after
    truncation)."""
    n = q.shape[0]
    nblocks = -(-n // block)
    if nblocks * block != n:
        pad = np.full(nblocks * block - n, q[-1], dtype=q.dtype)
        q = np.concatenate([q, pad])
    return q.reshape(nblocks, block)


def diff_1d(qblocks: np.ndarray) -> np.ndarray:
    """First-order difference within each row; ``d[:, 0]`` keeps the raw
    quant value (difference against an implicit zero).  One flat subtract,
    then column 0 is overwritten with the block heads (the cross-block
    differences it replaces are never read, so their wraparound is
    harmless)."""
    d = np.empty(qblocks.shape, dtype=qblocks.dtype)
    q = qblocks.reshape(-1)
    np.subtract(q[1:], q[:-1], out=d.reshape(-1)[1:])
    d[:, 0] = qblocks[:, 0]
    return d


def undiff_1d(dblocks: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """Invert :func:`diff_1d` (prefix sum along each row) into ``out``: a
    C-contiguous array, possibly wider than the deltas (int64 for int32
    deltas), or a new one of their dtype when ``None``.  One flat running
    total in the unsigned view of ``out``, where wraparound is defined;
    each block then subtracts the total before it, which leaves its own
    prefix sums exact whenever they fit (as
    :func:`repro.core.fle.delta_dtype` proves for every decoded stream)."""
    if out is None:
        out = np.empty(dblocks.shape, dtype=dblocks.dtype)
    elif not out.flags.c_contiguous:
        raise ValueError("undiff_1d needs a C-contiguous out array")
    nblocks, block = dblocks.shape
    unsigned = np.dtype(f"u{out.dtype.itemsize}")
    d = dblocks.astype(out.dtype, copy=False).reshape(-1).view(unsigned)
    total = out.reshape(-1).view(unsigned)
    np.cumsum(d, dtype=unsigned, out=total)
    before = total[block - 1 : -1 : block].copy()
    total.reshape(nblocks, block)[1:] -= before[:, None]
    return out


# ---------------------------------------------------------------------------
# 2-D / 3-D Lorenzo tiles (Table VI)
# ---------------------------------------------------------------------------

def _pad_to_multiple(field: np.ndarray, tile: tuple) -> np.ndarray:
    """Edge-replicate ``field`` so every axis is a multiple of the tile."""
    pads = []
    for size, t in zip(field.shape, tile):
        target = -(-size // t) * t
        pads.append((0, target - size))
    if any(p[1] for p in pads):
        field = np.pad(field, pads, mode="edge")
    return field


def _tile_2d(field: np.ndarray, t: int) -> np.ndarray:
    """(H, W) -> (ntiles, t, t) in row-major tile order."""
    h, w = field.shape
    return (
        field.reshape(h // t, t, w // t, t)
        .transpose(0, 2, 1, 3)
        .reshape(-1, t, t)
    )


def _untile_2d(tiles: np.ndarray, shape: tuple, t: int) -> np.ndarray:
    h, w = shape
    return (
        tiles.reshape(h // t, w // t, t, t)
        .transpose(0, 2, 1, 3)
        .reshape(h, w)
    )


def _tile_3d(field: np.ndarray, t: int) -> np.ndarray:
    d0, d1, d2 = field.shape
    return (
        field.reshape(d0 // t, t, d1 // t, t, d2 // t, t)
        .transpose(0, 2, 4, 1, 3, 5)
        .reshape(-1, t, t, t)
    )


def _untile_3d(tiles: np.ndarray, shape: tuple, t: int) -> np.ndarray:
    d0, d1, d2 = shape
    return (
        tiles.reshape(d0 // t, d1 // t, d2 // t, t, t, t)
        .transpose(0, 3, 1, 4, 2, 5)
        .reshape(d0, d1, d2)
    )


def lorenzo_diff_2d(tiles: np.ndarray) -> np.ndarray:
    """2-D first-order Lorenzo within each (t, t) tile:
    ``d[i,j] = q[i,j] - q[i-1,j] - q[i,j-1] + q[i-1,j-1]`` with zero padding
    outside the tile.  Equivalent to differencing along both axes."""
    zeros_r = np.zeros((tiles.shape[0], 1, tiles.shape[2]), dtype=tiles.dtype)
    d = np.diff(tiles, axis=1, prepend=zeros_r)
    zeros_c = np.zeros((tiles.shape[0], tiles.shape[1], 1), dtype=tiles.dtype)
    return np.diff(d, axis=2, prepend=zeros_c)


def lorenzo_undiff_2d(dtiles: np.ndarray) -> np.ndarray:
    """Inverse 2-D Lorenzo: cumulative sums along both tile axes (the
    'complex partial-sum in decompression' of Section VI-D)."""
    return np.cumsum(np.cumsum(dtiles, axis=1), axis=2)


def lorenzo_diff_3d(tiles: np.ndarray) -> np.ndarray:
    """3-D first-order Lorenzo (7-neighbour stencil) within each tile,
    implemented as successive axis differences."""
    d = tiles
    for axis in (1, 2, 3):
        shape = list(d.shape)
        shape[axis] = 1
        d = np.diff(d, axis=axis, prepend=np.zeros(shape, dtype=d.dtype))
    return d


def lorenzo_undiff_3d(dtiles: np.ndarray) -> np.ndarray:
    q = dtiles
    for axis in (1, 2, 3):
        q = np.cumsum(q, axis=axis)
    return q


# ---------------------------------------------------------------------------
# Unified predictor interface used by the compressor
# ---------------------------------------------------------------------------

#: tile edge per predictor dimensionality used by Table VI (64 elements in
#: every case, "to be fair": 64, 8x8, 4x4x4).
TABLE6_TILES = {1: 64, 2: 8, 3: 4}


def forward(q: np.ndarray, dims: tuple, ndim: int, block: int) -> np.ndarray:
    """Apply the ``ndim``-dimensional predictor; returns ``(nblocks, L)``
    delta blocks where ``L == block`` for 1-D and ``tile**ndim`` otherwise.
    ``dims`` is the logical shape of the field (ignored for 1-D)."""
    if ndim == 1:
        return diff_1d(blockize_1d(q, block))
    t = round(block ** (1.0 / ndim))
    if t**ndim != block:
        raise ValueError(f"block size {block} is not a perfect {ndim}-dim tile")
    field = q.reshape(dims)
    if ndim == 2:
        field = _pad_to_multiple(field, (t, t))
        tiles = _tile_2d(field, t)
        return lorenzo_diff_2d(tiles).reshape(tiles.shape[0], -1)
    if ndim == 3:
        field = _pad_to_multiple(field, (t, t, t))
        tiles = _tile_3d(field, t)
        return lorenzo_diff_3d(tiles).reshape(tiles.shape[0], -1)
    raise ValueError(f"unsupported predictor dimensionality {ndim}")


def inverse(dblocks: np.ndarray, dims: tuple, ndim: int, block: int, nelems: int) -> np.ndarray:
    """Invert :func:`forward`; returns the flat quant array of ``nelems``."""
    if ndim == 1:
        return undiff_1d(dblocks).reshape(-1)[:nelems]
    t = round(block ** (1.0 / ndim))
    if ndim == 2:
        h, w = dims
        ph, pw = -(-h // t) * t, -(-w // t) * t
        tiles = lorenzo_undiff_2d(dblocks.reshape(-1, t, t))
        return _untile_2d(tiles, (ph, pw), t)[:h, :w].reshape(-1)
    if ndim == 3:
        d0, d1, d2 = dims
        p0, p1, p2 = (-(-s // t) * t for s in dims)
        tiles = lorenzo_undiff_3d(dblocks.reshape(-1, t, t, t))
        return _untile_3d(tiles, (p0, p1, p2), t)[:d0, :d1, :d2].reshape(-1)
    raise ValueError(f"unsupported predictor dimensionality {ndim}")
