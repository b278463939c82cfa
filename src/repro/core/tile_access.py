"""Random access for 2-D/3-D Lorenzo streams (tile granularity).

The 1-D :class:`~repro.core.random_access.RandomAccessor` addresses
32-element line blocks.  The multi-dimensional variants of Table VI tile
the field into 8x8 / 4x4x4 Lorenzo tiles that are just as independent --
each tile's Lorenzo differences reference only zero-padding outside the
tile -- so any spatial tile can be reconstructed from its own payload after
the same offset-byte prefix sum.  This module provides that spatial access
path (an extension; the paper only claims random access for the 1-D
default).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from . import fle, predictor, stream
from .errors import RandomAccessError
from .quantize import dequantize


class TileAccessor:
    """Decode arbitrary Lorenzo tiles of a 2-D/3-D compressed stream."""

    def __init__(self, buf, verify_integrity: str = "auto"):
        if verify_integrity not in ("auto", "verify", "skip"):
            raise RandomAccessError(
                f"verify_integrity must be 'auto', 'verify' or 'skip', "
                f"got {verify_integrity!r}"
            )
        buf = stream.as_stream_bytes(buf)
        self.header, self._offsets, self._payload = stream.split(buf)
        self.report = None
        if verify_integrity != "skip":
            from .errors import IntegrityError
            from .integrity import verify as _verify

            report = _verify(buf)
            self.report = report
            if verify_integrity == "verify" and not report.has_checksums:
                raise IntegrityError(
                    "verify_integrity='verify' but the stream is format v1 "
                    "and carries no checksums",
                    report,
                )
            if not report.ok:
                # Lorenzo tiles have no recover path (see RandomAccessor).
                raise IntegrityError(report.summary(), report)
        ndim = self.header.predictor_ndim
        if ndim == 1:
            raise RandomAccessError(
                "stream uses the 1-D pipeline; use RandomAccessor instead"
            )
        self.ndim = ndim
        self.tile = round(self.header.block ** (1.0 / ndim))
        dims = self.header.dims[:ndim]
        self.dims = tuple(int(d) for d in dims)
        #: tiles per axis (edge tiles are padded during compression)
        self.grid = tuple(-(-d // self.tile) for d in self.dims)
        sizes = fle.block_payload_sizes(self._offsets, self.header.block)
        self._bounds = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        if int(self._bounds[-1]) != self._payload.size:
            from .errors import StreamFormatError

            raise StreamFormatError(
                f"offset bytes describe {int(self._bounds[-1])} payload bytes "
                f"but the stream holds {self._payload.size}"
            )

    @property
    def ntiles(self) -> int:
        return int(np.prod(self.grid))

    def tile_index(self, coords: Tuple[int, ...]) -> int:
        """Flat tile id of grid coordinates (row-major over the tile grid,
        matching the compressor's tiling order)."""
        if len(coords) != self.ndim:
            raise RandomAccessError(f"need {self.ndim} tile coordinates, got {len(coords)}")
        idx = 0
        for c, g in zip(coords, self.grid):
            if not 0 <= c < g:
                raise RandomAccessError(f"tile coordinate {coords} outside grid {self.grid}")
            idx = idx * g + c
        return idx

    def tile_for_voxel(self, voxel: Tuple[int, ...]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Map a spatial index to ``(tile_coords, offset_within_tile)``."""
        if len(voxel) != self.ndim:
            raise RandomAccessError(f"need {self.ndim} indices, got {len(voxel)}")
        for v, d in zip(voxel, self.dims):
            if not 0 <= v < d:
                raise RandomAccessError(f"voxel {voxel} outside field {self.dims}")
        return (
            tuple(v // self.tile for v in voxel),
            tuple(v % self.tile for v in voxel),
        )

    def decode_tile(self, coords: Tuple[int, ...]) -> np.ndarray:
        """Reconstruct one tile as a ``(t,)*ndim`` array (edge tiles include
        the replicated padding the compressor added; slice with
        :meth:`valid_extent` for the in-field part)."""
        idx = self.tile_index(coords)
        lo, hi = int(self._bounds[idx]), int(self._bounds[idx + 1])
        deltas = fle.decode_blocks(
            self._offsets[idx : idx + 1], self._payload[lo:hi], self.header.block
        )
        t = self.tile
        shaped = deltas.reshape((1,) + (t,) * self.ndim)
        if self.ndim == 2:
            q = predictor.lorenzo_undiff_2d(shaped)[0]
        else:
            q = predictor.lorenzo_undiff_3d(shaped)[0]
        return dequantize(q.reshape(-1), self.header.eb_abs, self.header.dtype).reshape(
            (t,) * self.ndim
        )

    def valid_extent(self, coords: Tuple[int, ...]) -> Tuple[slice, ...]:
        """Slices selecting the in-field part of a decoded tile."""
        out = []
        for c, d in zip(coords, self.dims):
            lo = c * self.tile
            out.append(slice(0, min(self.tile, d - lo)))
        return tuple(out)

    def read_voxel(self, voxel: Tuple[int, ...]):
        """Reconstruct a single spatial sample."""
        coords, offset = self.tile_for_voxel(voxel)
        return self.decode_tile(coords)[offset]

    def decode_region(self, lo: Tuple[int, ...], hi: Tuple[int, ...]) -> np.ndarray:
        """Reconstruct the axis-aligned region ``[lo, hi)`` by decoding only
        the tiles it touches."""
        if len(lo) != self.ndim or len(hi) != self.ndim:
            raise RandomAccessError(f"region bounds must have {self.ndim} coordinates")
        for a, b, d in zip(lo, hi, self.dims):
            if not 0 <= a <= b <= d:
                raise RandomAccessError(f"region [{lo}, {hi}) outside field {self.dims}")
        shape = tuple(b - a for a, b in zip(lo, hi))
        out = np.empty(shape, dtype=self.header.dtype)
        t = self.tile
        tile_lo = tuple(a // t for a in lo)
        tile_hi = tuple(-(-b // t) if b > a else a // t for a, b in zip(lo, hi))
        ranges = [range(a, max(b, a)) for a, b in zip(tile_lo, tile_hi)]
        import itertools

        for coords in itertools.product(*ranges):
            tile_data = self.decode_tile(coords)
            src = []
            dst = []
            for axis in range(self.ndim):
                base = coords[axis] * t
                a = max(lo[axis], base)
                b = min(hi[axis], base + t)
                src.append(slice(a - base, b - base))
                dst.append(slice(a - lo[axis], b - lo[axis]))
            out[tuple(dst)] = tile_data[tuple(src)]
        return out
