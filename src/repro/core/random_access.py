"""Random access into a compressed cuSZp2 stream (paper Section VI-B).

Because cuSZp2 compresses at block granularity and blocks are mutually
independent (the first element of every block differences against an
implicit zero), any block can be reconstructed by

1. reading the fixed-location offset bytes,
2. prefix-summing the per-block payload sizes they imply (the same global
   synchronization the decompression kernel performs), and
3. decoding just the requested block's payload.

:class:`RandomAccessor` amortizes steps 1-2 across many requests, which is
how the paper reaches TB-level random-access throughput (Fig. 20): the work
per access is tiny compared to the dataset the throughput is normalized by.
Random access is only available for the 1-D predictor (the cuSZp2 default);
Lorenzo tiles of the 2-D/3-D variants are also independent, but their
element indexing is tile-based and out of scope for this API.

Format v2 streams are verified on construction (``verify_integrity="auto"``).
With ``on_corruption="recover"`` an accessor over a damaged stream still
serves every block of every intact checksum group -- corrupt groups'
blocks come back filled with ``fill_value`` -- because the stored per-group
payload lengths keep intact groups addressable even when a corrupted
offset byte elsewhere would have shifted the global prefix sum.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from . import fle, predictor, stream
from .errors import IntegrityError, RandomAccessError, StreamFormatError
from .quantize import dequantize


class RandomAccessor:
    """Decode arbitrary blocks or element ranges of a compressed stream."""

    def __init__(
        self,
        buf,
        verify_integrity: str = "auto",
        on_corruption: str = "raise",
        fill_value: float = np.nan,
    ):
        if verify_integrity not in ("auto", "verify", "skip"):
            raise RandomAccessError(
                f"verify_integrity must be 'auto', 'verify' or 'skip', "
                f"got {verify_integrity!r}"
            )
        if on_corruption not in ("raise", "recover"):
            raise RandomAccessError(
                f"on_corruption must be 'raise' or 'recover', got {on_corruption!r}"
            )
        buf = stream.as_stream_bytes(buf)
        self._raw = buf
        self._fill_value = fill_value
        self.header, self._section, self._offsets, self._payload = stream.split_ex(buf)
        if self.header.predictor_ndim != 1:
            raise RandomAccessError(
                "random access requires the 1-D predictor "
                f"(stream uses {self.header.predictor_ndim}-D)"
            )

        self.report = None
        if verify_integrity != "skip":
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
                if on_corruption == "raise":
                    raise IntegrityError(report.summary(), report)
                if not report.recoverable:
                    raise IntegrityError(
                        "cannot recover: " + report.summary(), report
                    )
                self._init_recover(report)
                return
        self._init_intact()

    # -- layout ------------------------------------------------------------

    def _init_intact(self) -> None:
        """Trusted stream: global prefix sum over all offset bytes."""
        sizes = fle.block_payload_sizes(self._offsets, self.header.block)
        # Exclusive prefix sum: block i's payload is payload[starts[i]:starts[i]+sizes[i]].
        bounds = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        if int(bounds[-1]) != self._payload.size:
            raise StreamFormatError(
                f"offset bytes describe {int(bounds[-1])} payload bytes "
                f"but the stream holds {self._payload.size}"
            )
        self._starts = bounds[:-1]
        self._sizes = sizes.astype(np.int64)
        self._bounds = bounds

    def _init_recover(self, report) -> None:
        """Damaged stream: per-group payload bounds from the checksum TOC.

        Intact groups' offset bytes are CRC-verified and therefore trusted
        within the group; corrupt groups' blocks get start = -1.
        """
        section = self._section
        G = section.group_blocks
        bad = set(report.corrupt_groups)
        gbounds = section.payload_bounds()
        nblocks = self._offsets.shape[0]
        starts = np.full(nblocks, -1, dtype=np.int64)
        sizes = np.zeros(nblocks, dtype=np.int64)
        for g in range(section.ngroups):
            if g in bad:
                continue
            lo, hi = g * G, min((g + 1) * G, nblocks)
            gsizes = fle.block_payload_sizes(
                self._offsets[lo:hi], self.header.block
            ).astype(np.int64)
            gstarts = int(gbounds[g]) + np.concatenate([[0], np.cumsum(gsizes)[:-1]])
            starts[lo:hi] = gstarts
            sizes[lo:hi] = gsizes
        self._starts = starts
        self._sizes = sizes
        self._bounds = None  # global prefix sum is not trustworthy

    @property
    def nblocks(self) -> int:
        return self._offsets.shape[0]

    @property
    def block(self) -> int:
        return self.header.block

    def block_ok(self, idx: int) -> bool:
        """Whether block ``idx`` lies in an intact (or unverified) region."""
        return bool(self._starts[self._check_block(idx)] >= 0)

    def _check_block(self, idx: int) -> int:
        if not -self.nblocks <= idx < self.nblocks:
            raise RandomAccessError(f"block {idx} out of range [0, {self.nblocks})")
        return idx % self.nblocks

    def decode_block(self, idx: int) -> np.ndarray:
        """Reconstruct the ``idx``-th data block (its valid elements only
        for the final, possibly partial, block)."""
        return self.decode_blocks(np.array([self._check_block(idx)]))[0][
            : self._valid_len(self._check_block(idx))
        ]

    def decode_blocks(self, indices: np.ndarray) -> np.ndarray:
        """Reconstruct several blocks at once; returns ``(k, L)`` floats
        (padding elements of a trailing partial block are reconstructed but
        meaningless; blocks of corrupt groups are filled with the accessor's
        ``fill_value`` in recover mode)."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.nblocks):
            raise RandomAccessError(
                f"block indices must lie in [0, {self.nblocks}); got "
                f"[{indices.min()}, {indices.max()}]"
            )
        L = self.header.block
        good = self._starts[indices] >= 0
        deltas = np.zeros((indices.size, L), dtype=np.int64)
        if good.any():
            # the selected blocks' payloads, concatenated in request order,
            # decode in one FLE call
            picked = indices[good]
            widths = self._sizes[picked]
            ends = np.cumsum(widths)
            shift = np.repeat(self._starts[picked] - (ends - widths), widths)
            flat = np.arange(int(ends[-1])) + shift
            deltas[good] = fle.decode_blocks(self._offsets[picked], self._payload[flat], L)
        q = predictor.undiff_1d(deltas)
        out = dequantize(q, self.header.eb_abs, self.header.dtype)
        if not good.all():
            out[~good] = self._fill_value
        return out

    def _valid_len(self, idx: int) -> int:
        L = self.header.block
        return min(L, self.header.nelems - idx * L)

    def block_for_element(self, elem: int) -> Tuple[int, int]:
        """Map a flat element index to ``(block_index, offset_in_block)``."""
        if not 0 <= elem < self.header.nelems:
            raise RandomAccessError(f"element {elem} out of range [0, {self.header.nelems})")
        return divmod(elem, self.header.block)

    def decode_range(self, start: int, stop: int) -> np.ndarray:
        """Reconstruct the flat element range ``[start, stop)``."""
        if not 0 <= start <= stop <= self.header.nelems:
            raise RandomAccessError(
                f"range [{start}, {stop}) outside [0, {self.header.nelems}]"
            )
        if start == stop:
            return np.empty(0, dtype=self.header.dtype)
        L = self.header.block
        b0, b1 = start // L, (stop - 1) // L
        rows = self.decode_blocks(np.arange(b0, b1 + 1))
        flat = rows.reshape(-1)
        return flat[start - b0 * L : stop - b0 * L]

    def payload_bytes_touched(self, indices: np.ndarray) -> int:
        """Payload bytes actually read to decode ``indices`` -- used by the
        performance model to credit random access with its tiny traffic."""
        indices = np.asarray(indices, dtype=np.int64)
        return int(self._sizes[indices].sum())

    # -- random-access write (Section VI-B: "random access write have
    # similar results") ----------------------------------------------------

    def rewrite_block(self, idx: int, values: np.ndarray) -> np.ndarray:
        """Replace the contents of block ``idx`` and return the updated
        stream.

        The new values are quantized under the stream's stored error bound
        and re-encoded with its encoding mode.  The surrounding payload is
        spliced around the re-encoded block and the v2 checksums are
        recomputed, so the result verifies clean.
        """
        return self.rewrite_blocks([idx], [values])

    def rewrite_blocks(self, indices, values) -> np.ndarray:
        """Replace several blocks at once and return the updated stream.

        Batched form of :meth:`rewrite_block`: all replacement blocks are
        quantized and re-encoded together, then spliced into the payload in
        one assemble/reseal pass, so rewriting ``k`` dirty blocks costs one
        O(stream) reconstruction instead of ``k`` (the write-back flush path
        of ``repro.store`` depends on this).  The result is byte-identical
        to applying :meth:`rewrite_block` sequentially for the same
        ``(index, values)`` pairs, because each block's quantization and
        encoding depend only on that block's values.
        """
        from . import fle as fle_mod
        from .quantize import quantize

        if self._bounds is None:
            raise IntegrityError(
                "cannot rewrite blocks of a corrupt stream opened in recover "
                "mode; repair or retransmit the damaged groups first",
                self.report,
            )
        indices = [self._check_block(int(i)) for i in np.asarray(indices, dtype=np.int64)]
        if len(indices) != len(values):
            raise RandomAccessError(
                f"{len(indices)} block indices but {len(values)} value arrays"
            )
        if len(set(indices)) != len(indices):
            raise RandomAccessError("duplicate block indices in rewrite_blocks")
        if not indices:
            return np.asarray(self._raw).copy()

        L = self.header.block
        # splice order is ascending block index; quantization order is
        # irrelevant (blocks are independent)
        order = sorted(range(len(indices)), key=lambda k: indices[k])
        qrows = np.empty((len(indices), L), dtype=np.int64)
        for row, k in enumerate(order):
            idx = indices[k]
            valid = self._valid_len(idx)
            vals = np.asarray(values[k])
            if vals.shape != (valid,):
                raise RandomAccessError(
                    f"block {idx} holds {valid} elements; got shape {vals.shape}"
                )
            if vals.dtype != self.header.dtype:
                vals = vals.astype(self.header.dtype)
            q = quantize(vals.astype(np.float64), self.header.eb_abs)
            if valid < L:  # trailing partial block pads by repeating the last value
                q = np.concatenate([q, np.full(L - valid, q[-1], dtype=np.int64)])
            qrows[row] = q
        deltas = predictor.diff_1d(qrows)
        new_offsets, new_payload = fle_mod.encode_blocks(
            deltas, use_outlier=self.header.mode == 1
        )
        new_sizes = fle_mod.block_payload_sizes(new_offsets, L).astype(np.int64)
        new_bounds = np.concatenate([[0], np.cumsum(new_sizes)]).astype(np.int64)

        off_section = self._offsets.copy()
        parts = []
        prev = 0
        for row, k in enumerate(order):
            idx = indices[k]
            off_section[idx] = new_offsets[row]
            lo, hi = int(self._bounds[idx]), int(self._bounds[idx + 1])
            parts.append(self._payload[prev:lo])
            parts.append(new_payload[new_bounds[row] : new_bounds[row + 1]])
            prev = hi
        parts.append(self._payload[prev:])
        payload = np.concatenate(parts)
        group_blocks = (
            self._section.group_blocks
            if self._section is not None
            else stream.DEFAULT_GROUP_BLOCKS
        )
        new_buf = stream.assemble(self.header, off_section, payload, group_blocks)
        # preserve the orig-ndim tag the header's reserved field carries,
        # then recompute the CRCs it participates in
        new_buf[10:12] = np.asarray(self._raw[10:12])
        return stream.reseal(new_buf)

    def updated(self, idx: int, values: np.ndarray) -> "RandomAccessor":
        """Functional update: a new accessor over the rewritten stream."""
        return RandomAccessor(self.rewrite_block(idx, values))
