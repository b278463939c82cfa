"""Stream integrity verification and corrupt-block-group recovery.

Format v2 streams (see :mod:`repro.core.stream`) carry a header CRC plus
one CRC32 per fixed-size *block group*.  This module turns those checksums
into three capabilities:

* :func:`verify` -- check a stream without decoding it, returning a
  structured :class:`CorruptionReport`;
* ``decompress(..., on_corruption="raise")`` -- detection: any damaged
  stream raises :class:`~repro.core.errors.IntegrityError` carrying the
  report;
* ``decompress(..., on_corruption="recover")`` / :func:`recover` --
  graceful degradation: intact block groups decode bit-identically to an
  uncorrupted decode, damaged groups are filled with a sentinel value, and
  the report says exactly which element ranges are affected.

v1 streams carry no checksums; verifying them is a no-op that reports
``has_checksums=False``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from . import stream as stream_mod
from .errors import IntegrityError

__all__ = ["CorruptionReport", "verify", "recover"]


@dataclass(frozen=True)
class CorruptionReport:
    """Structured result of verifying one stream's checksums."""

    version: int
    nblocks: int
    group_blocks: int  #: blocks per checksum group (0 when no checksums)
    ngroups: int
    has_checksums: bool
    header_ok: bool
    toc_ok: bool
    truncated_bytes: int  #: described bytes missing from the buffer (0 = none)
    corrupt_groups: Tuple[int, ...]
    errors: Tuple[str, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return (
            self.header_ok
            and self.toc_ok
            and self.truncated_bytes == 0
            and not self.corrupt_groups
        )

    @property
    def recoverable(self) -> bool:
        """Partial recovery needs a trusted header and checksum TOC."""
        return self.has_checksums and self.header_ok and self.toc_ok

    def group_of_block(self, block: int) -> int:
        if not self.group_blocks:
            return 0
        return block // self.group_blocks

    def block_ok(self, block: int) -> bool:
        return self.group_of_block(block) not in set(self.corrupt_groups)

    def corrupt_block_ranges(self) -> List[Tuple[int, int]]:
        """Half-open ``[start, stop)`` block ranges covered by corrupt groups."""
        return [
            (g * self.group_blocks, min((g + 1) * self.group_blocks, self.nblocks))
            for g in self.corrupt_groups
        ]

    def summary(self) -> str:
        if not self.has_checksums:
            return f"stream format v{self.version}: no integrity checksums"
        if self.ok:
            return (
                f"stream format v{self.version}: header + {self.ngroups} "
                f"block-group checksums verified"
            )
        parts = []
        if not self.header_ok:
            parts.append("header CRC mismatch")
        if not self.toc_ok:
            parts.append("checksum-TOC CRC mismatch")
        if self.truncated_bytes:
            parts.append(f"truncated by {self.truncated_bytes} bytes")
        if self.corrupt_groups:
            parts.append(
                f"{len(self.corrupt_groups)}/{self.ngroups} block groups corrupt "
                f"(groups {list(self.corrupt_groups)[:8]}"
                + ("...)" if len(self.corrupt_groups) > 8 else ")")
            )
        return f"stream format v{self.version}: " + "; ".join(parts)


def _clean_report(header, section=None) -> CorruptionReport:
    return CorruptionReport(
        version=header.version,
        nblocks=header.nblocks,
        group_blocks=section.group_blocks if section else 0,
        ngroups=section.ngroups if section else 0,
        has_checksums=section is not None,
        header_ok=True,
        toc_ok=True,
        truncated_bytes=0,
        corrupt_groups=(),
    )


def verify(buf) -> CorruptionReport:
    """Verify every checksum of a stream without decoding its payload.

    Raises :class:`StreamFormatError` when the buffer cannot even be laid
    out (not 1-D uint8 bytes, bad magic, unknown version, truncation before
    the offset section);
    otherwise always returns a report, corrupt or not.
    """
    buf = stream_mod.as_stream_bytes(buf)
    header = stream_mod.StreamHeader.unpack(buf)
    if header.version == stream_mod.V1:
        return _clean_report(header)

    section = stream_mod.parse_integrity_section(buf, header.nblocks)
    errors: List[str] = []

    header_ok = stream_mod.crc32(buf[: stream_mod.HEADER_SIZE]) == section.header_crc
    if not header_ok:
        errors.append(
            f"header CRC mismatch: stored 0x{section.header_crc:08x}, computed "
            f"0x{stream_mod.crc32(buf[: stream_mod.HEADER_SIZE]):08x}"
        )
    toc_start = stream_mod.HEADER_SIZE
    toc_end = toc_start + section.size - stream_mod.TOC_CRC_SIZE
    toc_ok = stream_mod.crc32(buf[toc_start:toc_end]) == section.toc_crc
    if not toc_ok:
        errors.append(
            f"checksum-TOC CRC mismatch over bytes [{toc_start}, {toc_end}): "
            f"stored 0x{section.toc_crc:08x}"
        )

    off_start = stream_mod.HEADER_SIZE + section.size
    off_end = off_start + header.nblocks
    bounds = section.payload_bounds()
    described_end = off_end + int(bounds[-1])
    truncated = max(described_end - int(buf.size), 0)
    if truncated:
        errors.append(
            f"stream truncated: described payload ends at byte {described_end}, "
            f"buffer holds {buf.size}"
        )

    corrupt: List[int] = []
    G = section.group_blocks
    for g in range(section.ngroups):
        goff_lo = off_start + g * G
        goff_hi = min(off_start + (g + 1) * G, off_end)
        gpay_lo = off_end + int(bounds[g])
        gpay_hi = off_end + int(bounds[g + 1])
        if goff_hi > buf.size or gpay_hi > buf.size:
            corrupt.append(g)  # group extends past the (truncated) buffer
            continue
        gcrc = stream_mod.crc32(buf[goff_lo:goff_hi], buf[gpay_lo:gpay_hi])
        if gcrc != int(section.group_crcs[g]):
            corrupt.append(g)
            errors.append(
                f"block group {g} (blocks [{g * G}, {min((g + 1) * G, header.nblocks)})) "
                f"CRC mismatch: stored 0x{int(section.group_crcs[g]):08x}, "
                f"computed 0x{gcrc:08x}"
            )

    return CorruptionReport(
        version=header.version,
        nblocks=header.nblocks,
        group_blocks=G,
        ngroups=section.ngroups,
        has_checksums=True,
        header_ok=header_ok,
        toc_ok=toc_ok,
        truncated_bytes=truncated,
        corrupt_groups=tuple(corrupt),
        errors=tuple(errors),
    )


def _read_orig_ndim(buf: np.ndarray) -> int:
    return int(np.frombuffer(buf[10:12].tobytes(), dtype=np.uint16)[0])


def recover(
    buf, fill_value: float = np.nan
) -> Tuple[np.ndarray, CorruptionReport]:
    """Decode a (possibly corrupt) v2 stream, salvaging every intact group.

    Intact block groups decode bit-identically to an uncorrupted decode;
    elements of corrupt groups are set to ``fill_value``.  Raises
    :class:`IntegrityError` when recovery is impossible (damaged header or
    checksum TOC -- the geometry itself cannot be trusted) and
    :class:`StreamFormatError` for non-v2 streams with no checksums to
    recover by.
    """
    buf = stream_mod.as_stream_bytes(buf)
    report = verify(buf)
    if not report.has_checksums:
        # v1: nothing to verify against; decode as-is.
        from .compressor import decompress as _decompress

        return _decompress(buf, integrity="skip"), report
    if not report.recoverable:
        raise IntegrityError(
            "cannot recover: " + report.summary(), report
        )
    if report.ok:
        from .compressor import decompress as _decompress

        return _decompress(buf, integrity="skip"), report

    header = stream_mod.StreamHeader.unpack(buf)
    if header.predictor_ndim != 1:
        raise IntegrityError(
            "partial recovery is only available for the 1-D predictor "
            f"(stream uses {header.predictor_ndim}-D); intact-group decode "
            "of Lorenzo tiles is not supported",
            report,
        )

    from . import fle, predictor
    from .quantize import dequantize

    section = stream_mod.parse_integrity_section(buf, header.nblocks)
    off_start = stream_mod.HEADER_SIZE + section.size
    off_end = off_start + header.nblocks
    bounds = section.payload_bounds()
    G = section.group_blocks
    L = header.block
    bad = set(report.corrupt_groups)

    out = np.full(header.nblocks * L, fill_value, dtype=header.dtype)
    for g in range(section.ngroups):
        if g in bad:
            continue
        blk_lo = g * G
        blk_hi = min((g + 1) * G, header.nblocks)
        offsets_g = buf[off_start + blk_lo : off_start + blk_hi]
        payload_g = buf[off_end + int(bounds[g]) : off_end + int(bounds[g + 1])]
        deltas = fle.decode_blocks(offsets_g, payload_g, L)
        q = predictor.undiff_1d(deltas).reshape(-1)
        out[blk_lo * L : blk_hi * L] = dequantize(q, header.eb_abs, header.dtype)

    out = out[: header.nelems]
    orig_ndim = _read_orig_ndim(buf)
    if orig_ndim:
        shape = (
            header.dims[:orig_ndim] if orig_ndim <= len(header.dims) else header.dims
        )
        out = out.reshape(shape)
    return out, report
