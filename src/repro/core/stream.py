"""Compressed-stream container: header framing + section views.

Layout (all little-endian; see DESIGN.md Section 6)::

    v1: [52-byte header][nblocks offset bytes][payload bytes]
    v2: [52-byte header][integrity section][nblocks offset bytes][payload bytes]

The offset section has a *predictable* location and size -- one byte per
block -- which is what lets decompression and random access find any block
with a prefix sum over offset bytes only (paper, Fig. 5: "We store offset
information because each data block's offset requires only 1 byte,
ensuring predictable locations").

Format v2 adds an integrity section between the header and the offset
bytes so that bit-flips, truncation, and partial-transfer loss become
*detectable* (and, at block-group granularity, recoverable)::

    offset 52        u32  header_crc   CRC32 of bytes [0, 52)
    offset 56        u16  group_blocks blocks per checksum group (G)
    offset 58        u16  reserved (0)
    offset 60        u32  ngroups      == ceil(nblocks / G)
    offset 64        ngroups x { u32 group_crc, u64 group_payload_len }
    offset 64+12n    u32  toc_crc      CRC32 of bytes [52, 64+12n)

``group_crc`` covers group *g*'s offset bytes followed by its payload
bytes; ``group_payload_len`` pins the group's payload extent so that a
corrupted offset byte inside one group cannot shift the byte boundaries
of any *other* group -- the property partial recovery and partial
retransmission rely on.  Amortized over the default 4096-block group the
section costs 12 bytes per >=4096 offset bytes (<0.3% of the offset
section alone, far below 0.1% of a typical stream).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.obs import trace as obs_trace

from .errors import StreamFormatError

MAGIC = b"CSZ2"
#: Stream format version written by :func:`assemble` (and ``compress``).
VERSION = 2
#: The checksum-free legacy version; still fully readable.
V1 = 1
SUPPORTED_VERSIONS = (V1, VERSION)

HEADER_FMT = "<4sBBBBHHQd3Q"
HEADER_SIZE = struct.calcsize(HEADER_FMT)

#: Blocks per checksum group (G).  One CRC32 + one u64 length per group.
DEFAULT_GROUP_BLOCKS = 4096

INTEGRITY_FIXED_FMT = "<IHHI"  # header_crc, group_blocks, reserved, ngroups
INTEGRITY_FIXED_SIZE = struct.calcsize(INTEGRITY_FIXED_FMT)
GROUP_RECORD_FMT = "<IQ"  # group_crc, group_payload_len
GROUP_RECORD_SIZE = struct.calcsize(GROUP_RECORD_FMT)
TOC_CRC_SIZE = 4

DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
CODE_DTYPES = {0: np.dtype(np.float32), 1: np.dtype(np.float64)}


def crc32(*parts) -> int:
    """CRC32 chained over byte-like parts (uint8 arrays or bytes)."""
    c = 0
    for p in parts:
        if isinstance(p, np.ndarray):
            p = np.ascontiguousarray(p, dtype=np.uint8)
        c = zlib.crc32(p, c)
    return c & 0xFFFFFFFF


def integrity_section_size(ngroups: int) -> int:
    """Total v2 integrity-section bytes for ``ngroups`` block groups."""
    return INTEGRITY_FIXED_SIZE + ngroups * GROUP_RECORD_SIZE + TOC_CRC_SIZE


@dataclass(frozen=True)
class IntegritySection:
    """Decoded v2 integrity section (checksum TOC)."""

    header_crc: int
    group_blocks: int
    ngroups: int
    group_crcs: np.ndarray  # uint32, shape (ngroups,)
    group_lengths: np.ndarray  # int64 payload bytes per group
    toc_crc: int
    size: int  # total section bytes, including the trailing toc_crc

    def payload_bounds(self) -> np.ndarray:
        """Exclusive prefix sum of group payload lengths (ngroups+1)."""
        return np.concatenate([[0], np.cumsum(self.group_lengths)]).astype(np.int64)


@dataclass(frozen=True)
class StreamHeader:
    """Decoded header fields of a cuSZp2 stream."""

    mode: int  # 0 = Plain-FLE (CUSZP2-P), 1 = Outlier-FLE (CUSZP2-O)
    dtype: np.dtype
    predictor_ndim: int  # 1, 2 or 3
    block: int  # elements per block (L)
    nelems: int
    eb_abs: float  # resolved absolute error bound
    dims: Tuple[int, ...]  # logical field shape (padded with 1s to 3 axes)
    version: int = VERSION  # container version this header was read from / packs as

    @property
    def nblocks(self) -> int:
        if self.predictor_ndim == 1:
            return -(-self.nelems // self.block)
        t = round(self.block ** (1.0 / self.predictor_ndim))
        n = 1
        for s in self.dims[: self.predictor_ndim]:
            n *= -(-s // t)
        return n

    def pack(self) -> bytes:
        dims3 = tuple(self.dims) + (1,) * (3 - len(self.dims))
        return struct.pack(
            HEADER_FMT,
            MAGIC,
            self.version,
            self.mode,
            DTYPE_CODES[np.dtype(self.dtype)],
            self.predictor_ndim,
            self.block,
            0,  # reserved
            self.nelems,
            self.eb_abs,
            *dims3,
        )

    @classmethod
    def unpack(cls, buf: np.ndarray) -> "StreamHeader":
        if buf.size < HEADER_SIZE:
            raise StreamFormatError(
                f"stream is {buf.size} bytes but the header occupies bytes "
                f"[0, {HEADER_SIZE})"
            )
        fields = struct.unpack(HEADER_FMT, buf[:HEADER_SIZE].tobytes())
        magic, version, mode, dtype_code, ndim, block, _res, nelems, eb, d0, d1, d2 = fields
        if magic != MAGIC:
            raise StreamFormatError(
                f"bad magic {magic!r} at byte offset 0 (expected {MAGIC!r}); "
                "not a cuSZp2 stream"
            )
        if version not in SUPPORTED_VERSIONS:
            raise StreamFormatError(
                f"unsupported stream version {version} at byte offset 4 "
                f"(supported: {', '.join(str(v) for v in SUPPORTED_VERSIONS)})"
            )
        if dtype_code not in CODE_DTYPES:
            raise StreamFormatError(
                f"unknown dtype code {dtype_code} at byte offset 6 (expected 0 or 1)"
            )
        if mode not in (0, 1):
            raise StreamFormatError(
                f"unknown mode {mode} at byte offset 5 (expected 0 or 1)"
            )
        if ndim not in (1, 2, 3):
            raise StreamFormatError(
                f"unsupported predictor dimensionality {ndim} at byte offset 7 "
                "(expected 1, 2 or 3)"
            )
        if block == 0 or block % 8:
            raise StreamFormatError(
                f"block size {block} at byte offset 8 must be a positive multiple of 8"
            )
        if eb <= 0 or not np.isfinite(eb):
            raise StreamFormatError(
                f"stored error bound {eb!r} at byte offset 20 is not positive/finite"
            )
        # Keep the full logical shape (the caller's array shape), trimming
        # only trailing padding 1s beyond the predictor's dimensionality.
        dims = [int(d) for d in (d0, d1, d2)]
        while len(dims) > max(ndim, 1) and dims[-1] == 1:
            dims.pop()
        prod = 1
        for d in dims:
            prod *= d
        if prod != nelems:
            raise StreamFormatError(
                f"header inconsistency: dims {tuple(dims)} (byte offset 28) describe "
                f"{prod} elements but the element count (byte offset 12) says {nelems}"
            )
        return cls(mode, CODE_DTYPES[dtype_code], ndim, block, nelems, eb, tuple(dims), version)


# ---------------------------------------------------------------------------
# Integrity section pack/parse
# ---------------------------------------------------------------------------

def _group_geometry(nblocks: int, group_blocks: int) -> int:
    if group_blocks <= 0 or group_blocks > 0xFFFF:
        raise StreamFormatError(
            f"blocks-per-group {group_blocks} must be in [1, 65535]"
        )
    return -(-nblocks // group_blocks) if nblocks else 0


def group_payload_lengths(
    offsets: np.ndarray, block: int, group_blocks: int
) -> np.ndarray:
    """Payload bytes per checksum group, derived from the offset bytes."""
    from . import fle  # local import: fle does not import stream

    _group_geometry(offsets.size, group_blocks)  # validates group_blocks
    sizes = fle.block_payload_sizes(offsets, block)
    return np.add.reduceat(sizes, np.arange(0, sizes.size, group_blocks))


def build_integrity_section(
    header_bytes: np.ndarray,
    offsets: np.ndarray,
    payload: np.ndarray,
    group_blocks: int = DEFAULT_GROUP_BLOCKS,
    block: Optional[int] = None,
) -> bytes:
    """Compute the v2 integrity section for ``header + offsets + payload``."""
    if block is None:
        block = int(struct.unpack("<H", bytes(header_bytes[8:10]))[0])
    lens = group_payload_lengths(offsets, block, group_blocks)
    ngroups = lens.size
    bounds = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
    if int(bounds[-1]) != payload.size:
        raise StreamFormatError(
            f"offset bytes describe {int(bounds[-1])} payload bytes but the "
            f"payload holds {payload.size}"
        )
    toc = bytearray()
    toc += struct.pack(
        INTEGRITY_FIXED_FMT, crc32(header_bytes), group_blocks, 0, ngroups
    )
    for g in range(ngroups):
        gcrc = crc32(
            offsets[g * group_blocks : (g + 1) * group_blocks],
            payload[bounds[g] : bounds[g + 1]],
        )
        toc += struct.pack(GROUP_RECORD_FMT, gcrc, int(lens[g]))
    toc += struct.pack("<I", crc32(bytes(toc)))
    return bytes(toc)


def parse_integrity_section(buf: np.ndarray, nblocks: int) -> IntegritySection:
    """Parse (without verifying) the integrity section of a v2 stream."""
    fixed_end = HEADER_SIZE + INTEGRITY_FIXED_SIZE
    if buf.size < fixed_end:
        raise StreamFormatError(
            f"stream truncated inside the integrity section: bytes "
            f"[{HEADER_SIZE}, {fixed_end}) needed, stream ends at {buf.size}"
        )
    header_crc, group_blocks, _res, ngroups = struct.unpack(
        INTEGRITY_FIXED_FMT, buf[HEADER_SIZE:fixed_end].tobytes()
    )
    if group_blocks == 0:
        raise StreamFormatError(
            f"blocks-per-group is 0 at byte offset {HEADER_SIZE + 4}"
        )
    expected_groups = _group_geometry(nblocks, group_blocks)
    if ngroups != expected_groups:
        raise StreamFormatError(
            f"integrity section at byte offset {HEADER_SIZE + 8} declares "
            f"{ngroups} checksum groups but {nblocks} blocks at {group_blocks} "
            f"blocks/group need {expected_groups}"
        )
    size = integrity_section_size(ngroups)
    end = HEADER_SIZE + size
    if buf.size < end:
        raise StreamFormatError(
            f"stream truncated inside the integrity section: need bytes "
            f"[{HEADER_SIZE}, {end}) for {ngroups} group records, stream ends "
            f"at {buf.size}"
        )
    records = (
        buf[fixed_end : end - TOC_CRC_SIZE]
        .reshape(ngroups, GROUP_RECORD_SIZE)
        .copy()
    )
    group_crcs = records[:, :4].copy().view("<u4").reshape(-1)
    group_lengths = records[:, 4:].copy().view("<u8").reshape(-1).astype(np.int64)
    (toc_crc,) = struct.unpack("<I", buf[end - TOC_CRC_SIZE : end].tobytes())
    return IntegritySection(
        header_crc=int(header_crc),
        group_blocks=int(group_blocks),
        ngroups=int(ngroups),
        group_crcs=group_crcs,
        group_lengths=group_lengths,
        toc_crc=int(toc_crc),
        size=size,
    )


def reseal(buf: np.ndarray) -> np.ndarray:
    """Recompute the header CRC and TOC CRC of a v2 stream in place.

    Must be called after any in-place header mutation (e.g. the orig-ndim
    stamp ``compress`` writes into the reserved field).  No-op for v1.
    """
    if buf.size < HEADER_SIZE or buf[4] != VERSION:
        return buf
    buf[HEADER_SIZE : HEADER_SIZE + 4] = np.frombuffer(
        struct.pack("<I", crc32(buf[:HEADER_SIZE])), dtype=np.uint8
    )
    header = StreamHeader.unpack(buf)
    section = parse_integrity_section(buf, header.nblocks)
    toc_end = HEADER_SIZE + section.size
    buf[toc_end - TOC_CRC_SIZE : toc_end] = np.frombuffer(
        struct.pack("<I", crc32(buf[HEADER_SIZE : toc_end - TOC_CRC_SIZE])),
        dtype=np.uint8,
    )
    return buf


# ---------------------------------------------------------------------------
# Assemble / split
# ---------------------------------------------------------------------------

def assemble(
    header: StreamHeader,
    offsets: np.ndarray,
    payload: np.ndarray,
    group_blocks: int = DEFAULT_GROUP_BLOCKS,
) -> np.ndarray:
    """Concatenate header + (v2: integrity section) + offset bytes + payload
    into one uint8 array (the 'single, unified byte array' the paper's Block
    Concatenation step produces)."""
    head = np.frombuffer(header.pack(), dtype=np.uint8)
    offsets = offsets.astype(np.uint8)
    payload = payload.astype(np.uint8)
    if header.version == V1:
        with obs_trace.maybe_span("codec.pack"):
            return np.concatenate([head, offsets, payload])
    with obs_trace.maybe_span("codec.scan"):
        toc = np.frombuffer(
            build_integrity_section(head, offsets, payload, group_blocks, header.block),
            dtype=np.uint8,
        )
    with obs_trace.maybe_span("codec.pack"):
        return np.concatenate([head, toc, offsets, payload])


def as_stream_bytes(buf) -> np.ndarray:
    """``buf`` as the 1-D uint8 array every stream reader parses: bytes-like
    input as a uint8 array of its bytes, a 1-D uint8 ndarray as it is, and
    any other ndarray rejected with :class:`StreamFormatError`."""
    if not isinstance(buf, np.ndarray):
        return np.frombuffer(bytes(buf), dtype=np.uint8)
    if buf.dtype != np.uint8 or buf.ndim != 1:
        raise StreamFormatError(
            f"stream must be a 1-D uint8 array, got dtype {buf.dtype} "
            f"with shape {buf.shape}"
        )
    return buf


def split_ex(
    buf,
) -> Tuple[StreamHeader, Optional[IntegritySection], np.ndarray, np.ndarray]:
    """Parse a stream into ``(header, integrity_section, offsets, payload)``.

    ``integrity_section`` is ``None`` for v1 streams.  This performs layout
    parsing only; checksum *verification* lives in
    :mod:`repro.core.integrity`.
    """
    buf = as_stream_bytes(buf)
    header = StreamHeader.unpack(buf)
    nblocks = header.nblocks
    section = None
    off_start = HEADER_SIZE
    if header.version >= VERSION:
        section = parse_integrity_section(buf, nblocks)
        off_start += section.size
    off_end = off_start + nblocks
    if buf.size < off_end:
        raise StreamFormatError(
            f"stream truncated in the offset section at bytes "
            f"[{off_start}, {off_end}): need {nblocks} offset bytes, have "
            f"{max(buf.size - off_start, 0)}"
        )
    return header, section, buf[off_start:off_end], buf[off_end:]


def split(buf) -> Tuple[StreamHeader, np.ndarray, np.ndarray]:
    """Parse a stream into ``(header, offset_bytes, payload)`` views."""
    header, _section, offsets, payload = split_ex(buf)
    return header, offsets, payload


def offsets_start(header: StreamHeader, section: Optional[IntegritySection]) -> int:
    """Byte offset where the offset section begins for this stream."""
    return HEADER_SIZE + (section.size if section is not None else 0)


# ---------------------------------------------------------------------------
# Group-aligned chunk boundaries (for the chunked streaming engine)
# ---------------------------------------------------------------------------
#
# A stream can be split into independently decodable sub-streams as long as
# every cut lands on a block boundary: the 1-D predictor differences within
# each block only (the first element of a block is stored raw), so a block's
# bytes never depend on its neighbours.  Aligning cuts further, to a whole
# checksum *group* (block * group_blocks elements), keeps each sub-stream's
# integrity section congruent with the groups the monolithic stream would
# have had -- which is what lets chunk-level retransmission and recovery
# compose with the v2 machinery.

def chunk_granule(block: int, group_blocks: int = DEFAULT_GROUP_BLOCKS) -> int:
    """Elements per checksum group: the atomic unit of chunk alignment."""
    if block <= 0 or block % 8:
        raise StreamFormatError(
            f"block size {block} must be a positive multiple of 8"
        )
    _group_geometry(0, group_blocks)  # validates group_blocks range
    return block * group_blocks


def aligned_chunk_elems(
    requested_elems: int,
    block: int,
    group_blocks: int = DEFAULT_GROUP_BLOCKS,
) -> int:
    """Largest group-aligned chunk size not exceeding ``requested_elems``
    (but never smaller than one group, the minimum self-contained unit)."""
    granule = chunk_granule(block, group_blocks)
    return max(requested_elems // granule, 1) * granule


def chunk_spans(
    nelems: int,
    chunk_elems: int,
    block: int,
    group_blocks: int = DEFAULT_GROUP_BLOCKS,
) -> list:
    """Half-open ``(lo, hi)`` element spans covering ``[0, nelems)``.

    Every span except the last holds exactly ``chunk_elems`` elements
    (rounded to group alignment); each span compresses into a
    self-contained v2 stream that decodes to exactly the same bytes the
    monolithic stream would produce for those elements.
    """
    if nelems < 0:
        raise StreamFormatError(f"element count must be >= 0, got {nelems}")
    step = aligned_chunk_elems(chunk_elems, block, group_blocks)
    return [(lo, min(lo + step, nelems)) for lo in range(0, nelems, step)]
