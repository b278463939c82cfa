"""Chunked streaming engine: bounded-memory codec over independent chunks.

Every codec runs here through the :mod:`repro.codecs` plugin contract
alone.  The plugin owns its stream format, so it also owns the rule for
splitting a field (:meth:`~repro.codecs.CompressorPlugin.chunk_spans`):
the core codec splits on checksum-group boundaries (1-D predictor) or
Lorenzo-tile rows (2-D/3-D), every other codec keeps the field whole.
Each chunk is compressed into its *own* self-contained stream.  Three
properties follow:

* **bounded memory** -- compression touches one chunk of input and one
  chunk of output at a time, so peak RSS tracks the chunk size, not the
  field size;
* **bit-identical output** -- the codec's blocks are independent (each
  block's first element is stored raw, differences never cross block
  boundaries) and the error bound is resolved *once against the whole
  field*, so decoding the chunks and concatenating reproduces exactly the
  bytes the monolithic stream would decode to;
* **worker parallelism** -- a chunk is a complete codec job with no shared
  state, which is what lets :mod:`repro.serve.pool` fan chunks out over
  processes.

The chunk streams plus a manifest serialize into a ``CSZ2CHNK`` container
(:meth:`ChunkedStream.to_bytes`) that round-trips through files and
sockets; each chunk remains individually decodable and carries its own
CRC32 in the manifest.  :func:`resolve_options`, :func:`plan`,
:func:`assemble` and :func:`join` are shared with
:class:`~repro.serve.service.CompressionService`, so a service request
and :func:`compress_chunked` produce the same bytes, and a service decode
and :func:`decompress_chunked` check a container the same way.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import codecs as _codecs
from repro.core import stream as _stream
from repro.core.compressor import DEFAULT_BLOCK
from repro.core.errors import InvalidInputError, StreamFormatError
from repro.core.quantize import ErrorBound, validate_input
from repro.obs import trace as obs_trace

from .pool import register_task

CHUNK_MAGIC = b"CSZ2CHNK"
CONTAINER_VERSION = 1
_FIXED_FMT = "<8sHHIQ"  # magic, version, reserved, nchunks, meta_len
_FIXED_SIZE = struct.calcsize(_FIXED_FMT)
_CRC_SIZE = 4

RAW_MAGIC = b"CSZ2RAW1"
_RAW_FMT = "<8sHHQ"  # magic, version, reserved, meta_len
_RAW_SIZE = struct.calcsize(_RAW_FMT)

#: Default chunk size: large enough to amortize per-chunk header overhead
#: to noise, small enough that a handful of in-flight chunks stay cheap.
DEFAULT_CHUNK_BYTES = 32 << 20


# ---------------------------------------------------------------------------
# Manifest + container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChunkEntry:
    """One chunk's extent in the field and in the container."""

    nelems: int  # elements ("flat") or axis-0 rows ("rows")
    nbytes: int  # compressed stream bytes
    crc32: int  # CRC32 of the chunk's stream bytes
    #: True when the chunk is a raw-passthrough payload (``CSZ2RAW1``):
    #: the resilience chain exhausted every compressed tier and stored
    #: the chunk uncompressed.  Flagged here so degradation is visible
    #: in the container itself, not just in service metrics.
    raw: bool = False


@dataclass(frozen=True)
class ChunkManifest:
    """Everything needed to reassemble (or partially decode) the field."""

    shape: Tuple[int, ...]
    dtype: str
    mode: str
    predictor_ndim: int
    block: int
    group_blocks: int
    eb_abs: float
    axis: str  # "flat" | "rows"
    entries: Tuple[ChunkEntry, ...] = field(default_factory=tuple)

    def to_json(self) -> str:
        return json.dumps(
            {
                "shape": list(self.shape),
                "dtype": self.dtype,
                "mode": self.mode,
                "predictor_ndim": self.predictor_ndim,
                "block": self.block,
                "group_blocks": self.group_blocks,
                # hex round-trips the float exactly (JSON decimal may not)
                "eb_abs": float(self.eb_abs).hex(),
                "axis": self.axis,
                # the "raw" key is emitted only when set, keeping the JSON
                # (and the golden container fixtures) byte-identical for
                # fully compressed streams
                "chunks": [
                    dict(
                        {"nelems": e.nelems, "nbytes": e.nbytes, "crc32": e.crc32},
                        **({"raw": True} if e.raw else {}),
                    )
                    for e in self.entries
                ],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "ChunkManifest":
        d = json.loads(text)
        return cls(
            shape=tuple(d["shape"]),
            dtype=d["dtype"],
            mode=d["mode"],
            predictor_ndim=int(d["predictor_ndim"]),
            block=int(d["block"]),
            group_blocks=int(d["group_blocks"]),
            eb_abs=float.fromhex(d["eb_abs"]),
            axis=d["axis"],
            entries=tuple(
                ChunkEntry(
                    int(c["nelems"]), int(c["nbytes"]), int(c["crc32"]),
                    raw=bool(c.get("raw", False)),
                )
                for c in d["chunks"]
            ),
        )


class ChunkedStream:
    """A compressed field as independent chunk streams plus a manifest."""

    def __init__(self, manifest: ChunkManifest, chunks: Sequence[np.ndarray]):
        if len(chunks) != len(manifest.entries):
            raise StreamFormatError(
                f"manifest lists {len(manifest.entries)} chunks, got {len(chunks)}"
            )
        self.manifest = manifest
        self.chunks = [np.asarray(c, dtype=np.uint8) for c in chunks]

    @property
    def nchunks(self) -> int:
        return len(self.chunks)

    @property
    def compressed_bytes(self) -> int:
        return sum(c.size for c in self.chunks)

    @property
    def container_bytes(self) -> int:
        meta = self.manifest.to_json().encode()
        return _FIXED_SIZE + len(meta) + _CRC_SIZE + self.compressed_bytes

    def decompress(self, pool=None) -> np.ndarray:
        return decompress_chunked(self, pool=pool)

    # -- differential-testing seam ------------------------------------------
    #
    # repro.qa compares chunked output against the monolithic codec chunk
    # by chunk; these accessors expose the container's internals without
    # going through a full reassembling decode.

    def verify(self) -> List[int]:
        """CRC-check every chunk stream against its manifest entry; returns
        the indices of damaged chunks (empty = container intact)."""
        bad = []
        for i, (entry, chunk) in enumerate(zip(self.manifest.entries, self.chunks)):
            if (
                int(chunk.size) != entry.nbytes
                or (zlib.crc32(chunk.tobytes()) & 0xFFFFFFFF) != entry.crc32
            ):
                bad.append(i)
        return bad

    def decode_chunk(self, i: int) -> np.ndarray:
        """Decode chunk ``i`` in isolation (flat elements for axis="flat",
        axis-0 rows for axis="rows")."""
        return decompress_chunk(self.chunks[i])

    def element_spans(self) -> List[Tuple[int, int]]:
        """Flat element range ``[lo, hi)`` each chunk covers in the field."""
        m = self.manifest
        nelems = 1
        for s in m.shape:
            nelems *= int(s)
        per_row = nelems // m.shape[0] if m.axis == "rows" else 1
        spans, pos = [], 0
        for e in m.entries:
            n = e.nelems * per_row
            spans.append((pos, pos + n))
            pos += n
        return spans

    # -- serialization ------------------------------------------------------

    def to_bytes(self) -> np.ndarray:
        meta = self.manifest.to_json().encode()
        head = struct.pack(
            _FIXED_FMT, CHUNK_MAGIC, CONTAINER_VERSION, 0, self.nchunks, len(meta)
        )
        prefix = head + meta
        crc = struct.pack("<I", zlib.crc32(prefix) & 0xFFFFFFFF)
        return np.concatenate(
            [np.frombuffer(prefix + crc, dtype=np.uint8)] + self.chunks
        )

    @classmethod
    def from_bytes(cls, buf) -> "ChunkedStream":
        if not isinstance(buf, np.ndarray):
            buf = np.frombuffer(bytes(buf), dtype=np.uint8)
        if buf.dtype != np.uint8:
            raise StreamFormatError(f"container must be uint8 bytes, got {buf.dtype}")
        if buf.size < _FIXED_SIZE:
            raise StreamFormatError(
                f"container is {buf.size} bytes, the fixed header needs {_FIXED_SIZE}"
            )
        magic, version, _res, nchunks, meta_len = struct.unpack(
            _FIXED_FMT, buf[:_FIXED_SIZE].tobytes()
        )
        if magic != CHUNK_MAGIC:
            raise StreamFormatError(
                f"bad magic {magic!r} at byte offset 0 (expected {CHUNK_MAGIC!r}); "
                "not a chunked cuSZp2 container"
            )
        if version != CONTAINER_VERSION:
            raise StreamFormatError(f"unsupported container version {version}")
        meta_end = _FIXED_SIZE + meta_len
        if buf.size < meta_end + _CRC_SIZE:
            raise StreamFormatError("container truncated inside the manifest")
        (crc,) = struct.unpack(
            "<I", buf[meta_end : meta_end + _CRC_SIZE].tobytes()
        )
        if crc != (zlib.crc32(buf[:meta_end].tobytes()) & 0xFFFFFFFF):
            raise StreamFormatError("container manifest failed its CRC32 check")
        manifest = ChunkManifest.from_json(buf[_FIXED_SIZE:meta_end].tobytes().decode())
        if len(manifest.entries) != nchunks:
            raise StreamFormatError(
                f"fixed header declares {nchunks} chunks, manifest lists "
                f"{len(manifest.entries)}"
            )
        chunks = []
        pos = meta_end + _CRC_SIZE
        for i, entry in enumerate(manifest.entries):
            end = pos + entry.nbytes
            if buf.size < end:
                raise StreamFormatError(
                    f"container truncated inside chunk {i}: bytes [{pos}, {end}) "
                    f"needed, container ends at {buf.size}"
                )
            chunks.append(buf[pos:end])
            pos = end
        return cls(manifest, chunks)


def is_chunked(buf) -> bool:
    """Does ``buf`` start with the chunked-container magic?"""
    if isinstance(buf, np.ndarray):
        head = buf[: len(CHUNK_MAGIC)].tobytes()
    else:
        head = bytes(buf[: len(CHUNK_MAGIC)])
    return head == CHUNK_MAGIC


# ---------------------------------------------------------------------------
# Raw passthrough (graceful-degradation floor)
# ---------------------------------------------------------------------------

def is_raw(buf) -> bool:
    """Does ``buf`` start with the raw-passthrough magic?"""
    if isinstance(buf, np.ndarray):
        head = buf[: len(RAW_MAGIC)].tobytes()
    else:
        head = bytes(buf[: len(RAW_MAGIC)])
    return head == RAW_MAGIC


def raw_to_bytes(data: np.ndarray) -> np.ndarray:
    """Store ``data`` uncompressed in a self-describing ``CSZ2RAW1``
    container (the last rung of the degradation chain: correctness with a
    compression ratio of ~1).  The payload carries its own CRC32 so
    transport corruption of a degraded result is still detected."""
    data = np.ascontiguousarray(data)
    payload = data.tobytes()
    meta = json.dumps(
        {
            "shape": list(data.shape),
            "dtype": np.dtype(data.dtype).name,
            "crc32": zlib.crc32(payload) & 0xFFFFFFFF,
        }
    ).encode()
    head = struct.pack(_RAW_FMT, RAW_MAGIC, 1, 0, len(meta))
    return np.frombuffer(head + meta + payload, dtype=np.uint8)


def raw_from_bytes(buf) -> np.ndarray:
    """Decode a ``CSZ2RAW1`` container back to its array (CRC-checked)."""
    if not isinstance(buf, np.ndarray):
        buf = np.frombuffer(bytes(buf), dtype=np.uint8)
    if buf.size < _RAW_SIZE:
        raise StreamFormatError(
            f"raw container is {buf.size} bytes, the header needs {_RAW_SIZE}"
        )
    magic, version, _res, meta_len = struct.unpack(
        _RAW_FMT, buf[:_RAW_SIZE].tobytes()
    )
    if magic != RAW_MAGIC:
        raise StreamFormatError(f"bad raw-container magic {magic!r}")
    if version != 1:
        raise StreamFormatError(f"unsupported raw-container version {version}")
    meta_end = _RAW_SIZE + meta_len
    if buf.size < meta_end:
        raise StreamFormatError("raw container truncated inside its metadata")
    try:
        meta = json.loads(buf[_RAW_SIZE:meta_end].tobytes().decode())
        shape = tuple(int(s) for s in meta["shape"])
        dtype = np.dtype(meta["dtype"])
        crc = int(meta["crc32"])
    except (ValueError, KeyError, TypeError) as e:
        raise StreamFormatError(f"raw container metadata unparseable: {e!r}") from None
    payload = buf[meta_end:].tobytes()
    nelems = 1
    for s in shape:
        nelems *= s
    if len(payload) != nelems * dtype.itemsize:
        raise StreamFormatError(
            f"raw container payload is {len(payload)} bytes, metadata "
            f"declares {nelems * dtype.itemsize}"
        )
    if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
        from repro.core.errors import IntegrityError

        raise IntegrityError("raw container payload failed its CRC32 check")
    return np.frombuffer(payload, dtype=dtype).reshape(shape).copy()


# ---------------------------------------------------------------------------
# Pool task functions (registered by name so process workers resolve them)
# ---------------------------------------------------------------------------

@register_task("chunk.compress")
def compress_chunk(arg: dict) -> np.ndarray:
    """Compress one chunk (or a whole field) through its codec plugin.
    The task dict is ``{"data": ndarray, "codec": name, "opts": {...}}``
    with the options from :func:`resolve_options`."""
    data = arg["data"]
    with obs_trace.maybe_span(
        "chunk.compress", bytes_in=int(data.nbytes), codec=arg["codec"]
    ) as sp:
        out = _codecs.resolve(arg["codec"]).compress(data, **arg["opts"])
        if sp is not None:
            sp.set(bytes_out=int(out.size))
        return out


@register_task("chunk.decompress")
def decompress_chunk(arg) -> np.ndarray:
    """Decompress one self-contained stream (or decode a raw-passthrough
    chunk emitted by the degradation chain); ``arg`` is the stream bytes.

    Streams sniff through the :mod:`repro.codecs` plugin registry, so a
    service decodes any registered codec's output without being told
    which codec made it."""
    nbytes = int(arg.size) if isinstance(arg, np.ndarray) else len(arg)
    with obs_trace.maybe_span("chunk.decompress", bytes_in=nbytes) as sp:
        out = raw_from_bytes(arg) if is_raw(arg) else _codecs.decode(arg)
        if sp is not None:
            sp.set(bytes_out=int(out.nbytes))
        return out


# ---------------------------------------------------------------------------
# Engine: option resolution, planning, assembly
# ---------------------------------------------------------------------------

def resolve_options(
    plugin,
    data: np.ndarray,
    rel: Optional[float],
    abs: Optional[float],  # noqa: A002 - mirrors repro.compress
    opts,
) -> Dict[str, Any]:
    """The validated options every chunk of ``data`` is compressed with.

    Merges the error bound into ``opts`` and validates them against the
    plugin's schema, so a bounded plugin needs exactly one bound and a
    fixed-rate plugin rejects any (``has no option 'rel'``), as
    :func:`repro.codecs.encode` does.  Then checks the input with one
    min/max scan.  A REL bound is resolved once, against the *whole*
    field, into ABS: every chunk quantizes with the same step, so the
    chunks decode to exactly the bytes the whole-field stream would."""
    opts = dict(opts)
    if plugin.bounded and (rel is None) == (abs is None):
        raise InvalidInputError("specify exactly one of rel= or abs=")
    for key, value in (("rel", rel), ("abs", abs)):
        if value is not None:
            opts[key] = value
    opts = plugin.validate_options(opts)
    flat, lo, hi = validate_input(data, return_minmax=True)
    if plugin.bounded:
        eb = (
            ErrorBound.relative(opts.pop("rel")) if "rel" in opts
            else ErrorBound.absolute(opts["abs"])
        )
        opts["abs"] = eb.resolve(flat, (lo, hi))
    return opts


def plan(
    plugin,
    data: np.ndarray,
    opts: Dict[str, Any],
    chunk_bytes: int,
    chunk_elems: Optional[int] = None,
) -> Tuple[List[Tuple[int, int]], str]:
    """``(spans, axis)`` from the plugin's split rule, for chunks of
    ``chunk_elems`` elements (default: ``chunk_bytes`` of input)."""
    if chunk_elems is None:
        chunk_elems = max(chunk_bytes // data.dtype.itemsize, 1)
    return plugin.chunk_spans(tuple(data.shape), opts, chunk_elems)


def chunk_views(data: np.ndarray, spans, axis: str) -> List[np.ndarray]:
    if axis == "flat":
        flat = data.reshape(-1)
        return [flat[lo:hi] for lo, hi in spans]
    return [data[lo:hi] for lo, hi in spans]


def assemble(data: np.ndarray, opts: Dict[str, Any], spans, axis: str, streams) -> ChunkedStream:
    """Frame the chunk ``streams`` of ``data`` -- compressed under ``opts``
    over ``spans`` -- as one container; raw-passthrough chunks (the
    degradation floor) are flagged in their manifest entries."""
    entries = tuple(
        ChunkEntry(
            nelems=hi - lo,
            nbytes=int(s.size),
            crc32=zlib.crc32(s.tobytes()) & 0xFFFFFFFF,
            raw=is_raw(s),
        )
        for (lo, hi), s in zip(spans, streams)
    )
    manifest = ChunkManifest(
        shape=tuple(data.shape),
        dtype=np.dtype(data.dtype).name,
        mode=opts["mode"],
        predictor_ndim=opts["predictor_ndim"],
        block=opts["block"],
        group_blocks=opts["group_blocks"],
        eb_abs=opts["abs"],
        axis=axis,
        entries=entries,
    )
    return ChunkedStream(manifest, streams)


def join(manifest: ChunkManifest, parts: Sequence[np.ndarray]) -> np.ndarray:
    """Reassemble decoded chunk ``parts`` into the field ``manifest``
    describes.  A chunk that decoded to another dtype than the manifest
    records is a :class:`StreamFormatError`."""
    for i, part in enumerate(parts):
        if part.dtype.name != manifest.dtype:
            raise StreamFormatError(
                f"chunk {i} decoded to {part.dtype}, manifest says {manifest.dtype}"
            )
    if manifest.axis == "flat":
        out = np.concatenate([p.reshape(-1) for p in parts])
    else:
        out = np.concatenate(parts, axis=0)
    return out.reshape(manifest.shape)


def compress_chunked(
    data: np.ndarray,
    rel: Optional[float] = None,
    abs: Optional[float] = None,  # noqa: A002 - mirrors repro.compress
    mode: str = "outlier",
    block: int = DEFAULT_BLOCK,
    predictor_ndim: int = 1,
    group_blocks: int = _stream.DEFAULT_GROUP_BLOCKS,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    chunk_elems: Optional[int] = None,
    pool=None,
) -> ChunkedStream:
    """Compress ``data`` chunk by chunk into a :class:`ChunkedStream`.

    The REL bound is resolved against the *whole* field before chunking
    (each chunk is then compressed under the same ABS bound), so the
    decoded result is bit-identical to the monolithic codec's.  Pass a
    :class:`~repro.serve.pool.WorkerPool` to compress chunks in parallel.
    """
    data = np.asarray(data)
    plugin = _codecs.resolve(_codecs.DEFAULT_CODEC)
    opts = resolve_options(plugin, data, rel, abs, {
        "mode": mode, "block": block,
        "predictor_ndim": predictor_ndim, "group_blocks": group_blocks,
    })
    spans, axis = plan(plugin, data, opts, chunk_bytes, chunk_elems)
    args = [
        {"data": view, "codec": plugin.name, "opts": opts}
        for view in chunk_views(data, spans, axis)
    ]
    if pool is not None:
        streams = pool.map("chunk.compress", args)
    else:
        streams = [compress_chunk(a) for a in args]
    return assemble(data, opts, spans, axis, streams)


def decompress_chunked(obj, pool=None) -> np.ndarray:
    """Decode a :class:`ChunkedStream` (or serialized container) back to
    the original field shape; chunks decode independently (optionally in
    parallel over ``pool``)."""
    chunked = obj if isinstance(obj, ChunkedStream) else ChunkedStream.from_bytes(obj)
    if pool is not None:
        parts = pool.map("chunk.decompress", chunked.chunks)
    else:
        parts = [decompress_chunk(c) for c in chunked.chunks]
    return join(chunked.manifest, parts)
