"""The CompressorPlugin registry: one contract over every codec.

libpressio wraps the cuSZ-family codecs behind a uniform
options/compress/decompress plugin API (SNIPPETS.md snippet 3); this module
is the Python equivalent.  Every plugin -- the core cuSZp2 codec and all
six ``repro.baselines`` -- answers the same contract:

* ``compress(ndarray, **opts) -> uint8 stream``: accepts a float32/float64
  array of any dimensionality up to ``max_ndim``, validates its options
  against a declared :class:`OptionSpec` schema, and raises only classified
  :class:`~repro.core.errors.CuSZp2Error` subclasses.
* ``decompress(stream) -> ndarray``: restores the original dtype *and*
  shape, again answering only classified errors.
* ``chunk_spans(shape, opts, chunk_elems) -> (spans, axis)``: where a
  field may be split into independently compressed chunks.  The plugin
  owns its stream format, so it alone knows which splits decode
  bit-identically; the default keeps the field whole.

Codecs whose own container does not record the caller's shape (the hybrid
baselines store a flat element count) are wrapped in a small shape
envelope, so the uniform contract holds without touching their stream
formats.  :func:`decode` sniffs the envelope and each plugin's raw magic,
so a stream can be decoded without knowing which codec produced it --
which is what lets the CLI, the serve workers, and the archive extractor
speak one dispatch path.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..core.errors import CuSZp2Error, InvalidInputError, StreamFormatError
from ..obs import trace as obs_trace

#: Default codec: the paper's own compressor.
DEFAULT_CODEC = "cuszp2"

#: Shape-envelope magic (6 bytes, disjoint from every codec's own magic).
ENVELOPE_MAGIC = b"CPLG1\x00"


def as_stream(buf) -> np.ndarray:
    """Normalize bytes-like input to a uint8 ndarray (zero-copy when
    already one)."""
    if isinstance(buf, np.ndarray):
        if buf.dtype != np.uint8:
            return buf.view(np.uint8) if buf.ndim == 1 else np.frombuffer(
                buf.tobytes(), dtype=np.uint8
            )
        return buf
    return np.frombuffer(bytes(buf), dtype=np.uint8)


# ---------------------------------------------------------------------------
# Option schema
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptionSpec:
    """One declared plugin option: type, default, and legal range.

    ``type`` is ``float``, ``int`` or ``str``.  String values are coerced
    (the CLI's ``--codec-opt k=v`` arrives as text); booleans are rejected
    for numeric options so ``True`` never silently means ``1``.
    """

    name: str
    type: type
    doc: str = ""
    default: Any = None
    choices: Optional[Tuple] = None
    minimum: Optional[float] = None

    def coerce(self, value):
        if isinstance(value, bool) and self.type is not str:
            raise InvalidInputError(
                f"option {self.name!r} expects {self.type.__name__}, got bool"
            )
        try:
            if self.type is int and isinstance(value, float) and value != int(value):
                raise ValueError(f"{value!r} is not an integer")
            value = self.type(value)
        except (TypeError, ValueError) as e:
            raise InvalidInputError(
                f"option {self.name!r} expects {self.type.__name__}, "
                f"got {value!r} ({e})"
            ) from None
        if self.choices is not None and value not in self.choices:
            raise InvalidInputError(
                f"option {self.name!r} must be one of {list(self.choices)}, got {value!r}"
            )
        if self.minimum is not None and value < self.minimum:
            raise InvalidInputError(
                f"option {self.name!r} must be >= {self.minimum}, got {value!r}"
            )
        return value


# ---------------------------------------------------------------------------
# Shape envelope
# ---------------------------------------------------------------------------

def _wrap_envelope(name: str, shape: Tuple[int, ...], payload: np.ndarray) -> np.ndarray:
    nb = name.encode("ascii")
    head = (
        ENVELOPE_MAGIC
        + struct.pack("<B", len(nb))
        + nb
        + struct.pack("<B", len(shape))
        + b"".join(struct.pack("<Q", int(d)) for d in shape)
        + struct.pack("<Q", int(payload.size))
    )
    return np.concatenate([np.frombuffer(head, dtype=np.uint8), payload])


def is_envelope(buf) -> bool:
    buf = as_stream(buf)
    return buf.size >= len(ENVELOPE_MAGIC) and bytes(buf[: len(ENVELOPE_MAGIC)]) == ENVELOPE_MAGIC


def _need(buf: np.ndarray, pos: int, n: int, what: str) -> None:
    if buf.size < pos + n:
        raise StreamFormatError(
            f"codec envelope truncated reading {what}: need bytes "
            f"[{pos}, {pos + n}), stream ends at {buf.size}"
        )


def _unwrap_envelope(buf: np.ndarray) -> Tuple[str, Tuple[int, ...], np.ndarray]:
    """``(codec name, original shape, payload view)`` of an enveloped stream."""
    pos = len(ENVELOPE_MAGIC)
    _need(buf, pos, 1, "codec name length")
    nlen = int(buf[pos])
    pos += 1
    _need(buf, pos, nlen, "codec name")
    try:
        name = bytes(buf[pos : pos + nlen]).decode("ascii")
    except UnicodeDecodeError:
        raise StreamFormatError("codec envelope name is not ASCII") from None
    pos += nlen
    _need(buf, pos, 1, "ndim")
    ndim = int(buf[pos])
    pos += 1
    _need(buf, pos, 8 * ndim, "shape dims")
    shape = tuple(
        struct.unpack("<Q", buf[pos + 8 * i : pos + 8 * (i + 1)].tobytes())[0]
        for i in range(ndim)
    )
    pos += 8 * ndim
    _need(buf, pos, 8, "payload length")
    (plen,) = struct.unpack("<Q", buf[pos : pos + 8].tobytes())
    pos += 8
    _need(buf, pos, plen, f"{name!r} payload")
    return name, shape, buf[pos : pos + plen]


# ---------------------------------------------------------------------------
# Plugin base class
# ---------------------------------------------------------------------------

class CompressorPlugin:
    """Base class every codec plugin derives from.

    Subclasses set the class attributes and implement ``_compress(arr,
    opts) -> uint8 stream`` / ``_decompress(payload) -> ndarray``.  The
    template methods below own the shared contract: input and option
    validation, classified-error conversion, tracing, and (for codecs
    whose stream does not record the caller's shape) the shape envelope.
    """

    #: Registry name (also the CLI ``--codec`` value).
    name: str = ""
    description: str = ""
    #: First bytes of the codec's raw stream, for :func:`sniff` dispatch.
    magic: Optional[bytes] = None
    #: True when ``_decompress`` restores the caller's shape itself; False
    #: wraps streams in the shape envelope.
    preserves_shape: bool = False
    #: True when the codec honors a rel/abs error bound (cuzfp is
    #: fixed-rate: the ratio is set by ``rate``, not a bound).
    bounded: bool = True
    #: Python-loop-heavy codec: fuzzers and the auto-tuner trial it on
    #: smaller samples.
    heavy: bool = False
    max_ndim: int = 3
    #: name -> :class:`OptionSpec`.
    options: Dict[str, OptionSpec] = {}

    # -- schema --------------------------------------------------------------

    def validate_options(self, opts: Mapping[str, Any]) -> Dict[str, Any]:
        """Coerce ``opts`` against the schema; unknown names, type
        mismatches, and a missing/double error bound all raise
        :class:`InvalidInputError`."""
        out: Dict[str, Any] = {}
        for key, value in opts.items():
            spec = self.options.get(key)
            if spec is None:
                raise InvalidInputError(
                    f"codec {self.name!r} has no option {key!r}; "
                    f"available: {sorted(self.options)}"
                )
            out[key] = spec.coerce(value)
        if self.bounded and ("rel" in out) == ("abs" in out):
            raise InvalidInputError(
                f"codec {self.name!r}: specify exactly one of rel= or abs="
            )
        for key, spec in self.options.items():
            if key not in out and spec.default is not None:
                out[key] = spec.default
        return out

    def chunk_spans(
        self, shape: Tuple[int, ...], opts: Mapping[str, Any], chunk_elems: int
    ) -> Tuple[List[Tuple[int, int]], str]:
        """Split plan for a field of ``shape`` compressed under the validated
        ``opts``, in chunks of about ``chunk_elems`` elements.

        Returns ``(spans, axis)``: ``axis`` is ``"flat"`` (spans are element
        ranges of the flattened field) or ``"rows"`` (ranges of axis-0
        rows).  The chunks must decode to exactly the bytes the whole-field
        stream decodes to, which only the stream format can promise, so the
        default is one span: the field stays whole.  A plan of more than one
        span is framed as a ``CSZ2CHNK`` container, whose manifest records
        cuSZp2's settings; only the core codec splits today.
        """
        return [(0, math.prod(int(s) for s in shape))], "flat"

    # -- template methods ----------------------------------------------------

    def _validate_input(self, data) -> np.ndarray:
        if not isinstance(data, np.ndarray):
            raise InvalidInputError(
                f"codec {self.name!r} expected a numpy array, got {type(data).__name__}"
            )
        if data.dtype not in (np.float32, np.float64):
            raise InvalidInputError(
                f"codec {self.name!r}: dtype must be float32 or float64, got {data.dtype}"
            )
        if data.size == 0:
            raise InvalidInputError(f"codec {self.name!r} cannot compress an empty array")
        if data.ndim > self.max_ndim:
            raise InvalidInputError(
                f"codec {self.name!r} supports up to {self.max_ndim} dimensions, "
                f"got {data.ndim}"
            )
        arr = np.ascontiguousarray(data)
        lo = float(np.min(arr))
        hi = float(np.max(arr))
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise InvalidInputError(
                f"codec {self.name!r}: input contains NaN or infinity; "
                "only finite data is compressible"
            )
        return arr

    def compress(self, data: np.ndarray, **opts) -> np.ndarray:
        """Validate input + options, run the codec, classify any escape."""
        opts = self.validate_options(opts)
        arr = self._validate_input(data)
        with obs_trace.maybe_span(
            f"codec.{self.name}.compress", bytes_in=int(arr.nbytes)
        ) as sp:
            try:
                payload = self._compress(arr, opts)
            except CuSZp2Error:
                raise
            except Exception as e:
                raise InvalidInputError(
                    f"codec {self.name!r} cannot compress this input: "
                    f"{type(e).__name__}: {e}"
                ) from e
            if not self.preserves_shape:
                payload = _wrap_envelope(self.name, tuple(arr.shape), payload)
            if sp is not None:
                sp.set(bytes_out=int(payload.size))
        return payload

    def decompress(self, buf) -> np.ndarray:
        """Decode a stream this plugin produced, restoring dtype + shape."""
        buf = as_stream(buf)
        shape: Optional[Tuple[int, ...]] = None
        if is_envelope(buf):
            name, shape, payload = _unwrap_envelope(buf)
            if name != self.name:
                raise StreamFormatError(
                    f"stream was produced by codec {name!r}, not {self.name!r}; "
                    "use repro.codecs.decode() to dispatch automatically"
                )
        else:
            if self.magic is not None and (
                buf.size < len(self.magic) or bytes(buf[: len(self.magic)]) != self.magic
            ):
                raise StreamFormatError(
                    f"stream does not start with codec {self.name!r}'s magic "
                    f"{self.magic!r} (got {bytes(buf[: len(self.magic)])!r})"
                )
            payload = buf
        with obs_trace.maybe_span(
            f"codec.{self.name}.decompress", bytes_in=int(buf.size)
        ) as sp:
            try:
                out = self._decompress(payload)
            except CuSZp2Error:
                raise
            except Exception as e:
                raise StreamFormatError(
                    f"codec {self.name!r} stream is malformed: {type(e).__name__}: {e}"
                ) from e
            if shape is not None:
                expected = 1
                for d in shape:
                    expected *= d
                if out.size != expected:
                    raise StreamFormatError(
                        f"codec {self.name!r} decoded {out.size} elements, envelope "
                        f"declares shape {shape} ({expected} elements)"
                    )
                out = out.reshape(shape)
            if sp is not None:
                sp.set(bytes_out=int(out.nbytes))
        return out

    # -- impl hooks ----------------------------------------------------------

    def _compress(self, arr: np.ndarray, opts: Dict[str, Any]) -> np.ndarray:
        raise NotImplementedError

    def _decompress(self, payload: np.ndarray) -> np.ndarray:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, CompressorPlugin] = {}


def register(plugin: CompressorPlugin, *, replace: bool = False) -> CompressorPlugin:
    """Register ``plugin`` under its ``name`` (registration order is the
    sniffing order).  Re-registering an existing name without
    ``replace=True`` is a programming error, not a codec error."""
    name = plugin.name
    if not name or not name.isascii():
        raise ValueError(f"plugin name must be non-empty ASCII, got {name!r}")
    if name in _REGISTRY and not replace:
        raise ValueError(f"codec {name!r} is already registered (pass replace=True)")
    _REGISTRY[name] = plugin
    return plugin


def unregister(name: str) -> None:
    _REGISTRY.pop(name, None)


def codec_names() -> List[str]:
    """Registered codec names in registration order."""
    return list(_REGISTRY)


def list_plugins() -> Dict[str, CompressorPlugin]:
    return dict(_REGISTRY)


def resolve(codec: Union[str, CompressorPlugin]) -> CompressorPlugin:
    if isinstance(codec, CompressorPlugin):
        return codec
    try:
        return _REGISTRY[codec]
    except KeyError:
        raise InvalidInputError(
            f"unknown codec {codec!r}; registered: {codec_names()}"
        ) from None


def encode(data: np.ndarray, codec: Union[str, CompressorPlugin] = DEFAULT_CODEC, **opts) -> np.ndarray:
    """Compress ``data`` with the named plugin."""
    return resolve(codec).compress(data, **opts)


def sniff(buf) -> Optional[str]:
    """The codec name a stream belongs to, or ``None`` when unrecognized.

    Enveloped streams carry their producer's name; raw streams are matched
    against each registered plugin's magic in registration order (the core
    codec first, so CSZ2 streams always resolve to ``"cuszp2"``).
    """
    buf = as_stream(buf)
    if is_envelope(buf):
        name, _shape, _payload = _unwrap_envelope(buf)
        return name
    for name, plugin in _REGISTRY.items():
        m = plugin.magic
        if m is not None and buf.size >= len(m) and bytes(buf[: len(m)]) == m:
            return name
    return None


def decode(buf, codec: Union[None, str, CompressorPlugin] = None) -> np.ndarray:
    """Decompress ``buf``, dispatching on its magic unless ``codec`` is
    forced.  Unrecognized streams raise :class:`StreamFormatError`."""
    buf = as_stream(buf)
    if codec is not None:
        return resolve(codec).decompress(buf)
    name = sniff(buf)
    if name is None:
        head = bytes(buf[: min(8, buf.size)])
        raise StreamFormatError(
            f"unrecognized compressed stream (first bytes {head!r}); "
            f"registered codecs: {codec_names()}"
        )
    return resolve(name).decompress(buf)
