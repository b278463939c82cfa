"""End-to-end cuSZp2 compression / decompression (public API).

Mirrors the paper's four-stage single-kernel pipeline (Fig. 4):

1. **Lossy Conversion** -- :mod:`repro.core.quantize`
2. **Lossless Encoding** -- :mod:`repro.core.fle` (Plain- or Outlier-FLE)
3. **Global Prefix-sum** -- a cumulative sum over per-block payload sizes
   (the device-level decoupled-lookback realization of this step is modeled
   and verified in :mod:`repro.scan`)
4. **Block Concatenation** -- :mod:`repro.core.stream`

The two public entry points, :func:`compress` and :func:`decompress`,
operate GPU-buffer-to-GPU-buffer in the paper; here they are NumPy-array to
NumPy-uint8-array.  ``mode="plain"`` is CUSZP2-P, ``mode="outlier"`` is
CUSZP2-O.

Example
-------
>>> import numpy as np
>>> from repro import compress, decompress
>>> data = np.cumsum(np.random.default_rng(0).normal(size=4096)).astype(np.float32)
>>> stream = compress(data, rel=1e-3)
>>> recon = decompress(stream)
>>> float(np.abs(recon - data).max()) <= 1e-3 * (data.max() - data.min())
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.obs import trace as obs_trace

from . import backends as kernel_backends
from . import fle, stream
from .errors import InvalidInputError
from .quantize import ErrorBound, validate_input

MODES = {"plain": 0, "outlier": 1}
MODE_NAMES = {v: k for k, v in MODES.items()}

#: The paper's default block size ("the overall best choice in balancing
#: high throughput and high compression ratio", Section V-A).
DEFAULT_BLOCK = 32

#: Blocks per processing chunk; bounds temporary bit-plane memory while
#: keeping every NumPy op long enough to amortize dispatch (the software
#: analogue of a grid-stride loop).
DEFAULT_CHUNK_BLOCKS = 1 << 16


def validate_chunk_blocks(chunk_blocks) -> int:
    """The one ``chunk_blocks`` validator shared by every codec entry point
    (:class:`CompressorConfig` and module-level :func:`decompress` used to
    disagree: ``<= 0`` without a type check on one side, ``< 1`` with one on
    the other, so ``0.5`` passed config validation and failed later with an
    unrelated error).  A value must be an integer (bool excluded) and
    ``>= 1``; returns it as a plain int."""
    if (
        isinstance(chunk_blocks, bool)
        or not isinstance(chunk_blocks, (int, np.integer))
        or chunk_blocks < 1
    ):
        raise InvalidInputError(
            f"chunk_blocks must be a positive integer, got {chunk_blocks!r}"
        )
    return int(chunk_blocks)


@dataclass(frozen=True)
class CompressorConfig:
    """Static configuration of a cuSZp2 instance."""

    mode: str = "outlier"
    block: int = DEFAULT_BLOCK
    predictor_ndim: int = 1
    chunk_blocks: int = DEFAULT_CHUNK_BLOCKS
    group_blocks: int = stream.DEFAULT_GROUP_BLOCKS
    kernel_backend: str = "auto"

    def __post_init__(self):
        if self.mode not in MODES:
            raise InvalidInputError(f"mode must be 'plain' or 'outlier', got {self.mode!r}")
        if self.block <= 0 or self.block % 8:
            raise InvalidInputError(f"block size must be a positive multiple of 8, got {self.block}")
        if self.predictor_ndim not in (1, 2, 3):
            raise InvalidInputError(f"predictor_ndim must be 1, 2 or 3, got {self.predictor_ndim}")
        if self.predictor_ndim > 1:
            t = round(self.block ** (1.0 / self.predictor_ndim))
            if t**self.predictor_ndim != self.block:
                raise InvalidInputError(
                    f"block={self.block} is not a perfect {self.predictor_ndim}-D tile"
                )
        validate_chunk_blocks(self.chunk_blocks)
        kernel_backends.validate_backend_name(self.kernel_backend)
        if not 1 <= self.group_blocks <= 0xFFFF:
            raise InvalidInputError(
                f"group_blocks (blocks per checksum group) must be in [1, 65535], "
                f"got {self.group_blocks}"
            )


def _resolve_dims(data: np.ndarray, cfg: CompressorConfig) -> Tuple[Tuple[int, ...], int]:
    """Logical dims stored in the header plus the original ndim tag."""
    if cfg.predictor_ndim > 1:
        if data.ndim != cfg.predictor_ndim:
            raise InvalidInputError(
                f"{cfg.predictor_ndim}-D predictor requires a {cfg.predictor_ndim}-D array, "
                f"got shape {data.shape}"
            )
        return tuple(data.shape), data.ndim
    if 1 <= data.ndim <= 3:
        return tuple(data.shape), data.ndim
    return (data.size,), 0  # >3-D inputs are flattened; shape not preserved


class CuSZp2:
    """A configured cuSZp2 compressor instance.

    Parameters
    ----------
    error_bound:
        An :class:`~repro.core.quantize.ErrorBound` (or a float, interpreted
        as a REL bound, matching the paper's CLI ``./gsz_p vx.f32 1e-3``).
    mode:
        ``"plain"`` (CUSZP2-P) or ``"outlier"`` (CUSZP2-O).
    block:
        Elements per block; the paper uses 32 (and 64 / 8x8 / 4x4x4 for the
        Table VI dimensionality study).
    predictor_ndim:
        1 (default, the cuSZp2 design), or 2/3 for the Lorenzo variants.
    kernel_backend:
        Name of a registered kernel backend (``"numpy"``, ``"numba"``,
        ...) or ``"auto"`` (default) to consult ``REPRO_KERNEL_BACKEND``
        and fall back to ``"numpy"``.  Every backend produces
        byte-identical streams; this is a throughput knob only.
    """

    def __init__(
        self,
        error_bound,
        mode: str = "outlier",
        block: int = DEFAULT_BLOCK,
        predictor_ndim: int = 1,
        chunk_blocks: int = DEFAULT_CHUNK_BLOCKS,
        group_blocks: int = stream.DEFAULT_GROUP_BLOCKS,
        kernel_backend: str = "auto",
    ):
        if isinstance(error_bound, (int, float)):
            error_bound = ErrorBound.relative(float(error_bound))
        self.error_bound = error_bound
        self.config = CompressorConfig(
            mode, block, predictor_ndim, chunk_blocks, group_blocks, kernel_backend
        )

    # -- compression --------------------------------------------------------

    def compress(self, data: np.ndarray) -> np.ndarray:
        cfg = self.config
        data = np.asarray(data)
        with obs_trace.maybe_span(
            "codec.compress", bytes_in=int(data.nbytes), mode=cfg.mode,
        ) as sp:
            dims, orig_ndim = _resolve_dims(data, cfg)
            backend = kernel_backends.resolve_backend(cfg.kernel_backend)
            with obs_trace.maybe_span("codec.quantize"):
                flat, lo, hi = validate_input(data, return_minmax=True)
                eb_abs = self.error_bound.resolve(flat, minmax=(lo, hi))

            use_outlier = cfg.mode == "outlier"
            if cfg.predictor_ndim == 1:
                # quantization happens inside the backend's chunk loop so
                # each quant chunk is still cache-hot when the predictor and
                # encoder consume it (the fused backends collapse all three
                # stages into one pass)
                offsets, payload = backend.encode_1d_chunked(
                    flat, eb_abs, (lo, hi), cfg.block, cfg.chunk_blocks, use_outlier
                )
            else:
                with obs_trace.maybe_span("codec.quantize"):
                    # the ndim-D predictor sums at most 2**ndim integers per
                    # delta, so quantize can safely emit narrow int32 codes;
                    # the field extrema feed its monotone range check
                    q = backend.quantize(
                        flat, eb_abs, int32_terms=2**cfg.predictor_ndim, minmax=(lo, hi)
                    )
                with obs_trace.maybe_span("codec.predict"):
                    dblocks = backend.predict_forward(
                        q, dims, cfg.predictor_ndim, cfg.block
                    )
                with obs_trace.maybe_span("codec.fle"):
                    offsets, payload = backend.fle_encode(dblocks, use_outlier)

            header = stream.StreamHeader(
                mode=MODES[cfg.mode],
                dtype=np.dtype(data.dtype),
                predictor_ndim=cfg.predictor_ndim,
                block=cfg.block,
                nelems=flat.size,
                eb_abs=eb_abs,
                dims=dims,
            )
            buf = stream.assemble(header, offsets, payload, group_blocks=cfg.group_blocks)
            buf = self._stamp_orig_ndim(buf, orig_ndim)
            if sp is not None:
                sp.set(bytes_out=int(buf.size))
            return buf

    @staticmethod
    def _stamp_orig_ndim(buf: np.ndarray, orig_ndim: int) -> np.ndarray:
        # The reserved u16 at header offset 10 records the original ndim so
        # decompress() can restore the caller's shape (0 = flattened).
        buf[10:12] = np.frombuffer(np.uint16(orig_ndim).tobytes(), dtype=np.uint8)
        # The stamp changes header bytes, so the v2 header/TOC CRCs must be
        # recomputed over the final bytes.
        return stream.reseal(buf)

    @staticmethod
    def _read_orig_ndim(buf: np.ndarray) -> int:
        return int(np.frombuffer(buf[10:12].tobytes(), dtype=np.uint16)[0])

    # -- decompression -------------------------------------------------------

    def decompress(self, buf, **kwargs) -> np.ndarray:
        kwargs.setdefault("chunk_blocks", self.config.chunk_blocks)
        kwargs.setdefault("kernel_backend", self.config.kernel_backend)
        return decompress(buf, **kwargs)


# ---------------------------------------------------------------------------
# Functional API
# ---------------------------------------------------------------------------

def compress(
    data: np.ndarray,
    rel: Optional[float] = None,
    abs: Optional[float] = None,  # noqa: A002 - mirrors compressor CLIs
    mode: str = "outlier",
    block: int = DEFAULT_BLOCK,
    predictor_ndim: int = 1,
    group_blocks: int = stream.DEFAULT_GROUP_BLOCKS,
    kernel_backend: str = "auto",
) -> np.ndarray:
    """Compress ``data`` under a REL (``rel=``) or ABS (``abs=``) error
    bound; returns the unified compressed byte array (uint8, format v2:
    one CRC32 per ``group_blocks`` blocks plus a header CRC)."""
    if (rel is None) == (abs is None):
        raise InvalidInputError("specify exactly one of rel= or abs=")
    eb = ErrorBound.relative(rel) if rel is not None else ErrorBound.absolute(abs)
    return CuSZp2(
        eb,
        mode=mode,
        block=block,
        predictor_ndim=predictor_ndim,
        group_blocks=group_blocks,
        kernel_backend=kernel_backend,
    ).compress(data)


def decompress(
    buf,
    chunk_blocks: int = DEFAULT_CHUNK_BLOCKS,
    integrity: str = "auto",
    on_corruption: str = "raise",
    fill_value: float = np.nan,
    kernel_backend: str = "auto",
) -> np.ndarray:
    """Decompress a cuSZp2 stream back to a float array (original shape
    restored when it had at most 3 axes).

    Parameters
    ----------
    integrity:
        ``"auto"`` (default) verifies checksums when the stream carries
        them (format v2) and skips verification for v1 streams;
        ``"verify"`` demands checksums (v1 streams raise
        :class:`IntegrityError`); ``"skip"`` decodes without checking.
    on_corruption:
        ``"raise"`` (default) raises :class:`IntegrityError` carrying a
        :class:`~repro.core.integrity.CorruptionReport` when verification
        fails; ``"recover"`` decodes every intact block group normally and
        fills damaged groups with ``fill_value`` (1-D predictor only).
    kernel_backend:
        Registered kernel backend name or ``"auto"`` (environment /
        ``"numpy"`` default); the output is byte-identical either way.
    """
    if integrity not in ("auto", "verify", "skip"):
        raise InvalidInputError(
            f"integrity must be 'auto', 'verify' or 'skip', got {integrity!r}"
        )
    if on_corruption not in ("raise", "recover"):
        raise InvalidInputError(
            f"on_corruption must be 'raise' or 'recover', got {on_corruption!r}"
        )
    chunk_blocks = validate_chunk_blocks(chunk_blocks)
    backend = kernel_backends.resolve_backend(kernel_backend)
    buf = stream.as_stream_bytes(buf)
    with obs_trace.maybe_span("codec.decompress", bytes_in=int(buf.size)) as root:
        if integrity != "skip":
            from .errors import IntegrityError
            from .integrity import recover as _recover
            from .integrity import verify as _verify

            with obs_trace.maybe_span("codec.verify"):
                report = _verify(buf)
            if integrity == "verify" and not report.has_checksums:
                raise IntegrityError(
                    "integrity='verify' but the stream is format v1 and carries "
                    "no checksums",
                    report,
                )
            if not report.ok:
                if on_corruption == "recover":
                    out, _ = _recover(buf, fill_value=fill_value)
                    if root is not None:
                        # the early return bypasses the normal epilogue, so
                        # traces of recovered requests must be completed here
                        root.set(bytes_out=int(out.nbytes), recovered=True)
                    return out
                raise IntegrityError(report.summary(), report)
        with obs_trace.maybe_span("codec.split"):
            header, offsets, payload = stream.split(buf)
            orig_ndim = CuSZp2._read_orig_ndim(buf)

        with obs_trace.maybe_span("codec.scan"):
            sizes = fle.block_payload_sizes(offsets, header.block)
            bounds = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)

        if header.predictor_ndim == 1:
            q = backend.decode_1d_chunked(
                offsets, payload, bounds, header.block, chunk_blocks
            )
            q = q[: header.nelems]
        else:
            with obs_trace.maybe_span("codec.fle_decode"):
                dblocks = backend.fle_decode(
                    offsets, payload[: bounds[-1]], header.block
                )
            with obs_trace.maybe_span("codec.undiff"):
                q = backend.predict_inverse(
                    dblocks, header.dims, header.predictor_ndim, header.block,
                    header.nelems,
                )

        with obs_trace.maybe_span("codec.dequantize"):
            out = backend.dequantize(q, header.eb_abs, header.dtype)
        if root is not None:
            root.set(bytes_out=int(out.nbytes))
        if orig_ndim == 0:
            return out
        shape = header.dims[:orig_ndim] if orig_ndim <= len(header.dims) else header.dims
        return out.reshape(shape)


def compression_ratio(data: np.ndarray, compressed: np.ndarray) -> float:
    """Original bytes / compressed bytes."""
    return data.size * data.dtype.itemsize / compressed.size
