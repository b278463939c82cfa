"""The builtin plugins: core cuSZp2 plus all six paper baselines.

Each class is a thin adapter from the uniform plugin contract onto the
codec's native API.  The core codec and the pure-GPU baselines (cuSZp,
FZ-GPU, cuZFP) ship self-describing streams and restore shape natively;
the hybrid baselines (cuSZ, cuSZx, MGARD-like) store a flat element count
only, so the plugin layer wraps their streams in the shape envelope.

The baseline modules are imported on a plugin's first use, not here: the
serve layer imports this registry, and every process worker it forks
would otherwise pay for six codecs it may never run.  Each plugin's
``magic`` is therefore a literal (tests pin it to the module's own).
"""

from __future__ import annotations

import math
from typing import Any, Dict

from ..core import compressor as _core
from ..core import stream as _stream
from ..core.errors import InvalidInputError
from ..core.quantize import ErrorBound
from .plugin import CompressorPlugin, OptionSpec, register

_REL = OptionSpec("rel", float, "value-range-relative error bound (e.g. 1e-3)")
_ABS = OptionSpec("abs", float, "absolute error bound")


def _bound(opts: Dict[str, Any]) -> ErrorBound:
    if "rel" in opts:
        return ErrorBound.relative(opts["rel"])
    return ErrorBound.absolute(opts["abs"])


class CuSZp2Plugin(CompressorPlugin):
    """The paper's compressor (default plugin): quantize + blockwise
    Lorenzo + Plain/Outlier-FLE in a checksummed CSZ2 v2 stream."""

    name = "cuszp2"
    description = "core cuSZp2 codec (Plain/Outlier-FLE, CSZ2 v2 stream)"
    magic = _stream.MAGIC
    preserves_shape = True
    options = {
        "rel": _REL,
        "abs": _ABS,
        "mode": OptionSpec(
            "mode", str, "per-block encoding selection", default="outlier",
            choices=("plain", "outlier"),
        ),
        "block": OptionSpec("block", int, "elements per block", default=_core.DEFAULT_BLOCK),
        "predictor_ndim": OptionSpec(
            "predictor_ndim", int, "Lorenzo dimensionality", default=1, choices=(1, 2, 3),
        ),
        "group_blocks": OptionSpec(
            "group_blocks", int, "blocks per checksum group",
            default=_stream.DEFAULT_GROUP_BLOCKS,
        ),
    }

    def validate_options(self, opts):
        out = super().validate_options(opts)
        # the codec's own validator: a bad setting fails here, with the
        # codec's message, not later inside a compress call
        _core.CompressorConfig(
            mode=out["mode"], block=out["block"],
            predictor_ndim=out["predictor_ndim"], group_blocks=out["group_blocks"],
        )
        return out

    def chunk_spans(self, shape, opts, chunk_elems):
        """Blocks never cross a chunk and the bound is resolved once for the
        whole field, so chunks decode bit-identically to the whole-field
        stream.  The 1-D predictor splits the flattened field on checksum-
        group boundaries (``"flat"``); 2-D/3-D split axis-0 rows on Lorenzo
        tile boundaries (``"rows"``), so no tile straddles a chunk."""
        nelems = math.prod(int(s) for s in shape)
        if nelems == 0:
            raise InvalidInputError("cannot chunk an empty field")
        block, ndim = opts["block"], opts["predictor_ndim"]
        if ndim == 1:
            return _stream.chunk_spans(nelems, chunk_elems, block, opts["group_blocks"]), "flat"
        if len(shape) != ndim:
            raise InvalidInputError(
                f"{ndim}-D predictor requires a {ndim}-D field, got shape {tuple(shape)}"
            )
        t = round(block ** (1.0 / ndim))
        rows_per = max(chunk_elems // (nelems // shape[0]) // t, 1) * t
        return [(lo, min(lo + rows_per, shape[0])) for lo in range(0, shape[0], rows_per)], "rows"

    def _compress(self, arr, opts):
        return _core.CuSZp2(
            _bound(opts),
            mode=opts["mode"],
            block=opts["block"],
            predictor_ndim=opts["predictor_ndim"],
            group_blocks=opts["group_blocks"],
        ).compress(arr)

    def _decompress(self, payload):
        return _core.decompress(payload)


class CuSZpPlugin(CompressorPlugin):
    """cuSZp (the predecessor): byte-identical to cuSZp2 Plain mode."""

    name = "cuszp"
    description = "cuSZp baseline (Plain-FLE; emits core CSZ2 streams)"
    magic = _stream.MAGIC
    preserves_shape = True
    options = {"rel": _REL, "abs": _ABS}

    def _compress(self, arr, opts):
        from ..baselines.cuszp import CuSZp

        return CuSZp(_bound(opts)).compress(arr)

    def _decompress(self, payload):
        return _core.decompress(payload)


class FZGPUPlugin(CompressorPlugin):
    """FZ-GPU: same lossy step, bitshuffle + zero-word-removal encoding."""

    name = "fzgpu"
    description = "FZ-GPU baseline (Lorenzo + bitshuffle + zero-word removal)"
    magic = b"FZG1"
    preserves_shape = True
    options = {
        "rel": _REL,
        "abs": _ABS,
        "predictor_ndim": OptionSpec(
            "predictor_ndim", int, "1-D blockwise or true 3-D Lorenzo",
            default=1, choices=(1, 3),
        ),
    }

    def _compress(self, arr, opts):
        from ..baselines.fzgpu import FZGPU

        return FZGPU(_bound(opts), predictor_ndim=opts["predictor_ndim"]).compress(arr)

    def _decompress(self, payload):
        from ..baselines.fzgpu import FZGPU

        return FZGPU(ErrorBound.relative(1e-3)).decompress(payload)


class CuZFPPlugin(CompressorPlugin):
    """cuZFP: fixed-rate transform coding -- no error bound; the ratio is
    set by ``rate`` (bits per value).  Python per-block loops make this
    the slow plugin, flagged ``heavy`` so samplers cap its input."""

    name = "cuzfp"
    description = "cuZFP baseline (fixed-rate ZFP; rate picks the ratio, no bound)"
    magic = b"ZFP1"
    preserves_shape = True
    bounded = False
    heavy = True
    options = {
        "rate": OptionSpec(
            "rate", float, "bits per value (paper sweeps 4/8/16)",
            default=8.0, minimum=1.0,
        ),
    }

    def _compress(self, arr, opts):
        from ..baselines.zfp import CuZFP

        return CuZFP(rate=opts["rate"]).compress(arr)

    def _decompress(self, payload):
        from ..baselines.zfp import CuZFP

        return CuZFP(rate=8).decompress(payload)


class _HybridPlugin(CompressorPlugin):
    """Shared adapter for the CPU-GPU hybrid baselines: native streams
    decode flat, so the envelope restores the caller's shape."""

    preserves_shape = False
    options = {"rel": _REL, "abs": _ABS}
    _impl = ""  # name of the repro.baselines.hybrid class taking (error_bound)

    def _codec(self, error_bound, **kwargs):
        from ..baselines import hybrid

        return getattr(hybrid, self._impl)(error_bound, **kwargs)

    def _compress(self, arr, opts):
        return self._codec(_bound(opts)).compress(arr)

    def _decompress(self, payload):
        return self._codec(ErrorBound.relative(1e-3)).decompress(payload)


class CuSZPlugin(_HybridPlugin):
    name = "cusz"
    description = "cuSZ baseline (global Lorenzo + canonical Huffman)"
    magic = b"CSZ1"
    _impl = "CuSZ"


class CuSZxPlugin(_HybridPlugin):
    name = "cuszx"
    description = "cuSZx baseline (constant-block detection + Plain-FLE)"
    magic = b"CSZX"
    _impl = "CuSZx"


class MGARDPlugin(_HybridPlugin):
    name = "mgard"
    description = "MGARD-like baseline (multilevel interpolation + Huffman)"
    magic = b"MGD1"
    _impl = "MGARDLike"
    options = {
        "rel": _REL,
        "abs": _ABS,
        "min_coarse": OptionSpec(
            "min_coarse", int, "coarsest-grid size floor", default=4, minimum=2,
        ),
    }

    def _compress(self, arr, opts):
        return self._codec(_bound(opts), min_coarse=opts["min_coarse"]).compress(arr)


def register_builtin_plugins() -> None:
    """Idempotently register the seven builtin plugins (cuszp2 first, so
    raw CSZ2 streams sniff to the core codec)."""
    from .plugin import codec_names

    if "cuszp2" in codec_names():
        return
    for cls in (
        CuSZp2Plugin, CuSZpPlugin, FZGPUPlugin, CuZFPPlugin,
        CuSZPlugin, CuSZxPlugin, MGARDPlugin,
    ):
        register(cls())
