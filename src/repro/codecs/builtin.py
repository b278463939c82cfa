"""The builtin plugins: core cuSZp2 plus all six paper baselines.

Each class is a thin adapter from the uniform plugin contract onto the
codec's native API.  The core codec and the pure-GPU baselines (cuSZp,
FZ-GPU, cuZFP) ship self-describing streams and restore shape natively;
the hybrid baselines (cuSZ, cuSZx, MGARD-like) store a flat element count
only, so the plugin layer wraps their streams in the shape envelope.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from ..baselines import fzgpu as _fzgpu
from ..baselines.cuszp import CuSZp as _CuSZp
from ..baselines.hybrid import CuSZ as _CuSZ
from ..baselines.hybrid import CuSZx as _CuSZx
from ..baselines.hybrid import MGARDLike as _MGARDLike
from ..baselines.zfp import codec as _zfp
from ..core import compressor as _core
from ..core import stream as _stream
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
        "block": OptionSpec("block", int, "elements per block", default=_core.DEFAULT_BLOCK, minimum=1),
        "predictor_ndim": OptionSpec(
            "predictor_ndim", int, "Lorenzo dimensionality", default=1, choices=(1, 2, 3),
        ),
        "group_blocks": OptionSpec(
            "group_blocks", int, "blocks per checksum group",
            default=_stream.DEFAULT_GROUP_BLOCKS, minimum=1,
        ),
    }

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
        return _CuSZp(_bound(opts)).compress(arr)

    def _decompress(self, payload):
        return _core.decompress(payload)


class FZGPUPlugin(CompressorPlugin):
    """FZ-GPU: same lossy step, bitshuffle + zero-word-removal encoding."""

    name = "fzgpu"
    description = "FZ-GPU baseline (Lorenzo + bitshuffle + zero-word removal)"
    magic = _fzgpu.MAGIC
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
        return _fzgpu.FZGPU(_bound(opts), predictor_ndim=opts["predictor_ndim"]).compress(arr)

    def _decompress(self, payload):
        return _fzgpu.FZGPU(ErrorBound.relative(1e-3)).decompress(payload)


class CuZFPPlugin(CompressorPlugin):
    """cuZFP: fixed-rate transform coding -- no error bound; the ratio is
    set by ``rate`` (bits per value).  Python per-block loops make this
    the slow plugin, flagged ``heavy`` so samplers cap its input."""

    name = "cuzfp"
    description = "cuZFP baseline (fixed-rate ZFP; rate picks the ratio, no bound)"
    magic = _zfp.MAGIC
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
        return _zfp.CuZFP(rate=opts["rate"]).compress(arr)

    def _decompress(self, payload):
        return _zfp.CuZFP(rate=8).decompress(payload)


class _HybridPlugin(CompressorPlugin):
    """Shared adapter for the CPU-GPU hybrid baselines: native streams
    decode flat, so the envelope restores the caller's shape."""

    preserves_shape = False
    options = {"rel": _REL, "abs": _ABS}
    _impl = None  # codec class taking (error_bound)

    def _compress(self, arr, opts):
        return self._impl(_bound(opts)).compress(arr)

    def _decompress(self, payload):
        return self._impl(ErrorBound.relative(1e-3)).decompress(payload)


class CuSZPlugin(_HybridPlugin):
    name = "cusz"
    description = "cuSZ baseline (global Lorenzo + canonical Huffman)"
    magic = b"CSZ1"
    _impl = _CuSZ


class CuSZxPlugin(_HybridPlugin):
    name = "cuszx"
    description = "cuSZx baseline (constant-block detection + Plain-FLE)"
    magic = b"CSZX"
    _impl = _CuSZx


class MGARDPlugin(_HybridPlugin):
    name = "mgard"
    description = "MGARD-like baseline (multilevel interpolation + Huffman)"
    magic = b"MGD1"
    _impl = _MGARDLike
    options = {
        "rel": _REL,
        "abs": _ABS,
        "min_coarse": OptionSpec(
            "min_coarse", int, "coarsest-grid size floor", default=4, minimum=2,
        ),
    }

    def _compress(self, arr, opts):
        return _MGARDLike(_bound(opts), min_coarse=opts["min_coarse"]).compress(arr)


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
