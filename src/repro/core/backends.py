"""Kernel-backend registry: pluggable implementations of the codec hot path.

The compressor resolves its quantize, predict/diff and FLE kernels
through this registry instead of importing the NumPy modules directly.  The
existing vectorized NumPy implementations are the registered ``"numpy"``
reference backend; ``"numba"`` fuses the per-chunk quantize -> diff ->
FLE-encode pipeline (and the decode mirror) into single
``njit(parallel=True)`` passes (see :mod:`repro.core.kernels_fused`); and
``"fused-python"`` runs the same fused kernel bodies un-jitted, which keeps
the fused algorithm under test on hosts without numba.

Every backend must produce **byte-identical** CSZ2 streams -- the kernel
oracle and the qa ``backends`` differential oracle enforce this -- so the
backend choice is purely a throughput knob:

* explicit name (``CompressorConfig.kernel_backend``, ``--kernel-backend``)
  wins;
* ``"auto"`` consults the ``REPRO_KERNEL_BACKEND`` environment variable and
  falls back to ``"numpy"``;
* a registered-but-unavailable backend (numba not installed) degrades to
  ``"numpy"`` with a :class:`RuntimeWarning` rather than failing.
"""

from __future__ import annotations

import os
import warnings
from typing import Dict, List, Tuple, Type

import numpy as np

from repro.obs import trace as obs_trace

from . import fle, kernels_fused, predictor
from .errors import InvalidInputError, QuantizationOverflowError, StreamFormatError
from .quantize import (
    MAX_QUANT_MAGNITUDE,
    dequantize,
    quant_output_dtype,
    quantize,
    quantized_bounds,
)

#: Environment variable consulted by ``"auto"`` resolution.
ENV_VAR = "REPRO_KERNEL_BACKEND"

#: The reference backend every resolution path can fall back to.
DEFAULT_BACKEND = "numpy"


class KernelBackend:
    """Base class: the kernel seams the compressor resolves per call.

    The base methods delegate to the vectorized NumPy modules; a subclass
    overrides whichever seams it accelerates (the fused backends replace
    only the two 1-D chunked entry points -- the Lorenzo paths and all
    bitpack primitives stay on the NumPy kernels).
    """

    #: Registry key; subclasses must override.
    name = "abstract"
    #: False when the backend's runtime (e.g. numba) is not importable.
    available = True

    # -- elementwise / blockwise seams (NumPy reference implementations) ---

    def quantize(self, data, eb_abs, *, int32_terms=0, minmax=None):
        return quantize(data, eb_abs, int32_terms=int32_terms, minmax=minmax)

    def dequantize(self, q, eb_abs, dtype):
        return dequantize(q, eb_abs, dtype)

    def predict_forward(self, q, dims, ndim, block):
        return predictor.forward(q, dims, ndim, block)

    def predict_inverse(self, dblocks, dims, ndim, block, nelems):
        return predictor.inverse(dblocks, dims, ndim, block, nelems)

    def fle_encode(self, dblocks, use_outlier):
        return fle.encode_blocks(dblocks, use_outlier)

    def fle_decode(self, offsets, payload, block):
        return fle.decode_blocks(offsets, payload, block)

    # -- the 1-D hot path (what the fused backends replace) ----------------

    def encode_1d_chunked(self, flat, eb_abs, minmax, block, chunk_blocks, use_outlier):
        """Encode a flat float array into ``(offset_bytes, payload)``."""
        raise NotImplementedError

    def decode_1d_chunked(self, offsets, payload, bounds, block, chunk_blocks):
        """Decode to the flat quant array of ``offsets.size * block``
        elements (tail padding still attached; dtype per
        :func:`repro.core.fle.delta_dtype`).  ``bounds`` is the global
        payload prefix sum (``nblocks + 1`` entries)."""
        raise NotImplementedError


class NumpyBackend(KernelBackend):
    """The vectorized NumPy pipeline (PR-5 hot path), unchanged: it is the
    bit-identity reference every other backend is fuzzed against."""

    name = "numpy"

    def encode_1d_chunked(self, flat, eb_abs, minmax, block, chunk_blocks, use_outlier):
        n = flat.shape[0]
        nblocks = -(-n // block)
        offsets = np.empty(nblocks, dtype=np.uint8)
        # Preallocated payload buffer with amortized doubling: one byte per
        # element (compression ratio 4 on float32) covers typical fields,
        # and growth recopies at most O(log) times.
        payload = np.empty(max(1024, nblocks * block), dtype=np.uint8)
        pos = 0
        for lo in range(0, nblocks, chunk_blocks):
            hi = min(lo + chunk_blocks, nblocks)
            with obs_trace.maybe_span("codec.quantize"):
                # global minmax keeps the int32/int64 decision and overflow
                # check identical across chunks (1-D differences sum 2 terms)
                qchunk = self.quantize(
                    flat[lo * block : min(hi * block, n)],
                    eb_abs,
                    int32_terms=2,
                    minmax=minmax,
                )
            with obs_trace.maybe_span("codec.predict"):
                dblocks = predictor.diff_1d(predictor.blockize_1d(qchunk, block))
            with obs_trace.maybe_span("codec.fle"):
                offs, pay = self.fle_encode(dblocks, use_outlier)
            offsets[lo : lo + offs.size] = offs
            end = pos + pay.size
            if end > payload.size:
                grown = np.empty(max(end, 2 * payload.size), dtype=np.uint8)
                grown[:pos] = payload[:pos]
                payload = grown
            payload[pos:end] = pay
            pos = end
        return offsets, payload[:pos]

    def decode_1d_chunked(self, offsets, payload, bounds, block, chunk_blocks):
        nblocks = offsets.shape[0]
        # preallocated output; prefix sums accumulate directly into it
        # (dtype chosen once over the whole stream, so every chunk's
        # delta dtype is at most as wide)
        q = np.empty(nblocks * block, dtype=fle.delta_dtype(offsets, block))
        for lo in range(0, nblocks, chunk_blocks):
            hi = min(lo + chunk_blocks, nblocks)
            with obs_trace.maybe_span("codec.fle_decode"):
                dblocks = self.fle_decode(
                    offsets[lo:hi], payload[bounds[lo] : bounds[hi]], block
                )
            with obs_trace.maybe_span("codec.undiff"):
                predictor.undiff_1d(
                    dblocks, out=q[lo * block : hi * block].reshape(-1, block)
                )
        return q


class _FusedBackend(KernelBackend):
    """Shared chunk-loop driver for the fused kernels; subclasses pick the
    jitted or pure-Python kernel triple."""

    def _kernels(self) -> Tuple:
        raise NotImplementedError

    def encode_1d_chunked(self, flat, eb_abs, minmax, block, chunk_blocks, use_outlier):
        # Range/overflow check and error parity with the NumPy path: the
        # quantizer map is monotone, so the field extrema bound every
        # integer.  On overflow, re-run the reference quantizer, which
        # raises the exact QuantizationOverflowError (with element index).
        lo_q, hi_q = quantized_bounds(minmax, eb_abs)
        bound = float(MAX_QUANT_MAGNITUDE)
        if hi_q > bound or lo_q < -bound:
            quantize(flat, eb_abs, minmax=minmax)
            raise AssertionError("quantize() must raise on out-of-range bounds")
        pass1, pass2, _ = self._kernels()
        n = flat.shape[0]
        nblocks = -(-n // block)
        step = 2.0 * eb_abs
        offsets = np.empty(nblocks, dtype=np.uint8)
        payload = np.empty(max(1024, nblocks * block), dtype=np.uint8)
        cnb_max = min(chunk_blocks, nblocks)
        dblocks = np.empty((cnb_max, block), dtype=np.int64)
        sizes = np.empty(cnb_max, dtype=np.int64)
        pos = 0
        for lo in range(0, nblocks, chunk_blocks):
            hi = min(lo + chunk_blocks, nblocks)
            cnb = hi - lo
            chunk = flat[lo * block : min(hi * block, n)]
            with obs_trace.maybe_span("codec.fused_encode", blocks=cnb):
                pass1(
                    chunk, step, block, use_outlier,
                    dblocks[:cnb], offsets[lo:hi], sizes[:cnb],
                )
                if int(sizes[:cnb].min()) < 0:
                    # same condition and message as fle._check_row_max
                    raise QuantizationOverflowError(
                        "a block delta exceeds 2**31 - 1 and cannot be "
                        "represented by the 5-bit fixed-length field; "
                        "increase the error bound"
                    )
                csum = np.cumsum(sizes[:cnb])
                starts = csum - sizes[:cnb]
                end = pos + int(csum[-1])
                if end > payload.size:
                    grown = np.empty(max(end, 2 * payload.size), dtype=np.uint8)
                    grown[:pos] = payload[:pos]
                    payload = grown
                pass2(dblocks[:cnb], offsets[lo:hi], starts, block, payload[pos:end])
                pos = end
        return offsets, payload[:pos]

    def decode_1d_chunked(self, offsets, payload, bounds, block, chunk_blocks):
        _, _, decode = self._kernels()
        nblocks = offsets.shape[0]
        q = np.empty(nblocks * block, dtype=fle.delta_dtype(offsets, block))
        for lo in range(0, nblocks, chunk_blocks):
            hi = min(lo + chunk_blocks, nblocks)
            pay = payload[bounds[lo] : bounds[hi]]
            expect = int(bounds[hi] - bounds[lo])
            if expect != pay.size:
                # truncated stream: same message as fle.decode_blocks
                raise StreamFormatError(
                    f"offset bytes describe {expect} payload bytes but "
                    f"stream holds {pay.size}"
                )
            starts = bounds[lo:hi] - bounds[lo]
            with obs_trace.maybe_span("codec.fused_decode", blocks=hi - lo):
                decode(offsets[lo:hi], pay, starts, block, q[lo * block : hi * block])
        return q


class NumbaBackend(_FusedBackend):
    """Fused ``njit(parallel=True, cache=True)`` kernels; unavailable (and
    resolved to ``"numpy"`` with a warning) when numba is not installed."""

    name = "numba"
    available = kernels_fused.NUMBA_AVAILABLE

    def _kernels(self):
        return (
            kernels_fused.encode_pass1,
            kernels_fused.encode_pass2,
            kernels_fused.decode_chunk,
        )


class FusedPythonBackend(_FusedBackend):
    """The fused kernel bodies executed as plain Python: far too slow for
    real fields, but always available, which keeps the fused algorithm under
    byte-identity test on hosts without numba (like this CI image)."""

    name = "fused-python"

    def _kernels(self):
        return (
            kernels_fused.encode_pass1_python,
            kernels_fused.encode_pass2_python,
            kernels_fused.decode_chunk_python,
        )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, Type[KernelBackend]] = {}
_instances: Dict[str, KernelBackend] = {}


def register_backend(cls: Type[KernelBackend]) -> Type[KernelBackend]:
    """Register a backend class under ``cls.name`` (usable as a decorator)."""
    if not cls.name or cls.name == "abstract":
        raise InvalidInputError("kernel backend classes must define a name")
    _REGISTRY[cls.name] = cls
    _instances.pop(cls.name, None)
    return cls


def registered_backends() -> List[str]:
    """All registered backend names, available or not."""
    return sorted(_REGISTRY)


def available_backends() -> List[str]:
    """Backend names whose runtime is importable on this host."""
    return [n for n in sorted(_REGISTRY) if _REGISTRY[n].available]


def validate_backend_name(name: str) -> str:
    """Check ``name`` is ``"auto"`` or a registered backend; returns it."""
    if name != "auto" and name not in _REGISTRY:
        raise InvalidInputError(
            f"unknown kernel backend {name!r}; registered backends: "
            f"{', '.join(['auto'] + registered_backends())}"
        )
    return name


def resolve_backend(name: str = "auto") -> KernelBackend:
    """Resolve a backend name to a (cached) instance.

    ``"auto"`` (or ``None``) consults the ``REPRO_KERNEL_BACKEND``
    environment variable, defaulting to ``"numpy"``.  Unknown names raise
    :class:`InvalidInputError`; a known-but-unavailable backend warns and
    falls back to the reference backend so a config written on a
    numba-enabled host still runs everywhere.
    """
    if name is None or name == "auto":
        name = os.environ.get(ENV_VAR, "").strip() or DEFAULT_BACKEND
    validate_backend_name(name)
    cls = _REGISTRY[name]
    if not cls.available:
        warnings.warn(
            f"kernel backend {name!r} is not available on this host "
            f"(numba is not installed); falling back to {DEFAULT_BACKEND!r}",
            RuntimeWarning,
            stacklevel=2,
        )
        name = DEFAULT_BACKEND
        cls = _REGISTRY[name]
    inst = _instances.get(name)
    if inst is None:
        inst = _instances[name] = cls()
    return inst


register_backend(NumpyBackend)
register_backend(NumbaBackend)
register_backend(FusedPythonBackend)
