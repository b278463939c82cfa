"""Lossy conversion: floating-point data <-> bounded quantization integers.

This is step 1 of the cuSZp2 pipeline (Fig. 4 of the paper) and the *only*
lossy stage.  Each value ``x`` becomes the integer ``q = floor(x / (2*eb) +
0.5)`` and is reconstructed as ``q * 2 * eb``, guaranteeing
``|x - q * 2 * eb| <= eb``.

Both the value-range-based relative bound (REL, the paper's evaluation
setting) and an absolute bound (ABS) are supported.  All arithmetic is done
in float64 regardless of the input precision so that single- and
double-precision inputs share one quantizer, mirroring the paper's
observation that f32/f64 differ only in this conversion step
(Section VI-A).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ErrorBoundError, InvalidInputError, QuantizationOverflowError

#: Largest magnitude a quantization integer (or block delta) may take: the
#: offset byte dedicates 5 bits to the fixed length, so magnitudes must fit
#: in 31 bits (Section IV-A: "the absolute value of a signed int32 data
#: ranges from 0 to 2^31 - 1").
MAX_QUANT_MAGNITUDE = np.int64(2**31 - 1)


@dataclass(frozen=True)
class ErrorBound:
    """User-facing error-bound specification.

    ``kind`` is ``"rel"`` (value-range relative, as in the paper's REL
    lambda settings) or ``"abs"`` (absolute).  Use the :meth:`relative` /
    :meth:`absolute` constructors rather than instantiating directly.
    """

    kind: str
    value: float

    @classmethod
    def relative(cls, lam: float) -> "ErrorBound":
        """Value-range relative bound: the pointwise error is at most
        ``lam * (max(data) - min(data))``."""
        return cls("rel", float(lam))

    @classmethod
    def absolute(cls, eb: float) -> "ErrorBound":
        """Absolute bound: the pointwise error is at most ``eb``."""
        return cls("abs", float(eb))

    def resolve(self, data: np.ndarray, minmax: tuple = None) -> float:
        """Return the absolute error bound for ``data``.

        For a REL bound on constant data (range zero) any positive bound
        reproduces the data exactly after quantization; we fall back to
        ``lam * max(|c|, 1)`` so the quantizer still has a usable step.
        ``minmax`` lets callers that already know the data bounds (e.g. from
        :func:`validate_input`) skip the reductions.
        """
        if not np.isfinite(self.value) or self.value <= 0.0:
            raise ErrorBoundError(f"error bound must be finite and > 0, got {self.value!r}")
        if self.kind == "abs":
            return self.value
        if self.kind != "rel":
            raise ErrorBoundError(f"unknown error-bound kind {self.kind!r}")
        if minmax is not None:
            lo, hi = float(minmax[0]), float(minmax[1])
        else:
            lo = float(np.min(data))
            hi = float(np.max(data))
        rng = hi - lo
        if rng == 0.0:
            return self.value * max(abs(hi), 1.0)
        return self.value * rng


def validate_input(data: np.ndarray, *, return_minmax: bool = False):
    """Check that ``data`` is a non-empty finite float32/float64 array and
    return it as a flattened C-contiguous view/copy.

    With ``return_minmax=True`` the result is ``(flat, lo, hi)``: the
    finiteness check is performed via min/max reductions (NaN poisons the
    reduction, infinities show up directly), and the bounds are handed back
    so the caller can reuse them for REL-bound resolution and quantizer
    range checks without re-scanning the data.
    """
    if not isinstance(data, np.ndarray):
        raise InvalidInputError(f"expected a numpy array, got {type(data).__name__}")
    if data.dtype not in (np.float32, np.float64):
        raise InvalidInputError(f"dtype must be float32 or float64, got {data.dtype}")
    if data.size == 0:
        raise InvalidInputError("cannot compress an empty array")
    flat = np.ascontiguousarray(data).reshape(-1)
    lo = float(np.min(flat))
    hi = float(np.max(flat))
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise InvalidInputError("input contains NaN or infinity; cuSZp2 requires finite data")
    if return_minmax:
        return flat, lo, hi
    return flat


#: Chunk size (elements) for the streaming float->int conversion loop.
#: Sized so the float64 scratch (8 MiB) stays resident in last-level cache
#: while the loop touches each input/output element exactly once.
_CONVERT_CHUNK = 1 << 20


def _quantize_scalar(x: float, eb_abs: float) -> float:
    """The quantizer mapping applied to one float64 scalar with the exact
    same operation sequence as the vectorized path (divide, add, floor --
    each correctly rounded), so scalar and elementwise results agree
    bit-for-bit."""
    v = np.float64(x) / np.float64(2.0 * eb_abs)
    v = v + np.float64(0.5)
    return float(np.floor(v))


def quantized_bounds(minmax: tuple, eb_abs: float) -> tuple:
    """Quantizer image ``(lo_q, hi_q)`` of the data extrema.

    The quantizer map is monotone nondecreasing, so these two scalar
    evaluations bound every quantization integer of the field.  All kernel
    backends derive their range/overflow checks and their integer-width
    decision from this one function so the checks agree bit-for-bit.
    """
    return _quantize_scalar(minmax[0], eb_abs), _quantize_scalar(minmax[1], eb_abs)


def quant_output_dtype(lo_q: float, hi_q: float, int32_terms: int) -> np.dtype:
    """The int32-vs-int64 demotion decision, shared by every kernel backend.

    Given the quantizer image ``[lo_q, hi_q]`` of the *whole field* (never a
    chunk -- a per-chunk decision could demote one chunk and not its
    neighbour, and an int32 delta overflowing on a chunk boundary would
    change stream bytes) and the maximum number of quantization integers a
    downstream predictor sums per delta, return int32 exactly when every
    delta provably fits: ``|q| <= (2**31 - 1) // int32_terms``.  int64
    otherwise, or when ``int32_terms`` is 0 (no downstream guarantee).
    The quantized *values* are identical either way; only representation
    width (and therefore memory traffic) changes.
    """
    if int32_terms > 0:
        safe = float(int(MAX_QUANT_MAGNITUDE) // int32_terms)
        if -safe <= lo_q and hi_q <= safe:
            return np.dtype(np.int32)
    return np.dtype(np.int64)


def quantize(
    data: np.ndarray, eb_abs: float, *, int32_terms: int = 0, minmax: tuple = None
) -> np.ndarray:
    """Convert floats to quantization integers under absolute bound
    ``eb_abs``.  Raises :class:`QuantizationOverflowError` when an integer
    would exceed the signed-32-bit magnitude the stream format supports.

    Returns int64 by default.  A caller whose downstream predictor sums at
    most ``int32_terms`` quantization integers per delta may pass that
    count (2 for 1-D differences, ``2**ndim`` for Lorenzo): when every
    ``|q| <= (2**31 - 1) // int32_terms`` the result is returned as int32
    instead -- the deltas provably fit, and the narrower integers halve
    the memory traffic of every later pipeline stage.  The values are
    identical either way.

    ``minmax`` is the ``(min, max)`` of ``data`` if the caller already knows
    it.  The quantizer map ``x -> floor(x / (2*eb) + 0.5)`` is monotone
    nondecreasing (each step is), so the data extrema map to the quant
    extrema: range/overflow checks collapse to two scalar evaluations and
    the conversion streams straight into the integer output one cache-sized
    chunk at a time instead of materializing a full float64 copy.
    """
    if eb_abs <= 0.0 or not np.isfinite(eb_abs):
        raise ErrorBoundError(f"absolute error bound must be finite and > 0, got {eb_abs!r}")
    bound = float(MAX_QUANT_MAGNITUDE)

    if minmax is not None:
        lo, hi = quantized_bounds(minmax, eb_abs)
    else:
        # One float64 scratch array, transformed in place: copy, scale, round.
        q = data.astype(np.float64)
        q /= 2.0 * eb_abs
        q += 0.5
        np.floor(q, out=q)
        # Check in float space first: float64 can exceed int64 range.  min/max
        # reductions avoid materializing an |q| temporary on the happy path.
        lo, hi = float(q.min()), float(q.max())

    if hi > bound or lo < -bound:
        if minmax is not None:
            q = np.floor(data.astype(np.float64) / (2.0 * eb_abs) + 0.5)
        idx = int(np.argmax(np.abs(q) > bound))
        raise QuantizationOverflowError(
            f"quantization integer {q.flat[idx]:.0f} at element {idx} exceeds "
            f"2**31 - 1; increase the error bound (eb={eb_abs:g})"
        )

    out_dtype = quant_output_dtype(lo, hi, int32_terms)

    if minmax is None:
        return q.astype(out_dtype)

    # Streaming conversion: the bounds are already proven, so each chunk is
    # divided/offset/floored in a float64 scratch that stays hot in cache and
    # cast (truncation of an integral float == its value) into the output.
    n = data.shape[0]
    out = np.empty(n, dtype=out_dtype)
    scratch = np.empty(min(n, _CONVERT_CHUNK), dtype=np.float64)
    step = 2.0 * eb_abs
    for a in range(0, n, _CONVERT_CHUNK):
        b = min(a + _CONVERT_CHUNK, n)
        s = scratch[: b - a]
        np.divide(data[a:b], step, out=s, dtype=np.float64)
        s += 0.5
        np.floor(s, out=s)
        out[a:b] = s
    return out


def dequantize(q: np.ndarray, eb_abs: float, dtype: np.dtype) -> np.ndarray:
    """Reconstruct floats from quantization integers.

    One multiply computed in float64 and cast once to the target dtype
    (both correctly rounded) as it is stored; the ufunc's own buffering
    keeps the float64 products in cache, so there is no scratch array.
    """
    out = np.empty(q.shape, dtype=dtype)
    np.multiply(q, 2.0 * eb_abs, dtype=np.float64, out=out, casting="unsafe")
    return out


def max_quantized_error(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Largest pointwise absolute error between two arrays (the quantity the
    error bound promises to cap)."""
    return float(
        np.max(
            np.abs(
                original.astype(np.float64, copy=False) - reconstructed.astype(np.float64, copy=False)
            )
        )
    )
