"""Bit-for-bit oracle for the vectorized bit-plane and FLE kernels.

The payload-assembly hot path was rewritten from multiply-and-sum loops to
``np.packbits``/``np.unpackbits`` and an 8x8 bit-matrix transpose, FLE
from a loop over block signatures to one pass through a layout table, and
every per-block max, difference, sign pack and prefix sum from a scan
along short rows to one contiguous pass over the flat array.  Each rewrite
must be invisible in the stream: these tests pin the new kernels against
the original reference implementations (embedded verbatim below), over
handcrafted extremes and over every fuzz generator family.
"""

from typing import Tuple

import numpy as np
import pytest

from repro.core import bitpack, blockfmt, compress, decompress, fle, predictor
from repro.core.errors import QuantizationOverflowError, StreamFormatError
from repro.core.fle import delta_dtype
from repro.core.quantize import _CONVERT_CHUNK, MAX_QUANT_MAGNITUDE, dequantize, quantize
from repro.qa.generators import FAMILIES, draw_case
from tests.helpers import fle_signature_blocks, seeded_rng

# ---------------------------------------------------------------------------
# Reference: the pre-rewrite kernels (multiply-and-sum / shift-and-mask),
# kept here as the ground truth the optimized kernels must reproduce.
# ---------------------------------------------------------------------------

_BIT_WEIGHTS = (np.uint8(1) << np.arange(8, dtype=np.uint8)).astype(np.uint8)


def _ref_pack_bits(bits):
    b = bits.reshape(bits.shape[:-1] + (bits.shape[-1] // 8, 8)).astype(np.uint8)
    return (b * _BIT_WEIGHTS).sum(axis=-1, dtype=np.uint16).astype(np.uint8)


def _ref_unpack_bits(packed, nbits):
    bits = (packed[..., :, None] >> np.arange(8, dtype=np.uint8)) & np.uint8(1)
    return bits.reshape(packed.shape[:-1] + (packed.shape[-1] * 8,))[..., :nbits]


def _ref_pack_planes(mag, fl):
    g, length = mag.shape
    if fl == 0:
        return np.empty((g, 0), dtype=np.uint8)
    planes = np.arange(fl, dtype=np.uint64)
    bits = (mag.astype(np.uint64)[:, None, :] >> planes[None, :, None]) & np.uint64(1)
    return _ref_pack_bits(bits.astype(np.uint8)).reshape(g, fl * length // 8)


def _ref_unpack_planes(payload, fl, length):
    g = payload.shape[0]
    if fl == 0:
        return np.zeros((g, length), dtype=np.int64)
    bits = _ref_unpack_bits(payload.reshape(g, fl, length // 8), length)
    weights = np.int64(1) << np.arange(fl, dtype=np.int64)
    return np.tensordot(bits.astype(np.int64), weights, axes=([1], [0]))


# ---------------------------------------------------------------------------
# Reference: the per-row kernels the flat scans replaced (verbatim; row
# reductions and scans along ``axis=1``, strided byte-image gathers and a
# float64 scratch array per dequantize chunk).
# ---------------------------------------------------------------------------


def _row_diff_1d(qblocks: np.ndarray) -> np.ndarray:
    d = np.empty_like(qblocks)
    d[:, 0] = qblocks[:, 0]
    np.subtract(qblocks[:, 1:], qblocks[:, :-1], out=d[:, 1:])
    return d


def _row_undiff_1d(dblocks: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    return np.cumsum(dblocks, axis=1, out=out)


def _row_pack_signs(deltas: np.ndarray) -> np.ndarray:
    return bitpack.pack_bits(deltas < 0)


def _row_unpack_signs(sign_bytes: np.ndarray, length: int) -> np.ndarray:
    # unpackbits yields 0/1 uint8, which reinterprets as bool for free
    return bitpack.unpack_bits(sign_bytes, length).view(np.bool_)


def _row_byte_image(mag: np.ndarray) -> np.ndarray:
    g, length = mag.shape
    if mag.dtype in (np.int32, np.uint32) and mag.flags.c_contiguous:
        u4 = mag
    else:
        u4 = mag.astype("<u4")
    return u4.view(np.uint8).reshape(g, length, 4)


def _row_pack_planes(mag: np.ndarray, fl: int) -> np.ndarray:
    g, length = mag.shape
    if fl == 0:
        return np.empty((g, 0), dtype=np.uint8)
    nb = (fl + 7) // 8
    image = _row_byte_image(mag)
    out = np.empty((g, fl, length // 8), dtype=np.uint8)
    for b in range(nb):
        slab = np.ascontiguousarray(image[:, :, b])  # byte b of every element
        tiles = slab.reshape(g, length // 8, 8).view("<u8")[..., 0]
        planes = bitpack._transpose8(tiles).view(np.uint8).reshape(g, length // 8, 8)
        hi = min(8, fl - 8 * b)  # byte-aligned fl keeps all 8 planes
        out[:, 8 * b : 8 * b + hi, :] = planes[:, :, :hi].transpose(0, 2, 1)
    return out.reshape(g, fl * length // 8)


def _row_unpack_planes(payload: np.ndarray, fl: int, length: int, dtype=np.int64) -> np.ndarray:
    g = payload.shape[0]
    if fl == 0:
        return np.zeros((g, length), dtype=dtype)
    nb = (fl + 7) // 8
    planes = payload.reshape(g, fl, length // 8)
    image = np.zeros((g, length, 4), dtype=np.uint8)
    for b in range(nb):
        hi = min(8, fl - 8 * b)
        if hi == 8:  # byte-aligned: every plane of this slab is present
            tilebytes = np.ascontiguousarray(
                planes[:, 8 * b : 8 * b + 8, :].transpose(0, 2, 1)
            )
        else:
            tilebytes = np.zeros((g, length // 8, 8), dtype=np.uint8)
            tilebytes[:, :, :hi] = planes[:, 8 * b :, :].transpose(0, 2, 1)
        tiles = tilebytes.reshape(g, length).view("<u8")
        image[:, :, b] = bitpack._transpose8(tiles).view(np.uint8).reshape(g, length)
    mag32 = image.reshape(g, 4 * length).view("<i4")
    # magnitudes are < 2**31, so the int32 view is already exact
    return mag32 if dtype == np.int32 else mag32.astype(dtype)


def _row_dequantize(q: np.ndarray, eb_abs: float, dtype: np.dtype) -> np.ndarray:
    n = q.shape[0] if q.ndim == 1 else q.size
    flat = q.reshape(-1)
    out = np.empty(n, dtype=dtype)
    scratch = np.empty(min(n, _CONVERT_CHUNK), dtype=np.float64)
    step = 2.0 * eb_abs
    for a in range(0, n, _CONVERT_CHUNK):
        b = min(a + _CONVERT_CHUNK, n)
        s = scratch[: b - a]
        np.multiply(flat[a:b], step, out=s, dtype=np.float64)
        out[a:b] = s
    return out.reshape(q.shape)


def _row_block_payload_sizes(offsets: np.ndarray, block: int) -> np.ndarray:
    mode, onb, fl = blockfmt.decode_offset_bytes(offsets)
    return blockfmt.payload_sizes(mode, onb, fl, block)


def _mag_blocks(data, eb_abs, block):
    """Magnitude blocks exactly as the encoder sees them."""
    q = quantize(data.reshape(-1), eb_abs, int32_terms=2)
    return np.abs(predictor.diff_1d(predictor.blockize_1d(q, block)))


# ---------------------------------------------------------------------------
# Handcrafted extremes
# ---------------------------------------------------------------------------


class TestPackBitsOracle:
    @pytest.mark.parametrize("shape", [(1, 8), (3, 64), (7, 8, 32), (5, 0)])
    def test_matches_reference(self, shape):
        rng = np.random.default_rng(42)
        bits = rng.integers(0, 2, size=shape).astype(np.uint8)
        np.testing.assert_array_equal(bitpack.pack_bits(bits), _ref_pack_bits(bits))

    @pytest.mark.parametrize("nbits", [8, 24, 64, 256])
    def test_unpack_matches_reference(self, nbits):
        rng = np.random.default_rng(43)
        packed = rng.integers(0, 256, size=(9, nbits // 8)).astype(np.uint8)
        np.testing.assert_array_equal(
            bitpack.unpack_bits(packed, nbits), _ref_unpack_bits(packed, nbits)
        )

    def test_bool_input_matches_uint8(self):
        rng = np.random.default_rng(44)
        bits = rng.integers(0, 2, size=(6, 128)).astype(np.uint8)
        np.testing.assert_array_equal(
            bitpack.pack_bits(bits.view(np.bool_)), _ref_pack_bits(bits)
        )


class TestPackPlanesOracle:
    @pytest.mark.parametrize("fl", list(range(32)))
    def test_random_magnitudes_every_fl(self, fl):
        rng = np.random.default_rng(fl)
        mag = rng.integers(0, 1 << fl, size=(11, 64)).astype(np.int64) if fl else np.zeros((11, 64), np.int64)
        payload = bitpack.pack_planes(mag, fl)
        np.testing.assert_array_equal(payload, _ref_pack_planes(mag, fl))
        np.testing.assert_array_equal(
            bitpack.unpack_planes(payload, fl, 64), _ref_unpack_planes(payload, fl, 64)
        )

    def test_fl31_cap(self):
        # magnitudes at the signed-int32 cap exercise the top plane
        mag = np.full((4, 32), (1 << 31) - 1, dtype=np.int64)
        mag[1] = 0
        mag[2, ::2] = 1 << 30
        payload = bitpack.pack_planes(mag, 31)
        np.testing.assert_array_equal(payload, _ref_pack_planes(mag, 31))
        np.testing.assert_array_equal(bitpack.unpack_planes(payload, 31, 32), mag)

    def test_zero_blocks_empty_payload(self):
        mag = np.zeros((5, 64), dtype=np.int64)
        assert bitpack.pack_planes(mag, 0).shape == (5, 0)
        np.testing.assert_array_equal(
            bitpack.unpack_planes(np.empty((5, 0), np.uint8), 0, 64),
            np.zeros((5, 64), np.int64),
        )

    def test_int32_input_and_output_dtypes(self):
        rng = np.random.default_rng(7)
        mag64 = rng.integers(0, 1 << 20, size=(13, 64)).astype(np.int64)
        mag32 = mag64.astype(np.int32)
        payload = bitpack.pack_planes(mag64, 20)
        np.testing.assert_array_equal(bitpack.pack_planes(mag32, 20), payload)
        ref = _ref_unpack_planes(payload, 20, 64)
        for dtype in (np.int32, np.int64):
            got = bitpack.unpack_planes(payload, 20, 64, dtype)
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, ref.astype(dtype))

    def test_apply_signs_matches_where(self):
        rng = np.random.default_rng(8)
        mag = rng.integers(0, 1 << 10, size=(9, 64)).astype(np.int64)
        negative = rng.integers(0, 2, size=(9, 64)).astype(bool)
        expected = np.where(negative, -mag, mag)
        np.testing.assert_array_equal(bitpack.apply_signs(mag.copy(), negative), expected)


# ---------------------------------------------------------------------------
# Property sweep: every fuzz generator family through the real pipeline
# ---------------------------------------------------------------------------


class TestGeneratorFamilyOracle:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_planes_bit_identical_across_family(self, family):
        cases = 0
        attempted = 0
        for index in range(12):
            case = draw_case(seed=0, index=index, family=family)
            if case.expect_error is not None:
                continue
            attempted += 1
            block = case.params["block"]
            try:
                mag = _mag_blocks(
                    case.data.astype(np.float64, copy=False), case.resolved_eb(), block
                )
            except QuantizationOverflowError:
                continue
            if int(mag.max(initial=0)) > (1 << 31) - 1:
                continue  # would overflow the stream format; encoder rejects it
            fls = bitpack.bit_length(mag.max(axis=1))
            for f in np.unique(fls):
                f = int(f)
                group = mag[fls == f]
                payload = bitpack.pack_planes(group, f)
                np.testing.assert_array_equal(payload, _ref_pack_planes(group, f))
                np.testing.assert_array_equal(
                    bitpack.unpack_planes(payload, f, block),
                    _ref_unpack_planes(payload, f, block),
                )
                cases += 1
        if attempted == 0:
            pytest.skip(f"family {family} only draws expected-error cases")
        assert cases > 0, f"family {family} produced no comparable groups"

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_sign_packing_bit_identical_across_family(self, family):
        for index in range(6):
            case = draw_case(seed=1, index=index, family=family)
            if case.expect_error is not None:
                continue
            block = case.params["block"]
            try:
                q = quantize(
                    case.data.astype(np.float64, copy=False).reshape(-1),
                    case.resolved_eb(),
                    int32_terms=2,
                )
            except QuantizationOverflowError:
                continue
            deltas = predictor.diff_1d(predictor.blockize_1d(q, block))
            signs = bitpack.pack_signs(deltas)
            np.testing.assert_array_equal(
                signs, _ref_pack_bits((deltas < 0).astype(np.uint8))
            )
            np.testing.assert_array_equal(
                bitpack.unpack_signs(signs, block), deltas < 0
            )


# ---------------------------------------------------------------------------
# FLE: the one-pass layout-table kernels against the group-loop reference
# ---------------------------------------------------------------------------
# Reference: the pre-rewrite encode/decode, which loop over every distinct
# (mode, fl, outlier-width) signature and move each group's rows with
# contiguous run copies.  Kept verbatim as the ground truth.

#: Above this many runs per row (as a fraction of rows) the run loop would
#: degrade to Python-loop speed, so scatter/gather switch to one flat copy.
_RUN_FALLBACK_DIVISOR = 4


def _check_row_max(row_max: np.ndarray) -> None:
    if row_max.size and int(row_max.max()) > int(MAX_QUANT_MAGNITUDE):
        raise QuantizationOverflowError(
            "a block delta exceeds 2**31 - 1 and cannot be represented by the "
            "5-bit fixed-length field; increase the error bound"
        )


def _contiguous_runs(starts: np.ndarray, width: int) -> Tuple[np.ndarray, np.ndarray]:
    """Maximal runs of rows whose payload segments are byte-adjacent.

    ``starts`` is ascending; rows ``i`` and ``i+1`` are adjacent exactly
    when ``starts[i+1] - starts[i] == width``.  Returns ``(lo, hi)`` row
    index bounds per run.
    """
    breaks = np.flatnonzero(np.diff(starts) != width)
    lo = np.concatenate(([0], breaks + 1))
    hi = np.concatenate((breaks + 1, [starts.size]))
    return lo, hi


def _flat_indices(starts: np.ndarray, width: int) -> np.ndarray:
    """Flat payload index of every byte of every row (fragmented fallback).
    One broadcast add materializes the whole index in a single pass."""
    return (starts[:, None] + np.arange(width, dtype=np.int64)).reshape(-1)


def _scatter_rows(out: np.ndarray, starts: np.ndarray, rows: np.ndarray) -> None:
    """Write each payload row ``rows[i]`` at ``out[starts[i]: starts[i]+w]``."""
    n, w = rows.shape
    if n == 0 or w == 0:
        return
    flat = np.ascontiguousarray(rows).reshape(-1)
    lo, hi = _contiguous_runs(starts, w)
    if lo.size > max(8, n // _RUN_FALLBACK_DIVISOR):
        out[_flat_indices(starts, w)] = flat
        return
    for a, b in zip(lo.tolist(), hi.tolist()):
        s = int(starts[a])
        out[s : s + (b - a) * w] = flat[a * w : b * w]


def _gather_rows(buf: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    if starts.size == 0 or width == 0:
        return np.empty((starts.size, width), dtype=np.uint8)
    if int(starts.max()) + width > buf.size:
        raise StreamFormatError("payload truncated: block data extends past end of stream")
    n = starts.size
    out = np.empty(n * width, dtype=np.uint8)
    lo, hi = _contiguous_runs(starts, width)
    if lo.size > max(8, n // _RUN_FALLBACK_DIVISOR):
        out[:] = buf[_flat_indices(starts, width)]
    else:
        for a, b in zip(lo.tolist(), hi.tolist()):
            s = int(starts[a])
            out[a * width : b * width] = buf[s : s + (b - a) * width]
    return out.reshape(n, width)


def _ref_encode_blocks(dblocks: np.ndarray, use_outlier: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Encode delta blocks; returns ``(offset_bytes, payload)``.

    ``use_outlier`` selects the compressor mode: ``False`` is CUSZP2-P
    (strict Plain-FLE, the extreme-throughput mode), ``True`` is CUSZP2-O
    (per-block best of Plain/Outlier).
    """
    nblocks, L = dblocks.shape
    mag = np.abs(dblocks)

    if use_outlier:
        # one pass over the magnitudes yields every reduction we need: the
        # residual row max (excluding the outlier column), the plain row
        # max (its elementwise max with column 0) and the global check
        rest_max = mag[:, 1:].max(axis=1)
        row_max = np.maximum(rest_max, mag[:, 0])
        _check_row_max(row_max)
        fl_plain = bitpack.bit_length(row_max).astype(np.int64)
        fl_rest = bitpack.bit_length(rest_max).astype(np.int64)
        omag = mag[:, 0].astype(np.int64)
        onb = blockfmt.outlier_byte_count(omag)
        sign_bytes = L // 8
        cost_plain = np.where(fl_plain == 0, 0, sign_bytes * (1 + fl_plain))
        cost_outlier = sign_bytes + onb + fl_rest * sign_bytes
        mode = (cost_outlier < cost_plain).astype(np.uint8)
    else:
        row_max = mag.max(axis=1)
        _check_row_max(row_max)
        fl_plain = bitpack.bit_length(row_max).astype(np.int64)
        omag = np.zeros(nblocks, dtype=np.int64)
        onb = np.zeros(nblocks, dtype=np.int64)
        fl_rest = fl_plain  # unused
        mode = np.zeros(nblocks, dtype=np.uint8)

    fl = np.where(mode == blockfmt.MODE_OUTLIER, fl_rest, fl_plain)
    offsets = blockfmt.encode_offset_bytes(mode, np.maximum(onb, 1), fl)
    sizes = blockfmt.payload_sizes(mode, np.where(mode == 1, onb, 0), fl, L)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int64)
    # every payload byte belongs to exactly one block row (sizes are exact),
    # so the buffer needs no zero fill
    payload = np.empty(int(sizes.sum()), dtype=np.uint8)

    signs_all = _row_pack_signs(dblocks)

    # --- plain groups, keyed by fixed length ------------------------------
    plain_sel = mode == blockfmt.MODE_PLAIN
    plain_fls = np.unique(fl[plain_sel])
    for f in plain_fls:
        f = int(f)
        if f == 0:
            continue  # zero blocks carry no payload
        idx = np.flatnonzero(plain_sel & (fl == f))
        rows = np.concatenate([signs_all[idx], _row_pack_planes(mag[idx], f)], axis=1)
        _scatter_rows(payload, starts[idx], rows)

    # --- outlier groups, keyed by (fixed length, outlier width) -----------
    if use_outlier:
        out_sel = mode == blockfmt.MODE_OUTLIER
        if out_sel.any():
            keys = fl[out_sel] * 8 + onb[out_sel]
            for key in np.unique(keys):
                f, k = int(key) // 8, int(key) % 8
                idx = np.flatnonzero(out_sel & (fl == f) & (onb == k))
                obytes = (
                    (omag[idx, None] >> (8 * np.arange(k, dtype=np.int64))) & 0xFF
                ).astype(np.uint8)
                # fancy indexing already copied the group's rows, so the
                # outlier column can be zeroed in place
                mag_rest = mag[idx]
                mag_rest[:, 0] = 0
                rows = np.concatenate(
                    [signs_all[idx], obytes, _row_pack_planes(mag_rest, f)], axis=1
                )
                _scatter_rows(payload, starts[idx], rows)

    return offsets, payload


def _ref_decode_blocks(offsets: np.ndarray, payload: np.ndarray, block: int) -> np.ndarray:
    """Invert :func:`_ref_encode_blocks` back to ``(nblocks, L)`` signed deltas
    (int32 when :func:`delta_dtype` proves it exact, else int64)."""
    nblocks = offsets.shape[0]
    L = block
    sign_bytes = L // 8
    mode, onb, fl = blockfmt.decode_offset_bytes(offsets)
    sizes = blockfmt.payload_sizes(mode, onb, fl, L)
    total = int(sizes.sum())
    if total != payload.size:
        raise StreamFormatError(
            f"offset bytes describe {total} payload bytes but stream holds {payload.size}"
        )
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int64)
    dtype = delta_dtype(offsets, block)
    deltas = np.zeros((nblocks, L), dtype=dtype)

    fl64 = fl.astype(np.int64)
    keys = mode.astype(np.int64) * 512 + fl64 * 8 + onb.astype(np.int64)
    for key in np.unique(keys):
        m, rem = divmod(int(key), 512)
        f, k = divmod(rem, 8)
        idx = np.flatnonzero(keys == key)
        if m == blockfmt.MODE_PLAIN and f == 0:
            continue  # zero blocks decode to all-zero deltas
        width = int(sizes[idx[0]])
        rows = _gather_rows(payload, starts[idx], width)
        negative = _row_unpack_signs(rows[:, :sign_bytes], L)
        if m == blockfmt.MODE_PLAIN:
            mag = _row_unpack_planes(rows[:, sign_bytes:], f, L, dtype)
        else:
            obytes = rows[:, sign_bytes : sign_bytes + k].astype(np.int64)
            omag = (obytes << (8 * np.arange(k, dtype=np.int64))[None, :]).sum(axis=1)
            mag = _row_unpack_planes(rows[:, sign_bytes + k :], f, L, dtype)
            mag[:, 0] = omag
        deltas[idx] = bitpack.apply_signs(mag, negative)
    return deltas


def _signed(mag: np.ndarray, rng) -> np.ndarray:
    return mag * rng.choice(np.array([-1, 1], dtype=np.int64), size=mag.shape)


def _random_deltas(rng, nblocks: int, block: int) -> np.ndarray:
    """Mixed blocks: per-block bit length 0..31, zero blocks, and large
    first elements (outlier candidates) of every byte width."""
    bits = rng.integers(0, 32, size=(nblocks, 1))
    mag = rng.integers(0, 1 << 31, size=(nblocks, block)) >> (31 - bits)
    mag[rng.random(nblocks) < 0.2] = 0
    spike = rng.random(nblocks) < 0.3
    mag[spike, 0] = rng.integers(0, 1 << 31, size=int(spike.sum())) >> rng.integers(
        0, 31, size=int(spike.sum())
    )
    return _signed(mag.astype(np.int64), rng)


def _assert_fle_identical(dblocks: np.ndarray, use_outlier: bool) -> np.ndarray:
    block = dblocks.shape[1]
    ref_off, ref_pay = _ref_encode_blocks(dblocks, use_outlier)
    off, pay = fle.encode_blocks(dblocks, use_outlier)
    np.testing.assert_array_equal(off, ref_off)
    assert pay.dtype == np.uint8
    assert pay.tobytes() == ref_pay.tobytes(), (
        f"payload differs (sizes {pay.size} vs {ref_pay.size})"
    )
    got = fle.decode_blocks(off, pay, block)
    ref = _ref_decode_blocks(ref_off, ref_pay, block)
    assert got.dtype == ref.dtype
    np.testing.assert_array_equal(got, ref)
    np.testing.assert_array_equal(got, dblocks)
    return off


def _raises_alike(call_new, call_ref):
    """Both calls raise the same exception type with the same message."""
    with pytest.raises(Exception) as new:
        call_new()
    with pytest.raises(Exception) as ref:
        call_ref()
    assert type(new.value) is type(ref.value)
    assert str(new.value) == str(ref.value)
    return new.value


class TestFLEOracle:
    @pytest.mark.parametrize("use_outlier", [False, True])
    @pytest.mark.parametrize("block", [8, 16, 32, 64, 128])
    def test_random_blocks(self, block, use_outlier):
        rng = seeded_rng("fle-oracle", block, use_outlier)
        for nblocks in (0, 1, 7, 300):
            _assert_fle_identical(_random_deltas(rng, nblocks, block), use_outlier)

    @pytest.mark.parametrize("block", [8, 16, 32, 64, 128])
    def test_one_tile_holds_every_signature(self, block):
        dblocks, expect = fle_signature_blocks(block, copies=3)
        off = _assert_fle_identical(dblocks, True)
        assert set(np.unique(off).tolist()) == expect
        assert len(dblocks) <= fle.TILE_BLOCKS
        # CUSZP2-P: the same blocks all go Plain-FLE
        off = _assert_fle_identical(dblocks, False)
        assert not (off & 0x80).any()

    @pytest.mark.parametrize("block", [8, 32, 128])
    def test_decode_every_offset_byte(self, block):
        # streams the encoder never writes (Outlier-FLE with fl 31, Plain
        # offset bytes with outlier-width bits set, arbitrary plane bits
        # above a block's data) still decode exactly like the reference,
        # in int64 and -- without 4-byte outliers and wide planes -- int32
        rng = seeded_rng("fle-every-offset", block)
        every = np.arange(256, dtype=np.uint8)
        _, onb, flv = blockfmt.decode_offset_bytes(every)
        narrow = every[(onb <= 3) & (block << flv.astype(np.int64) < 1 << 30)]
        for codes, dtype in ((every, np.int64), (narrow, np.int32)):
            offsets = rng.permutation(np.repeat(codes, 2))
            size = int(fle.block_payload_sizes(offsets, block).sum())
            payload = rng.integers(0, 256, size=size).astype(np.uint8)
            got = fle.decode_blocks(offsets, payload, block)
            ref = _ref_decode_blocks(offsets, payload, block)
            assert got.dtype == ref.dtype == dtype
            np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("use_outlier", [False, True])
    def test_int64_decode_paths(self, use_outlier):
        # L * 2**fl_max >= 2**30 forces int64; one plane less stays int32
        for f, dtype in ((24, np.int32), (25, np.int64)):
            d = np.zeros((3, 32), dtype=np.int64)
            d[1] = -((1 << f) - 1)
            d[2, 5] = 1
            off = _assert_fle_identical(d, use_outlier)
            assert delta_dtype(off, 32) == dtype
        # a 4-byte outlier forces int64 even with tiny residual planes
        d = np.zeros((2, 32), dtype=np.int64)
        d[0, 0] = -int(MAX_QUANT_MAGNITUDE)
        d[0, 1:] = 1
        d[1, 3] = 2
        off = _assert_fle_identical(d, True)
        if use_outlier:
            assert delta_dtype(off, 32) == np.int64
            assert (off[0] >> 5) & 3 == 3  # outlier width 4 bytes

    @pytest.mark.parametrize("use_outlier", [False, True])
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_tile_boundaries(self, use_outlier, delta):
        nblocks = fle.TILE_BLOCKS + delta
        rng = seeded_rng("fle-tiles", delta + 1, use_outlier)
        mag = rng.integers(0, 1 << 9, size=(nblocks, 8)) >> rng.integers(
            0, 10, size=(nblocks, 1)
        )
        mag[rng.random(nblocks) < 0.3] = 0
        mag[-3:-1] = 0  # zero blocks right before the last (outlier) block
        mag[-1, 0] = 1 << 20
        mag[0] = (1 << 13) - 1  # one block needs the second magnitude byte
        _assert_fle_identical(_signed(mag.astype(np.int64), rng), use_outlier)

    def test_all_zero_tile_between_tiles(self):
        d = np.zeros((2 * fle.TILE_BLOCKS + 5, 8), dtype=np.int64)
        d[: fle.TILE_BLOCKS, 1] = 3
        d[-2:, 0] = -70_000
        for use_outlier in (False, True):
            _assert_fle_identical(d, use_outlier)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_generator_families(self, family):
        checked = 0
        for index in range(6):
            case = draw_case(seed=2, index=index, family=family)
            if case.expect_error is not None:
                continue
            block = case.params["block"]
            try:
                q = quantize(
                    case.data.astype(np.float64, copy=False).reshape(-1),
                    case.resolved_eb(),
                    int32_terms=2,
                )
            except QuantizationOverflowError:
                continue
            deltas = predictor.diff_1d(predictor.blockize_1d(q, block))
            if int(np.abs(deltas).max(initial=0)) > int(MAX_QUANT_MAGNITUDE):
                continue  # the encoders' overflow parity is pinned below
            for use_outlier in (False, True):
                _assert_fle_identical(deltas, use_outlier)
            checked += 1
        if checked == 0:
            pytest.skip(f"family {family} draws no encodable cases")

    @pytest.mark.parametrize("use_outlier", [False, True])
    def test_overflow_raises_alike(self, use_outlier):
        d = np.zeros((4, 32), dtype=np.int64)
        d[2, 7] = int(MAX_QUANT_MAGNITUDE) + 1
        err = _raises_alike(
            lambda: fle.encode_blocks(d, use_outlier),
            lambda: _ref_encode_blocks(d, use_outlier),
        )
        assert isinstance(err, QuantizationOverflowError)

    @pytest.mark.parametrize("block", [8, 32, 128])
    def test_truncated_and_overlong_payloads_raise_alike(self, block):
        dblocks, _ = fle_signature_blocks(block, seed=1)
        off, pay = _ref_encode_blocks(dblocks, True)
        bad = [
            pay[:-1],
            pay[: pay.size // 2],
            pay[:0],
            np.concatenate([pay, np.zeros(1, dtype=np.uint8)]),
            np.concatenate([pay, pay[:block]]),
        ]
        for payload in bad:
            err = _raises_alike(
                lambda: fle.decode_blocks(off, payload, block),
                lambda: _ref_decode_blocks(off, payload, block),
            )
            assert isinstance(err, StreamFormatError)
        # offset bytes that claim more (or fewer) bytes than the stream
        for grown in (off[:-1], np.concatenate([off, off[-3:]])):
            err = _raises_alike(
                lambda: fle.decode_blocks(grown, pay, block),
                lambda: _ref_decode_blocks(grown, pay, block),
            )
            assert isinstance(err, StreamFormatError)


# ---------------------------------------------------------------------------
# Flat scans: one contiguous pass per kernel against the per-row references
# ---------------------------------------------------------------------------


def _random_quant_blocks(rng, nblocks: int, block: int, dtype) -> np.ndarray:
    """Quant codes whose width varies per block; int32 codes stay inside
    the ``(2**31 - 1) // 2`` bound quantize guarantees for 1-D deltas."""
    top = int(MAX_QUANT_MAGNITUDE) // 2 if dtype == np.int32 else 1 << 40
    q = rng.integers(-top, top, size=(nblocks, block), dtype=np.int64)
    return (q >> rng.integers(0, 40, size=(nblocks, 1))).astype(dtype)


class TestFlatScanOracle:
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("block", [8, 16, 32, 64, 128])
    def test_random_blocks(self, block, dtype):
        rng = seeded_rng("flat-scan", block, np.dtype(dtype).name)
        for nblocks in (0, 1, 7, 300):
            q = _random_quant_blocks(rng, nblocks, block, dtype)
            d = predictor.diff_1d(q)
            assert d.dtype == dtype
            np.testing.assert_array_equal(d, _row_diff_1d(q))
            back = predictor.undiff_1d(d)
            assert back.dtype == dtype
            np.testing.assert_array_equal(back, _row_undiff_1d(d))
            np.testing.assert_array_equal(back, q)
            wide = np.empty(d.shape, dtype=np.int64)  # int64 out for int32 deltas
            assert predictor.undiff_1d(d, out=wide) is wide
            np.testing.assert_array_equal(wide, q)

            signs = bitpack.pack_signs(d)
            np.testing.assert_array_equal(signs, _row_pack_signs(d))
            np.testing.assert_array_equal(
                bitpack.unpack_signs(signs, block), _row_unpack_signs(signs, block)
            )
            mag = np.abs(d)
            if int(mag.max(initial=0)) > int(MAX_QUANT_MAGNITUDE):
                continue  # int64 codes: no stream format for these deltas
            fl = int(bitpack.bit_length(mag.max(initial=0)))
            planes = bitpack.pack_planes(mag, fl)
            np.testing.assert_array_equal(planes, _row_pack_planes(mag, fl))
            for out_dtype in (np.int32, np.int64):
                np.testing.assert_array_equal(
                    bitpack.unpack_planes(planes, fl, block, out_dtype),
                    _row_unpack_planes(planes, fl, block, out_dtype),
                )
            for use_outlier in (False, True):
                _assert_fle_identical(d, use_outlier)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_int32_running_total_wraps(self, sign):
        # each block's own prefix sums stay below 2**30, but the flat total
        # over all blocks passes 2**31 within two blocks
        d = np.zeros((9, 32), dtype=np.int32)
        d[:, 0] = sign * ((1 << 30) - 1)
        d[:, 1::2] = sign * 3
        d[:, 2::2] = -sign * 2
        assert abs(int(d.astype(np.int64).sum())) > 1 << 32
        got = predictor.undiff_1d(d)
        assert got.dtype == np.int32
        np.testing.assert_array_equal(got, _row_undiff_1d(d))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_int64_running_total_wraps(self, sign):
        d = np.zeros((5, 16), dtype=np.int64)
        d[:, 0] = sign * (1 << 62)
        d[:, 3] = sign * ((1 << 61) + 12345)
        got = predictor.undiff_1d(d)
        np.testing.assert_array_equal(got, _row_undiff_1d(d))
        assert got[-1, -1] == sign * ((1 << 62) + (1 << 61) + 12345)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("mode", ["plain", "outlier"])
    def test_int32_stream_running_total_crosses(self, mode, sign):
        # every block holds one quant code near 2**23: three-byte outliers,
        # so the stream decodes in int32 while the flat running total of
        # its deltas (the sum of the block heads) passes 2**31 in magnitude
        rng = seeded_rng("flat-scan-stream", mode, sign + 1)
        codes = sign * rng.integers((1 << 22), (1 << 23) - 1, size=600)
        assert abs(int(codes.sum())) > 1 << 31
        q = np.repeat(codes, 32).astype(np.float64)
        q[5::32] += 1  # a residual plane per block
        stream = compress(q, abs=0.5, mode=mode)
        from repro.core import stream as stream_mod

        header, offsets, _ = stream_mod.split(stream)
        assert delta_dtype(offsets, header.block) == np.int32
        np.testing.assert_array_equal(decompress(stream), q)

    @pytest.mark.parametrize("use_outlier", [False, True])
    def test_or_differs_from_max(self, use_outlier):
        # OR of a row's magnitudes exceeds its max but keeps its bit length
        d = np.zeros((4, 32), dtype=np.int64)
        d[0, [0, 1]] = [5, -2]  # OR 7, max 5
        d[1, [2, 3]] = [-4, 3]  # OR 7, max 4
        d[2, [0, 9]] = [1 << 30, (1 << 30) - 1]  # OR 2**31 - 1, max 2**30
        d[3, [0, 1, 2]] = [-(1 << 20), 1 << 5, -(1 << 12)]
        mag = np.abs(d)
        assert (np.bitwise_or.reduce(mag, axis=1) != mag.max(axis=1)).all()
        for dtype in (np.int32, np.int64):
            _assert_fle_identical(d.astype(dtype), use_outlier)

    @pytest.mark.parametrize("column", [0, 5])
    @pytest.mark.parametrize("use_outlier", [False, True])
    def test_row_max_boundary(self, use_outlier, column):
        for sign in (1, -1):
            d = np.zeros((3, 32), dtype=np.int64)
            d[1, column] = sign * int(MAX_QUANT_MAGNITUDE)
            d[1, 7 - column] = 1
            _assert_fle_identical(d, use_outlier)
            d[1, column] = sign * (int(MAX_QUANT_MAGNITUDE) + 1)
            err = _raises_alike(
                lambda: fle.encode_blocks(d, use_outlier),
                lambda: _ref_encode_blocks(d, use_outlier),
            )
            assert isinstance(err, QuantizationOverflowError)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_non_contiguous_inputs(self, dtype):
        rng = seeded_rng("flat-scan-strided", np.dtype(dtype).name)
        # narrowed so every block's prefix sums fit the dtype
        base = _random_quant_blocks(rng, 40, 64, dtype) >> 8
        views = {
            "column stride": base[:, ::2],
            "row stride": base[::2, :32],
            "fortran": np.asfortranarray(base[:, :32]),
        }
        for name, q in views.items():
            assert not q.flags.c_contiguous, name
            np.testing.assert_array_equal(predictor.diff_1d(q), _row_diff_1d(q))
            np.testing.assert_array_equal(predictor.undiff_1d(q), _row_undiff_1d(q))
            np.testing.assert_array_equal(bitpack.pack_signs(q), _row_pack_signs(q))
        with pytest.raises(ValueError, match="C-contiguous"):
            predictor.undiff_1d(base[:, :32], out=np.empty((32, 40), dtype).T)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dequantize(self, dtype):
        rng = seeded_rng("flat-dequantize", np.dtype(dtype).name)
        # step 1 + 2**-24 puts q * step exactly halfway between two float32
        # neighbours whenever q is a power of two below 2**24
        eb = (1.0 + 2.0**-24) / 2.0
        pow2 = (1 << np.arange(24, dtype=np.int64)).astype(np.int64)
        halfway = np.concatenate([pow2, -pow2, 3 * pow2[:20]])
        exact = halfway.astype(np.float64) * (2.0 * eb)
        assert (exact != exact.astype(np.float32)).all()
        for q in (
            halfway,
            halfway.astype(np.int32),
            rng.integers(-(1 << 40), 1 << 40, size=(17, 32)),
            rng.integers(-(1 << 30), 1 << 30, size=_CONVERT_CHUNK + 5).astype(np.int32),
        ):
            for e in (eb, 0.37e-3):
                got = dequantize(q, e, np.dtype(dtype))
                ref = _row_dequantize(q, e, np.dtype(dtype))
                assert got.dtype == ref.dtype and got.shape == ref.shape
                assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("block", [8, 16, 32, 64, 128])
    def test_block_payload_sizes_every_offset_byte(self, block):
        every = np.arange(256, dtype=np.uint8)
        offsets = seeded_rng("flat-sizes", block).permutation(np.repeat(every, 3))
        for off in (every, offsets, offsets[::2]):
            got = fle.block_payload_sizes(off, block)
            ref = _row_block_payload_sizes(off, block)
            assert got.dtype == ref.dtype == np.int64
            np.testing.assert_array_equal(got, ref)
