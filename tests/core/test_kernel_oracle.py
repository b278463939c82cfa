"""Bit-for-bit oracle for the vectorized bit-plane and FLE kernels.

The payload-assembly hot path was rewritten from multiply-and-sum loops to
``np.packbits``/``np.unpackbits`` and an 8x8 bit-matrix transpose, and FLE
from a loop over block signatures to one pass through a layout table.
Each rewrite must be invisible in the stream: these tests pin the new
kernels against the original reference implementations (embedded verbatim
below), over handcrafted extremes and over every fuzz generator family.
"""

from typing import Tuple

import numpy as np
import pytest

from repro.core import bitpack, blockfmt, compress, decompress, fle, predictor
from repro.core.backends import available_backends, registered_backends
from repro.core.errors import QuantizationOverflowError, StreamFormatError
from repro.core.fle import delta_dtype
from repro.core.quantize import MAX_QUANT_MAGNITUDE, quantize
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
# Kernel backends: every registered backend must be stream-invisible
# ---------------------------------------------------------------------------


def _backend_or_skip(name: str) -> str:
    """Skip (with the reason on the report) when the backend's runtime is
    missing on this host -- ``numba`` on a CPU-only CI image."""
    if name not in available_backends():
        pytest.skip(f"kernel backend {name!r} unavailable: numba is not installed")
    return name


def _assert_stream_identical(data, name, **kwargs):
    ref = compress(data, kernel_backend="numpy", **kwargs)
    got = compress(data, kernel_backend=name, **kwargs)
    assert got.tobytes() == ref.tobytes(), (
        f"backend {name!r} stream differs from numpy "
        f"(sizes {got.size} vs {ref.size})"
    )
    assert (
        decompress(ref, kernel_backend=name).tobytes()
        == decompress(ref, kernel_backend="numpy").tobytes()
    ), f"backend {name!r} decode differs from numpy"
    return ref


@pytest.mark.parametrize("backend", registered_backends())
class TestBackendStreamOracle:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_generator_families_bit_identical(self, backend, family):
        _backend_or_skip(backend)
        checked = 0
        for index in range(4):
            case = draw_case(seed=3, index=index, family=family)
            if case.expect_error is not None or case.params["predictor_ndim"] != 1:
                continue
            # bound the pure-Python fused kernels' cost; block and group
            # structure repeats well before this
            data = case.data.reshape(-1)[:4096]
            _assert_stream_identical(data, backend, **case.codec_kwargs)
            checked += 1
        if checked == 0:
            pytest.skip(f"family {family} draws no applicable 1-D cases")

    @pytest.mark.parametrize("fl", list(range(32)))
    def test_every_bit_plane_count(self, backend, fl):
        _backend_or_skip(backend)
        # quant values alternate 0 and (2**fl - 1): every block's deltas
        # have bit length exactly fl, and nothing overflows
        m = (1 << fl) - 1
        q = np.tile([0, m], 40).astype(np.float64)
        data = 2.0 * q  # abs bound 1.0 quantizes x -> round(x / 2)
        for mode in ("plain", "outlier"):
            _assert_stream_identical(data, backend, abs=1.0, mode=mode)

    def test_denormals(self, backend):
        _backend_or_skip(backend)
        for dtype in (np.float32, np.float64):
            tiny = float(np.finfo(dtype).tiny)
            rng = np.random.default_rng(9)
            data = (rng.normal(size=640) * tiny).astype(dtype)
            data[::7] = np.array(tiny, dtype=dtype) / 4  # true denormals
            _assert_stream_identical(data, backend, abs=tiny / 16)
            _assert_stream_identical(data, backend, rel=1e-3)

    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 63, 65, 257])
    def test_trailing_partial_blocks(self, backend, n):
        _backend_or_skip(backend)
        rng = np.random.default_rng(n)
        data = np.cumsum(rng.normal(size=n)).astype(np.float32)
        for mode in ("plain", "outlier"):
            _assert_stream_identical(data, backend, rel=1e-3, mode=mode, block=32)

    def test_chunked_encode_and_decode(self, backend):
        _backend_or_skip(backend)
        rng = np.random.default_rng(11)
        data = np.cumsum(rng.normal(size=2_000)).astype(np.float32)
        from repro.core import CuSZp2, ErrorBound

        ref = compress(data, rel=1e-3, kernel_backend="numpy")
        for chunk_blocks in (1, 3, 64):
            got = CuSZp2(
                ErrorBound.relative(1e-3),
                chunk_blocks=chunk_blocks,
                kernel_backend=backend,
            ).compress(data)
            assert got.tobytes() == ref.tobytes()
            assert (
                decompress(ref, kernel_backend=backend, chunk_blocks=chunk_blocks)
                .tobytes()
                == decompress(ref, kernel_backend="numpy").tobytes()
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

    signs_all = bitpack.pack_signs(dblocks)

    # --- plain groups, keyed by fixed length ------------------------------
    plain_sel = mode == blockfmt.MODE_PLAIN
    plain_fls = np.unique(fl[plain_sel])
    for f in plain_fls:
        f = int(f)
        if f == 0:
            continue  # zero blocks carry no payload
        idx = np.flatnonzero(plain_sel & (fl == f))
        rows = np.concatenate([signs_all[idx], bitpack.pack_planes(mag[idx], f)], axis=1)
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
                    [signs_all[idx], obytes, bitpack.pack_planes(mag_rest, f)], axis=1
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
        negative = bitpack.unpack_signs(rows[:, :sign_bytes], L)
        if m == blockfmt.MODE_PLAIN:
            mag = bitpack.unpack_planes(rows[:, sign_bytes:], f, L, dtype)
        else:
            obytes = rows[:, sign_bytes : sign_bytes + k].astype(np.int64)
            omag = (obytes << (8 * np.arange(k, dtype=np.int64))[None, :]).sum(axis=1)
            mag = bitpack.unpack_planes(rows[:, sign_bytes + k :], f, L, dtype)
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
