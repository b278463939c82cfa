"""End-to-end tests of compress()/decompress() and the CuSZp2 class."""

import numpy as np
import pytest

from repro import CuSZp2, ErrorBound, compress, compression_ratio, decompress
from repro.core.compressor import CompressorConfig, validate_chunk_blocks
from repro.core.errors import InvalidInputError

from tests.helpers import assert_error_bounded, value_range


class TestRoundTrip:
    @pytest.mark.parametrize("mode", ["plain", "outlier"])
    @pytest.mark.parametrize("rel", [1e-2, 1e-3, 1e-4])
    def test_smooth_f32(self, smooth_f32, mode, rel):
        buf = compress(smooth_f32, rel=rel, mode=mode)
        recon = decompress(buf)
        assert recon.dtype == np.float32
        assert_error_bounded(smooth_f32, recon, rel * value_range(smooth_f32))

    @pytest.mark.parametrize("mode", ["plain", "outlier"])
    def test_smooth_f64(self, smooth_f64, mode):
        buf = compress(smooth_f64, rel=1e-4, mode=mode)
        recon = decompress(buf)
        assert recon.dtype == np.float64
        assert_error_bounded(smooth_f64, recon, 1e-4 * value_range(smooth_f64))

    def test_rough_data(self, rough_f32):
        buf = compress(rough_f32, rel=1e-3)
        assert_error_bounded(rough_f32, decompress(buf), 1e-3 * value_range(rough_f32))

    def test_sparse_data_and_zero_block_ratio(self, sparse_f32):
        buf = compress(sparse_f32, rel=1e-2)
        cr = compression_ratio(sparse_f32, buf)
        # Zero blocks cost one byte each; with 200 touched blocks out of
        # ~1563 the ratio still lands far above any dense encoding.
        assert cr > 30
        assert_error_bounded(sparse_f32, decompress(buf), 1e-2 * value_range(sparse_f32))

    def test_absolute_bound(self, smooth_f32):
        buf = compress(smooth_f32, abs=0.5)
        assert_error_bounded(smooth_f32, decompress(buf), 0.5)

    @pytest.mark.parametrize("n", [1, 7, 31, 32, 33, 63, 64, 65, 1000])
    def test_awkward_lengths(self, rng, n):
        data = rng.normal(size=n).astype(np.float32)
        buf = compress(data, rel=1e-3)
        recon = decompress(buf)
        assert recon.shape == (n,)
        assert_error_bounded(data, recon, 1e-3 * max(value_range(data), 1e-30))

    def test_constant_data(self):
        data = np.full(1000, 3.25, dtype=np.float32)
        buf = compress(data, rel=1e-3)
        recon = decompress(buf)
        assert np.abs(recon - data).max() <= 1e-3 * 3.25 * 1.000001

    def test_constant_zero_data(self):
        data = np.zeros(1000, dtype=np.float32)
        buf = compress(data, rel=1e-3)
        assert np.array_equal(decompress(buf), data)
        assert compression_ratio(data, buf) > 30

    def test_shape_restored_2d_3d(self, rng):
        for shape in [(20, 30), (8, 9, 10)]:
            data = rng.normal(size=shape).astype(np.float32)
            recon = decompress(compress(data, rel=1e-3))
            assert recon.shape == shape

    def test_4d_input_flattened(self, rng):
        data = rng.normal(size=(2, 3, 4, 5)).astype(np.float32)
        recon = decompress(compress(data, rel=1e-3))
        assert recon.shape == (120,)

    def test_negative_only_data(self, rng):
        data = -np.abs(rng.normal(size=5000)).astype(np.float32) - 1.0
        buf = compress(data, rel=1e-3)
        assert_error_bounded(data, decompress(buf), 1e-3 * value_range(data))

    def test_huge_dynamic_range(self):
        data = np.array([1e-10, 1e-5, 1.0, 1e5], dtype=np.float64)
        buf = compress(data, rel=1e-3)
        assert_error_bounded(data, decompress(buf), 1e-3 * value_range(data))


class TestModes:
    def test_outlier_never_larger_than_plain(self, smooth_f32, rough_f32, sparse_f32):
        for data in (smooth_f32, rough_f32, sparse_f32):
            s_p = compress(data, rel=1e-3, mode="plain")
            s_o = compress(data, rel=1e-3, mode="outlier")
            assert s_o.size <= s_p.size

    def test_outlier_wins_clearly_on_smooth_data(self, smooth_f32):
        # Paper Fig. 15 / Table III: ~2x on globally smooth data (HACC, CESM).
        s_p = compress(smooth_f32, rel=1e-3, mode="plain")
        s_o = compress(smooth_f32, rel=1e-3, mode="outlier")
        assert s_p.size / s_o.size > 1.5

    def test_modes_reconstruct_identically(self, smooth_f32):
        # Same lossy step -> identical reconstruction (paper Section V-D).
        r_p = decompress(compress(smooth_f32, rel=1e-3, mode="plain"))
        r_o = decompress(compress(smooth_f32, rel=1e-3, mode="outlier"))
        assert np.array_equal(r_p, r_o)

    def test_near_tie_on_rough_data(self, rough_f32):
        # No smoothness -> the two modes are within a few percent (paper:
        # "Plain and Outlier modes achieve almost identical compression
        # ratios" on HACC VX / QMCPack).
        s_p = compress(rough_f32, rel=1e-3, mode="plain")
        s_o = compress(rough_f32, rel=1e-3, mode="outlier")
        assert s_p.size / s_o.size < 1.35


class TestMultiDimensional:
    @pytest.mark.parametrize("ndim,block", [(2, 64), (3, 64)])
    def test_lorenzo_round_trip(self, rng, ndim, block):
        shape = (24, 40) if ndim == 2 else (12, 16, 20)
        data = rng.normal(size=shape)
        data = np.cumsum(data, axis=0).astype(np.float32)
        buf = compress(data, rel=1e-3, predictor_ndim=ndim, block=block)
        recon = decompress(buf)
        assert recon.shape == shape
        assert_error_bounded(data, recon, 1e-3 * value_range(data))

    def test_lorenzo_requires_matching_ndim(self, rng):
        with pytest.raises(InvalidInputError):
            compress(rng.normal(size=100).astype(np.float32), rel=1e-3, predictor_ndim=2, block=64)


class TestChunking:
    def test_chunked_equals_unchunked(self, rng):
        data = rng.normal(size=10_000).astype(np.float32)
        big = CuSZp2(ErrorBound.relative(1e-3), chunk_blocks=1 << 20).compress(data)
        small = CuSZp2(ErrorBound.relative(1e-3), chunk_blocks=7).compress(data)
        assert np.array_equal(big, small)

    def test_chunked_decompress(self, rng):
        data = rng.normal(size=10_000).astype(np.float32)
        buf = compress(data, rel=1e-3)
        a = decompress(buf, chunk_blocks=11)
        b = decompress(buf)
        assert np.array_equal(a, b)

    def test_nonpositive_chunk_blocks_rejected(self, rng):
        data = rng.normal(size=1000).astype(np.float32)
        buf = compress(data, rel=1e-3)
        for bad in (0, -3, 2.5, "8"):
            with pytest.raises(InvalidInputError, match="chunk_blocks"):
                decompress(buf, chunk_blocks=bad)

    def test_instance_chunk_blocks_reaches_decompress(self, rng, monkeypatch):
        from repro.core import compressor as compressor_mod

        data = rng.normal(size=1000).astype(np.float32)
        codec = CuSZp2(ErrorBound.relative(1e-3), chunk_blocks=17)
        buf = codec.compress(data)
        seen = {}
        real = compressor_mod.decompress

        def spy(b, **kw):
            seen.update(kw)
            return real(b, **kw)

        monkeypatch.setattr(compressor_mod, "decompress", spy)
        out = codec.decompress(buf)
        assert seen["chunk_blocks"] == 17
        assert np.array_equal(out, real(buf))
        # an explicit override still wins over the instance setting
        seen.clear()
        codec.decompress(buf, chunk_blocks=5)
        assert seen["chunk_blocks"] == 5


class TestChunkBlocksValidator:
    def test_accepts_positive_integers(self):
        assert validate_chunk_blocks(1) == 1
        assert validate_chunk_blocks(np.int64(17)) == 17
        assert isinstance(validate_chunk_blocks(np.int64(17)), int)

    @pytest.mark.parametrize("bad", [0, -1, -100, True, False, 1.5, "8", None])
    def test_rejects_nonpositive_and_nonintegral(self, bad):
        with pytest.raises(
            InvalidInputError, match="chunk_blocks must be a positive integer"
        ):
            validate_chunk_blocks(bad)

    @pytest.mark.parametrize("bad", [0, -3, 2.5])
    def test_config_and_decompress_agree(self, bad, smooth_f32):
        # both entry points route through the one validator: same type,
        # same message
        with pytest.raises(
            InvalidInputError, match="chunk_blocks must be a positive integer"
        ):
            CompressorConfig(chunk_blocks=bad)
        buf = compress(smooth_f32, rel=1e-3)
        with pytest.raises(
            InvalidInputError, match="chunk_blocks must be a positive integer"
        ):
            decompress(buf, chunk_blocks=bad)


class TestValidation:
    def test_both_bounds_rejected(self, smooth_f32):
        with pytest.raises(InvalidInputError):
            compress(smooth_f32, rel=1e-3, abs=0.1)

    def test_no_bound_rejected(self, smooth_f32):
        with pytest.raises(InvalidInputError):
            compress(smooth_f32)

    def test_bad_mode_rejected(self):
        with pytest.raises(InvalidInputError):
            CompressorConfig(mode="fancy")

    def test_bad_block_rejected(self):
        with pytest.raises(InvalidInputError):
            CompressorConfig(block=12)

    def test_bad_predictor_tile_rejected(self):
        with pytest.raises(InvalidInputError):
            CompressorConfig(predictor_ndim=3, block=32)

    def test_float_error_bound_shorthand(self, smooth_f32):
        # CuSZp2(1e-3) means REL 1e-3, matching the paper's CLI.
        c = CuSZp2(1e-3)
        assert c.error_bound.kind == "rel"
        buf = c.compress(smooth_f32)
        assert_error_bounded(smooth_f32, decompress(buf), 1e-3 * value_range(smooth_f32))


class TestStreamProperties:
    def test_offset_section_is_one_byte_per_block(self, smooth_f32):
        from repro.core import stream as stream_mod

        buf = compress(smooth_f32, rel=1e-3)
        header, offsets, _ = stream_mod.split(buf)
        assert offsets.size == header.nblocks == -(-smooth_f32.size // 32)

    def test_compression_is_deterministic(self, smooth_f32):
        a = compress(smooth_f32, rel=1e-3)
        b = compress(smooth_f32, rel=1e-3)
        assert np.array_equal(a, b)

    def test_higher_error_bound_compresses_more(self, smooth_f32):
        sizes = [compress(smooth_f32, rel=r).size for r in (1e-4, 1e-3, 1e-2)]
        assert sizes[0] > sizes[1] > sizes[2]
