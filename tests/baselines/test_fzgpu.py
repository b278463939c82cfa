"""Unit tests for the FZ-GPU reproduction (bitshuffle + zero-word removal)."""

import numpy as np
import pytest

from repro.baselines import FZGPU, FZGPULaunchError
from repro.baselines import bitshuffle
from repro.core.quantize import ErrorBound

from tests.helpers import assert_error_bounded, seeded_rng, value_range

# ---------------------------------------------------------------------------
# Reference: the multiply-and-sum bit transpose bitshuffle used before it
# moved onto repro.core.bitpack's plane packing (verbatim).
# ---------------------------------------------------------------------------


def _ref_shuffle(values: np.ndarray) -> np.ndarray:
    values = bitshuffle._pad_to_group(np.ascontiguousarray(values, dtype=np.uint32))
    groups = values.reshape(-1, bitshuffle.GROUP)  # (G, 32) values
    bits = (groups[:, None, :] >> np.arange(bitshuffle.GROUP, dtype=np.uint32)[None, :, None]) & np.uint32(1)
    weights = (np.uint64(1) << np.arange(bitshuffle.GROUP, dtype=np.uint64))
    words = (bits.astype(np.uint64) * weights[None, None, :]).sum(axis=2)
    return words.astype(np.uint32).reshape(-1)


def _ref_unshuffle(words: np.ndarray, count: int) -> np.ndarray:
    words = np.ascontiguousarray(words, dtype=np.uint32).reshape(-1, bitshuffle.GROUP)
    bits = (words[:, :, None] >> np.arange(bitshuffle.GROUP, dtype=np.uint32)[None, None, :]) & np.uint32(1)
    weights = (np.uint64(1) << np.arange(bitshuffle.GROUP, dtype=np.uint64))
    # bits[g, b, j] is bit b of value j in group g.
    values = (bits.astype(np.uint64) * weights[None, :, None]).sum(axis=1)
    return values.astype(np.uint32).reshape(-1)[:count]


class TestBitshuffle:
    @pytest.mark.parametrize("n", [32, 37, 1000, 131072])
    def test_matches_multiply_and_sum_reference(self, n):
        v = seeded_rng("bitshuffle-ref", n).integers(0, 2**32, size=n, dtype=np.uint64)
        v = v.astype(np.uint32)
        v[::3] |= np.uint32(1 << 31)  # the top bit of the word
        words = bitshuffle.shuffle(v)
        ref = _ref_shuffle(v)
        assert words.dtype == ref.dtype == np.uint32
        np.testing.assert_array_equal(words, ref)
        back = bitshuffle.unshuffle(words, n)
        assert back.dtype == np.uint32
        np.testing.assert_array_equal(back, _ref_unshuffle(ref, n))
        np.testing.assert_array_equal(back, v)

    def test_round_trip(self, rng):
        v = rng.integers(0, 2**32, size=1000, dtype=np.int64).astype(np.uint32)
        assert np.array_equal(bitshuffle.unshuffle(bitshuffle.shuffle(v), 1000), v)

    def test_round_trip_unaligned(self, rng):
        v = rng.integers(0, 2**16, size=37, dtype=np.int64).astype(np.uint32)
        assert np.array_equal(bitshuffle.unshuffle(bitshuffle.shuffle(v), 37), v)

    def test_word_layout(self):
        # Value j of a group contributes bit j of each plane word.
        v = np.zeros(32, dtype=np.uint32)
        v[5] = 0b11  # bits 0 and 1 set
        words = bitshuffle.shuffle(v)
        assert words[0] == 1 << 5
        assert words[1] == 1 << 5
        assert np.all(words[2:] == 0)

    def test_small_values_give_zero_words(self, rng):
        # The mechanism FZ-GPU exploits: values < 2^k zero all planes >= k.
        v = rng.integers(0, 16, size=320, dtype=np.int64).astype(np.uint32)
        words = bitshuffle.shuffle(v).reshape(-1, 32)
        assert np.all(words[:, 4:] == 0)

    def test_zigzag_round_trip(self, rng):
        d = rng.integers(-(2**31), 2**31, size=1000)
        assert np.array_equal(bitshuffle.unzigzag(bitshuffle.zigzag(d)), d)

    def test_zigzag_keeps_small_magnitudes_small(self):
        assert bitshuffle.zigzag(np.array([0, -1, 1, -2, 2])).tolist() == [0, 1, 2, 3, 4]


class TestFZGPUCodec:
    @pytest.mark.parametrize("rel", [1e-2, 1e-3, 1e-4])
    def test_error_bound(self, smooth_f32, rel):
        codec = FZGPU(ErrorBound.relative(rel))
        recon = codec.decompress(codec.compress(smooth_f32))
        assert_error_bounded(smooth_f32, recon, rel * value_range(smooth_f32))

    def test_same_reconstruction_as_cuszp2(self, smooth_f32):
        # Section V-D: same lossy step => identical reconstruction.
        from repro import compress as c2_compress
        from repro import decompress as c2_decompress

        fz = FZGPU(ErrorBound.relative(1e-3))
        a = fz.decompress(fz.compress(smooth_f32))
        b = c2_decompress(c2_compress(smooth_f32, rel=1e-3))
        assert np.array_equal(a, b)

    def test_compresses_smooth_data(self, smooth_f32):
        buf = FZGPU(ErrorBound.relative(1e-3)).compress(smooth_f32)
        assert smooth_f32.nbytes / buf.size > 2

    def test_sparse_data(self, sparse_f32):
        codec = FZGPU(ErrorBound.relative(1e-2))
        buf = codec.compress(sparse_f32)
        assert sparse_f32.nbytes / buf.size > 10
        recon = codec.decompress(buf)
        assert_error_bounded(sparse_f32, recon, 1e-2 * value_range(sparse_f32))

    def test_awkward_length(self, rng):
        data = rng.normal(size=101).astype(np.float32)
        codec = FZGPU(ErrorBound.relative(1e-3))
        recon = codec.decompress(codec.compress(data))
        assert recon.shape == (101,)
        assert_error_bounded(data, recon, 1e-3 * value_range(data))

    def test_f64(self, smooth_f64):
        codec = FZGPU(ErrorBound.relative(1e-4))
        recon = codec.decompress(codec.compress(smooth_f64))
        assert recon.dtype == np.float64
        assert_error_bounded(smooth_f64, recon, 1e-4 * value_range(smooth_f64))

    def test_paper_bug_reproduction(self, smooth_f32):
        codec = FZGPU(ErrorBound.relative(1e-3), strict_paper_bugs=True)
        with pytest.raises(FZGPULaunchError):
            codec.compress(smooth_f32, dataset="HACC")
        # Non-affected datasets still work.
        codec.compress(smooth_f32, dataset="CESM-ATM")

    def test_truncated_stream_detected(self, smooth_f32):
        from repro.core.errors import StreamFormatError

        codec = FZGPU(ErrorBound.relative(1e-3))
        buf = codec.compress(smooth_f32)
        with pytest.raises(StreamFormatError):
            codec.decompress(buf[:-10])


class TestLorenzo3DMode:
    """The true 3-D Lorenzo predictor of the real FZ-GPU (opt-in)."""

    @pytest.fixture
    def volume(self, rng):
        f = np.cumsum(np.cumsum(np.cumsum(rng.normal(size=(24, 24, 48)), 0), 1), 2)
        return (f / 40).astype(np.float32)

    def test_round_trip_bounded(self, volume):
        codec = FZGPU(ErrorBound.relative(1e-3), predictor_ndim=3)
        recon = codec.decompress(codec.compress(volume)).reshape(volume.shape)
        assert_error_bounded(volume, recon, 1e-3 * value_range(volume))

    def test_3d_beats_1d_on_smooth_volumes(self, volume):
        one = FZGPU(ErrorBound.relative(1e-3), predictor_ndim=1).compress(volume)
        three = FZGPU(ErrorBound.relative(1e-3), predictor_ndim=3).compress(volume)
        assert three.size < one.size

    def test_needs_3d_shape(self, rng):
        from repro.baselines import FZGPULaunchError

        codec = FZGPU(ErrorBound.relative(1e-3), predictor_ndim=3)
        with pytest.raises(FZGPULaunchError):
            codec.compress(rng.normal(size=100).astype(np.float32))

    def test_awkward_3d_shape(self, rng):
        vol = np.cumsum(rng.normal(size=(7, 11, 13)), axis=0).astype(np.float32)
        codec = FZGPU(ErrorBound.relative(1e-2), predictor_ndim=3)
        recon = codec.decompress(codec.compress(vol)).reshape(vol.shape)
        assert_error_bounded(vol, recon, 1e-2 * value_range(vol))
