"""Chunked streaming engine: alignment, bit-identity, container format."""

import numpy as np
import pytest

from repro import codecs
from repro.core import compress as mono_compress, decompress as mono_decompress
from repro.core.errors import InvalidInputError, StreamFormatError
from repro.core.stream import aligned_chunk_elems, chunk_granule, chunk_spans
from repro.serve import (
    ChunkedStream,
    WorkerPool,
    compress_chunked,
    decompress_chunked,
    is_chunked,
)


def plan(shape, chunk_elems=1024, **settings):
    """The core codec's split plan under ``settings`` (schema defaults
    for the rest, as the engine validates them)."""
    plugin = codecs.resolve("cuszp2")
    return plugin.chunk_spans(shape, plugin.validate_options({"abs": 1.0, **settings}), chunk_elems)


class TestAlignmentHelpers:
    def test_granule_is_block_times_group(self):
        assert chunk_granule(32, 16) == 512
        assert chunk_granule(64, 4096) == 64 * 4096

    def test_granule_rejects_bad_block(self):
        with pytest.raises(StreamFormatError):
            chunk_granule(0, 16)
        with pytest.raises(StreamFormatError):
            chunk_granule(33, 16)

    def test_aligned_rounds_down_to_granule(self):
        # granule = 512; 1300 elements round down to 1024
        assert aligned_chunk_elems(1300, 32, 16) == 1024

    def test_aligned_never_below_one_granule(self):
        assert aligned_chunk_elems(10, 32, 16) == 512

    def test_spans_cover_exactly(self):
        spans = chunk_spans(2600, 1024, 32, 16)
        assert spans == [(0, 1024), (1024, 2048), (2048, 2600)]
        assert spans[0][0] == 0 and spans[-1][1] == 2600
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            assert hi == lo

    def test_spans_interior_boundaries_group_aligned(self):
        granule = chunk_granule(32, 16)
        for lo, _ in chunk_spans(10_000, 1000, 32, 16)[1:]:
            assert lo % granule == 0

    def test_plan_flat(self):
        spans, axis = plan((2600,), block=32, group_blocks=16, chunk_elems=1024)
        assert axis == "flat"
        assert spans == [(0, 1024), (1024, 2048), (2048, 2600)]

    def test_plan_rows_aligned_to_tile(self):
        # 2-D predictor, block=64 -> 8x8 tiles: row spans are multiples of 8
        spans, axis = plan((40, 50), predictor_ndim=2, block=64, chunk_elems=800)
        assert axis == "rows"
        assert spans[0][0] == 0 and spans[-1][1] == 40
        for lo, _ in spans[1:]:
            assert lo % 8 == 0

    def test_plan_rejects_empty(self):
        with pytest.raises(InvalidInputError, match="empty field"):
            plan((0,))

    def test_plan_rejects_ndim_mismatch(self):
        with pytest.raises(InvalidInputError, match="requires a 2-D field"):
            plan((100,), predictor_ndim=2, block=64)

    def test_other_codecs_keep_the_field_whole(self):
        plugin = codecs.resolve("fzgpu")
        opts = plugin.validate_options({"abs": 1.0})
        assert plugin.chunk_spans((40, 50), opts, 16) == ([(0, 2000)], "flat")


def _walk(rng, n, dtype):
    return np.cumsum(rng.normal(size=n)).astype(dtype)


class TestBitIdentity:
    """Acceptance: chunked output decodes bit-identically to the
    monolithic codec across dimensionalities, dtypes, and modes."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["plain", "outlier"])
    def test_1d(self, rng, dtype, mode):
        data = _walk(rng, 5000, dtype)
        chunked = compress_chunked(
            data, rel=1e-3, mode=mode, block=64, group_blocks=4, chunk_elems=1024
        )
        assert chunked.nchunks > 1
        mono = mono_decompress(
            mono_compress(data, rel=1e-3, mode=mode, block=64, group_blocks=4)
        )
        assert np.array_equal(decompress_chunked(chunked), mono)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["plain", "outlier"])
    def test_2d(self, rng, dtype, mode):
        data = _walk(rng, 40 * 50, dtype).reshape(40, 50)
        chunked = compress_chunked(
            data, rel=1e-3, mode=mode, block=64, predictor_ndim=2, chunk_elems=800
        )
        assert chunked.nchunks > 1
        mono = mono_decompress(
            mono_compress(data, rel=1e-3, mode=mode, block=64, predictor_ndim=2)
        )
        assert np.array_equal(decompress_chunked(chunked), mono)
        assert decompress_chunked(chunked).shape == (40, 50)

    def test_single_chunk_stream_is_byte_identical(self, rng):
        # When everything fits one chunk, the chunk IS the monolithic stream.
        data = _walk(rng, 3000, np.float32)
        chunked = compress_chunked(data, rel=1e-3, block=64, group_blocks=4096)
        assert chunked.nchunks == 1
        mono = mono_compress(data, rel=1e-3, block=64, group_blocks=4096)
        assert np.array_equal(chunked.chunks[0], mono)

    def test_abs_bound(self, rng):
        data = _walk(rng, 5000, np.float32)
        chunked = compress_chunked(
            data, abs=0.01, block=64, group_blocks=4, chunk_elems=1024
        )
        recon = decompress_chunked(chunked)
        assert np.abs(recon.astype(np.float64) - data).max() <= 0.01 * (1 + 1e-6)

    def test_pooled_equals_serial(self, rng):
        data = _walk(rng, 8000, np.float32)
        serial = compress_chunked(
            data, rel=1e-3, block=64, group_blocks=4, chunk_elems=1024
        )
        with WorkerPool(nworkers=2, backend="thread", warmup=False) as pool:
            pooled = compress_chunked(
                data, rel=1e-3, block=64, group_blocks=4, chunk_elems=1024, pool=pool
            )
            recon = decompress_chunked(pooled, pool=pool)
        assert pooled.nchunks == serial.nchunks
        for a, b in zip(pooled.chunks, serial.chunks):
            assert np.array_equal(a, b)
        assert np.array_equal(recon, decompress_chunked(serial))


class TestContainer:
    def test_round_trip_through_bytes(self, rng):
        data = _walk(rng, 5000, np.float32)
        chunked = compress_chunked(
            data, rel=1e-3, block=64, group_blocks=4, chunk_elems=1024
        )
        buf = chunked.to_bytes()
        assert is_chunked(buf)
        back = ChunkedStream.from_bytes(buf)
        assert back.nchunks == chunked.nchunks
        assert back.manifest == chunked.manifest
        assert np.array_equal(decompress_chunked(back), decompress_chunked(chunked))

    def test_manifest_eb_abs_exact(self, rng):
        data = _walk(rng, 5000, np.float32)
        chunked = compress_chunked(
            data, rel=1e-3, block=64, group_blocks=4, chunk_elems=1024
        )
        back = ChunkedStream.from_bytes(chunked.to_bytes())
        # float hex encoding round-trips the resolved bound exactly
        assert back.manifest.eb_abs == chunked.manifest.eb_abs

    def test_plain_stream_is_not_chunked(self, rng):
        mono = mono_compress(_walk(rng, 1000, np.float32), rel=1e-3)
        assert not is_chunked(mono)

    def test_manifest_corruption_detected(self, rng):
        data = _walk(rng, 5000, np.float32)
        buf = compress_chunked(
            data, rel=1e-3, block=64, group_blocks=4, chunk_elems=1024
        ).to_bytes()
        bad = buf.copy()
        bad[20] ^= 0xFF  # inside the JSON manifest
        with pytest.raises(StreamFormatError):
            ChunkedStream.from_bytes(bad)

    def test_truncation_detected(self, rng):
        data = _walk(rng, 5000, np.float32)
        buf = compress_chunked(
            data, rel=1e-3, block=64, group_blocks=4, chunk_elems=1024
        ).to_bytes()
        with pytest.raises(StreamFormatError):
            ChunkedStream.from_bytes(buf[: buf.size - 10])

    def test_bad_magic_rejected(self):
        with pytest.raises(StreamFormatError):
            ChunkedStream.from_bytes(np.zeros(64, dtype=np.uint8))

    def test_chunk_corruption_detected_on_decode(self, rng):
        # Chunk bytes are v2 streams: flipping one payload byte trips the
        # group CRC during decompression.
        from repro.core import IntegrityError

        data = _walk(rng, 5000, np.float32)
        buf = compress_chunked(
            data, rel=1e-3, block=64, group_blocks=4, chunk_elems=1024
        ).to_bytes()
        bad = buf.copy()
        bad[bad.size - 5] ^= 0xFF  # last chunk's payload tail
        with pytest.raises(IntegrityError):
            decompress_chunked(ChunkedStream.from_bytes(bad))

    def test_manifest_dtype_is_checked_by_every_decoder(self, rng):
        # decompress_chunked and the service reassemble through one
        # function, which checks every decoded chunk against the manifest
        from dataclasses import replace

        from repro.serve import CompressionService

        chunked = compress_chunked(
            _walk(rng, 2048, np.float32), rel=1e-3, block=64, group_blocks=4,
            chunk_elems=1024,
        )
        assert chunked.nchunks == 2
        buf = ChunkedStream(
            replace(chunked.manifest, dtype="float64"), chunked.chunks
        ).to_bytes()
        with pytest.raises(StreamFormatError, match="manifest says float64"):
            decompress_chunked(buf)
        with CompressionService(workers=1, warmup=False) as svc:
            with pytest.raises(StreamFormatError, match="manifest says float64"):
                svc.decompress(buf).result(30)

    def test_requires_one_bound(self, rng):
        data = _walk(rng, 1000, np.float32)
        with pytest.raises(InvalidInputError):
            compress_chunked(data)
        with pytest.raises(InvalidInputError):
            compress_chunked(data, rel=1e-3, abs=0.1)
