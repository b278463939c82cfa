"""Unit tests for stream framing (header + offsets + payload)."""

import numpy as np
import pytest

from repro.core import stream
from repro.core.errors import StreamFormatError


def make_header(**kw):
    defaults = dict(
        mode=1,
        dtype=np.dtype(np.float32),
        predictor_ndim=1,
        block=32,
        nelems=1000,
        eb_abs=0.125,
        dims=(1000,),
    )
    defaults.update(kw)
    return stream.StreamHeader(**defaults)


class TestHeader:
    def test_pack_size(self):
        assert len(make_header().pack()) == stream.HEADER_SIZE

    def test_round_trip(self):
        h = make_header(
            mode=0, dtype=np.dtype(np.float64), block=64, nelems=12345, eb_abs=1e-3,
            dims=(12345,),
        )
        buf = np.frombuffer(h.pack(), dtype=np.uint8)
        h2 = stream.StreamHeader.unpack(buf)
        assert h2.mode == 0
        assert h2.dtype == np.float64
        assert h2.block == 64
        assert h2.nelems == 12345
        assert h2.eb_abs == 1e-3
        assert h2.dims == (12345,)

    def test_dims_round_trip_3d(self):
        h = make_header(predictor_ndim=3, block=64, nelems=6, dims=(1, 2, 3))
        h2 = stream.StreamHeader.unpack(np.frombuffer(h.pack(), dtype=np.uint8))
        assert h2.dims == (1, 2, 3)

    def test_nblocks_1d(self):
        assert make_header(nelems=100, block=32).nblocks == 4
        assert make_header(nelems=96, block=32).nblocks == 3

    def test_nblocks_3d_counts_padded_tiles(self):
        h = make_header(predictor_ndim=3, block=64, nelems=9 * 9 * 9, dims=(9, 9, 9))
        assert h.nblocks == 3 * 3 * 3  # each 9-axis pads to 12 = 3 tiles of 4

    def test_bad_magic(self):
        buf = np.frombuffer(make_header().pack(), dtype=np.uint8).copy()
        buf[0] = ord("X")
        with pytest.raises(StreamFormatError):
            stream.StreamHeader.unpack(buf)

    def test_too_short(self):
        with pytest.raises(StreamFormatError):
            stream.StreamHeader.unpack(np.zeros(10, dtype=np.uint8))

    @pytest.mark.parametrize(
        "byte_idx,value",
        [
            (4, 99),   # version
            (5, 7),    # mode
            (6, 9),    # dtype code
            (7, 5),    # predictor ndim
        ],
    )
    def test_corrupt_fields_rejected(self, byte_idx, value):
        buf = np.frombuffer(make_header().pack(), dtype=np.uint8).copy()
        buf[byte_idx] = value
        with pytest.raises(StreamFormatError):
            stream.StreamHeader.unpack(buf)


class TestAssembleSplit:
    def test_round_trip(self):
        h = make_header(nelems=64, block=32, dims=(64,))
        offsets = np.array([3, 0], dtype=np.uint8)
        payload = np.arange(16, dtype=np.uint8)
        buf = stream.assemble(h, offsets, payload)
        h2, off2, pay2 = stream.split(buf)
        assert h2.nelems == 64
        assert np.array_equal(off2, offsets)
        assert np.array_equal(pay2, payload)

    def test_split_accepts_bytes(self):
        h = make_header(nelems=32, block=32, dims=(32,))
        buf = stream.assemble(h, np.zeros(1, np.uint8), np.zeros(0, np.uint8))
        h2, _, _ = stream.split(buf.tobytes())
        assert h2.nelems == 32

    def test_truncated_offsets_detected(self):
        h = make_header(nelems=32 * 100, block=32, dims=(3200,))
        buf = stream.assemble(h, np.zeros(100, np.uint8), np.zeros(0, np.uint8))
        with pytest.raises(StreamFormatError):
            stream.split(buf[: stream.HEADER_SIZE + 50])

    def test_wrong_dtype_rejected(self):
        with pytest.raises(StreamFormatError):
            stream.split(np.zeros(100, dtype=np.float32))


class TestMalformedBuffers:
    """Every stream reader accepts bytes-like input or a 1-D uint8 array;
    any other array raises StreamFormatError, never a struct/index error
    or a clean report."""

    @pytest.fixture(scope="class")
    def blob(self):
        from repro import compress

        x = np.cumsum(np.random.default_rng(0).normal(size=4000)).astype(np.float32)
        b = compress(x, rel=1e-3)
        if b.size % 2:
            b = np.concatenate([b, np.zeros(1, np.uint8)])  # trailing byte: ignored
        return x, b

    def _assert_rejected(self, call, buf):
        with pytest.raises(StreamFormatError) as err:
            call(buf)
        assert str(buf.dtype) in str(err.value)
        assert str(buf.shape) in str(err.value)

    def test_decompress_uint16_view(self, blob):
        from repro import decompress

        self._assert_rejected(decompress, blob[1].view(np.uint16))

    def test_decompress_row_vector(self, blob):
        from repro import decompress

        self._assert_rejected(decompress, blob[1].reshape(1, -1))

    def test_decompress_column_vector(self, blob):
        from repro import decompress

        self._assert_rejected(decompress, blob[1].reshape(-1, 1))

    def test_verify_int8_view(self, blob):
        from repro.core import integrity

        self._assert_rejected(integrity.verify, blob[1].view(np.int8))
        self._assert_rejected(stream.split, blob[1].view(np.int8))

    def test_non_contiguous_uint8_still_decodes(self, blob):
        from repro import decompress

        x, b = blob
        strided = np.repeat(b, 2)[::2]
        assert not strided.flags.c_contiguous
        ref = decompress(b)
        np.testing.assert_array_equal(decompress(strided), ref)
        np.testing.assert_array_equal(decompress(b.tobytes()), ref)
        np.testing.assert_array_equal(decompress(memoryview(b.tobytes())), ref)
