"""Unit tests for Plain- and Outlier fixed-length encoding + selection."""

import sys

import numpy as np

from tests.helpers import fle_signature_blocks, seeded_rng
import pytest

from repro.core import blockfmt, fle
from repro.core.errors import QuantizationOverflowError, StreamFormatError


def roundtrip(dblocks, use_outlier):
    offsets, payload = fle.encode_blocks(dblocks, use_outlier)
    return fle.decode_blocks(offsets, payload, dblocks.shape[1])


class TestPlainFLE:
    def test_round_trip_random(self):
        rng = seeded_rng(0)
        d = rng.integers(-(2**20), 2**20, size=(100, 32)).astype(np.int64)
        assert np.array_equal(roundtrip(d, False), d)

    def test_zero_block_emits_no_payload(self):
        d = np.zeros((3, 32), dtype=np.int64)
        offsets, payload = fle.encode_blocks(d, False)
        assert payload.size == 0
        assert np.all(offsets == 0)
        assert np.array_equal(fle.decode_blocks(offsets, payload, 32), d)

    def test_paper_fig5_size(self):
        # Running example: 8-element block, deltas fit 4 bits -> 5 payload bytes.
        d = np.array([[6, 1, -2, 3, 8, -8, 1, 0]], dtype=np.int64)
        offsets, payload = fle.encode_blocks(d, False)
        _, _, flv = blockfmt.decode_offset_bytes(offsets)
        assert flv[0] == 4
        assert payload.size == 5

    def test_mixed_fl_blocks(self):
        d = np.zeros((4, 8), dtype=np.int64)
        d[1] = [1, 0, 1, 0, 0, 0, 0, 0]        # fl 1
        d[2] = [100, -5, 0, 0, 0, 0, 0, 0]     # fl 7
        d[3] = [2**30, 0, 0, 0, 0, 0, 0, 0]    # fl 31
        assert np.array_equal(roundtrip(d, False), d)

    def test_never_selects_outlier_mode(self):
        rng = seeded_rng(1)
        d = rng.integers(-5, 5, size=(50, 32)).astype(np.int64)
        d[:, 0] = 10_000  # outlier would clearly win
        offsets, _ = fle.encode_blocks(d, False)
        mode, _, _ = blockfmt.decode_offset_bytes(offsets)
        assert np.all(mode == 0)


class TestOutlierFLE:
    def test_round_trip_random(self):
        rng = seeded_rng(2)
        d = rng.integers(-(2**20), 2**20, size=(100, 32)).astype(np.int64)
        d[::3, 0] = rng.integers(2**25, 2**30, size=d[::3, 0].shape)
        assert np.array_equal(roundtrip(d, True), d)

    def test_paper_fig7_example(self):
        # deltas with outlier 8 and rest in {-1,0,1}: Outlier-FLE -> 3 bytes,
        # Plain-FLE -> 5 bytes (block of 8).
        d = np.array([[8, 1, -1, 0, 1, -1, 0, 1]], dtype=np.int64)
        off_o, pay_o = fle.encode_blocks(d, True)
        off_p, pay_p = fle.encode_blocks(d, False)
        assert pay_o.size == 3
        assert pay_p.size == 5
        mode, onb, flv = blockfmt.decode_offset_bytes(off_o)
        assert mode[0] == 1 and onb[0] == 1 and flv[0] == 1
        assert np.array_equal(fle.decode_blocks(off_o, pay_o, 8), d)

    def test_negative_outlier_round_trip(self):
        d = np.array([[-300, 1, 0, -1, 0, 0, 1, 0]], dtype=np.int64)
        assert np.array_equal(roundtrip(d, True), d)

    @pytest.mark.parametrize("outlier", [1, 0xFF, 0x100, 0xFFFF, 0x10000, 0xFFFFFF, 0x1000000, 2**31 - 1])
    def test_all_outlier_widths(self, outlier):
        d = np.zeros((1, 32), dtype=np.int64)
        d[0, 0] = outlier
        d[0, 1] = 1
        assert np.array_equal(roundtrip(d, True), d)

    def test_selection_never_loses_to_plain(self):
        rng = seeded_rng(3)
        for _ in range(20):
            d = rng.integers(-(2**12), 2**12, size=(64, 32)).astype(np.int64)
            _, pay_o = fle.encode_blocks(d, True)
            _, pay_p = fle.encode_blocks(d, False)
            assert pay_o.size <= pay_p.size

    def test_plain_chosen_when_no_outlier_benefit(self):
        # Uniformly large magnitudes: extracting the first element buys nothing.
        rng = seeded_rng(4)
        d = rng.integers(2**20, 2**21, size=(10, 32)).astype(np.int64)
        offsets, _ = fle.encode_blocks(d, True)
        mode, _, _ = blockfmt.decode_offset_bytes(offsets)
        assert np.all(mode == 0)

    def test_smooth_block_selects_outlier(self):
        d = np.zeros((1, 32), dtype=np.int64)
        d[0, 0] = 5000
        d[0, 1:] = np.tile([1, -1], 16)[:31]
        offsets, _ = fle.encode_blocks(d, True)
        mode, _, _ = blockfmt.decode_offset_bytes(offsets)
        assert mode[0] == 1

    def test_zero_block_still_free_in_outlier_mode(self):
        d = np.zeros((5, 32), dtype=np.int64)
        offsets, payload = fle.encode_blocks(d, True)
        assert payload.size == 0
        mode, _, _ = blockfmt.decode_offset_bytes(offsets)
        assert np.all(mode == 0)


class TestGuards:
    def test_delta_overflow_raises(self):
        d = np.zeros((1, 32), dtype=np.int64)
        d[0, 5] = 2**31
        with pytest.raises(QuantizationOverflowError):
            fle.encode_blocks(d, False)

    def test_truncated_payload_detected(self):
        d = np.ones((4, 32), dtype=np.int64) * 7
        offsets, payload = fle.encode_blocks(d, False)
        with pytest.raises(StreamFormatError):
            fle.decode_blocks(offsets, payload[:-3], 32)

    def test_inconsistent_sizes_detected(self):
        d = np.ones((4, 32), dtype=np.int64)
        offsets, payload = fle.encode_blocks(d, False)
        offsets = offsets.copy()
        offsets[0] = 31  # claims much larger block
        with pytest.raises(StreamFormatError):
            fle.decode_blocks(offsets, payload, 32)

    def test_payload_sizes_match_encoded_stream(self):
        rng = seeded_rng(5)
        d = rng.integers(-100, 100, size=(30, 32)).astype(np.int64)
        offsets, payload = fle.encode_blocks(d, True)
        assert int(fle.block_payload_sizes(offsets, 32).sum()) == payload.size


class TestLayoutTable:
    @pytest.mark.parametrize("block", [8, 16, 32, 64, 128])
    def test_sizes_match_the_format(self, block):
        # every offset byte's row keeps exactly its block's payload bytes
        keep, sizes = fle.layout(block)
        offsets = np.arange(256, dtype=np.uint8)
        mode, onb, flv = blockfmt.decode_offset_bytes(offsets)
        np.testing.assert_array_equal(
            keep.sum(axis=1), blockfmt.payload_sizes(mode, onb, flv, block)
        )
        np.testing.assert_array_equal(sizes, keep.sum(axis=1))
        assert not keep[0].any()  # the all-zero block keeps nothing

    def test_tables_are_read_only(self):
        keep, sizes = fle.layout(32)
        with pytest.raises(ValueError):
            keep[0, 0] = True
        with pytest.raises(ValueError):
            sizes[0] = 1


def _python_calls(fn, *args) -> int:
    """Python-level calls (``call`` and ``c_call`` profile events) made
    while running ``fn(*args)``: a deterministic cost count."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return count


class TestNoLoopOverSignatures:
    """Encode and decode run a fixed sequence of whole-tile operations: a
    tile holding ~100 distinct (mode, fl, outlier width) signatures costs
    about as many Python-level calls as one holding a single signature."""

    def test_call_count_independent_of_signature_count(self):
        many, _ = fle_signature_blocks(32)
        one = np.full(many.shape, (1 << 31) - 1, dtype=np.int64)  # all plain, fl 31
        for use_outlier in (False, True):
            fle.encode_blocks(one, use_outlier)  # warm the layout cache
        streams = {}
        for name, d in (("one", one), ("many", many)):
            offsets, payload = fle.encode_blocks(d, True)
            assert int(blockfmt.decode_offset_bytes(offsets)[2].max()) == 31
            streams[name] = (
                len(np.unique(offsets)),
                _python_calls(fle.encode_blocks, d, True),
                _python_calls(fle.decode_blocks, offsets, payload, 32),
            )
        n_one, enc_one, dec_one = streams["one"]
        n_many, enc_many, dec_many = streams["many"]
        assert n_one == 1 and n_many >= 100
        assert enc_many <= 3 * enc_one, (enc_one, enc_many)
        assert dec_many <= 3 * dec_one, (dec_one, dec_many)
