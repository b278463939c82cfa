"""CompressionService end to end: batching path, fan-out path, cache."""

import glob
import multiprocessing
import os
import re
import threading

import numpy as np
import pytest

from repro.core import decompress as mono_decompress
from repro.core.errors import InvalidInputError
from repro.serve import CompressionService, ServiceConfig, compress_chunked, is_chunked
from repro.serve.autoscale import AutoscaleConfig
from repro.serve.resilience import BreakerConfig, RetryPolicy
from repro.serve.shm import SEGMENT_PREFIX

from tests.helpers import assert_error_bounded, value_range


@pytest.fixture
def svc():
    s = CompressionService(
        ServiceConfig(workers=2, backend="thread", warmup=False)
    )
    yield s
    s.close()


class TestRoundTrip:
    def test_small_field_single_stream(self, svc, smooth_f32):
        blob = svc.compress(smooth_f32, rel=1e-3).result(30)
        assert not is_chunked(blob)  # below the chunk threshold
        recon = svc.decompress(blob).result(30)
        assert recon.shape == smooth_f32.shape
        assert_error_bounded(smooth_f32, recon, 1e-3 * value_range(smooth_f32))
        # byte-compatible with the plain library decoder
        assert np.array_equal(recon, mono_decompress(blob))

    def test_large_field_fans_out_chunked(self, rng):
        data = np.cumsum(rng.normal(size=300_000)).astype(np.float32)
        with CompressionService(
            workers=2, backend="thread", warmup=False, chunk_bytes=256 << 10
        ) as svc:
            blob = svc.compress(data, rel=1e-3).result(60)
            assert is_chunked(blob)
            recon = svc.decompress(blob, cache=False).result(60)
        assert_error_bounded(data, recon, 1e-3 * value_range(data))

    def test_abs_bound(self, svc, smooth_f32):
        blob = svc.compress(smooth_f32, abs=0.05).result(30)
        recon = svc.decompress(blob).result(30)
        assert_error_bounded(smooth_f32, recon, 0.05)

    def test_bound_arguments_validated(self, svc, smooth_f32):
        with pytest.raises(InvalidInputError):
            svc.compress(smooth_f32)
        with pytest.raises(InvalidInputError):
            svc.compress(smooth_f32, rel=1e-3, abs=0.1)

    def test_many_concurrent_requests(self, svc, rng):
        fields = [
            np.cumsum(rng.normal(size=5_000)).astype(np.float32) for _ in range(8)
        ]
        blobs = [svc.compress(f, rel=1e-3) for f in fields]
        recons = [svc.decompress(b.result(30), cache=False) for b in blobs]
        for f, r in zip(fields, recons):
            assert_error_bounded(f, r.result(30), 1e-3 * value_range(f))


class TestDecodeCache:
    def test_second_decode_is_a_cache_hit(self, svc, smooth_f32):
        blob = svc.compress(smooth_f32, rel=1e-3).result(30)
        first = svc.decompress(blob).result(30)
        assert svc.cache.hits == 0
        second = svc.decompress(blob).result(30)
        assert svc.cache.hits == 1
        assert np.array_equal(first, second)
        assert not second.flags.writeable  # served as a read-only view

    def test_cache_opt_out(self, svc, smooth_f32):
        blob = svc.compress(smooth_f32, rel=1e-3).result(30)
        svc.decompress(blob, cache=False).result(30)
        svc.decompress(blob, cache=False).result(30)
        assert svc.cache.hits == 0 and len(svc.cache) == 0

    def test_different_streams_do_not_collide(self, svc, smooth_f32, rough_f32):
        b1 = svc.compress(smooth_f32, rel=1e-3).result(30)
        b2 = svc.compress(rough_f32, rel=1e-3).result(30)
        r1 = svc.decompress(b1).result(30)
        r2 = svc.decompress(b2).result(30)
        svc.decompress(b1).result(30)
        svc.decompress(b2).result(30)
        assert svc.cache.hits == 2
        assert not np.array_equal(r1, r2)


class TestLifecycle:
    def test_stats_snapshot_sections(self, svc, smooth_f32):
        blob = svc.compress(smooth_f32, rel=1e-3).result(30)
        svc.decompress(blob).result(30)
        snap = svc.stats_snapshot()
        assert snap["counters"]["service.requests"] == 2
        assert snap["counters"]["service.bytes_in"] > 0
        assert snap["counters"]["service.bytes_out"] > 0
        assert snap["histograms"]["service.compress_latency_s"]["count"] == 1
        assert snap["histograms"]["service.decompress_latency_s"]["count"] == 1
        assert "cache" in snap
        assert "pool.utilization" in snap["gauges"]

    def test_close_is_idempotent(self, smooth_f32):
        svc = CompressionService(workers=1, backend="thread", warmup=False)
        svc.compress(smooth_f32, rel=1e-3).result(30)
        svc.close()
        svc.close()

    def test_context_manager_with_exception_cancels(self, smooth_f32):
        with pytest.raises(RuntimeError, match="abort"):
            with CompressionService(workers=1, backend="thread", warmup=False) as svc:
                svc.compress(smooth_f32, rel=1e-3).result(30)
                raise RuntimeError("abort")

    def test_config_overrides(self):
        svc = CompressionService(workers=1, backend="thread", warmup=False, chunk_bytes=3)
        try:
            assert svc.config.workers == 1
            assert svc.config.chunk_bytes == 3
        finally:
            svc.close()


class TestComponentDefaults:
    """What a default service hands its components.  Each value is the
    component's own default, defined once, in the component."""

    @pytest.mark.parametrize("backend, transport", [("thread", "pickle"), ("process", "shm")])
    def test_default_service_builds(self, backend, transport):
        with CompressionService(
            workers=2, backend=backend, transport=transport, warmup=False
        ) as svc:
            sched = svc.scheduler
            assert sched.max_pending == 256
            assert sched.batch_max == 8
            assert sched.batch_bytes == 1 << 20
            assert sched.max_inflight == 2
            assert svc.router.retry == RetryPolicy()
            assert svc.router.breaker_config == BreakerConfig()
            assert [t.name for t in svc.router.tiers] == ["pool", "inline"]
            if transport == "shm":
                arena = svc.pool.transport.arena
                assert (arena.nslots, arena.slot_bytes) == (16, 8 << 20)
            assert svc.autoscaler is None

    def test_autoscaler_defaults(self):
        with CompressionService(
            workers=2, backend="thread", warmup=False, autoscale=True
        ) as svc:
            assert svc.autoscaler.cfg == AutoscaleConfig(max_workers=8)


class TestRejectedSettingLeaksNothing:
    """A setting that a component rejects raises before the pool starts,
    so the failed constructor leaves no worker process, thread or shm
    segment behind (the caller has no service to close)."""

    @staticmethod
    def _resources():
        prefix = f"/dev/shm/{SEGMENT_PREFIX}{os.getpid():x}-"
        return (
            set(multiprocessing.active_children()),
            set(threading.enumerate()),
            set(glob.glob(prefix + "*")),
        )

    @pytest.mark.parametrize("setting", [
        {"cache_bytes": -1},
        {"retry_max_attempts": 0},
        {"autoscale": True, "autoscale_max_workers": -1},
    ])
    def test_constructor_error_leaks_nothing(self, setting):
        before = self._resources()
        with pytest.raises(ValueError):
            CompressionService(
                workers=2, backend="process", transport="shm", warmup=False, **setting
            )
        for now, then in zip(self._resources(), before):
            assert not now - then


class TestCodecSettingValidation:
    """A bad codec setting raises the same error whatever the input size:
    every entry point validates through the plugin (which runs
    ``CompressorConfig``) on the caller's thread, before it plans chunks or
    submits a task (a malformed *setting* is not a malformed stream)."""

    @pytest.mark.parametrize("entry", ["service", "compress_chunked"])
    @pytest.mark.parametrize("n", [1_000, 300_000])  # below / above chunk_bytes
    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"block": 12}, "block size must be a positive multiple of 8, got 12"),
            ({"block": 0}, "block size must be a positive multiple of 8, got 0"),
            (
                {"group_blocks": 0},
                "group_blocks (blocks per checksum group) must be in [1, 65535], got 0",
            ),
            (
                {"group_blocks": 70_000},
                "group_blocks (blocks per checksum group) must be in [1, 65535], "
                "got 70000",
            ),
        ],
        ids=["block12", "block0", "group0", "group70000"],
    )
    def test_bad_setting_raises_invalid_input(self, entry, n, setting, message):
        data = np.arange(n, dtype=np.float32)
        if entry == "compress_chunked":
            with pytest.raises(InvalidInputError, match=re.escape(message)):
                compress_chunked(data, rel=1e-3, chunk_bytes=256 << 10, **setting)
            return
        with CompressionService(
            workers=1, backend="thread", warmup=False, chunk_bytes=256 << 10,
            codec_opts=tuple(setting.items()),
        ) as svc:
            # raised by compress() itself, not delivered through the future
            with pytest.raises(InvalidInputError, match=re.escape(message)):
                svc.compress(data, rel=1e-3)
            assert "service.requests" not in svc.stats_snapshot()["counters"]
