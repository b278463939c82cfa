"""Zero-copy shared-memory transport: arena lifecycle, descriptor
safety, crash reclamation, bit-identity vs the pickled path, and the
refusal of shm between thread workers."""

import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from repro.serve import (
    CompressionService,
    ServiceConfig,
    UnknownTask,
    WorkerPool,
    classify_error,
    is_classified,
)
from repro.serve.chunked import compress_chunked, decompress_chunked
from repro.serve.pool import TaskError, WorkerCrash, register_task
from repro.serve.resilience import RETRYABLE_ERRORS
from repro.serve.shm import (
    DEFAULT_MIN_BYTES,
    SEGMENT_PREFIX,
    ShmArena,
    ShmDescriptor,
    ShmReclaimed,
    ShmTransport,
    active_segments,
    make_transport,
    payload_nbytes,
)


@register_task("test.shm_sum")
def _shm_sum(arg):
    return float(np.asarray(arg["data"]).sum())


@register_task("test.shm_echo_big")
def _shm_echo_big(arg):
    # returns an array large enough to ride the shm path back
    return np.asarray(arg).copy()


@register_task("test.shm_sleep_echo")
def _shm_sleep_echo(arg):
    time.sleep(float(arg["delay"]))
    return np.asarray(arg["data"]).copy()


@register_task("test.shm_crash_if_file")
def _shm_crash_if_file(arg):
    """Crash (consuming the marker file) if it exists; else echo the data.

    The filesystem marker survives fork respawns, so exactly one crash
    happens per marker file."""
    try:
        os.unlink(arg["marker"])
    except FileNotFoundError:
        return np.asarray(arg["data"]).copy()
    raise WorkerCrash("injected crash (file marker)")


# ---------------------------------------------------------------------------
# Arena lifecycle
# ---------------------------------------------------------------------------

class TestArena:
    def test_put_get_roundtrip(self):
        with ShmArena(nslots=4, slot_bytes=1 << 16) as arena:
            arr = np.arange(1000, dtype=np.float32).reshape(10, 100)
            desc = arena.put(arr)
            assert isinstance(desc, ShmDescriptor)
            assert desc.segment.startswith(SEGMENT_PREFIX)
            view = arena.get(desc)
            assert view.shape == arr.shape and view.dtype == arr.dtype
            assert np.array_equal(view, arr)
            assert not view.flags.writeable  # zero-copy views are read-only
            copied = arena.get(desc, copy=True)
            assert copied.flags.writeable
            assert arena.release(desc)
            assert arena.slots_in_use() == 0

    def test_arena_full_and_oversize_return_none(self):
        with ShmArena(nslots=1, slot_bytes=1 << 12) as arena:
            big = np.zeros(1 << 14, dtype=np.uint8)
            assert arena.put(big) is None  # larger than any slot
            d1 = arena.put(np.zeros(16, dtype=np.uint8))
            assert d1 is not None
            assert arena.put(np.zeros(16, dtype=np.uint8)) is None  # full
            arena.release(d1)
            assert arena.put(np.zeros(16, dtype=np.uint8)) is not None

    def test_generation_guard_invalidates_stale_descriptors(self):
        with ShmArena(nslots=1, slot_bytes=1 << 12) as arena:
            stale = arena.put(np.arange(8, dtype=np.int64))
            arena.release(stale)
            # slot is reused: generation moves on
            fresh = arena.put(np.arange(8, dtype=np.int64) * 2)
            assert fresh.slot == stale.slot
            assert fresh.generation > stale.generation
            with pytest.raises(ShmReclaimed):
                arena.get(stale)  # classified error, never garbage bytes
            assert np.array_equal(arena.get(fresh), np.arange(8) * 2)
            arena.release(fresh)

    def test_double_release_is_noop(self):
        with ShmArena(nslots=2, slot_bytes=1 << 12) as arena:
            d = arena.put(np.zeros(4, dtype=np.float64))
            other = arena.put(np.ones(4, dtype=np.float64))
            assert arena.release(d) is True
            assert arena.release(d) is False  # second release: safe no-op
            # and it must not have freed the *other* claim
            assert arena.slots_in_use() == 1
            arena.release(other)

    def test_reclaim_owner_frees_and_invalidates(self):
        with ShmArena(nslots=4, slot_bytes=1 << 12) as arena:
            d = arena.put(np.zeros(32, dtype=np.uint8))
            assert arena.slots_in_use() == 1
            assert arena.reclaim_owner(os.getpid()) == 1
            assert arena.slots_in_use() == 0
            with pytest.raises(ShmReclaimed):
                arena.get(d)
            assert arena.release(d) is False
            assert arena.reclaim_owner(os.getpid()) == 0  # idempotent

    def test_double_close_and_destroy_idempotent(self):
        arena = ShmArena(nslots=1, slot_bytes=1 << 12)
        name = arena.name
        assert name in active_segments()
        arena.close()
        arena.close()  # second close must not raise
        arena.destroy()
        arena.destroy()  # nor a second destroy
        assert name not in active_segments()

    def test_attach_shares_state(self):
        with ShmArena(nslots=2, slot_bytes=1 << 12) as arena:
            peer = ShmArena.attach(arena.spec())
            try:
                d = arena.put(np.arange(16, dtype=np.int32))
                assert np.array_equal(peer.get(d), np.arange(16))
                assert peer.slots_in_use() == 1
                peer.release(d)
                assert arena.slots_in_use() == 0
            finally:
                peer.close()  # attacher never unlinks

    def test_validation(self):
        with pytest.raises(ValueError):
            ShmArena(nslots=0)
        with pytest.raises(ValueError):
            ShmArena(nslots=1, slot_bytes=8)


# ---------------------------------------------------------------------------
# Transport encode/decode walkers
# ---------------------------------------------------------------------------

class TestTransport:
    def test_encode_decode_nested_payloads(self):
        tr = ShmTransport.create(nslots=8, slot_bytes=1 << 16, min_bytes=1)
        try:
            big = np.arange(512, dtype=np.float64)
            payload = {
                "data": big,
                "meta": ("name", [big * 2, {"inner": big + 1}]),
                "scalar": 7,
            }
            encoded, refs = tr.encode(payload)
            assert len(refs) == 3
            assert isinstance(encoded["data"], ShmDescriptor)
            assert encoded["scalar"] == 7
            decoded = tr.decode(encoded)
            assert np.array_equal(decoded["data"], big)
            assert np.array_equal(decoded["meta"][1][0], big * 2)
            assert np.array_equal(decoded["meta"][1][1]["inner"], big + 1)
            assert tr.descriptors(encoded) == refs
            tr.release_refs(refs)
            assert tr.arena.slots_in_use() == 0
        finally:
            tr.destroy()

    def test_small_arrays_ride_pickle(self):
        tr = ShmTransport.create(nslots=4, slot_bytes=1 << 16)
        try:
            small = np.arange(4, dtype=np.float32)  # < DEFAULT_MIN_BYTES
            encoded, refs = tr.encode({"x": small})
            assert refs == []
            assert isinstance(encoded["x"], np.ndarray)
            assert tr.fallbacks == 0  # below min_bytes is not a fallback
        finally:
            tr.destroy()

    def test_arena_full_falls_back_and_counts(self):
        tr = ShmTransport.create(nslots=1, slot_bytes=1 << 16, min_bytes=1)
        try:
            a = np.arange(64, dtype=np.float64)
            _, refs = tr.encode(a)
            assert len(refs) == 1
            encoded2, refs2 = tr.encode(a)  # arena full: raw ndarray
            assert refs2 == [] and isinstance(encoded2, np.ndarray)
            assert tr.fallbacks == 1
            tr.release_refs(refs)
        finally:
            tr.destroy()

    def test_release_all_walks_results(self):
        tr = ShmTransport.create(nslots=4, slot_bytes=1 << 16, min_bytes=1)
        try:
            encoded, _ = tr.encode([np.zeros(64), (np.ones(64),)])
            assert tr.arena.slots_in_use() == 2
            tr.release_all(encoded)
            assert tr.arena.slots_in_use() == 0
        finally:
            tr.destroy()

    def test_payload_nbytes(self):
        a = np.zeros(100, dtype=np.float32)
        assert payload_nbytes(a) == 400
        assert payload_nbytes({"x": a, "y": [a, (a, 1, "s")]}) == 1200
        assert payload_nbytes("not an array") == 0

    def test_make_transport(self):
        assert make_transport(None) is None
        assert make_transport("pickle") is None
        tr = make_transport("shm", nslots=2, slot_bytes=1 << 12)
        try:
            assert isinstance(tr, ShmTransport)
        finally:
            tr.destroy()
        with pytest.raises(ValueError):
            make_transport("carrier-pigeon")


# ---------------------------------------------------------------------------
# Error taxonomy
# ---------------------------------------------------------------------------

class TestTaxonomy:
    def test_shm_reclaimed_is_classified_and_retryable(self):
        e = ShmReclaimed("slot 0 reclaimed")
        assert isinstance(e, TaskError)
        assert is_classified(e)
        assert isinstance(e, RETRYABLE_ERRORS)

    def test_unknown_task_is_classified_not_retried(self):
        e = UnknownTask("unknown task 'nope'")
        assert is_classified(e)
        assert classify_error(e) == "unknown_task"
        with WorkerPool(nworkers=1, warmup=False) as pool:
            with pytest.raises(UnknownTask):
                pool.submit("test.not_registered_anywhere", 1).result(10)


# ---------------------------------------------------------------------------
# Pool integration: bit-identity and crash safety
# ---------------------------------------------------------------------------

# shm crosses a process boundary only: a thread pool refuses it
# (TestThreadPoolRefusesShm)
@pytest.mark.parametrize("backend", ["process"])
class TestPoolShm:
    def test_roundtrip_and_counters(self, backend):
        with WorkerPool(
            nworkers=2, backend=backend, warmup=False, transport="shm",
        ) as pool:
            assert pool.wait_ready(30)
            assert pool.transport_name == "shm"
            arr = np.arange(100_000, dtype=np.float32)
            out = pool.submit("test.shm_echo_big", arr).result(60)
            assert np.array_equal(out, arr)
            # results are copied out of the arena: mutating the returned
            # array must be safe (no aliasing of a recycled slot)
            out[0] = -1.0
            again = pool.submit("test.shm_echo_big", arr).result(60)
            assert again[0] == 0.0
            snap = pool.stats.snapshot()["counters"]
            assert snap["pool.transport.dispatch_shm_bytes"] >= arr.nbytes
            assert snap["pool.transport.result_shm_bytes"] >= arr.nbytes
            assert pool.transport.arena.slots_in_use() == 0

    def test_dict_payloads_cross_intact(self, backend):
        with WorkerPool(
            nworkers=1, backend=backend, warmup=False, transport="shm",
            shm_min_bytes=1,
        ) as pool:
            assert pool.wait_ready(30)
            data = np.arange(5000, dtype=np.float64)
            got = pool.submit("test.shm_sum", {"data": data}).result(60)
            assert got == pytest.approx(float(data.sum()))

    def test_chunked_bit_identity_vs_pickle(self, backend):
        rng = np.random.default_rng(0)
        data = np.cumsum(rng.normal(size=60_000)).astype(np.float32)
        kw = dict(chunk_elems=20_000, rel=1e-3)
        serial = compress_chunked(data, **kw)
        with WorkerPool(
            nworkers=2, backend=backend, warmup=False, transport="shm",
            shm_min_bytes=1,
        ) as pool:
            assert pool.wait_ready(30)
            pooled = compress_chunked(data, pool=pool, **kw)
            assert serial.nchunks == pooled.nchunks
            for a, b in zip(serial.chunks, pooled.chunks):
                assert a.tobytes() == b.tobytes()
            recon = decompress_chunked(pooled, pool=pool)
            assert recon.tobytes() == decompress_chunked(serial).tobytes()

    def test_crash_recovery_reclaims_slots(self, backend, tmp_path):
        marker = tmp_path / "crash-once"
        marker.write_text("x")
        with WorkerPool(
            nworkers=1, backend=backend, warmup=False, transport="shm",
        ) as pool:
            assert pool.wait_ready(30)
            # crashes once (consuming the marker), then the resubmission
            # succeeds on the replacement worker -- with the shm payload
            # re-encoded fresh from the original argument
            data = np.arange(30_000, dtype=np.float32)
            out = pool.submit(
                "test.shm_crash_if_file", {"marker": str(marker), "data": data}
            ).result(60)
            assert np.array_equal(out, data)
            # in-flight shm claims of the dead dispatch were released
            deadline = time.monotonic() + 10
            while pool.transport.arena.slots_in_use() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pool.transport.arena.slots_in_use() == 0


class TestThreadPoolRefusesShm:
    """Thread workers already share the caller's memory, so shm would
    only add a copy in and a copy out.  A thread pool refuses it before
    it starts a worker, a thread or a segment."""

    @staticmethod
    def _resources():
        return (
            set(multiprocessing.active_children()),
            set(threading.enumerate()),
            set(active_segments()),
        )

    @pytest.mark.parametrize("build", [
        lambda: WorkerPool(nworkers=2, backend="thread", transport="shm"),
        lambda: CompressionService(backend="thread", transport="shm", warmup=False),
    ], ids=["pool", "service"])
    def test_refused_and_leaks_nothing(self, build):
        before = self._resources()
        with pytest.raises(ValueError, match="needs backend='process'"):
            build()
        for now, then in zip(self._resources(), before):
            assert not now - then


class TestProcessKillMidTask:
    def test_sigkill_mid_write_recovers_and_reclaims(self):
        """SIGKILL a process worker while its task (and its shm request
        payload) is in flight: the task must be resubmitted and succeed,
        and every slot the dead worker could have held must be freed."""
        with WorkerPool(
            nworkers=1, backend="process", warmup=False, transport="shm",
            max_task_retries=2,
        ) as pool:
            assert pool.wait_ready(30)
            data = np.arange(50_000, dtype=np.float32)
            fut = pool.submit(
                "test.shm_sleep_echo", {"delay": 0.4, "data": data}
            )
            time.sleep(0.15)  # let the worker pick it up and start sleeping
            victims = [
                w.handle.pid for w in pool._workers.values()
                if getattr(w.handle, "pid", None)
            ]
            assert victims
            os.kill(victims[0], 9)
            out = fut.result(60)
            assert np.array_equal(out, data)
            deadline = time.monotonic() + 10
            while pool.transport.arena.slots_in_use() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pool.transport.arena.slots_in_use() == 0


# ---------------------------------------------------------------------------
# Service-level bit identity (the tentpole acceptance bar)
# ---------------------------------------------------------------------------

class TestServiceBitIdentity:
    @pytest.mark.parametrize("size", [20_000, 300_000])
    def test_shm_service_streams_match_pickle_service(self, size):
        rng = np.random.default_rng(7)
        data = np.cumsum(rng.normal(size=size)).astype(np.float32)
        blobs = {}
        for transport in ("pickle", "shm"):
            with CompressionService(
                ServiceConfig(
                    workers=2, backend="process", warmup=False,
                    transport=transport, chunk_bytes=256 << 10,
                    shm_min_bytes=1,
                )
            ) as svc:
                blob = svc.compress(data, rel=1e-3).result(120)
                recon = svc.decompress(blob, cache=False).result(120)
                blobs[transport] = (blob.tobytes(), recon.tobytes())
        assert blobs["shm"][0] == blobs["pickle"][0]  # CSZ2/CSZ2CHNK bytes
        assert blobs["shm"][1] == blobs["pickle"][1]

    def test_default_min_bytes_skips_tiny_arrays(self):
        assert DEFAULT_MIN_BYTES == 4096
