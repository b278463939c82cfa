"""Worker pool: dispatch, warmup, crash recovery, shutdown."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.serve import PoolClosed, TaskError, WorkerCrash, WorkerPool
from repro.serve import pool as pool_module
from repro.serve.deadline import Deadline, DeadlineExceeded
from repro.serve.pool import CancelledError, PoolFuture, register_task

#: every backend/transport pairing the service runs on
BACKENDS = [("thread", "pickle"), ("process", "pickle"), ("process", "shm")]

# -- injectable tasks (registered at import time so fork workers see them) --

_FLAKY = {"crashes_left": 0}
_FLAKY_LOCK = threading.Lock()


@register_task("test.flaky")
def _flaky(arg):
    """Crash the worker while holding the task, the first N times."""
    with _FLAKY_LOCK:
        if _FLAKY["crashes_left"] > 0:
            _FLAKY["crashes_left"] -= 1
            raise WorkerCrash("injected crash")
    return arg


@register_task("test.always_crash")
def _always_crash(arg):
    raise WorkerCrash("injected crash (permanent)")


@register_task("test.fail")
def _fail(arg):
    raise ValueError(f"bad arg {arg!r}")


@register_task("test.crash_if_file")
def _crash_if_file(path):
    """Crash (consuming the marker file) if it exists; else succeed.

    Works across fork respawns, unlike in-memory flags: each replacement
    process inherits the parent's pristine memory, but the filesystem is
    shared, so exactly one crash happens per marker file.
    """
    import os

    try:
        os.unlink(path)
    except FileNotFoundError:
        return "survived"
    raise WorkerCrash("injected crash (file marker)")


class TestFuture:
    def test_result_and_callback(self):
        f = PoolFuture()
        seen = []
        f.add_done_callback(lambda g: seen.append(g.result()))
        f.set_result(42)
        assert f.done() and f.result() == 42 and seen == [42]

    def test_callback_after_done_fires_immediately(self):
        f = PoolFuture()
        f.set_result(1)
        seen = []
        f.add_done_callback(lambda g: seen.append(g.result()))
        assert seen == [1]

    def test_exception_raised_from_result(self):
        f = PoolFuture()
        f.set_exception(ValueError("boom"))
        assert isinstance(f.exception(), ValueError)
        with pytest.raises(ValueError):
            f.result()

    def test_cancel(self):
        f = PoolFuture()
        assert f.cancel()
        assert f.cancelled()
        with pytest.raises(CancelledError):
            f.result()
        f.set_result(1)  # late completion is ignored
        assert f.cancelled()

    def test_cancel_after_done_fails(self):
        f = PoolFuture()
        f.set_result(1)
        assert not f.cancel()

    def test_result_timeout(self):
        with pytest.raises(TimeoutError):
            PoolFuture().result(timeout=0.01)


class TestThreadPool:
    def test_submit_and_map(self):
        with WorkerPool(nworkers=2, backend="thread", warmup=False) as pool:
            assert pool.submit("pool.echo", 7).result(5) == 7
            assert pool.map("pool.echo", [1, 2, 3]) == [1, 2, 3]

    def test_wait_ready(self):
        pool = WorkerPool(nworkers=2, backend="thread", warmup=True)
        try:
            assert pool.wait_ready(30.0)
        finally:
            pool.shutdown()

    def test_task_exception_propagates(self):
        with WorkerPool(nworkers=1, backend="thread", warmup=False) as pool:
            f = pool.submit("test.fail", "x")
            with pytest.raises(ValueError, match="bad arg"):
                f.result(5)
            # the worker survives a plain exception
            assert pool.submit("pool.echo", 1).result(5) == 1

    def test_unknown_task_is_task_error(self):
        with WorkerPool(nworkers=1, backend="thread", warmup=False) as pool:
            with pytest.raises(TaskError, match="unknown task"):
                pool.submit("test.nope", None).result(5)

    def test_submit_after_shutdown_raises(self):
        pool = WorkerPool(nworkers=1, backend="thread", warmup=False)
        pool.shutdown()
        with pytest.raises(PoolClosed):
            pool.submit("pool.echo", 1)

    def test_graceful_shutdown_drains_queue(self):
        pool = WorkerPool(nworkers=1, backend="thread", warmup=False)
        futures = [pool.submit("pool.sleep", 0.02) for _ in range(5)]
        pool.shutdown(wait=True)
        assert all(f.result(0) == 0.02 for f in futures)

    def test_abandoning_shutdown_cancels_queued(self):
        pool = WorkerPool(nworkers=1, backend="thread", warmup=False)
        pool.wait_ready(10.0)
        blocker = pool.submit("pool.sleep", 0.2)
        time.sleep(0.08)  # let the blocker reach a worker
        queued = [pool.submit("pool.sleep", 0.2) for _ in range(4)]
        t0 = time.perf_counter()
        pool.shutdown(wait=False)
        assert time.perf_counter() - t0 < 10.0
        # the in-flight task completed; queued tasks were cancelled
        assert blocker.result(5) == 0.2
        assert any(f.cancelled() for f in queued)

    def test_utilization_and_queue_depth(self):
        with WorkerPool(nworkers=1, backend="thread", warmup=False) as pool:
            pool.map("pool.sleep", [0.02] * 3)
            assert 0.0 < pool.utilization() <= 1.0
            assert pool.queue_depth == 0

    def test_nworkers_validation(self):
        with pytest.raises(ValueError):
            WorkerPool(nworkers=0)

    def test_bad_backend_name(self):
        with pytest.raises(ValueError):
            WorkerPool(nworkers=1, backend="gpu")


class TestEventDrivenDispatch:
    """Submissions go straight to an idle worker; resizes and shutdown
    wake the manager.  None of them waits for the housekeeping tick
    (stretched to 5 s by ``slow_tick``)."""

    @pytest.mark.parametrize("backend,transport", BACKENDS)
    def test_round_trips_do_not_wait_for_the_tick(self, slow_tick, backend, transport):
        pool = WorkerPool(nworkers=1, backend=backend, transport=transport, warmup=False)
        try:
            assert pool.wait_ready(60.0)
            payload = np.arange(4096, dtype=np.float32)  # 16 KiB: shm-eligible
            t0 = time.perf_counter()
            for _ in range(20):
                assert np.array_equal(pool.submit("pool.echo", payload).result(10), payload)
            assert time.perf_counter() - t0 < 2.0
            if transport == "shm":
                assert pool.stats.counter("pool.transport.dispatch_shm_bytes").value > 0
        finally:
            t0 = time.perf_counter()
            pool.shutdown()
            shutdown_s = time.perf_counter() - t0
        assert shutdown_s < 2.0

    def test_resize_spawns_without_waiting_for_the_tick(self, slow_tick):
        with WorkerPool(nworkers=1, backend="thread", warmup=False) as pool:
            assert pool.wait_ready(10.0)
            t0 = time.perf_counter()
            assert pool.resize(2)
            while pool.workers_alive < 2 and time.perf_counter() - t0 < 2.0:
                time.sleep(0.005)
            assert pool.workers_alive == 2
            assert pool.wait_ready(2.0)
            assert time.perf_counter() - t0 < 2.0

    def test_wakes_coalesce_and_none_is_lost(self, slow_tick):
        """While the manager is busy (here: stuck in a done-callback),
        submissions still reach the idle worker or queue behind it, and
        every queued task runs as soon as the manager is free.
        Submissions queue no wake; resizes queue exactly one between
        them."""
        with WorkerPool(nworkers=1, backend="thread", warmup=False) as pool:
            assert pool.wait_ready(10.0)
            in_callback, release = threading.Event(), threading.Event()
            first = pool.submit("pool.echo", "first")
            first.add_done_callback(lambda _f: (in_callback.set(), release.wait(10)))
            assert in_callback.wait(5.0)
            futures = [pool.submit("pool.echo", i) for i in range(10)]
            # the first took the idle worker; the rest wait behind it
            assert pool.queue_depth == 9
            assert pool_module._WAKE not in list(pool._outq.queue)
            for _ in range(3):
                assert pool.resize(1)
            # one coalesced wake on the (thread backend's) result queue
            assert list(pool._outq.queue).count(pool_module._WAKE) == 1
            t0 = time.perf_counter()
            release.set()
            assert [f.result(2.0) for f in futures] == list(range(10))
            assert time.perf_counter() - t0 < 2.0

    @pytest.mark.parametrize("backend,transport", BACKENDS)
    def test_concurrent_submitters_lose_no_wake(self, slow_tick, backend, transport):
        """Race direct hand-offs from 8 client threads doing back-to-back
        round trips on 4 workers, with a tiny switch interval: a task
        stranded in the queue waits for the 5 s tick, past its 4 s result
        timeout, and a task handed out twice or lost breaks the count."""
        prev = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with WorkerPool(
                nworkers=4, backend=backend, transport=transport, warmup=False
            ) as pool:
                assert pool.wait_ready(60.0)
                errors, completions = [], []

                def client(t):
                    try:
                        for i in range(50):
                            payload = np.full(1024, t * 1000 + i, dtype=np.float32)
                            got = pool.submit("pool.echo", payload).result(4.0)
                            assert np.array_equal(got, payload)
                            completions.append((t, i))
                    except BaseException as e:  # noqa: BLE001 - reported below
                        errors.append(e)

                threads = [threading.Thread(target=client, args=(t,)) for t in range(8)]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(60.0)
                assert not any(th.is_alive() for th in threads)
                assert errors == []
                assert len(completions) == 8 * 50
                assert pool.stats.counter("pool.tasks").value == len(completions)
        finally:
            sys.setswitchinterval(prev)


class TestTransportBytes:
    """The transport byte counters count what crosses a process boundary:
    nothing for thread workers, which get the caller's array by
    reference; every argument and result for process workers."""

    @pytest.mark.parametrize("backend,crossed", [("thread", 0), ("process", 16384)])
    def test_pickled_bytes_count_process_crossings_only(self, backend, crossed):
        with WorkerPool(nworkers=1, backend=backend, warmup=False) as pool:
            assert pool.wait_ready(60.0)
            payload = np.arange(4096, dtype=np.float32)
            assert np.array_equal(pool.submit("pool.echo", payload).result(10), payload)
            counter = pool.stats.counter
            assert counter("pool.transport.dispatch_pickled_bytes").value == crossed
            assert counter("pool.transport.result_pickled_bytes").value == crossed


class TestDirectHandOff:
    """The submitting thread hands a task to an idle worker itself: no
    message reaches the manager, and a task that must not run is stopped
    before any worker sees it."""

    @pytest.mark.parametrize("backend,transport", BACKENDS)
    def test_idle_worker_gets_task_without_manager_message(
        self, slow_tick, monkeypatch, backend, transport
    ):
        pool = WorkerPool(nworkers=1, backend=backend, transport=transport, warmup=False)
        try:
            assert pool.wait_ready(60.0)
            sent = []
            put = pool._outq.put
            # parent-side puts only: process workers hold their own copy
            # of the queue; thread workers' "done" messages land here too
            monkeypatch.setattr(pool._outq, "put", lambda msg: (sent.append(msg[0]), put(msg)))
            payload = np.arange(4096, dtype=np.float32)  # 16 KiB: shm-eligible
            for _ in range(5):
                assert np.array_equal(pool.submit("pool.echo", payload).result(2.0), payload)
            assert "wake" not in sent
            assert pool.stats.counter("pool.tasks").value == 5
        finally:
            pool.shutdown()

    @pytest.mark.parametrize("backend,transport", BACKENDS)
    def test_expired_task_is_shed_by_the_submitter(self, slow_tick, backend, transport):
        pool = WorkerPool(nworkers=1, backend=backend, transport=transport, warmup=False)
        try:
            assert pool.wait_ready(60.0)
            payload = np.arange(4096, dtype=np.float32)
            fut = pool.submit(
                "pool.echo", payload, deadline=Deadline(time.perf_counter() - 1.0)
            )
            # failed on the submitting thread, before submit returned
            assert fut.done()
            with pytest.raises(DeadlineExceeded):
                fut.result(0)
            assert pool.stats.counter("pool.deadline_sheds").value == 1
            # nothing was encoded for a worker
            assert pool.stats.counter("pool.transport.dispatch_pickled_bytes").value == 0
            assert pool.stats.counter("pool.transport.dispatch_shm_bytes").value == 0
            assert np.array_equal(pool.submit("pool.echo", payload).result(2.0), payload)
        finally:
            pool.shutdown()


class TestCrashRecovery:
    def test_crash_loses_no_request(self):
        """Acceptance: a worker crash mid-task resubmits the task; the
        caller's future still resolves."""
        with _FLAKY_LOCK:
            _FLAKY["crashes_left"] = 1
        with WorkerPool(nworkers=2, backend="thread", warmup=False) as pool:
            assert pool.submit("test.flaky", "payload").result(10) == "payload"
            assert pool.stats.counter("pool.worker_crashes").value == 1
            assert pool.stats.counter("pool.resubmissions").value == 1
            # the replacement worker serves subsequent traffic
            assert pool.map("pool.echo", list(range(4))) == list(range(4))

    def test_repeated_crashes_fail_the_task_not_the_pool(self):
        with WorkerPool(
            nworkers=2, backend="thread", warmup=False, max_task_retries=1
        ) as pool:
            f = pool.submit("test.always_crash", None)
            with pytest.raises(WorkerCrash):
                f.result(10)
            # pool stays usable: only that task died
            assert pool.submit("pool.echo", 5).result(10) == 5

    def test_crash_loop_breaks_the_pool(self):
        pool = WorkerPool(
            nworkers=1, backend="thread", warmup=False, max_task_retries=0
        )
        try:
            failures = [pool.submit("test.always_crash", i) for i in range(8)]
            for f in failures:
                assert isinstance(f.exception(10), WorkerCrash)
            deadline = time.perf_counter() + 10
            while time.perf_counter() < deadline and not pool._broken:
                time.sleep(0.01)
            assert pool._broken
            with pytest.raises(PoolClosed, match="broken"):
                pool.submit("pool.echo", 1)
        finally:
            pool.shutdown()


class TestProcessPool:
    def test_round_trip(self):
        with WorkerPool(nworkers=2, backend="process", warmup=False) as pool:
            assert pool.wait_ready(60.0)
            data = np.linspace(0.0, 1.0, 2048, dtype=np.float32)
            from repro.serve import compress_chunked, decompress_chunked

            chunked = compress_chunked(
                data, rel=1e-3, block=64, group_blocks=4, chunk_elems=512, pool=pool
            )
            assert np.array_equal(
                decompress_chunked(chunked, pool=pool), decompress_chunked(chunked)
            )

    def test_process_crash_recovery(self, tmp_path):
        # A process worker hard-exits on WorkerCrash; liveness polling
        # detects the death, respawns a worker, and resubmits the task.
        marker = tmp_path / "crash-once"
        marker.touch()
        with WorkerPool(
            nworkers=1, backend="process", warmup=False, max_task_retries=2
        ) as pool:
            assert pool.wait_ready(60.0)
            assert pool.submit("test.crash_if_file", str(marker)).result(60) == "survived"
            assert pool.stats.counter("pool.worker_crashes").value >= 1
            assert pool.submit("pool.echo", "alive").result(30) == "alive"
