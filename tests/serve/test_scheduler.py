"""Scheduler: backpressure, priority lanes, micro-batching, shutdown."""

import threading
import time

import pytest

from repro.serve import PoolClosed, QueueFull, Scheduler, WorkerCrash, WorkerPool
from repro.serve.pool import CancelledError, register_task

_FLAKY = {"crashes_left": 0}
_FLAKY_LOCK = threading.Lock()


@register_task("sched_test.flaky")
def _flaky(arg):
    with _FLAKY_LOCK:
        if _FLAKY["crashes_left"] > 0:
            _FLAKY["crashes_left"] -= 1
            raise WorkerCrash("injected crash")
    return arg


@register_task("sched_test.maybe_fail")
def _maybe_fail(arg):
    if arg == "bad":
        raise ValueError("poisoned item")
    return arg


@pytest.fixture
def pool():
    p = WorkerPool(nworkers=1, backend="thread", warmup=False)
    p.wait_ready(10.0)
    yield p
    p.shutdown(wait=False)


def _occupy(pool, sched, seconds=0.3):
    """Park a task on the pool's single worker and wait until it holds it."""
    blocker = sched.submit("pool.sleep", seconds, priority="bulk", batchable=False)
    deadline = time.perf_counter() + 5.0
    while time.perf_counter() < deadline:
        if sched.queue_depth == 0 and sched._inflight >= 1:
            return blocker
        time.sleep(0.005)
    raise AssertionError("blocker never reached the worker")


class TestBackpressure:
    def test_queue_full_raises(self, pool):
        sched = Scheduler(pool, max_pending=2, max_inflight=1)
        try:
            blocker = _occupy(pool, sched)
            f1 = sched.submit("pool.echo", 1, batchable=False)
            f2 = sched.submit("pool.echo", 2, batchable=False)
            with pytest.raises(QueueFull):
                sched.submit("pool.echo", 3, batchable=False)
            assert sched.stats.counter("scheduler.rejected").value == 1
            # queued work still completes once the blocker finishes
            assert blocker.result(10) == 0.3
            assert f1.result(10) == 1 and f2.result(10) == 2
            # capacity freed: submission works again
            assert sched.submit("pool.echo", 4, batchable=False).result(10) == 4
        finally:
            sched.shutdown(cancel_pending=True)

    def test_priority_validation(self, pool):
        sched = Scheduler(pool)
        try:
            with pytest.raises(ValueError, match="priority"):
                sched.submit("pool.echo", 1, priority="urgent")
        finally:
            sched.shutdown()

    def test_config_validation(self, pool):
        with pytest.raises(ValueError):
            Scheduler(pool, max_pending=0)
        with pytest.raises(ValueError):
            Scheduler(pool, batch_max=0)


class TestPriorityLanes:
    def test_interactive_overtakes_queued_bulk(self, pool):
        """With the worker busy, an interactive request submitted AFTER
        two bulk requests completes before both of them."""
        sched = Scheduler(pool, max_inflight=1)
        order = []
        lock = threading.Lock()

        def track(tag):
            def cb(_f):
                with lock:
                    order.append(tag)
            return cb

        try:
            blocker = _occupy(pool, sched)
            b0 = sched.submit("pool.echo", "b0", priority="bulk", batchable=False)
            b0.add_done_callback(track("b0"))
            b1 = sched.submit("pool.echo", "b1", priority="bulk", batchable=False)
            b1.add_done_callback(track("b1"))
            i0 = sched.submit("pool.echo", "i0", priority="interactive", batchable=False)
            i0.add_done_callback(track("i0"))
            for f in (blocker, b0, b1, i0):
                f.result(10)
            assert order == ["i0", "b0", "b1"]
        finally:
            sched.shutdown()

    def test_latency_recorded_per_lane(self, pool):
        sched = Scheduler(pool)
        try:
            sched.submit("pool.echo", 1, priority="interactive").result(10)
            sched.submit("pool.echo", 2, priority="bulk").result(10)
            snap = sched.stats.snapshot()
            assert snap["histograms"]["scheduler.latency.interactive_s"]["count"] == 1
            assert snap["histograms"]["scheduler.latency.bulk_s"]["count"] == 1
        finally:
            sched.shutdown()


class TestBatching:
    def test_small_requests_coalesce(self, pool):
        sched = Scheduler(pool, max_inflight=1, batch_max=8)
        try:
            blocker = _occupy(pool, sched)  # hold the worker so peers queue up
            futures = [sched.submit("pool.echo", i, nbytes=8) for i in range(4)]
            blocker.result(10)
            assert [f.result(10) for f in futures] == [0, 1, 2, 3]
            assert sched.stats.counter("scheduler.batches").value >= 1
            assert sched.stats.counter("scheduler.batched_requests").value >= 2
            # one dispatch covered several requests
            assert (
                sched.stats.counter("scheduler.dispatches").value
                < sched.stats.counter("scheduler.completed").value
            )
        finally:
            sched.shutdown()

    def test_lone_request_flushes_on_timeout(self, pool):
        # A batchable request with no peers must not wait forever.
        sched = Scheduler(pool, batch_max=8)
        try:
            t0 = time.perf_counter()
            assert sched.submit("pool.echo", 42, nbytes=8).result(10) == 42
            assert time.perf_counter() - t0 < 5.0
        finally:
            sched.shutdown()

    def test_large_requests_never_batch(self, pool):
        sched = Scheduler(pool, batch_bytes=100, max_inflight=1)
        try:
            blocker = _occupy(pool, sched)
            futures = [
                sched.submit("pool.echo", i, nbytes=1000) for i in range(3)
            ]
            blocker.result(10)
            assert [f.result(10) for f in futures] == [0, 1, 2]
            assert sched.stats.counter("scheduler.batches").value == 0
        finally:
            sched.shutdown()

    def test_one_bad_item_does_not_sink_its_batch(self, pool):
        sched = Scheduler(pool, max_inflight=1, batch_max=8)
        try:
            blocker = _occupy(pool, sched)
            good0 = sched.submit("sched_test.maybe_fail", "a", nbytes=8)
            bad = sched.submit("sched_test.maybe_fail", "bad", nbytes=8)
            good1 = sched.submit("sched_test.maybe_fail", "c", nbytes=8)
            blocker.result(10)
            assert good0.result(10) == "a"
            with pytest.raises(ValueError, match="poisoned"):
                bad.result(10)
            assert good1.result(10) == "c"
            assert sched.stats.counter("scheduler.batches").value >= 1
        finally:
            sched.shutdown()


class TestEventDriven:
    """The scheduler has no thread and no tick; nothing in it waits for
    the pool's housekeeping tick (stretched to 5 s by ``slow_tick``): not
    a lone batchable request, not a raised ``max_inflight``."""

    @pytest.mark.parametrize(
        "backend,transport",
        [("thread", "pickle"), ("process", "pickle"), ("process", "shm")],
    )
    def test_constructing_a_scheduler_starts_no_thread(self, slow_tick, backend, transport):
        pool = WorkerPool(nworkers=1, backend=backend, transport=transport, warmup=False)
        try:
            assert pool.wait_ready(60.0)
            before = set(threading.enumerate())
            sched = Scheduler(pool)
            assert set(threading.enumerate()) == before
            try:
                t0 = time.perf_counter()
                for i in range(10):
                    assert sched.submit("pool.echo", i, nbytes=8).result(2.0) == i
                assert time.perf_counter() - t0 < 2.0
            finally:
                sched.shutdown()
        finally:
            pool.shutdown()

    def test_lone_batchable_requests_dispatch_at_once(self, slow_tick, pool):
        sched = Scheduler(pool)
        try:
            t0 = time.perf_counter()
            for i in range(20):
                assert sched.submit("pool.echo", i, nbytes=8).result(10) == i
            assert time.perf_counter() - t0 < 2.0
            assert sched.stats.counter("scheduler.batches").value == 0
        finally:
            sched.shutdown()

    def test_raising_max_inflight_dispatches_at_once(self, slow_tick):
        pool = WorkerPool(nworkers=2, backend="thread", warmup=False)
        sched = Scheduler(pool, max_inflight=1)
        try:
            assert pool.wait_ready(10.0)
            blocker = _occupy(pool, sched, seconds=3.0)
            queued = sched.submit("pool.echo", "next", batchable=False)
            time.sleep(0.2)  # the request sits queued behind the full cap
            sched.max_inflight = 2  # what the autoscaler does on scale-up
            assert queued.result(2.0) == "next"
            assert not blocker.done()  # the raised cap freed the slot
        finally:
            sched.shutdown()
            pool.shutdown()


class TestCrashResubmission:
    def test_request_survives_worker_crash(self):
        pool = WorkerPool(nworkers=2, backend="thread", warmup=False)
        sched = Scheduler(pool)
        try:
            with _FLAKY_LOCK:
                _FLAKY["crashes_left"] = 1
            assert sched.submit("sched_test.flaky", "kept").result(10) == "kept"
            assert pool.stats.counter("pool.resubmissions").value == 1
        finally:
            sched.shutdown()
            pool.shutdown()


class TestShutdown:
    def test_shutdown_with_inflight_work_never_deadlocks(self, pool):
        """Acceptance: shutdown returns promptly with queued + in-flight
        requests outstanding."""
        sched = Scheduler(pool, max_inflight=1)
        blocker = _occupy(pool, sched, seconds=0.3)
        pending = [
            sched.submit("pool.sleep", 0.3, batchable=False) for _ in range(4)
        ]
        t0 = time.perf_counter()
        sched.shutdown(wait=True, cancel_pending=True, timeout=10.0)
        assert time.perf_counter() - t0 < 10.0
        assert blocker.result(10) == 0.3  # in-flight work ran to completion
        for f in pending:
            assert isinstance(f.exception(10), CancelledError)

    def test_drain_shutdown_completes_pending(self, pool):
        sched = Scheduler(pool)
        futures = [sched.submit("pool.echo", i, batchable=False) for i in range(5)]
        sched.shutdown(wait=True, cancel_pending=False, timeout=10.0)
        assert [f.result(10) for f in futures] == list(range(5))

    def test_submit_after_shutdown_raises(self, pool):
        sched = Scheduler(pool)
        sched.shutdown()
        with pytest.raises(PoolClosed):
            sched.submit("pool.echo", 1)

    def test_context_manager(self, pool):
        with Scheduler(pool) as sched:
            assert sched.submit("pool.echo", 9).result(10) == 9
