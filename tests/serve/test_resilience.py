"""Resilience layer: deadlines, watchdog, retries, breakers, degradation.

Every test here is deterministic: faults are injected via registered
tasks with explicit counters (thread backend shares memory) or via the
clock-injected circuit breaker -- no sleeps longer than the watchdog
needs, no reliance on scheduling luck.
"""

import random
import threading
import time

import numpy as np
import pytest

from repro.core.errors import IntegrityError, InvalidInputError
from repro.serve import (
    CompressionService,
    Deadline,
    DeadlineExceeded,
    Scheduler,
    WaitTimeout,
    WorkerPool,
    WorkerTimeout,
    is_raw,
    raw_from_bytes,
    raw_to_bytes,
)
from repro.serve.pool import PoolFuture, ThreadBackend, register_task
from repro.serve.resilience import (
    BreakerConfig,
    CircuitBreaker,
    CorruptResult,
    ResilientRouter,
    RetryPolicy,
    TaskFailure,
    classify_error,
    is_classified,
)

# -- injectable tasks (import time, so fork workers inherit them) -----------

_STATE = {"fail_left": 0}
_STATE_LOCK = threading.Lock()


@register_task("res.sleep")
def _sleep_task(arg):
    time.sleep(float(arg))
    return "slept"


@register_task("res.flaky_integrity")
def _flaky_integrity(arg):
    """Raise IntegrityError (retryable transport corruption) N times."""
    with _STATE_LOCK:
        if _STATE["fail_left"] > 0:
            _STATE["fail_left"] -= 1
            raise IntegrityError("synthetic transport corruption")
    return arg


@register_task("res.boom")
def _boom(arg):
    raise RuntimeError("deterministic failure on every tier")


@register_task("res.echo2")
def _echo2(arg):
    return arg


@register_task("res.bad_value")
def _bad_value(arg):
    raise ValueError("client mistake, not an infrastructure fault")


@register_task("res.pool_poison")
def _pool_poison(arg):
    """Fail in pool workers, succeed on the router's inline runner --
    lets a test open the pool breaker while inline stays healthy."""
    if threading.current_thread().name != "serve-inline-runner":
        raise RuntimeError("poisoned everywhere but the inline runner")
    return arg


# ---------------------------------------------------------------------------
# Deadline primitives
# ---------------------------------------------------------------------------

class TestDeadline:
    def test_after_and_remaining(self):
        d = Deadline.after(10.0)
        assert 9.0 < d.remaining() <= 10.0
        assert not d.expired

    def test_expired(self):
        d = Deadline(time.perf_counter() - 1.0)
        assert d.expired and d.remaining() < 0

    def test_after_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Deadline.after(0.0)

    def test_earliest(self):
        from repro.serve.deadline import earliest

        a, b = Deadline.after(1.0), Deadline.after(2.0)
        assert earliest(a, b) is a
        assert earliest(None, b, None) is b
        assert earliest(None, None) is None


# ---------------------------------------------------------------------------
# Typed wait timeout + cancel (future hardening)
# ---------------------------------------------------------------------------

class TestWaitTimeoutAndCancel:
    def test_result_timeout_is_typed(self):
        f = PoolFuture()
        with pytest.raises(WaitTimeout):
            f.result(timeout=0.01)
        assert issubclass(WaitTimeout, TimeoutError)  # drop-in for callers

    def test_exception_timeout_is_typed(self):
        f = PoolFuture()
        with pytest.raises(WaitTimeout):
            f.exception(timeout=0.01)

    def test_cancelled_task_skipped_by_dispatcher(self):
        with WorkerPool(nworkers=1, warmup=False) as pool:
            pool.wait_ready()
            blocker = pool.submit("res.sleep", 0.3)
            victim = pool.submit("res.echo2", "never")
            after = pool.submit("res.echo2", "runs")
            assert victim.cancel()
            assert blocker.result(timeout=5.0) == "slept"
            assert after.result(timeout=5.0) == "runs"
            assert victim.cancelled()
            from repro.serve.pool import CancelledError

            with pytest.raises(CancelledError):
                victim.result(timeout=0.1)


# ---------------------------------------------------------------------------
# Event-driven readiness
# ---------------------------------------------------------------------------

class TestWaitReady:
    def test_wait_ready_returns_promptly(self):
        with WorkerPool(nworkers=2, warmup=False) as pool:
            t0 = time.perf_counter()
            assert pool.wait_ready(timeout=10.0)
            # condition-variable wakeup, not a poll loop: workers that
            # start in milliseconds must not cost a poll interval
            assert time.perf_counter() - t0 < 5.0
            # already-ready pool answers immediately
            t1 = time.perf_counter()
            assert pool.wait_ready(timeout=10.0)
            assert time.perf_counter() - t1 < 0.05


# ---------------------------------------------------------------------------
# Deadline shedding (queue) and watchdog (in-flight)
# ---------------------------------------------------------------------------

class TestDeadlineShedding:
    def test_pool_sheds_expired_queued_task(self):
        with WorkerPool(nworkers=1, warmup=False) as pool:
            pool.wait_ready()
            blocker = pool.submit("res.sleep", 0.3)
            doomed = pool.submit("res.echo2", "x", deadline=Deadline.after(0.05))
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=5.0)
            assert blocker.result(timeout=5.0) == "slept"
            assert pool.stats.counter("pool.deadline_sheds").value >= 1

    def test_scheduler_sheds_expired_request(self):
        with WorkerPool(nworkers=1, warmup=False) as pool:
            pool.wait_ready()
            sched = Scheduler(pool)
            blocker = sched.submit("res.sleep", 0.3, batchable=False)
            doomed = sched.submit(
                "res.echo2", "x", batchable=False, deadline=Deadline.after(0.05)
            )
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=5.0)
            assert blocker.result(timeout=5.0) == "slept"
            assert sched.stats.counter("scheduler.deadline_sheds").value >= 1
            sched.shutdown()

    def test_expired_pending_shed_even_with_no_idle_worker(self):
        # the shed must not wait for a worker to come free: a fully
        # stalled pool still honors deadlines
        with WorkerPool(nworkers=1, warmup=False) as pool:
            pool.wait_ready()
            t0 = time.perf_counter()
            blocker = pool.submit("res.sleep", 0.5)
            doomed = pool.submit("res.echo2", "x", deadline=Deadline.after(0.05))
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=5.0)
            # failed while the only worker was still busy, not at dispatch
            assert time.perf_counter() - t0 < 0.4
            assert blocker.result(timeout=5.0) == "slept"

    def test_no_deadline_means_no_shedding(self):
        with WorkerPool(nworkers=1, warmup=False) as pool:
            pool.wait_ready()
            futs = [pool.submit("res.echo2", i) for i in range(20)]
            assert [f.result(timeout=10.0) for f in futs] == list(range(20))


class TestWatchdog:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_watchdog_reclaims_overrunning_worker(self, backend):
        with WorkerPool(nworkers=1, backend=backend, warmup=False) as pool:
            assert pool.wait_ready(timeout=30.0)
            stuck = pool.submit("res.sleep", 5.0, deadline=Deadline.after(0.15))
            with pytest.raises(WorkerTimeout):
                stuck.result(timeout=10.0)
            assert pool.stats.counter("pool.watchdog_kills").value == 1
            # the pool respawned a replacement and keeps serving
            assert pool.submit("res.echo2", "alive").result(timeout=30.0) == "alive"

    def test_watchdog_does_not_touch_tasks_within_deadline(self):
        with WorkerPool(nworkers=1, warmup=False) as pool:
            pool.wait_ready()
            ok = pool.submit("res.sleep", 0.1, deadline=Deadline.after(5.0))
            assert ok.result(timeout=10.0) == "slept"
            assert pool.stats.counter("pool.watchdog_kills").value == 0


class _WedgedHandle:
    """A worker handle that stays alive but never reports ready."""

    def __init__(self):
        self._alive = True

    def is_alive(self):
        return self._alive

    def join(self, timeout=None):
        pass

    def terminate(self):
        self._alive = False


class _WedgingBackend:
    """First spawn wedges silently; every later spawn is a real worker.

    Models the fork-from-multithreaded-process hazard where a child
    deadlocks on an inherited lock before sending its ready message.
    """

    name = "thread"

    def __init__(self):
        self._real = ThreadBackend()
        self._wedge_next = True

    def make_queue(self):
        return self._real.make_queue()

    def spawn(self, wid, inq, outq, warmup, transport=None):
        if self._wedge_next:
            self._wedge_next = False
            return _WedgedHandle()
        return self._real.spawn(wid, inq, outq, warmup, transport)


class TestSpawnWatchdog:
    def test_wedged_spawn_is_replaced(self):
        # the first worker never becomes ready; the spawn watchdog must
        # terminate it and spawn a replacement that serves traffic
        with WorkerPool(
            nworkers=1, backend=_WedgingBackend(), warmup=False,
            spawn_timeout_s=0.1,
        ) as pool:
            fut = pool.submit("res.echo2", "through")
            assert fut.result(timeout=10.0) == "through"
            assert pool.stats.counter("pool.spawn_timeouts").value == 1

    def test_healthy_spawn_not_charged(self):
        with WorkerPool(nworkers=2, warmup=False, spawn_timeout_s=5.0) as pool:
            assert pool.wait_ready(timeout=10.0)
            assert pool.submit("res.echo2", "ok").result(timeout=10.0) == "ok"
            assert pool.stats.counter("pool.spawn_timeouts").value == 0


# ---------------------------------------------------------------------------
# Retry policy (pure math)
# ---------------------------------------------------------------------------

class TestRetryPolicy:
    def test_exponential_growth_capped(self):
        pol = RetryPolicy(backoff_base_s=0.1, backoff_multiplier=2.0,
                          backoff_max_s=0.3, jitter=0.0)
        rng = random.Random(0)
        assert pol.backoff_s(1, rng) == pytest.approx(0.1)
        assert pol.backoff_s(2, rng) == pytest.approx(0.2)
        assert pol.backoff_s(3, rng) == pytest.approx(0.3)  # capped
        assert pol.backoff_s(9, rng) == pytest.approx(0.3)

    def test_jitter_is_bounded_and_deterministic(self):
        pol = RetryPolicy(backoff_base_s=0.1, jitter=0.5)
        a = [pol.backoff_s(1, random.Random(7)) for _ in range(3)]
        assert a[0] == a[1] == a[2]  # same seed, same delay
        for s in range(100):
            d = pol.backoff_s(1, random.Random(s))
            assert 0.05 - 1e-12 <= d <= 0.15 + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


# ---------------------------------------------------------------------------
# Circuit breaker (clock-injected, no sleeping)
# ---------------------------------------------------------------------------

class TestCircuitBreaker:
    def make(self, **kw):
        clock = {"t": 0.0}
        cfg = BreakerConfig(window=8, min_volume=4, failure_threshold=0.5,
                            reset_timeout_s=1.0, **kw)
        br = CircuitBreaker("t", cfg, clock=lambda: clock["t"])
        return br, clock

    def test_trips_at_threshold_with_min_volume(self):
        br, _ = self.make()
        br.record_failure()
        br.record_failure()
        br.record_failure()
        assert br.state == "closed"  # min_volume not reached
        br.record_failure()
        assert br.state == "open"
        assert not br.allow()

    def test_successes_keep_it_closed(self):
        br, _ = self.make()
        for _ in range(20):
            br.record_success()
            assert br.allow()
        br.record_failure()
        assert br.state == "closed"  # 1/8 failure rate in window

    def test_half_open_probe_then_close(self):
        br, clock = self.make()
        for _ in range(4):
            br.record_failure()
        assert br.state == "open"
        clock["t"] += 1.1  # past reset timeout
        assert br.allow()  # the probe
        assert br.state == "half_open"
        assert not br.allow()  # only one probe admitted
        br.record_success()
        assert br.state == "closed"
        assert br.allow()

    def test_half_open_failure_reopens(self):
        br, clock = self.make()
        for _ in range(4):
            br.record_failure()
        clock["t"] += 1.1
        assert br.allow()
        br.record_failure()
        assert br.state == "open"
        assert not br.allow()
        clock["t"] += 1.1
        assert br.allow()  # recovery can be probed again

    def test_slow_success_counts_as_failure(self):
        br, _ = self.make(latency_threshold_s=0.1)
        for _ in range(4):
            br.record_success(duration_s=0.5)
        assert br.state == "open"


# ---------------------------------------------------------------------------
# Error taxonomy
# ---------------------------------------------------------------------------

class TestTaxonomy:
    def test_classified_types(self):
        assert is_classified(DeadlineExceeded("x"))
        assert is_classified(WorkerTimeout("x"))
        assert is_classified(CorruptResult("x"))
        assert is_classified(TaskFailure("x"))
        assert is_classified(IntegrityError("x"))
        assert not is_classified(RuntimeError("x"))

    def test_labels(self):
        assert classify_error(DeadlineExceeded("x")) == "deadline"
        assert classify_error(CorruptResult("x")) == "corrupt_result"
        assert classify_error(InvalidInputError("x")) == "client"
        assert classify_error(KeyError("x")) == "unclassified"


# ---------------------------------------------------------------------------
# Router integration (real pool + scheduler underneath)
# ---------------------------------------------------------------------------

def _router(**router_kw):
    pool = WorkerPool(nworkers=1, warmup=False)
    pool.wait_ready()
    sched = Scheduler(pool)
    router = ResilientRouter(sched, **router_kw)
    return pool, sched, router


class TestRouterRetry:
    def test_transient_failure_retried_to_success(self):
        pool, sched, router = _router(
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.005, jitter=0.0)
        )
        try:
            with _STATE_LOCK:
                _STATE["fail_left"] = 2
            fut = router.submit("res.flaky_integrity", "ok",
                                deadline=Deadline.after(10.0), batchable=False)
            assert fut.result(timeout=10.0) == "ok"
            assert router.stats.counter("resilience.retries").value == 2
        finally:
            router.close()
            sched.shutdown()
            pool.shutdown()

    def test_corrupt_result_detected_and_retried(self):
        pool, sched, router = _router(
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.005, jitter=0.0)
        )
        try:
            fails = {"left": 1}
            lock = threading.Lock()

            def validator(out):
                with lock:
                    if fails["left"] > 0:
                        fails["left"] -= 1
                        raise IntegrityError("synthetic corrupt ship-back")

            fut = router.submit("res.echo2", "v", deadline=Deadline.after(10.0),
                                batchable=False, validator=validator)
            assert fut.result(timeout=10.0) == "v"
            assert router.stats.counter("resilience.corrupt_results").value == 1
            assert router.stats.counter("resilience.retries").value == 1
        finally:
            router.close()
            sched.shutdown()
            pool.shutdown()

    def test_unclassified_failure_wrapped_terminal(self):
        pool, sched, router = _router()
        try:
            fut = router.submit("res.boom", None, batchable=False)
            # res.boom raises RuntimeError -> not retryable, degrades through
            # inline, then fails wrapped in a classified type
            with pytest.raises(TaskFailure):
                fut.result(timeout=10.0)
            assert router.stats.counter("resilience.retries").value == 0
        finally:
            router.close()
            sched.shutdown()
            pool.shutdown()

    def test_client_error_delivered_verbatim(self):
        pool, sched, router = _router()
        try:
            fut = router.submit("res.bad_value", None, batchable=False)
            with pytest.raises(ValueError, match="client mistake"):
                fut.result(timeout=10.0)
            # no retry, no degradation, no breaker charge
            assert router.stats.counter("resilience.retries").value == 0
            assert router.stats.counter("resilience.degraded.inline").value == 0
            assert router.breakers["pool"].state == "closed"
        finally:
            router.close()
            sched.shutdown()
            pool.shutdown()

    def test_retry_wait_span_recorded(self):
        from repro.obs import Tracer
        from repro.obs.trace import TraceContext

        pool, sched, router = _router(
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.005, jitter=0.0)
        )
        tracer = Tracer()
        try:
            with _STATE_LOCK:
                _STATE["fail_left"] = 1
            span = tracer.begin("request")
            fut = router.submit(
                "res.flaky_integrity", "ok", deadline=Deadline.after(10.0),
                batchable=False, trace=TraceContext(tracer, span),
            )
            assert fut.result(timeout=10.0) == "ok"
            tracer.end(span)
            names = set()

            def walk(spans):
                for s in spans:
                    names.add(s.name)
                    walk(s.children)

            walk(tracer.roots())
            assert "resilience.retry_wait" in names
        finally:
            router.close()
            sched.shutdown()
            pool.shutdown()


class TestRouterDegradation:
    def test_degrades_to_inline_then_raw(self):
        pool, sched, router = _router(
            retry=RetryPolicy(max_attempts=1)  # no same-tier retries
        )
        try:
            data = np.arange(64, dtype=np.float32)
            fut = router.submit(
                "res.boom", None, batchable=False,
                raw_fallback=lambda: raw_to_bytes(data),
            )
            out = fut.result(timeout=10.0)
            assert is_raw(out)
            assert np.array_equal(raw_from_bytes(out), data)
            assert router.stats.counter("resilience.degraded.inline").value == 1
            assert router.stats.counter("resilience.raw_fallbacks").value == 1
        finally:
            router.close()
            sched.shutdown()
            pool.shutdown()

    def test_breaker_trips_and_routes_around_pool(self):
        pool, sched, router = _router(
            retry=RetryPolicy(max_attempts=1),
            breaker=BreakerConfig(window=4, min_volume=2, failure_threshold=0.5,
                                  reset_timeout_s=60.0),
        )
        try:
            # fails in pool workers, succeeds on the inline runner: the
            # requests still get answers while the pool breaker charges up
            for i in range(3):
                got = router.submit("res.pool_poison", i, batchable=False)
                assert got.result(timeout=10.0) == i
            assert router.breakers["pool"].state == "open"
            assert router.breakers["inline"].state == "closed"
            assert (
                router.stats.counter("resilience.breaker.pool.open").value >= 1
            )
            # next request never touches the pool tier: served inline
            before = router.stats.counter("scheduler.submitted").value
            assert router.submit("res.echo2", 7, batchable=False).result(10.0) == 7
            assert router.stats.counter("scheduler.submitted").value == before
            assert router.stats.counter("resilience.inline_tasks").value >= 4
        finally:
            router.close()
            sched.shutdown()
            pool.shutdown()

    def test_expired_deadline_shed_before_dispatch(self):
        pool, sched, router = _router()
        try:
            d = Deadline(time.perf_counter() - 0.1)  # already expired
            fut = router.submit("res.echo2", 1, deadline=d, batchable=False)
            with pytest.raises(DeadlineExceeded):
                fut.result(timeout=5.0)
            assert router.stats.counter("resilience.deadline_sheds").value == 1
        finally:
            router.close()
            sched.shutdown()
            pool.shutdown()


# ---------------------------------------------------------------------------
# Raw passthrough container
# ---------------------------------------------------------------------------

class TestRawContainer:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(0)
        for arr in (
            rng.standard_normal((32, 17), dtype=np.float32),
            rng.standard_normal(1000).astype(np.float64),
            np.arange(7, dtype=np.int32),
        ):
            buf = raw_to_bytes(arr)
            assert is_raw(buf)
            back = raw_from_bytes(buf)
            assert back.shape == arr.shape and back.dtype == arr.dtype
            assert np.array_equal(back, arr)

    def test_not_raw_for_other_buffers(self):
        assert not is_raw(np.zeros(4, dtype=np.uint8))
        assert not is_raw(np.frombuffer(b"CSZ2", dtype=np.uint8))

    def test_crc_detects_payload_corruption(self):
        buf = raw_to_bytes(np.arange(100, dtype=np.float32))
        dam = buf.copy()
        dam[-5] ^= 0xFF
        with pytest.raises(IntegrityError):
            raw_from_bytes(dam)

    def test_manifest_flags_raw_entries(self):
        from repro.serve.chunked import ChunkEntry, ChunkManifest

        m = ChunkManifest(
            shape=(8,), dtype="float32", mode="outlier", predictor_ndim=1,
            block=32, group_blocks=16, eb_abs=1e-3, axis="flat",
            entries=(
                ChunkEntry(nelems=4, nbytes=10, crc32=1),
                ChunkEntry(nelems=4, nbytes=10, crc32=2, raw=True),
            ),
        )
        again = ChunkManifest.from_json(m.to_json())
        assert [e.raw for e in again.entries] == [False, True]
        # the raw key is omitted for compressed chunks: golden containers
        # from before the resilience layer parse (and re-serialize) unchanged
        assert '"raw"' not in m.to_json().split("},")[0]


# ---------------------------------------------------------------------------
# Service-level degradation (the full chain, end to end)
# ---------------------------------------------------------------------------

class TestServiceDegradation:
    def test_total_backend_failure_serves_raw_and_decodes_exactly(self):
        from repro.faults.chaos import ChaosConfig, ChaosWorkerPool

        chaos = ChaosConfig(seed=0, crash_rate=1.0)  # every pool task dies
        with CompressionService(
            workers=1, warmup=False, deadline_s=30.0,
            degrade_inline=False,  # force the chain past inline to raw
            retry_max_attempts=1,
            max_respawns=1000,
            pool_wrapper=lambda p: ChaosWorkerPool(p, chaos),
        ) as svc:
            rng = np.random.default_rng(1)
            data = rng.standard_normal(4096, dtype=np.float32)
            blob = svc.compress(data, rel=1e-3).result(timeout=60.0)
            assert is_raw(np.asarray(blob))
            assert svc.stats.counter("resilience.raw_fallbacks").value >= 1
            # raw is decodable by the same service... but the pool is
            # still chaotic, so decode degrades too; with resilience off
            # the chain, verify via the direct helper instead
            assert np.array_equal(raw_from_bytes(np.asarray(blob)), data)

    def test_rescued_tier_output_bit_identical_to_monolithic(self):
        import repro

        with _STATE_LOCK:
            _STATE["fail_left"] = 0
        with CompressionService(workers=2, warmup=False, deadline_s=30.0) as svc:
            rng = np.random.default_rng(2)
            data = rng.standard_normal(8192, dtype=np.float32)
            blob = svc.compress(data, rel=1e-3).result(timeout=60.0)
            mono = repro.compress(data, rel=1e-3)
            assert np.array_equal(np.asarray(blob), mono)
            recon = svc.decompress(blob).result(timeout=60.0)
            assert np.array_equal(recon, repro.decompress(mono))

    def test_inline_rescue_is_bit_identical(self):
        """Even when every pool task dies and the inline tier answers,
        the bytes match the monolithic codec exactly."""
        import repro
        from repro.faults.chaos import ChaosConfig, ChaosWorkerPool

        chaos = ChaosConfig(seed=0, crash_rate=1.0)
        with CompressionService(
            workers=1, warmup=False, deadline_s=30.0,
            retry_max_attempts=1, max_respawns=1000,
            pool_wrapper=lambda p: ChaosWorkerPool(p, chaos),
        ) as svc:
            rng = np.random.default_rng(3)
            data = rng.standard_normal(4096, dtype=np.float32)
            blob = svc.compress(data, rel=1e-3).result(timeout=60.0)
            assert not is_raw(np.asarray(blob))  # inline tier compressed it
            assert np.array_equal(np.asarray(blob), repro.compress(data, rel=1e-3))
            assert svc.stats.counter("resilience.degraded.inline").value >= 1

    def test_resilience_counters_exported(self):
        from repro.obs.export import prometheus_text

        with _STATE_LOCK:
            _STATE["fail_left"] = 1
        with CompressionService(workers=1, warmup=False, deadline_s=30.0,
                                retry_backoff_s=0.005) as svc:
            fut = svc.router.submit("res.flaky_integrity", "x",
                                    deadline=Deadline.after(10.0), batchable=False)
            assert fut.result(timeout=10.0) == "x"
            snap = svc.stats_snapshot()
            assert snap["counters"]["resilience.retries"] == 1
            text = prometheus_text(svc.stats)
            assert "resilience_retries" in text.replace(".", "_") or \
                   "resilience" in text
