"""Resilient request routing: retries, circuit breakers, degradation.

This module is the serving layer's answer to a sick fleet.  The contract
it enforces (and that ``repro chaoscheck`` verifies behaviorally) is:

    every request either **succeeds within its deadline**, **degrades to
    a bit-correct lower tier**, or **fails with a classified error** --
    it never hangs and never returns wrong bytes.

Four mechanisms compose into that guarantee:

* **deadline propagation** (:mod:`repro.serve.deadline`) -- one absolute
  deadline threads through scheduler, pool, and this router; expired work
  is shed before dispatch and the pool watchdog reclaims workers that
  overrun it;
* **retry with exponential backoff + jitter** (:class:`RetryPolicy`) --
  transient failures (worker crash, watchdog kill, ``QueueFull``
  backpressure, corrupt results detected by CRC) are retried while the
  deadline still has budget;
* **per-tier circuit breakers** (:class:`CircuitBreaker`) -- a tier
  failing at a high rate is opened and routed around instead of burning
  the retry budget (and the pool's restart budget) on a sick backend;
  after ``reset_timeout_s`` a half-open probe tests recovery;
* **graceful degradation** (:class:`ResilientRouter`) -- the tier chain
  ``pool -> inline codec -> raw passthrough`` keeps answers flowing
  under total backend failure.  Both compressed tiers run the identical
  codec, so degradation never changes bytes; the raw floor stores the
  input uncompressed (lossless, flagged in the container, detected by
  its own CRC).

The router is codec-agnostic: it routes named pool tasks, so the same
machinery serves compression, decompression, and future task types.
"""

from __future__ import annotations

import queue
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.core.errors import (
    CuSZp2Error,
    ErrorBoundError,
    InvalidInputError,
)

from .deadline import Deadline, DeadlineExceeded, WorkerTimeout
from .pool import (
    CancelledError,
    PoolClosed,
    PoolFuture,
    TaskError,
    UnknownTask,
    WaitTimeout,
    WorkerCrash,
    _run_task,
)
from .stats import MetricsRegistry

__all__ = [
    "BreakerConfig",
    "CircuitBreaker",
    "CircuitOpen",
    "CorruptResult",
    "ResilienceError",
    "ResilientRouter",
    "RetryPolicy",
    "TaskFailure",
    "classify_error",
    "is_classified",
]


# ---------------------------------------------------------------------------
# Error taxonomy
# ---------------------------------------------------------------------------

class ResilienceError(RuntimeError):
    """Base class for errors minted by the resilience layer itself."""


class CircuitOpen(ResilienceError):
    """Every tier's circuit breaker refused the request."""


class CorruptResult(ResilienceError):
    """A worker shipped back a result that failed validation (CRC /
    integrity check) -- treated like a transport fault and retried."""


class TaskFailure(ResilienceError):
    """Terminal wrapper for an exception outside the known taxonomy, so
    callers always receive a classified error type."""


#: Exception types a caller can receive from the router.  Anything else
#: is wrapped in :class:`TaskFailure` before reaching a future, closing
#: the taxonomy (the chaos harness asserts this).
CLASSIFIED_ERRORS = (
    ResilienceError,
    DeadlineExceeded,
    WorkerTimeout,
    WorkerCrash,
    TaskError,
    PoolClosed,
    CancelledError,
    WaitTimeout,
    CuSZp2Error,
)

#: Failures worth retrying on the *same* tier: transient by nature
#: (crashed/killed worker, backpressure, transport corruption).  Note
#: ``IntegrityError``/``StreamFormatError`` are subclasses of
#: ``CuSZp2Error`` -- retryable because a corrupt *task payload* (not a
#: corrupt user input) decodes cleanly on a retry.
RETRYABLE_ERRORS = (
    WorkerCrash,
    WorkerTimeout,
    DeadlineExceeded,  # from a lower layer; terminal only if *our* deadline expired
    CorruptResult,
    TaskError,
)

#: Deterministic client errors: never retried, never charged against a
#: breaker, passed through verbatim.
CLIENT_ERRORS = (InvalidInputError, ErrorBoundError, ValueError, TypeError)


def is_classified(exc: BaseException) -> bool:
    """Is ``exc`` part of the documented serving-error taxonomy?"""
    return isinstance(exc, CLASSIFIED_ERRORS)


def classify_error(exc: BaseException) -> str:
    """Short classification label for metrics/event logs."""
    if isinstance(exc, CLIENT_ERRORS):
        return "client"
    if isinstance(exc, DeadlineExceeded):
        return "deadline"
    if isinstance(exc, (WorkerTimeout, WaitTimeout)):
        return "timeout"
    if isinstance(exc, CircuitOpen):
        return "circuit_open"
    if isinstance(exc, CorruptResult):
        return "corrupt_result"
    if isinstance(exc, WorkerCrash):
        return "worker_crash"
    if isinstance(exc, PoolClosed):
        return "pool_closed"
    if isinstance(exc, CancelledError):
        return "cancelled"
    if isinstance(exc, CuSZp2Error):
        return "codec"
    if isinstance(exc, ResilienceError):
        return "resilience"
    if isinstance(exc, UnknownTask):
        return "unknown_task"
    if isinstance(exc, TaskError):
        return "task_error"
    return "unclassified"


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter, bounded by the request deadline.

    ``max_attempts`` counts the first try, per tier: 3 means up to two
    retries before the router degrades to the next tier.  Jitter spreads
    synchronized retry storms: the delay for attempt ``k`` is
    ``min(base * multiplier**(k-1), max_backoff) * (1 +/- jitter)``.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.01
    backoff_multiplier: float = 2.0
    backoff_max_s: float = 0.25
    jitter: float = 0.5

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def backoff_s(self, attempt: int, rng: random.Random) -> float:
        """Delay before retry number ``attempt`` (1 = first retry)."""
        base = min(
            self.backoff_base_s * self.backoff_multiplier ** max(attempt - 1, 0),
            self.backoff_max_s,
        )
        if self.jitter:
            base *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(base, 0.0)


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BreakerConfig:
    """Trip/recovery knobs of a :class:`CircuitBreaker`."""

    window: int = 16  # sliding outcome window
    min_volume: int = 4  # outcomes required before the breaker may trip
    failure_threshold: float = 0.5  # failure rate in the window that trips
    reset_timeout_s: float = 0.5  # open -> half-open delay
    half_open_probes: int = 1  # trial requests admitted while half-open
    latency_threshold_s: Optional[float] = None  # slower success counts as failure


class CircuitBreaker:
    """Closed / open / half-open breaker over a sliding outcome window.

    *Closed* admits everything and tracks outcomes; once at least
    ``min_volume`` outcomes are in the window and the failure rate
    reaches ``failure_threshold`` it *opens*.  Open rejects until
    ``reset_timeout_s`` elapses, then *half-open* admits
    ``half_open_probes`` trial requests: one success closes the breaker
    (window cleared), one failure re-opens it.  Thread-safe; state
    transitions are published to the stats registry as
    ``resilience.breaker.<name>.state`` (0=closed, 1=open, 2=half-open)
    plus per-transition counters.
    """

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"
    _STATE_CODE = {CLOSED: 0, OPEN: 1, HALF_OPEN: 2}

    def __init__(
        self,
        name: str,
        config: Optional[BreakerConfig] = None,
        stats: Optional[MetricsRegistry] = None,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.name = name
        self.config = config if config is not None else BreakerConfig()
        self.stats = stats
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._outcomes: List[bool] = []  # True = failure
        self._opened_at = 0.0
        self._probes_left = 0
        self._publish_state()

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """May a request pass?  (Open -> half-open happens here.)"""
        with self._lock:
            if self._state == self.CLOSED:
                return True
            if self._state == self.OPEN:
                if self._clock() - self._opened_at < self.config.reset_timeout_s:
                    return False
                self._transition(self.HALF_OPEN)
                self._probes_left = self.config.half_open_probes
            # half-open: admit the configured number of probes
            if self._probes_left > 0:
                self._probes_left -= 1
                return True
            return False

    def record_success(self, duration_s: Optional[float] = None) -> None:
        cfg = self.config
        if (
            cfg.latency_threshold_s is not None
            and duration_s is not None
            and duration_s > cfg.latency_threshold_s
        ):
            self.record_failure()
            return
        with self._lock:
            if self._state == self.HALF_OPEN:
                self._outcomes.clear()
                self._transition(self.CLOSED)
                return
            self._push(False)

    def record_failure(self) -> None:
        with self._lock:
            if self._state == self.HALF_OPEN:
                self._opened_at = self._clock()
                self._transition(self.OPEN)
                return
            if self._state == self.OPEN:
                return  # late failure from an admitted-before-trip request
            self._push(True)
            cfg = self.config
            if len(self._outcomes) >= cfg.min_volume:
                rate = sum(self._outcomes) / len(self._outcomes)
                if rate >= cfg.failure_threshold:
                    self._opened_at = self._clock()
                    self._transition(self.OPEN)

    # -- internals (call under _lock) ---------------------------------------

    def _push(self, failed: bool) -> None:
        self._outcomes.append(failed)
        if len(self._outcomes) > self.config.window:
            del self._outcomes[: len(self._outcomes) - self.config.window]

    def _transition(self, to: str) -> None:
        self._state = to
        if self.stats is not None:
            self.stats.counter("resilience.breaker.transitions").inc()
            self.stats.counter(f"resilience.breaker.{self.name}.{to}").inc()
        self._publish_state()

    def _publish_state(self) -> None:
        if self.stats is not None:
            self.stats.gauge(f"resilience.breaker.{self.name}.state").set(
                self._STATE_CODE[self._state]
            )


# ---------------------------------------------------------------------------
# Inline runner (tier 2)
# ---------------------------------------------------------------------------

class _InlineRunner:
    """Last-resort same-process executor: one daemon thread, FIFO.

    When the pool tier is down the service still answers -- more
    slowly, but with the identical codec and therefore identical bytes.
    Jobs whose deadline expires while queued are shed like everywhere
    else.
    """

    def __init__(self, stats: MetricsRegistry):
        self.stats = stats
        self._q: "queue.Queue" = queue.Queue()
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    def submit(
        self, fn: Callable[[], Any], deadline: Optional[Deadline] = None
    ) -> PoolFuture:
        future = PoolFuture()
        with self._lock:
            if self._closed:
                future.set_exception(PoolClosed("inline runner is shut down"))
                return future
            self._q.put((fn, deadline, future))
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._loop, name="serve-inline-runner", daemon=True
                )
                self._thread.start()
        return future

    def _loop(self) -> None:
        while True:
            item = self._q.get()
            if item is None:
                return
            fn, deadline, future = item
            if future.cancelled():
                continue
            if deadline is not None and deadline.expired:
                self.stats.counter("resilience.inline_sheds").inc()
                future.set_exception(
                    DeadlineExceeded("inline task shed: deadline expired while queued")
                )
                continue
            self.stats.counter("resilience.inline_tasks").inc()
            try:
                future.set_result(fn())
            except BaseException as e:  # noqa: BLE001 - delivered via the future
                future.set_exception(e)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._q.put(None)


# ---------------------------------------------------------------------------
# The router
# ---------------------------------------------------------------------------

class _Tier:
    __slots__ = ("name", "submit")

    def __init__(self, name: str, submit: Callable[["_Flight"], PoolFuture]):
        self.name = name
        self.submit = submit


class _Flight:
    """Mutable per-request routing state (one in-flight attempt at a time)."""

    __slots__ = (
        "name", "arg", "deadline", "priority", "batchable", "nbytes", "trace",
        "validator", "raw_fallback", "future", "tier_idx", "attempt",
    )

    def __init__(self, name, arg, deadline, priority, batchable, nbytes, trace,
                 validator, raw_fallback, future):
        self.name = name
        self.arg = arg
        self.deadline: Optional[Deadline] = deadline
        self.priority = priority
        self.batchable = batchable
        self.nbytes = nbytes
        self.trace = trace
        self.validator = validator
        self.raw_fallback = raw_fallback
        self.future: PoolFuture = future
        self.tier_idx = 0
        self.attempt = 1  # attempts on the current tier, 1-based


class ResilientRouter:
    """Routes pool tasks through the degradation chain with retries.

    Parameters
    ----------
    scheduler:
        The primary tier: the admission-controlled scheduler over the
        service's main pool.
    stats:
        Metrics registry all resilience counters land in.
    retry:
        Per-tier :class:`RetryPolicy`.
    breaker:
        :class:`BreakerConfig` shared by every tier's breaker.
    inline:
        Enable the inline-codec tier (tier 2).
    seed:
        Seed for deterministic backoff jitter.
    """

    def __init__(
        self,
        scheduler,
        stats: Optional[MetricsRegistry] = None,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[BreakerConfig] = None,
        inline: bool = True,
        seed: int = 0,
    ):
        self.scheduler = scheduler
        self.stats = stats if stats is not None else scheduler.stats
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker_config = breaker if breaker is not None else BreakerConfig()
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._closed = False
        self._timers: set = set()
        # the runner always exists: it also executes raw_fallback work
        # even when the inline *tier* is disabled
        self._inline = _InlineRunner(self.stats)

        self.tiers: List[_Tier] = [_Tier("pool", self._submit_scheduler)]
        if inline:
            self.tiers.append(_Tier("inline", self._submit_inline))
        self.breakers: Dict[str, CircuitBreaker] = {
            t.name: CircuitBreaker(t.name, self.breaker_config, self.stats)
            for t in self.tiers
        }

    # -- public --------------------------------------------------------------

    def submit(
        self,
        name: str,
        arg: Any,
        deadline: Optional[Deadline] = None,
        priority: str = "bulk",
        batchable: bool = True,
        nbytes: int = 0,
        trace=None,
        validator: Optional[Callable[[Any], None]] = None,
        raw_fallback: Optional[Callable[[], Any]] = None,
    ) -> PoolFuture:
        """Route ``name(arg)`` with deadline/retry/degradation semantics.

        ``validator`` (called with a successful result) turns a corrupted
        ship-back into a retryable :class:`CorruptResult`.
        ``raw_fallback`` (compress only) produces the raw-passthrough
        answer when every tier fails.
        """
        flight = _Flight(
            name, arg, deadline, priority, batchable, nbytes, trace,
            validator, raw_fallback, PoolFuture(),
        )
        self._launch(flight)
        return flight.future

    def close(self) -> None:
        """Cancel pending retry timers and stop the inline runner."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            timers, self._timers = set(self._timers), set()
        for t in timers:
            t.cancel()
        self._inline.close()

    # -- tier submitters -----------------------------------------------------

    def _submit_scheduler(self, fl: _Flight) -> PoolFuture:
        return self.scheduler.submit(
            fl.name, fl.arg, priority=fl.priority, nbytes=fl.nbytes,
            batchable=fl.batchable, trace=fl.trace, deadline=fl.deadline,
        )

    def _submit_inline(self, fl: _Flight) -> PoolFuture:
        name, arg = fl.name, fl.arg
        return self._inline.submit(lambda: _run_task(name, arg), fl.deadline)

    # -- routing state machine ----------------------------------------------

    def _finish(self, fl: _Flight, exc: BaseException) -> None:
        """Fail the request with a *classified* error, always."""
        if not is_classified(exc):
            exc = TaskFailure(f"task {fl.name!r} failed: {exc!r}")
        fl.future.set_exception(exc)

    def _degrade(self, fl: _Flight, reason: str) -> bool:
        """Advance to the next tier; False when the chain is exhausted."""
        if fl.tier_idx + 1 >= len(self.tiers):
            return False
        fl.tier_idx += 1
        fl.attempt = 1
        tier = self.tiers[fl.tier_idx]
        self.stats.counter(f"resilience.degraded.{tier.name}").inc()
        return True

    def _launch(self, fl: _Flight) -> None:
        while True:
            if self._closed:
                self._finish(fl, PoolClosed("resilient router is shut down"))
                return
            if fl.deadline is not None and fl.deadline.expired:
                self.stats.counter("resilience.deadline_sheds").inc()
                self._finish(
                    fl,
                    DeadlineExceeded(
                        f"request {fl.name!r} shed by router: deadline expired"
                    ),
                )
                return
            if fl.tier_idx >= len(self.tiers):  # pragma: no cover - defensive
                self._raw_or_fail(fl, CircuitOpen("no tier available"))
                return
            tier = self.tiers[fl.tier_idx]
            if self.breakers[tier.name].allow():
                break
            if not self._degrade(fl, f"{tier.name} breaker open"):
                self._raw_or_fail(
                    fl, CircuitOpen(f"all tiers unavailable (last: {tier.name})")
                )
                return
        t0 = time.perf_counter()
        try:
            inner = tier.submit(fl)
        except Exception as e:  # noqa: BLE001 - sync rejection (QueueFull, ...)
            self._on_failure(fl, tier, e)
            return
        inner.add_done_callback(
            lambda f, fl=fl, tier=tier, t0=t0: self._on_done(fl, tier, f, t0)
        )

    def _on_done(self, fl: _Flight, tier: _Tier, inner: PoolFuture, t0: float) -> None:
        duration = time.perf_counter() - t0
        exc = inner.exception()
        if exc is None:
            value = inner.result()
            if fl.validator is not None:
                tv0 = time.perf_counter()
                try:
                    fl.validator(value)
                except Exception as e:  # noqa: BLE001 - validation verdict
                    self.stats.counter("resilience.corrupt_results").inc()
                    exc = CorruptResult(
                        f"result of {fl.name!r} failed validation on tier "
                        f"{tier.name!r}: {e}"
                    )
                if fl.trace is not None:
                    try:
                        fl.trace.tracer.record(
                            "resilience.validate", tv0, time.perf_counter(),
                            parent=fl.trace.span, ok=exc is None, tier=tier.name,
                        )
                    except Exception:  # pragma: no cover - best-effort tracing
                        pass
            if exc is None:
                self.breakers[tier.name].record_success(duration)
                fl.future.set_result(value)
                return
        self._on_failure(fl, tier, exc)

    def _on_failure(self, fl: _Flight, tier: _Tier, exc: BaseException) -> None:
        if isinstance(exc, CLIENT_ERRORS):
            # deterministic caller mistake: no breaker charge, no retry,
            # delivered verbatim (ValueError et al. stay recognizable)
            fl.future.set_exception(exc)
            return
        self.breakers[tier.name].record_failure()
        if isinstance(exc, CancelledError):
            self._finish(fl, exc)
            return
        own_expired = fl.deadline is not None and fl.deadline.expired
        if isinstance(exc, (DeadlineExceeded, WorkerTimeout)) and own_expired:
            self._finish(
                fl,
                exc if isinstance(exc, DeadlineExceeded)
                else DeadlineExceeded(str(exc)),
            )
            return
        retryable = (
            isinstance(exc, RETRYABLE_ERRORS)
            # deterministic: no tier can run a task that was never
            # registered, so retries would only burn the budget
            and not isinstance(exc, UnknownTask)
            or _is_backpressure(exc)
            or _is_transport_corruption(exc)
        )
        if retryable and fl.attempt < self.retry.max_attempts:
            with self._lock:
                delay = self.retry.backoff_s(fl.attempt, self._rng)
            remaining = fl.deadline.remaining() if fl.deadline is not None else None
            if remaining is None or delay < remaining:
                fl.attempt += 1
                self._schedule_retry(fl, tier, delay)
                return
        # same-tier budget exhausted (or pointless): degrade
        if self._degrade(fl, classify_error(exc)):
            self._launch(fl)
            return
        self._raw_or_fail(fl, exc)

    def _schedule_retry(self, fl: _Flight, tier: _Tier, delay: float) -> None:
        self.stats.counter("resilience.retries").inc()
        self.stats.counter(f"resilience.retries.{tier.name}").inc()
        t_wait0 = time.perf_counter()

        def fire(fl=fl, tier=tier, t_wait0=t_wait0):
            with self._lock:
                self._timers.discard(timer)
                closed = self._closed
            if fl.trace is not None:
                # a finished span per retry wait: lands as a
                # `resilience.retry_wait` stage row in `repro trace`
                try:
                    fl.trace.tracer.record(
                        "resilience.retry_wait", t_wait0, time.perf_counter(),
                        parent=fl.trace.span, attempt=fl.attempt, tier=tier.name,
                    )
                except Exception:  # pragma: no cover - tracing is best-effort
                    pass
            if closed:
                self._finish(fl, PoolClosed("resilient router is shut down"))
                return
            self._launch(fl)

        timer = threading.Timer(delay, fire)
        timer.daemon = True
        with self._lock:
            if self._closed:
                self._finish(fl, PoolClosed("resilient router is shut down"))
                return
            self._timers.add(timer)
        timer.start()

    def _raw_or_fail(self, fl: _Flight, exc: BaseException) -> None:
        if fl.raw_fallback is None:
            self._finish(fl, exc)
            return
        if fl.deadline is not None and fl.deadline.expired:
            self.stats.counter("resilience.deadline_sheds").inc()
            self._finish(
                fl, DeadlineExceeded(f"request {fl.name!r}: no budget left for raw tier")
            )
            return
        self.stats.counter("resilience.raw_fallbacks").inc()
        raw = fl.raw_fallback
        inner = self._inline.submit(raw, fl.deadline)

        def on_raw(f: PoolFuture, fl=fl) -> None:
            e = f.exception()
            if e is None:
                fl.future.set_result(f.result())
            else:
                self._finish(fl, e)

        inner.add_done_callback(on_raw)


def _is_backpressure(exc: BaseException) -> bool:
    # imported lazily to avoid a scheduler<->resilience import cycle.
    # PoolClosed is deliberately NOT here: retrying into a closed pool is
    # futile, so it degrades to the next tier instead.
    from .scheduler import QueueFull

    return isinstance(exc, QueueFull)


def _is_transport_corruption(exc: BaseException) -> bool:
    """Integrity/format errors are retryable at the router: an intact
    request payload that decoded as corrupt means the bytes were damaged
    in transit (or by a chaotic worker), and a retry runs clean.  A
    genuinely corrupt *user input* fails every attempt and is delivered
    after the bounded retry budget."""
    from repro.core.errors import StreamFormatError

    return isinstance(exc, StreamFormatError)
