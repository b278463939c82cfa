"""Admission control in front of the worker pool.

The pool executes whatever it is given; the scheduler decides *what* and
*when*:

* **bounded submission queue** -- at capacity, :meth:`Scheduler.submit`
  raises :class:`QueueFull` immediately.  Backpressure is explicit: the
  caller slows down or sheds load, the service never grows an unbounded
  queue (the failure mode that turns an overloaded service into a dead
  one).
* **priority lanes** -- ``"interactive"`` requests (a reader blocked on a
  decode) are dispatched before ``"bulk"`` requests (a background
  checkpoint sweep), and the scheduler only keeps ``max_inflight`` tasks
  inside the pool, so a late-arriving interactive request overtakes queued
  bulk work instead of sitting behind it.
* **micro-batching** -- when a pool slot frees, the small same-kind
  requests already queued behind the head of a lane ride along in one
  worker dispatch (one queue round-trip, one task setup, amortized over
  the batch).  Nothing waits for peers: a request that finds a slot idle
  is dispatched at once, so batches form only from a backlog.
* **loss-free crashes** -- worker crash recovery lives in the pool; the
  scheduler adds completion accounting so every request's latency (queue
  wait included) lands in the metrics registry.

The scheduler owns no thread.  A request is handed to the pool by
whichever thread frees the way for it: :meth:`Scheduler.submit` when a
slot is free, the completion callback of the request that held the slot
(on the pool's manager thread), or the ``max_inflight`` setter when the
cap rises.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Dict, Optional

from repro.obs import trace as obs_trace
from repro.obs.trace import TraceContext

from .deadline import Deadline, DeadlineExceeded, earliest
from .pool import PoolClosed, PoolFuture, WorkerPool
from .stats import MetricsRegistry

PRIORITIES = ("interactive", "bulk")


class QueueFull(RuntimeError):
    """The bounded submission queue is at capacity; retry later or shed."""


class _Request:
    __slots__ = ("name", "arg", "nbytes", "priority", "future", "t_enqueue",
                 "batchable", "trace", "deadline")

    def __init__(self, name, arg, nbytes, priority, future, batchable, trace=None,
                 deadline=None):
        self.name = name
        self.arg = arg
        self.nbytes = nbytes
        self.priority = priority
        self.future = future
        self.t_enqueue = time.perf_counter()
        self.batchable = batchable
        self.trace: Optional[TraceContext] = trace
        self.deadline: Optional[Deadline] = deadline


class Scheduler:
    """Bounded, priority-aware, micro-batching admission over a pool.

    Parameters
    ----------
    pool:
        The :class:`~repro.serve.pool.WorkerPool` to dispatch into.
    max_pending:
        Queue capacity across both lanes; beyond it :class:`QueueFull`.
    max_inflight:
        Tasks handed to the pool at once (default: one per worker).
        Keeping this small is what makes priorities effective.  Settable
        while running (the autoscaler does); a raise dispatches at once.
    batch_max / batch_bytes:
        A request at most ``batch_bytes`` big is batchable; when a slot
        frees, up to ``batch_max`` same-name batchable requests queued at
        the head of one lane go out as a single dispatch.
    """

    def __init__(
        self,
        pool: WorkerPool,
        max_pending: int = 256,
        max_inflight: Optional[int] = None,
        batch_max: int = 8,
        batch_bytes: int = 1 << 20,
        stats: Optional[MetricsRegistry] = None,
    ):
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {batch_max}")
        self.pool = pool
        self.stats = stats if stats is not None else pool.stats
        self.max_pending = max_pending
        self.batch_max = batch_max
        self.batch_bytes = batch_bytes
        self._cv = threading.Condition()
        self._max_inflight = max_inflight if max_inflight is not None else pool.nworkers
        self._lanes: Dict[str, "deque[_Request]"] = {p: deque() for p in PRIORITIES}
        self._inflight = 0
        self._closing = False
        # a thread is inside _pump(); see there
        self._pumping = False

    # -- submission ---------------------------------------------------------

    def submit(
        self,
        name: str,
        arg: Any,
        priority: str = "bulk",
        nbytes: int = 0,
        batchable: bool = True,
        future: Optional[PoolFuture] = None,
        trace: Optional[TraceContext] = None,
        deadline: Optional[Deadline] = None,
    ) -> PoolFuture:
        if priority not in PRIORITIES:
            raise ValueError(
                f"priority must be one of {PRIORITIES}, got {priority!r}"
            )
        future = future if future is not None else PoolFuture()
        if trace is None:
            tr = obs_trace.current_tracer()
            if tr is not None:
                trace = TraceContext(tr, tr.current())
        req = _Request(
            name, arg, nbytes, priority, future,
            batchable and nbytes <= self.batch_bytes,
            trace,
            deadline,
        )
        with self._cv:
            if self._closing:
                raise PoolClosed("scheduler is shut down")
            depth = sum(len(lane) for lane in self._lanes.values())
            if depth >= self.max_pending:
                self.stats.counter("scheduler.rejected").inc()
                raise QueueFull(
                    f"submission queue at capacity ({self.max_pending}); "
                    "apply backpressure"
                )
            self._lanes[priority].append(req)
            self.stats.counter("scheduler.submitted").inc()
            self.stats.gauge("scheduler.queue_depth").set(depth + 1)
        self._pump()
        return future

    @property
    def queue_depth(self) -> int:
        with self._cv:
            return sum(len(lane) for lane in self._lanes.values())

    @property
    def max_inflight(self) -> int:
        return self._max_inflight

    @max_inflight.setter
    def max_inflight(self, n: int) -> None:
        with self._cv:
            self._max_inflight = n
        self._pump()  # a raised cap frees slots right now

    # -- shutdown -----------------------------------------------------------

    def shutdown(
        self,
        wait: bool = True,
        cancel_pending: bool = False,
        timeout: float = 30.0,
    ) -> None:
        """Stop accepting requests.  ``cancel_pending=True`` fails queued
        requests with ``CancelledError``; otherwise every queued request
        is handed to the pool at once, past the ``max_inflight`` cap.
        ``wait=True`` also waits for in-flight requests to finish.  In
        every case the call returns (never deadlocks) within
        ``timeout``."""
        with self._cv:
            self._closing = True
            cancelled = []
            if cancel_pending:
                for lane in self._lanes.values():
                    cancelled += list(lane)
                    lane.clear()
        for req in cancelled:
            req.future.cancel()
        self._pump()
        with self._cv:
            # another thread's pump may still be handing requests over
            self._cv.wait_for(
                lambda: not self._pumping and (not wait or self._inflight == 0),
                timeout,
            )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown(cancel_pending=any(exc))

    # -- dispatch -----------------------------------------------------------

    def _next_lane(self) -> Optional[str]:
        for p in PRIORITIES:  # interactive drains strictly first
            if self._lanes[p]:
                return p
        return None

    def _pump(self) -> None:
        """Hand queued requests to the pool from the calling thread until
        no slot is free (closing lifts the cap) or the lanes are empty.

        One thread pumps at a time.  A call that finds a pump running
        returns at once and leaves its request to that pump, which looks
        at the lanes again after every hand-off.  This covers the
        re-entrant case too: a done-callback fired inside
        ``pool.submit`` (a shed, a fast worker) lands back here, and the
        outer loop dispatches on its behalf instead of recursing."""
        with self._cv:
            if self._pumping:
                return
            self._pumping = True
        try:
            while True:
                shed: list = []
                with self._cv:
                    batch = self._take(shed)
                    self._publish_depth()
                    if batch is None and not shed:
                        self._pumping = False
                        self._cv.notify_all()
                        return
                # fail shed requests outside _cv: their done-callbacks
                # (retry machinery) may re-enter submit()
                for req in shed:
                    self._shed(req)
                if batch is not None:
                    self._dispatch(batch)
        except BaseException:
            with self._cv:
                self._pumping = False
                self._cv.notify_all()
            raise

    def _take(self, shed: list) -> Optional[list]:
        """Pop the next dispatch -- a lane's head plus its batchable peers
        -- and count it in flight (call under _cv).  Cancelled requests
        are dropped and expired ones moved to ``shed`` on the way; None
        when no slot is free or nothing is left to dispatch."""
        while self._inflight < self._max_inflight or self._closing:
            lane = self._next_lane()
            if lane is None:
                return None
            head = self._lanes[lane].popleft()
            if head.future.cancelled():
                continue
            if head.deadline is not None and head.deadline.expired:
                shed.append(head)
                continue
            batch = [head]
            if head.batchable:
                self._fill_batch(batch, lane, shed)
            self._inflight += 1
            return batch
        return None

    def _shed(self, req: _Request) -> None:
        self.stats.counter("scheduler.deadline_sheds").inc()
        req.future.set_exception(
            DeadlineExceeded(
                f"request {req.name!r} shed: deadline expired after "
                f"{time.perf_counter() - req.t_enqueue:.3f}s in queue"
            )
        )

    def _fill_batch(self, batch, lane, shed) -> None:
        """Take the same-name batchable peers already queued behind the
        head (must be called under _cv; never waits for more); expired
        peers are moved to ``shed`` instead of batched."""
        first = batch[0]
        queue = self._lanes[lane]
        while queue and len(batch) < self.batch_max:
            peer = queue[0]
            if peer.future.cancelled():
                queue.popleft()
                continue
            if peer.deadline is not None and peer.deadline.expired:
                shed.append(queue.popleft())
                continue
            if not (peer.batchable and peer.name == first.name):
                return  # preserve FIFO order within the lane
            batch.append(queue.popleft())

    def _publish_depth(self) -> None:
        self.stats.gauge("scheduler.queue_depth").set(
            sum(len(lane) for lane in self._lanes.values())
        )

    def _record_waits(self, batch) -> None:
        """One finished ``scheduler.wait`` span per traced request: the
        time between submission and hand-off to the pool, parented under
        the request's span."""
        now = time.perf_counter()
        for req in batch:
            if req.trace is not None:
                req.trace.tracer.record(
                    "scheduler.wait", req.t_enqueue, now, parent=req.trace.span,
                    priority=req.priority, batched=len(batch) > 1,
                )

    def _dispatch(self, batch) -> None:
        self.stats.counter("scheduler.dispatches").inc()
        self._record_waits(batch)
        try:
            if len(batch) == 1:
                req = batch[0]
                inner = self.pool.submit(
                    req.name, req.arg, trace=req.trace, deadline=req.deadline
                )
                inner.add_done_callback(lambda f, r=req: self._complete_one(f, r))
            else:
                self.stats.counter("scheduler.batches").inc()
                self.stats.counter("scheduler.batched_requests").inc(len(batch))
                # a micro-batch is one worker dispatch; its span tree
                # lands under the first traced member's request span
                trace = next((r.trace for r in batch if r.trace is not None), None)
                inner = self.pool.submit(
                    "pool.batch", (batch[0].name, [r.arg for r in batch]),
                    trace=trace,
                    # watchdog arms on the tightest member; a kill delivers
                    # WorkerTimeout, which later members may retry
                    deadline=earliest(*(r.deadline for r in batch)),
                )
                inner.add_done_callback(lambda f, b=tuple(batch): self._complete_batch(f, b))
        except PoolClosed as e:
            with self._cv:
                self._inflight -= 1
                self._cv.notify_all()
            for req in batch:
                req.future.set_exception(e)

    def _finish(self, req: _Request) -> None:
        self.stats.observe_latency(
            f"scheduler.latency.{req.priority}_s", req.t_enqueue
        )
        self.stats.counter("scheduler.completed").inc()

    def _release_slot(self) -> None:
        """A dispatch finished: its slot goes to the next queued request
        before the finished request's own future completes."""
        with self._cv:
            self._inflight -= 1
            self._cv.notify_all()
            queued = self._next_lane() is not None
        if queued:
            self._pump()

    def _complete_one(self, inner: PoolFuture, req: _Request) -> None:
        self._release_slot()
        exc = inner.exception()
        if exc is not None:
            req.future.set_exception(exc)
        else:
            req.future.set_result(inner.result())
        self._finish(req)

    def _complete_batch(self, inner: PoolFuture, batch) -> None:
        self._release_slot()
        exc = inner.exception()
        if exc is not None:
            for req in batch:
                req.future.set_exception(exc)
                self._finish(req)
            return
        outcomes = inner.result()
        for req, (ok, value) in zip(batch, outcomes):
            if ok:
                req.future.set_result(value)
            else:
                req.future.set_exception(value)
            self._finish(req)
