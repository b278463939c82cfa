"""Worker pool: fan tasks out over threads or processes.

Chunked streams (:mod:`repro.serve.chunked`) make every chunk a
self-contained codec job, so compression parallelism reduces to a generic
task pool.  Two interchangeable backends:

* :class:`ThreadBackend` -- same-process workers.  The NumPy codec holds
  the GIL for most of its time, so threads give little speedup; they exist
  for deterministic tests (shared memory, injectable failures) and for
  I/O-bound task mixes.
* :class:`ProcessBackend` -- ``multiprocessing`` workers for real
  parallelism on multi-core hosts.

Tasks are referenced *by registered name* (:func:`register_task`), never
by pickled callables: process workers resolve the name in their own copy
of the registry (inherited through ``fork`` / module import), so a
submission carries only the name plus the argument payload, and an
unregistered name fails with the classified :class:`UnknownTask` error
instead of an ``AttributeError`` from a missing function.  The registry
is explicit -- :func:`registered_tasks` lists it, :func:`unregister_task`
removes entries (tests use this to exercise the unknown-task path).

The *argument payload* crosses the pool boundary through one of two
transports:

* ``"pickle"`` (default) -- payloads ride the ``multiprocessing`` queue
  verbatim, pickled on the way in and out;
* ``"shm"`` (:mod:`repro.serve.shm`) -- ndarrays are written into a
  shared-memory arena and only small descriptors are pickled; workers
  read zero-copy views and ship results back the same way.  Slots are
  refcounted with generation guards, crash recovery reclaims whatever a
  dead worker held, and oversized payloads fall back to pickling.

Each worker runs a warmup task before accepting work (priming NumPy and
the codec so the first real request does not pay first-touch costs),
reports per-task busy time for utilization accounting, and is replaced
if it dies: a dead worker's in-flight task is resubmitted to a fresh
worker (at most ``max_task_retries`` times) so a crash loses no request.
The pool is elastic: :meth:`WorkerPool.resize` grows it immediately and
shrinks it by stopping idle workers (in-flight tasks always finish) --
the autoscaler (:mod:`repro.serve.autoscale`) drives this from queue
depth.

Dispatch is direct.  The submitting thread claims an idle, ready worker
under the pool lock and puts the task on that worker's inbox itself, so
no other thread relays it.  Only when every worker is busy or warming up
does a task wait in the queue; the worker's next ``done`` or ``ready``
message then makes the manager hand it on.  One manager thread blocks on
the result queue.  It is that queue's only reader and the only thread
that completes a future with a worker's outcome, and it owns liveness
checks, the spawn and deadline watchdogs, resizing and shedding of
expired queued tasks.  Resize and shutdown wake it with a coalesced
``"wake"`` message; its timed wait, :data:`HOUSEKEEPING_TICK_S`, only
paces housekeeping.  Submitters and the manager both touch the worker
table, so every access to it and to a worker's in-flight task holds the
pool lock.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import queue
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional

from repro.obs import trace as obs_trace
from repro.obs.trace import TraceContext, Tracer

from .deadline import Deadline, DeadlineExceeded, WorkerTimeout
from .stats import MetricsRegistry


#: Longest the pool manager waits without an event, and the pace of its
#: housekeeping (once per tick, plus once per resize or shutdown wake).
#: A worker message, a resize or shutdown ends the wait at once; the tick
#: bounds how late a dead worker, a wedged spawn or an overrun deadline
#: is noticed, and how long an expired task can sit queued behind busy
#: workers, so :data:`WATCHDOG_GRACE_S` and deadlines of a fraction of a
#: second rely on it staying small.
HOUSEKEEPING_TICK_S = 0.02

#: Slack past a task's deadline before the watchdog reclaims the worker
#: running it (kills a process worker, abandons a thread worker) and
#: spawns a replacement.
WATCHDOG_GRACE_S = 0.05

#: Bytes per slot of the ``transport="shm"`` arena, which has
#: ``4 * nworkers + 8`` slots.
SHM_SLOT_BYTES = 8 << 20


class PoolClosed(RuntimeError):
    """Submission after shutdown (or to a broken pool)."""


class WaitTimeout(TimeoutError):
    """``future.result(timeout=...)`` ran out of patience.

    Subclasses :class:`TimeoutError` for compatibility.  The future is
    *not* cancelled and the task stays queued/in-flight; call
    :meth:`PoolFuture.cancel` to drop a not-yet-dispatched task (dispatch
    skips cancelled entries) or keep waiting.
    """


class WorkerCrash(RuntimeError):
    """A worker died while running a task.

    Raised *inside a task* it kills the worker (threads: the worker loop
    exits; processes: the interpreter hard-exits) -- the mechanism tests
    use to exercise crash recovery.  Delivered *from a future* it means
    the task was lost to repeated worker deaths.
    """


class TaskError(RuntimeError):
    """A task raised an exception that could not cross the process
    boundary intact; carries its ``repr``."""


class UnknownTask(TaskError):
    """A submission named a task that is not in the registry.

    Classified (it subclasses :class:`TaskError`) but deterministic --
    the resilience layer delivers it without burning retries, because no
    tier can run a task that was never registered.
    """


# ---------------------------------------------------------------------------
# Task registry
# ---------------------------------------------------------------------------

_TASKS: Dict[str, Callable[[Any], Any]] = {}


def register_task(name: str, fn: Optional[Callable[[Any], Any]] = None):
    """Register ``fn`` under ``name`` (usable as a decorator).

    Process workers inherit the registry through ``fork``; tasks must
    therefore be registered at import time of a module the parent has
    imported before the pool starts.
    """
    def _register(f):
        _TASKS[name] = f
        return f

    return _register if fn is None else _register(fn)


def unregister_task(name: str) -> None:
    """Remove ``name`` from the registry (idempotent)."""
    _TASKS.pop(name, None)


def registered_tasks() -> List[str]:
    """Sorted names currently in the registry."""
    return sorted(_TASKS)


def _run_task(name: str, arg: Any) -> Any:
    fn = _TASKS.get(name)
    if fn is None:
        raise UnknownTask(f"unknown task {name!r}; registered: {sorted(_TASKS)}")
    return fn(arg)


@register_task("pool.echo")
def _echo(arg):
    return arg


@register_task("pool.sleep")
def _sleep(arg):
    time.sleep(float(arg))
    return float(arg)


@register_task("pool.batch")
def _batch(arg):
    """Run ``(name, [args])`` sub-tasks in one dispatch; per-item outcomes
    ``(ok, value_or_exception)`` so one bad item cannot sink its batch."""
    name, items = arg
    out = []
    for item in items:
        try:
            out.append((True, _run_task(name, item)))
        except WorkerCrash:
            raise
        except Exception as e:  # noqa: BLE001 - outcome is delivered per item
            out.append((False, e))
    return out


def _warmup_codec() -> None:
    import numpy as np

    from repro.core import compress, decompress

    data = np.linspace(0.0, 1.0, 256, dtype=np.float32)
    decompress(compress(data, rel=1e-2))


# ---------------------------------------------------------------------------
# Futures
# ---------------------------------------------------------------------------

class CancelledError(RuntimeError):
    """The request was cancelled before a worker ran it."""


class PoolFuture:
    """Minimal thread-safe future (result / exception / cancel / callbacks)."""

    def __init__(self):
        self._cv = threading.Condition()
        self._done = False
        self._cancelled = False
        self._result: Any = None
        self._exc: Optional[BaseException] = None
        self._callbacks: List[Callable[["PoolFuture"], None]] = []

    def done(self) -> bool:
        with self._cv:
            return self._done

    def cancelled(self) -> bool:
        with self._cv:
            return self._cancelled

    def cancel(self) -> bool:
        with self._cv:
            if self._done:
                return False
            self._cancelled = True
            self._done = True
            self._exc = CancelledError("request cancelled")
            callbacks, self._callbacks = self._callbacks, []
        self._run_callbacks(callbacks)
        return True

    def set_result(self, value: Any) -> None:
        self._finish(result=value)

    def set_exception(self, exc: BaseException) -> None:
        self._finish(exc=exc)

    def _finish(self, result: Any = None, exc: Optional[BaseException] = None):
        with self._cv:
            if self._done:  # late completion of a cancelled task: ignore
                return
            self._result = result
            self._exc = exc
            self._done = True
            callbacks, self._callbacks = self._callbacks, []
        self._run_callbacks(callbacks)

    def _run_callbacks(self, callbacks) -> None:
        # Callbacks run BEFORE waiters are released: completion side
        # effects (stats accounting, the service's decode-cache fill)
        # are visible by the time result() returns, so a caller that
        # immediately re-issues the same request hits the cache
        # deterministically.  No lock is held while they run, and the
        # finally guarantees a raising callback never strands waiters.
        try:
            for cb in callbacks:
                cb(self)
        finally:
            with self._cv:
                self._cv.notify_all()

    def add_done_callback(self, cb: Callable[["PoolFuture"], None]) -> None:
        with self._cv:
            if not self._done:
                self._callbacks.append(cb)
                return
        cb(self)

    def result(self, timeout: Optional[float] = None) -> Any:
        with self._cv:
            if not self._cv.wait_for(lambda: self._done, timeout):
                raise WaitTimeout(
                    f"future not done within {timeout}s; cancel() drops a "
                    "not-yet-dispatched task"
                )
            if self._exc is not None:
                raise self._exc
            return self._result

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        with self._cv:
            if not self._cv.wait_for(lambda: self._done, timeout):
                raise WaitTimeout(
                    f"future not done within {timeout}s; cancel() drops a "
                    "not-yet-dispatched task"
                )
            return self._exc


# ---------------------------------------------------------------------------
# Worker loops
# ---------------------------------------------------------------------------

_STOP = None  # input-queue sentinel
#: result-queue nudge from the parent: carries nothing, only ends the
#: manager's wait so it dispatches (or resizes, or finishes) now
_WAKE = ("wake", None, None, None, 0.0, None)


def _run_traced(name: str, arg: Any, wid: int, backend: str, spans_out: list):
    """Run one task under a fresh per-task tracer, filling ``spans_out``
    with the finished span trees (as dicts) even when the task raises.
    The fresh tracer is installed as this thread's override so
    codec-stage ``maybe_span`` calls inside the task record into it (and
    never bleed into an ambient tracer shared with other worker
    threads); the trees ship back with the result for re-parenting under
    the submitting span."""
    tracer = Tracer()
    prev = obs_trace.set_thread_tracer(tracer)
    try:
        with tracer.span(
            f"pool.task.{name}", task=name, worker=wid, pid=os.getpid(),
            backend=backend,
        ):
            return _run_task(name, arg)
    finally:
        obs_trace.set_thread_tracer(prev)
        spans_out.extend(s.to_dict() for s in tracer.roots())


def _resolve_transport(transport):
    """Materialize the worker-side transport: ``None`` (pickled path), a
    live :class:`~repro.serve.shm.ShmTransport` (thread workers share the
    parent's), or an attach spec tuple (process workers map the segment
    themselves)."""
    if transport is None or not isinstance(transport, tuple):
        return transport
    from .shm import ShmTransport

    return ShmTransport.attach(transport)


def _worker_loop(wid: int, inq, outq, warmup: bool, process: bool,
                 transport=None) -> None:
    # Suppress ambient tracing in this thread: worker spans are only
    # collected through the explicit per-task ship-back protocol.
    obs_trace.set_thread_tracer(obs_trace.DISABLED)
    transport = _resolve_transport(transport)
    if warmup:
        try:
            _warmup_codec()
        except Exception:  # noqa: BLE001 - warmup is best-effort priming
            pass
    outq.put(("ready", wid, None, None, 0.0, None))
    backend = "process" if process else "thread"
    while True:
        msg = inq.get()
        if msg is _STOP:
            outq.put(("stopped", wid, None, None, 0.0, None))
            return
        task_id, name, arg, want_trace = msg
        t0 = time.perf_counter()
        spans_buf: list = []
        spans = None
        try:
            if transport is not None:
                # zero-copy read-only views; the parent keeps the request
                # slots claimed until this task's outcome lands
                arg = transport.decode(arg)
            if want_trace:
                value = _run_traced(name, arg, wid, backend, spans_buf)
                spans = spans_buf
            else:
                value = _run_task(name, arg)
        except WorkerCrash as e:
            if process:
                os._exit(17)  # a real death: no goodbye message
            outq.put(("crashed", wid, task_id, repr(e), time.perf_counter() - t0, None))
            return
        except BaseException as e:  # noqa: BLE001 - delivered via the future
            dur = time.perf_counter() - t0
            spans = spans_buf or None
            try:
                outq.put(("done", wid, task_id, (False, e), dur, spans))
            except Exception:  # unpicklable exception: degrade to TaskError
                outq.put(("done", wid, task_id, (False, TaskError(repr(e))), dur, spans))
        else:
            dur = time.perf_counter() - t0
            if transport is not None:
                # result slots are owned by this worker (owner_pid) until
                # the parent copies them out; a full arena falls back to
                # shipping the raw value through the queue
                value, _ = transport.encode(value)
            outq.put(("done", wid, task_id, (True, value), dur, spans))


def _process_worker_main(wid: int, inq, outq, warmup: bool, transport=None) -> None:
    _worker_loop(wid, inq, outq, warmup, process=True, transport=transport)


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------

class _ThreadHandle:
    def __init__(self, thread: threading.Thread):
        self._thread = thread

    def is_alive(self) -> bool:
        return self._thread.is_alive()

    def join(self, timeout: Optional[float] = None) -> None:
        self._thread.join(timeout)

    def terminate(self) -> None:  # threads cannot be killed; rely on sentinel
        pass


class ThreadBackend:
    """Same-process workers: deterministic, shared-memory, test-friendly."""

    name = "thread"

    def make_queue(self):
        return queue.Queue()

    def spawn(self, wid: int, inq, outq, warmup: bool, transport=None):
        t = threading.Thread(
            target=_worker_loop,
            args=(wid, inq, outq, warmup, False, transport),
            name=f"serve-worker-{wid}",
            daemon=True,
        )
        t.start()
        return _ThreadHandle(t)


class ProcessBackend:
    """``multiprocessing`` workers (fork where available) for real
    parallelism; a crashed process is detected by liveness polling."""

    name = "process"

    def __init__(self):
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            self._ctx = multiprocessing.get_context()

    def make_queue(self):
        return self._ctx.Queue()

    def spawn(self, wid: int, inq, outq, warmup: bool, transport=None):
        # a live transport cannot be pickled; ship the attach spec and
        # let the child map the segment itself
        spec = transport.spec() if transport is not None else None
        p = self._ctx.Process(
            target=_process_worker_main,
            args=(wid, inq, outq, warmup, spec),
            name=f"serve-worker-{wid}",
            daemon=True,
        )
        p.start()
        return p


def make_backend(backend) -> object:
    if isinstance(backend, str):
        if backend == "thread":
            return ThreadBackend()
        if backend == "process":
            return ProcessBackend()
        raise ValueError(f"backend must be 'thread' or 'process', got {backend!r}")
    return backend


# ---------------------------------------------------------------------------
# The pool
# ---------------------------------------------------------------------------

class _Task:
    __slots__ = ("task_id", "name", "arg", "future", "retries", "trace",
                 "deadline", "shm_refs")

    def __init__(self, task_id, name, arg, future, trace=None, deadline=None):
        self.task_id = task_id
        self.name = name
        self.arg = arg  # always the ORIGINAL arg; re-encoded per dispatch
        self.future = future
        self.retries = 0
        self.trace: Optional[TraceContext] = trace
        self.deadline: Optional[Deadline] = deadline
        self.shm_refs: list = []  # request-slot descriptors held while in flight


class _WorkerState:
    __slots__ = ("wid", "handle", "inq", "ready", "stopping", "inflight",
                 "spawned_at")

    def __init__(self, wid, handle, inq):
        self.wid = wid
        self.handle = handle
        self.inq = inq
        self.ready = False
        self.stopping = False
        self.inflight: Optional[_Task] = None
        self.spawned_at = time.perf_counter()


class WorkerPool:
    """Fixed-size pool with warmup, crash recovery, and graceful shutdown.

    Parameters
    ----------
    nworkers:
        Concurrent workers (>= 1).
    backend:
        ``"thread"``, ``"process"``, or a backend instance.
    warmup:
        Run the codec warmup task in each worker before it accepts work.
    max_task_retries:
        Times a task is resubmitted after killing its worker before its
        future fails with :class:`WorkerCrash`.
    max_respawns:
        Restart budget: total worker replacements (crashes plus watchdog
        kills) before the pool declares itself broken.  Default
        ``4 + 2 * nworkers``; chaos campaigns pass something generous.
        The watchdog reclaims a worker still running a task
        :data:`WATCHDOG_GRACE_S` past the task's deadline.
    spawn_timeout_s:
        A worker that has not reported ready this long after spawning is
        presumed wedged at birth (e.g. a fork child deadlocked on a lock
        another parent thread held at fork time) and is killed and
        replaced, charging the restart budget.  Without this, a stillborn
        worker is invisible: the process is alive, so liveness polling
        passes, and it has no in-flight task, so the deadline watchdog
        never looks at it -- while dispatch skips it forever.
    transport:
        ``"pickle"`` (default) ships payloads through the worker queues;
        ``"shm"`` moves ndarrays through a shared-memory arena and ships
        only descriptors (see :mod:`repro.serve.shm`).  An existing
        :class:`~repro.serve.shm.ShmTransport` instance is accepted too.
    shm_min_bytes:
        With ``transport="shm"``, the ndarray size below which pickling
        is used anyway.  The arena has ``4 * nworkers + 8`` slots of
        :data:`SHM_SLOT_BYTES`.
    """

    def __init__(
        self,
        nworkers: int = 2,
        backend="thread",
        warmup: bool = True,
        max_task_retries: int = 1,
        stats: Optional[MetricsRegistry] = None,
        max_respawns: Optional[int] = None,
        spawn_timeout_s: float = 15.0,
        transport="pickle",
        shm_min_bytes: Optional[int] = None,
    ):
        if nworkers < 1:
            raise ValueError(f"nworkers must be >= 1, got {nworkers}")
        self.backend = make_backend(backend)
        self.nworkers = nworkers
        self.stats = stats if stats is not None else MetricsRegistry()
        self._warmup = warmup
        self._max_task_retries = max_task_retries
        self._spawn_timeout_s = spawn_timeout_s
        from .shm import DEFAULT_MIN_BYTES, make_transport

        self._transport = make_transport(
            transport,
            nslots=4 * nworkers + 8,
            slot_bytes=SHM_SLOT_BYTES,
            min_bytes=shm_min_bytes if shm_min_bytes is not None else DEFAULT_MIN_BYTES,
        )
        self.transport_name = "shm" if self._transport is not None else "pickle"
        self._lock = threading.Lock()
        self._ready_cv = threading.Condition(self._lock)
        self._pending: "deque[_Task]" = deque()
        self._closing = False
        # a _WAKE sits unread in the result queue (or the manager has
        # exited and nothing reads it any more); guarded by _lock
        self._wake_queued = False
        self._drain = True  # finish pending work on shutdown?
        self._broken = False
        self._task_ids = itertools.count()
        self._wids = itertools.count()
        self._workers: Dict[int, _WorkerState] = {}
        self._busy_s = 0.0
        self._t0 = time.perf_counter()
        self._respawns = 0
        self._max_respawns = (
            max_respawns if max_respawns is not None else 4 + 2 * nworkers
        )
        self._target_workers = nworkers
        self._outq = self.backend.make_queue()
        for _ in range(nworkers):
            self._spawn_worker()
        self._manager = threading.Thread(
            target=self._manage, name="serve-pool-manager", daemon=True
        )
        self._manager.start()

    # -- public -------------------------------------------------------------

    def submit(
        self,
        name: str,
        arg: Any,
        future: Optional[PoolFuture] = None,
        trace: Optional[TraceContext] = None,
        deadline: Optional[Deadline] = None,
    ) -> PoolFuture:
        """Run task ``name(arg)``; returns (or completes into) a future.

        The calling thread hands the task to an idle, ready worker
        itself; with every worker busy or warming up the task is queued
        until one frees.  Neither path sends the manager a message.

        ``trace`` parents the worker's span tree under a specific span of
        a specific tracer; when omitted and a tracer is ambiently active
        on the calling thread, the task is traced under that thread's
        current span.  ``deadline`` arms shedding (an expired task is
        dropped before dispatch with :class:`DeadlineExceeded`) and the
        watchdog (a worker still running the task past the deadline is
        reclaimed and the future fails with :class:`WorkerTimeout`)."""
        future = future if future is not None else PoolFuture()
        if trace is None:
            tr = obs_trace.current_tracer()
            if tr is not None:
                trace = TraceContext(tr, tr.current())
        with self._lock:
            if self._closing or self._broken:
                raise PoolClosed(
                    "pool is broken (worker crash loop)" if self._broken
                    else "pool is shut down"
                )
            self._pending.append(
                _Task(next(self._task_ids), name, arg, future, trace, deadline)
            )
            self.stats.counter("pool.tasks").inc()
        self._dispatch()
        return future

    def map(self, name: str, args: List[Any]) -> List[Any]:
        """Submit one task per element and gather ordered results
        (raises the first failure)."""
        futures = [self.submit(name, a) for a in args]
        return [f.result() for f in futures]

    def wait_ready(self, timeout: float = 30.0) -> bool:
        """Block until every current worker finished warmup.

        Event-driven: the manager notifies ``_ready_cv`` as each worker's
        ready message arrives (no busy-polling); same timeout semantics
        as before (returns False when the timeout elapses first)."""
        with self._ready_cv:
            return self._ready_cv.wait_for(
                lambda: bool(self._workers)
                and all(w.ready for w in self._workers.values()),
                timeout,
            )

    def utilization(self) -> float:
        """Aggregate busy-time fraction across workers since start."""
        wall = (time.perf_counter() - self._t0) * self.nworkers
        return min(self._busy_s / wall, 1.0) if wall > 0 else 0.0

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return len(self._pending)

    @property
    def transport(self):
        """The live :class:`~repro.serve.shm.ShmTransport`, or ``None``
        on the pickled path."""
        return self._transport

    @property
    def workers_alive(self) -> int:
        """Workers currently in the table and not draining to a stop."""
        with self._lock:
            return sum(1 for w in self._workers.values() if not w.stopping)

    def resize(self, nworkers: int) -> bool:
        """Grow or shrink the pool toward ``nworkers``.

        Growth spawns immediately; shrink stops *idle* workers (a busy
        worker finishes its in-flight task first, so no work is lost).
        The manager thread applies the change -- this only records the
        target.  Returns False on a closing/broken pool."""
        if nworkers < 1:
            raise ValueError(f"nworkers must be >= 1, got {nworkers}")
        with self._lock:
            if self._closing or self._broken:
                return False
            self._target_workers = nworkers
            self.nworkers = nworkers
            self._wake()
        self.stats.gauge("pool.target_workers").set(nworkers)
        return True

    def shutdown(self, wait: bool = True, timeout: float = 30.0) -> None:
        """Stop the pool.  ``wait=True`` finishes queued + in-flight work
        first; ``wait=False`` cancels queued tasks (in-flight tasks still
        complete -- workers are never killed mid-task)."""
        with self._lock:
            self._closing = True
            self._drain = wait
            if not wait:
                cancelled, self._pending = list(self._pending), deque()
                self.stats.gauge("pool.queue_depth").set(0)
            self._wake()
        if not wait:
            for task in cancelled:
                task.future.cancel()
        self._manager.join(timeout)
        with self._lock:
            workers = list(self._workers.values())
        for w in workers:
            w.handle.join(1.0)
            if w.handle.is_alive():  # pragma: no cover - stuck worker
                w.handle.terminate()
        if self._transport is not None:
            self._transport.destroy()
        self.stats.gauge("pool.utilization").set(self.utilization())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown(wait=not any(exc))

    # -- internals ----------------------------------------------------------

    def _wake(self) -> None:
        """End the manager's wait (caller holds ``_lock``); resize and
        shutdown use it.  At most one wake is queued at a time: the
        manager re-arms the flag when it reads the wake, before it next
        looks at the resize target or the closing flag, so a coalesced
        wake is never missed."""
        if not self._wake_queued:
            self._wake_queued = True
            self._outq.put(_WAKE)

    def _spawn_worker(self) -> None:
        wid = next(self._wids)
        inq = self.backend.make_queue()
        handle = self.backend.spawn(
            wid, inq, self._outq, self._warmup, self._transport
        )
        with self._lock:
            self._workers[wid] = _WorkerState(wid, handle, inq)

    def _manage(self) -> None:
        housekeeping_due = 0.0
        while True:
            try:
                msg = self._outq.get(timeout=HOUSEKEEPING_TICK_S)
            except queue.Empty:
                msg = None
            except (EOFError, OSError):  # pragma: no cover - queue torn down
                msg = None
            housekeep = msg is None  # a quiet tick
            while msg is not None:  # drain whatever else already arrived
                housekeep = housekeep or msg[0] == "wake"
                self._handle_message(msg)
                try:
                    msg = self._outq.get_nowait()
                except queue.Empty:
                    msg = None
            # housekeeping runs once per tick, or at once for a wake (a
            # resize or shutdown), not after every worker message: the
            # caller a message just completed needs the GIL this thread
            # holds until it blocks again
            now = time.perf_counter()
            if housekeep or now >= housekeeping_due:
                housekeeping_due = now + HOUSEKEEPING_TICK_S
                self._check_workers()
                self._apply_resize()
                self._shed_expired_pending()
            self._dispatch()
            if self._maybe_finish():
                return

    def _apply_resize(self) -> None:
        """Converge the worker table toward ``_target_workers``.

        Runs on the manager thread.  Shrink is graceful: only idle workers
        are told to stop (marked under ``_lock``, so no submitter claims
        one); busy ones are revisited on the next loop once their task
        completes."""
        if self._closing or self._broken:
            return
        with self._lock:
            active = [w for w in self._workers.values() if not w.stopping]
            missing = self._target_workers - len(active)
            if missing < 0:
                idle = [w for w in active if w.inflight is None and w.ready]
                for w in idle[:-missing]:
                    w.stopping = True
                    self.stats.counter("pool.scale_downs").inc()
                    w.inq.put(_STOP)
        for _ in range(missing):
            self.stats.counter("pool.scale_ups").inc()
            self._spawn_worker()
        self.stats.gauge("pool.workers").set(self.workers_alive)

    def _handle_message(self, msg) -> None:
        kind, wid, task_id, payload, dur, spans = msg
        with self._lock:
            if kind == "wake":
                self._wake_queued = False
                return
            worker = self._workers.get(wid)
            if kind == "ready":
                if worker is not None:
                    worker.ready = True
                    self._ready_cv.notify_all()
                return
            if kind == "stopped":
                self._workers.pop(wid, None)
                return
            task = worker.inflight if worker is not None else None
            if task is not None and task.task_id == task_id:
                worker.inflight = None
                if kind == "crashed":
                    del self._workers[wid]
            else:
                task = None
        if task is None:
            # late message from a worker already declared dead; free any
            # result slots it encoded so an abandoned worker cannot leak
            if kind == "done" and self._transport is not None:
                ok_late, value_late = payload
                if ok_late:
                    self._transport.release_all(value_late)
            return
        self._busy_s += dur
        if spans and task.trace is not None:
            # re-parent the worker's span trees under the submitting span
            # BEFORE completing the future, so a caller blocked on
            # result() observes a fully assembled trace
            try:
                task.trace.tracer.adopt(task.trace.span, spans)
            except Exception:  # pragma: no cover - tracing never kills the pool
                pass
        if kind == "done":
            # the outcome landed: the request slots held for this dispatch
            # are no longer needed whatever happens next
            self._release_task_refs(task)
            ok, value = payload
            if ok:
                if self._transport is not None:
                    value, exc = self._copy_out_result(value)
                    if exc is not None:
                        self.stats.counter("pool.task_errors").inc()
                        task.future.set_exception(exc)
                        return
                task.future.set_result(value)
            else:
                self.stats.counter("pool.task_errors").inc()
                task.future.set_exception(value)
        elif kind == "crashed":  # thread worker announced its own death
            self._recover(task, payload)

    def _copy_out_result(self, value):
        """Materialize a worker result: copy descriptor-backed arrays out
        of the arena, release the worker-owned result slots, and account
        transport bytes.  Returns ``(value, exc)`` -- a reclaimed slot
        (crash recovery raced the copy) yields a classified error rather
        than garbage bytes."""
        from .shm import ShmReclaimed, payload_nbytes

        descs = self._transport.descriptors(value)
        exc = None
        try:
            value = self._transport.decode(value, copy=True)
        except ShmReclaimed as e:
            exc = e
        finally:
            self._transport.release_refs(descs)
        shm_bytes = sum(d.nbytes for d in descs)
        self.stats.counter("pool.transport.result_shm_bytes").inc(shm_bytes)
        if exc is None:
            self.stats.counter("pool.transport.result_pickled_bytes").inc(
                payload_nbytes(value) - shm_bytes
            )
        return value, exc

    def _reclaim_worker_slots(self, w: "_WorkerState") -> None:
        """Free arena slots a dead *process* worker still owned (results
        it encoded, or a slot it died mid-write in).  Thread workers share
        the parent pid and must not trigger a blanket reclaim."""
        if self._transport is None:
            return
        pid = getattr(w.handle, "pid", None)
        if pid and pid != os.getpid():
            self._transport.reclaim_owner(pid)

    def _check_workers(self) -> None:
        """Liveness polling and both watchdogs, in one pass over the table.

        * A dead worker is replaced and its in-flight task resubmitted.
        * A worker wedged at birth (spawned, never ready) is killed and
          replaced.  A fork child can deadlock before its first message
          when another parent thread held a lock (thread-registry,
          logging, ...) at fork time; the process is alive and has no
          in-flight task, so neither liveness polling nor the deadline
          watchdog would ever reclaim it, and dispatch would skip it
          forever.
        * A worker whose in-flight task outlived its deadline is
          reclaimed: a process worker is killed (SIGTERM); a thread
          worker cannot be killed, so it is *abandoned* (its eventual
          late message is ignored).  The task's future fails with
          :class:`WorkerTimeout`.

        Each case charges the restart budget.  The workers are taken out
        of the table under ``_lock``, so no submitter can claim one, and
        their ``inflight`` is stable afterwards."""
        now = time.perf_counter()
        with self._lock:
            dead, wedged, stuck = [], [], []
            for w in self._workers.values():
                if w.stopping:
                    continue
                if not w.handle.is_alive():
                    dead.append(w)
                elif not w.ready and now - w.spawned_at > self._spawn_timeout_s:
                    wedged.append(w)
                elif (
                    w.inflight is not None
                    and w.inflight.deadline is not None
                    and now >= w.inflight.deadline.at + WATCHDOG_GRACE_S
                ):
                    stuck.append(w)
            for w in dead + wedged + stuck:
                del self._workers[w.wid]
        for w in dead:
            self._reclaim_worker_slots(w)
            self._recover(w.inflight, f"worker {w.wid} died")
        for w in wedged:
            self.stats.counter("pool.spawn_timeouts").inc()
            self._recover(
                self._kill(w), f"worker {w.wid} never became ready "
                f"(wedged spawn, {self._spawn_timeout_s:.1f}s)"
            )
        for w in stuck:
            self.stats.counter("pool.watchdog_kills").inc()
            self._recover(
                self._kill(w), f"watchdog reclaimed worker {w.wid}", overrun=True
            )

    def _kill(self, w: "_WorkerState") -> Optional[_Task]:
        """Terminate a worker already out of the table and free its arena
        slots; returns the task it held."""
        task, w.inflight = w.inflight, None
        w.handle.terminate()
        self._reclaim_worker_slots(w)
        return task

    def _release_task_refs(self, task: _Task) -> None:
        """Drop the request-slot claims held for a dispatch.  Generation
        guards make this idempotent and safe against crash-reclaim races."""
        if task.shm_refs:
            if self._transport is not None:
                self._transport.release_refs(task.shm_refs)
            task.shm_refs = []

    def _recover(self, task: Optional[_Task], why: str, overrun: bool = False) -> None:
        if task is not None:
            # the dispatch died with the worker; free its request slots --
            # resubmission re-encodes from the original arg
            self._release_task_refs(task)
        if not overrun:
            self.stats.counter("pool.worker_crashes").inc()
        self._respawns += 1
        if self._respawns > self._max_respawns:
            failures = [task] if task is not None else []
            with self._lock:
                self._broken = True
                failures += list(self._pending)
                self._pending.clear()
            for t in failures:
                t.future.set_exception(
                    WorkerCrash(f"pool broken after {self._respawns} worker deaths")
                )
            return
        self._spawn_worker()
        if task is None:
            return
        if overrun:
            # the task itself overran; retrying identical work would only
            # overrun again, so fail it (retry policy lives above the pool)
            task.future.set_exception(
                WorkerTimeout(f"task {task.name!r} overran its deadline ({why})")
            )
            return
        if task.deadline is not None and task.deadline.expired:
            self.stats.counter("pool.deadline_sheds").inc()
            task.future.set_exception(
                WorkerTimeout(
                    f"task {task.name!r} not resubmitted: deadline expired ({why})"
                )
            )
            return
        if task.retries < self._max_task_retries:
            task.retries += 1
            self.stats.counter("pool.resubmissions").inc()
            with self._lock:
                self._pending.appendleft(task)
        else:
            task.future.set_exception(
                WorkerCrash(f"task {task.name!r} lost to repeated worker deaths ({why})")
            )

    def _shed_expired_pending(self) -> None:
        """Fail queued tasks whose deadline expired, even when no worker
        is idle to pop them -- a stalled pool must still honor deadlines."""
        with self._lock:
            if not any(
                t.deadline is not None and t.deadline.expired
                for t in self._pending
            ):
                return
            keep: "deque[_Task]" = deque()
            shed: List[_Task] = []
            for t in self._pending:
                if t.deadline is not None and t.deadline.expired:
                    shed.append(t)
                else:
                    keep.append(t)
            self._pending = keep
            self.stats.gauge("pool.queue_depth").set(len(self._pending))
        self._shed(shed)

    def _shed(self, tasks: List[_Task]) -> None:
        """Fail expired tasks that never reached a worker.  Callers hold
        no lock: done-callbacks may re-enter submit(), which takes
        ``_lock``."""
        for t in tasks:
            self.stats.counter("pool.deadline_sheds").inc()
            t.future.set_exception(
                DeadlineExceeded(
                    f"task {t.name!r} shed: deadline expired while queued"
                )
            )

    def _dispatch(self) -> None:
        """Hand queued tasks, oldest first, to idle ready workers.

        Every submitter calls this, and so does the manager after each
        round of messages (a ``done`` or ``ready`` frees a worker).  The
        claim, the transport encode and the inbox put all happen under
        ``_lock``: the manager never sees a claimed worker whose request
        slots are not yet recorded on its task.  Cancelled tasks are
        dropped and expired ones shed; neither reaches a worker."""
        shed: List[_Task] = []
        with self._lock:
            for w in self._workers.values():
                if not self._pending:
                    break
                if not w.ready or w.stopping or w.inflight is not None:
                    continue
                task = None
                while self._pending and task is None:
                    candidate = self._pending.popleft()
                    if candidate.future.cancelled():
                        continue
                    if candidate.deadline is not None and candidate.deadline.expired:
                        shed.append(candidate)
                    else:
                        task = candidate
                if task is None:
                    break
                w.inflight = task
                w.inq.put((task.task_id, task.name, self._encode_arg(task),
                           task.trace is not None))
            self.stats.gauge("pool.queue_depth").set(len(self._pending))
        self._shed(shed)

    def _encode_arg(self, task: _Task):
        """Encode the dispatch payload through the transport (request
        slots stay claimed by the parent until the outcome lands) and
        account per-stage transport bytes."""
        from .shm import payload_nbytes

        if self._transport is None:
            self.stats.counter("pool.transport.dispatch_pickled_bytes").inc(
                payload_nbytes(task.arg)
            )
            return task.arg
        arg_enc, refs = self._transport.encode(task.arg)
        task.shm_refs = refs
        shm_bytes = sum(d.nbytes for d in refs)
        self.stats.counter("pool.transport.dispatch_shm_bytes").inc(shm_bytes)
        self.stats.counter("pool.transport.dispatch_pickled_bytes").inc(
            payload_nbytes(task.arg) - shm_bytes
        )
        # parent-side fallbacks only; worker-side ones stay in the worker
        self.stats.gauge("pool.transport.fallbacks").set(
            self._transport.fallbacks
        )
        return arg_enc

    def _maybe_finish(self) -> bool:
        with self._lock:
            if not self._closing:
                return False
            if self._drain and self._pending and not self._broken:
                return False
            if any(w.inflight is not None for w in self._workers.values()):
                return False
            self._wake_queued = True  # the manager exits: never wake again
            for w in self._workers.values():
                if not w.stopping:
                    w.stopping = True
                    w.inq.put(_STOP)
        # give workers a moment to acknowledge; handles are joined by
        # shutdown() after the manager exits
        return True
