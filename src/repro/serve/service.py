"""The service facade: chunked engine + scheduler + pool + cache, one API.

:class:`CompressionService` is the piece a training stack embeds: submit
arrays, get futures for compressed bytes; submit compressed bytes, get
futures for arrays.  Every codec takes one path, the :mod:`repro.codecs`
plugin contract: a request either rides the scheduler's micro-batching
path as one task (small arrays, or a plugin that keeps the field whole)
or fans out as the independent chunks its plugin plans (large arrays),
and decode results are served from a content-hashed LRU when the same
stream is requested twice.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from repro import codecs as _codecs
from repro.core import stream as _stream
from repro.core.errors import IntegrityError
from repro.obs.trace import TraceContext, Tracer

from . import chunked as _chunked
from .autoscale import AutoscaleConfig, Autoscaler
from .cache import DecodeCache, content_key
from .deadline import Deadline
from .pool import PoolFuture, WorkerPool
from .resilience import BreakerConfig, ResilientRouter, RetryPolicy
from .scheduler import Scheduler
from .stats import MetricsRegistry


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of a :class:`CompressionService` (see docs/SERVING.md and
    docs/RESILIENCE.md).  Every other serving value is the default of the
    component that uses it: the scheduler's queue and batching limits,
    the pool's shm arena geometry and watchdog grace, the retry and
    breaker policies, and the autoscaler's watermarks."""

    workers: int = 2
    backend: str = "thread"  # "thread" (tests / I/O mixes) | "process" (CPU)
    transport: str = "pickle"  # "pickle" | "shm" (process workers only, serve/shm.py)
    shm_min_bytes: Optional[int] = None  # below this, pickle anyway
    #: Compressor plugin (repro.codecs registry name).  Every codec runs
    #: through the same tasks, resilience chain and transport; fan-out
    #: follows the plugin's ``chunk_spans``.  Decoding always sniffs, so a
    #: service decompresses any registered codec's streams.
    codec: str = _codecs.DEFAULT_CODEC
    #: Plugin options as ``(name, value)`` pairs (kept a tuple so the
    #: frozen config stays hashable), validated against the plugin's
    #: schema: e.g. ``(("mode", "plain"), ("block", 64))`` for cuszp2,
    #: ``(("rate", 16.0),)`` for cuzfp.
    codec_opts: tuple = ()
    chunk_bytes: int = _chunked.DEFAULT_CHUNK_BYTES  # fan-out threshold
    cache_bytes: int = 256 << 20
    warmup: bool = True
    # -- resilience (docs/RESILIENCE.md) ------------------------------------
    deadline_s: Optional[float] = None  # default per-request budget (None = off)
    max_respawns: Optional[int] = None  # pool restart budget (None = auto)
    retry_max_attempts: int = 3  # per tier, first try included
    retry_backoff_s: float = 0.01
    breaker_reset_s: float = 0.5
    degrade_inline: bool = True  # inline-codec tier
    # -- autoscaling (serve/autoscale.py) ------------------------------------
    autoscale: bool = False  # start an Autoscaler over the pool
    autoscale_max_workers: Optional[int] = None  # None: 4 * workers


def _verify_stream_result(out) -> None:
    """Router validator: CRC-check a CSZ2 ship-back without decoding it
    (catches results corrupted in transit / by chaos)."""
    from repro.core.integrity import verify as verify_stream

    report = verify_stream(out)
    if not report.ok:
        raise IntegrityError(report.summary())


def _gather(futures, combine, master: Optional[PoolFuture] = None) -> PoolFuture:
    """Join ``futures`` into one future resolving to ``combine(results)``
    (first failure wins)."""
    master = master if master is not None else PoolFuture()
    lock = threading.Lock()
    left = [len(futures)]

    def on_done(f: PoolFuture) -> None:
        exc = f.exception()
        if exc is not None:
            master.set_exception(exc)  # no-op if already failed
        with lock:
            left[0] -= 1
            last = left[0] == 0
        if last and not master.done():
            try:
                master.set_result(combine([g.result() for g in futures]))
            except BaseException as e:  # noqa: BLE001 - delivered via future
                master.set_exception(e)

    if not futures:
        master.set_result(combine([]))
        return master
    for f in futures:
        f.add_done_callback(on_done)
    return master


def _resolved(value) -> PoolFuture:
    f = PoolFuture()
    f.set_result(value)
    return f


class CompressionService:
    """In-process compression service with batching, fan-out, and caching.

    >>> from repro.serve import CompressionService
    >>> with CompressionService(workers=2) as svc:
    ...     blob = svc.compress(field, rel=1e-3).result()
    ...     recon = svc.decompress(blob).result()   # second call: cache hit
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        tracer: Optional[Tracer] = None,
        pool_wrapper: Optional[Callable[[WorkerPool], object]] = None,
        **overrides,
    ):
        cfg = config if config is not None else ServiceConfig()
        if overrides:
            cfg = replace(cfg, **overrides)
        self.config = cfg
        #: When set, every request records a ``service.compress`` /
        #: ``service.decompress`` span, and worker span trees (codec
        #: stages included) re-parent under it.  Also
        #: :func:`repro.obs.activate` the tracer to capture spans from
        #: code running on the caller's own thread (cache lookups).
        self.tracer = tracer
        self.stats = MetricsRegistry()
        # everything that can reject a setting is built before the pool
        # starts workers, so a bad setting leaks no process, thread or
        # shm segment
        self.cache = DecodeCache(cfg.cache_bytes, stats=self.stats)
        retry = RetryPolicy(
            max_attempts=cfg.retry_max_attempts, backoff_base_s=cfg.retry_backoff_s
        )
        breaker = BreakerConfig(reset_timeout_s=cfg.breaker_reset_s)
        autoscale_cfg = (
            AutoscaleConfig(max_workers=cfg.autoscale_max_workers or 4 * cfg.workers)
            if cfg.autoscale
            else None
        )
        self.pool = WorkerPool(
            nworkers=cfg.workers,
            backend=cfg.backend,
            warmup=cfg.warmup,
            stats=self.stats,
            max_respawns=cfg.max_respawns,
            transport=cfg.transport,
            shm_min_bytes=cfg.shm_min_bytes,
        )
        # pool_wrapper interposes on pool.submit (the chaos harness wraps
        # tasks with fault injectors here); the scheduler and everything
        # above it only ever see the wrapped pool
        sched_pool = pool_wrapper(self.pool) if pool_wrapper is not None else self.pool
        self.scheduler = Scheduler(sched_pool, stats=self.stats)
        self.router = ResilientRouter(
            self.scheduler,
            stats=self.stats,
            retry=retry,
            breaker=breaker,
            inline=cfg.degrade_inline,
        )
        self.autoscaler = None
        if autoscale_cfg is not None:
            self.autoscaler = Autoscaler(
                sched_pool,  # chaos wrapper delegates resize/queue_depth
                autoscale_cfg,
                scheduler=self.scheduler,
                stats=self.stats,
            ).start()
        self._closed = False

    def _deadline(self, timeout_s: Optional[float]) -> Optional[Deadline]:
        budget = timeout_s if timeout_s is not None else self.config.deadline_s
        return Deadline.after(budget) if budget is not None else None

    # -- compression --------------------------------------------------------

    def compress(
        self,
        data: np.ndarray,
        rel: Optional[float] = None,
        abs: Optional[float] = None,  # noqa: A002 - mirrors repro.compress
        mode: Optional[str] = None,
        priority: str = "bulk",
        timeout_s: Optional[float] = None,
    ) -> PoolFuture:
        """Submit a compression request through ``config.codec``; the
        future resolves to the compressed bytes: the codec's own stream
        when the request is one task, a ``CSZ2CHNK`` container when it
        fans out as chunks (above ``chunk_bytes``, where the plugin's
        ``chunk_spans`` plans more than one chunk).

        ``rel``/``abs`` is the error bound of a bounded plugin, which
        needs exactly one; a fixed-rate plugin rejects either, as its
        schema does in :func:`repro.codecs.encode`.  ``mode`` overrides
        the plugin's ``mode`` option for this request; a plugin without
        that option rejects it.  Options are validated and the bound
        resolved on the caller's thread, so a bad request raises here,
        whatever its size.

        ``timeout_s`` (default: ``config.deadline_s``) bounds the request
        end to end: expired work is shed, overrunning workers are
        reclaimed, and the degradation chain may answer with a
        raw-passthrough container (``CSZ2RAW1`` -- lossless, flagged,
        decodable by :meth:`decompress`) rather than miss the
        deadline or fail."""
        cfg = self.config
        data = np.asarray(data)
        # the span opens before validation, so the input scan and bound
        # resolution are inside the request's traced time
        span = (
            self.tracer.begin(
                "service.compress", bytes_in=int(data.nbytes), codec=cfg.codec,
                priority=priority,
            )
            if self.tracer is not None
            else None
        )
        try:
            plugin = _codecs.resolve(cfg.codec)
            opts = dict(cfg.codec_opts)
            if mode is not None:
                opts["mode"] = mode
            opts = _chunked.resolve_options(plugin, data, rel, abs, opts)
            spans = None
            if data.nbytes > cfg.chunk_bytes:
                spans, axis = _chunked.plan(plugin, data, opts, cfg.chunk_bytes)
        except BaseException:
            if span is not None:
                self.tracer.end(span, ok=False)
            raise
        t0 = time.perf_counter()
        self.stats.counter("service.requests").inc()
        self.stats.counter("service.bytes_in").inc(data.nbytes)
        trace = TraceContext(self.tracer, span) if span is not None else None
        deadline = self._deadline(timeout_s)
        # CSZ2 streams carry group CRCs; other formats pass unchecked
        validator = _verify_stream_result if plugin.magic == _stream.MAGIC else None

        def submit(part: np.ndarray, batchable: bool) -> PoolFuture:
            return self.router.submit(
                "chunk.compress",
                {"data": part, "codec": plugin.name, "opts": opts},
                priority=priority, nbytes=part.nbytes, batchable=batchable,
                trace=trace, deadline=deadline, validator=validator,
                # per-chunk raw floor: a sick fleet degrades only the
                # chunks it failed, flagged per-entry in the manifest
                raw_fallback=lambda: _chunked.raw_to_bytes(part),
            )

        if spans is None or len(spans) == 1:
            master = submit(data, batchable=True)
        else:
            futures = [
                submit(view, batchable=False)
                for view in _chunked.chunk_views(data, spans, axis)
            ]
            master = _gather(
                futures,
                lambda streams: _chunked.assemble(data, opts, spans, axis, streams).to_bytes(),
            )

        def account(f: PoolFuture) -> None:
            self.stats.histogram("service.compress_latency_s").observe(
                time.perf_counter() - t0
            )
            err = f.exception()
            if err is None:
                self.stats.counter("service.bytes_out").inc(int(f.result().size))
            if span is not None:
                self.tracer.end(
                    span, ok=err is None,
                    bytes_out=int(f.result().size) if err is None else 0,
                )

        master.add_done_callback(account)
        return master

    # -- decompression ------------------------------------------------------

    def decompress(
        self,
        buf,
        priority: str = "interactive",
        cache: bool = True,
        timeout_s: Optional[float] = None,
    ) -> PoolFuture:
        """Submit a decode request; the future resolves to the array.

        Hot streams are served from the content-hashed LRU without
        touching the pool (the returned array is read-only; copy to
        mutate)."""
        if not isinstance(buf, np.ndarray):
            buf = np.frombuffer(bytes(buf), dtype=np.uint8)
        t0 = time.perf_counter()
        self.stats.counter("service.requests").inc()
        self.stats.counter("service.bytes_in").inc(buf.nbytes)
        span = (
            self.tracer.begin(
                "service.decompress", bytes_in=int(buf.nbytes), priority=priority,
            )
            if self.tracer is not None
            else None
        )
        trace = TraceContext(self.tracer, span) if span is not None else None
        key = content_key(buf) if cache else None
        if key is not None:
            if span is not None:
                # make the request span current so the cache's own
                # span (if ambient tracing is on) nests under it
                with self.tracer.attach(span):
                    hit = self.cache.get(key)
            else:
                hit = self.cache.get(key)
            if hit is not None:
                self.stats.histogram("service.decompress_latency_s").observe(
                    time.perf_counter() - t0
                )
                self.stats.counter("service.bytes_out").inc(hit.nbytes)
                if span is not None:
                    self.tracer.end(span, ok=True, cache_hit=True,
                                    bytes_out=int(hit.nbytes))
                return _resolved(hit)

        deadline = self._deadline(timeout_s)
        if _chunked.is_chunked(buf):
            chunks = _chunked.ChunkedStream.from_bytes(buf)
            futures = [
                self.router.submit(
                    "chunk.decompress", c, priority=priority,
                    nbytes=int(c.size), batchable=False, trace=trace,
                    deadline=deadline,
                )
                for c in chunks.chunks
            ]
            manifest = chunks.manifest
            master = _gather(futures, lambda parts: _chunked.join(manifest, parts))
        else:
            # single v2 stream, a CSZ2RAW1 passthrough container, or any
            # registered plugin's stream; the worker task sniffs the magic
            master = self.router.submit(
                "chunk.decompress", buf, priority=priority,
                nbytes=int(buf.size), batchable=True, trace=trace,
                deadline=deadline,
            )

        def account(f: PoolFuture) -> None:
            self.stats.histogram("service.decompress_latency_s").observe(
                time.perf_counter() - t0
            )
            err = f.exception()
            if err is None:
                arr = f.result()
                self.stats.counter("service.bytes_out").inc(arr.nbytes)
                if key is not None:
                    if span is not None:
                        with self.tracer.attach(span):
                            self.cache.put(key, arr)
                    else:
                        self.cache.put(key, arr)
            if span is not None:
                self.tracer.end(
                    span, ok=err is None, cache_hit=False,
                    bytes_out=int(f.result().nbytes) if err is None else 0,
                )

        master.add_done_callback(account)
        return master

    # -- lifecycle / reporting ----------------------------------------------

    def stats_snapshot(self) -> dict:
        self.stats.gauge("pool.utilization").set(self.pool.utilization())
        snap = self.stats.snapshot()
        snap["cache"] = {
            "hits": self.cache.hits,
            "misses": self.cache.misses,
            "evictions": self.cache.evictions,
            "hit_rate": self.cache.hit_rate,
            "bytes": self.cache.bytes,
            "entries": len(self.cache),
        }
        return snap

    def close(self, cancel_pending: bool = False) -> None:
        if self._closed:
            return
        self._closed = True
        if self.autoscaler is not None:
            self.autoscaler.stop()
        self.router.close()  # cancel retry timers, stop the inline runner
        self.scheduler.shutdown(cancel_pending=cancel_pending)
        self.pool.shutdown(wait=not cancel_pending)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close(cancel_pending=any(exc))
