"""The service facade: chunked engine + scheduler + pool + cache, one API.

:class:`CompressionService` is the piece a training stack embeds: submit
arrays, get futures for compressed bytes; submit compressed bytes, get
futures for arrays.  Internally a request either rides the scheduler's
micro-batching path (small arrays) or fans out as independent group-aligned
chunks (large arrays), and decode results are served from a content-hashed
LRU when the same stream is requested twice.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from repro.core import stream as _stream
from repro.core.compressor import DEFAULT_BLOCK, CompressorConfig
from repro.core.errors import IntegrityError, InvalidInputError
from repro.core.quantize import ErrorBound, validate_input
from repro.obs.trace import TraceContext, Tracer

from . import chunked as _chunked
from .cache import DecodeCache, content_key
from .deadline import Deadline
from .pool import PoolFuture, WorkerPool
from .resilience import BreakerConfig, ResilientRouter, RetryPolicy
from .scheduler import Scheduler
from .stats import MetricsRegistry


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of a :class:`CompressionService` (see docs/SERVING.md and
    docs/RESILIENCE.md)."""

    workers: int = 2
    backend: str = "thread"  # "thread" (tests / I/O mixes) | "process" (CPU)
    transport: str = "pickle"  # "pickle" | "shm" (zero-copy, serve/shm.py)
    shm_slots: Optional[int] = None  # arena slots (None: 4*workers+8)
    shm_slot_bytes: int = 8 << 20  # bytes per arena slot
    shm_min_bytes: Optional[int] = None  # below this, pickle anyway
    mode: str = "outlier"
    block: int = DEFAULT_BLOCK
    group_blocks: int = _stream.DEFAULT_GROUP_BLOCKS
    #: Compressor plugin (repro.codecs registry name).  The default keeps
    #: the golden CSZ2 chunked/resilient path; any other name routes
    #: requests through the plugin's worker task.  Decoding always sniffs,
    #: so a service decompresses any registered codec's streams.
    codec: str = "cuszp2"
    #: Extra plugin options as ``(name, value)`` pairs (kept a tuple so the
    #: frozen config stays hashable), e.g. ``(("rate", 16.0),)`` for cuzfp.
    codec_opts: tuple = ()
    chunk_bytes: int = _chunked.DEFAULT_CHUNK_BYTES  # fan-out threshold
    cache_bytes: int = 256 << 20
    max_pending: int = 256
    max_inflight: Optional[int] = None
    batch_max: int = 8
    batch_bytes: int = 1 << 20
    warmup: bool = True
    # -- resilience (docs/RESILIENCE.md) ------------------------------------
    resilience: bool = True  # route via ResilientRouter
    deadline_s: Optional[float] = None  # default per-request budget (None = off)
    max_respawns: Optional[int] = None  # pool restart budget (None = auto)
    watchdog_grace_s: float = 0.05  # slack past the deadline before a kill
    retry_max_attempts: int = 3  # per tier, first try included
    retry_backoff_s: float = 0.01
    retry_backoff_max_s: float = 0.25
    breaker_window: int = 16
    breaker_min_volume: int = 4
    breaker_failure_threshold: float = 0.5
    breaker_reset_s: float = 0.5
    fallback_workers: Optional[int] = None  # None: 2 if backend=="process" else 0
    degrade_inline: bool = True  # inline-codec tier
    degrade_raw: bool = True  # raw-passthrough floor (compress only)
    validate_results: bool = True  # CRC-verify compressed ship-backs
    resilience_seed: int = 0  # deterministic backoff jitter
    # -- autoscaling (serve/autoscale.py) ------------------------------------
    autoscale: bool = False  # start an Autoscaler over the pool
    autoscale_min_workers: Optional[int] = None  # None: 1
    autoscale_max_workers: Optional[int] = None  # None: 4 * workers
    autoscale_high_watermark: float = 4.0  # queue depth per worker -> grow
    autoscale_low_watermark: float = 1.0  # queue depth per worker -> shrink
    autoscale_cooldown_s: float = 5.0  # min gap between decisions
    autoscale_poll_s: float = 0.25


def _verify_stream_result(out) -> None:
    """Router validator: CRC-check a compressed ship-back without
    decoding it (catches results corrupted in transit / by chaos)."""
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
        self.pool = WorkerPool(
            nworkers=cfg.workers,
            backend=cfg.backend,
            warmup=cfg.warmup,
            stats=self.stats,
            max_respawns=cfg.max_respawns,
            watchdog_grace_s=cfg.watchdog_grace_s,
            transport=cfg.transport,
            shm_slots=cfg.shm_slots,
            shm_slot_bytes=cfg.shm_slot_bytes,
            shm_min_bytes=cfg.shm_min_bytes,
        )
        # pool_wrapper interposes on pool.submit (the chaos harness wraps
        # tasks with fault injectors here); the scheduler and everything
        # above it only ever see the wrapped pool
        sched_pool = pool_wrapper(self.pool) if pool_wrapper is not None else self.pool
        self.scheduler = Scheduler(
            sched_pool,
            max_pending=cfg.max_pending,
            max_inflight=cfg.max_inflight,
            batch_max=cfg.batch_max,
            batch_bytes=cfg.batch_bytes,
            stats=self.stats,
        )
        self.router: Optional[ResilientRouter] = None
        if cfg.resilience:
            fallback = cfg.fallback_workers
            if fallback is None:
                fallback = 2 if self.pool.backend.name == "process" else 0
            self.router = ResilientRouter(
                self.scheduler,
                stats=self.stats,
                retry=RetryPolicy(
                    max_attempts=cfg.retry_max_attempts,
                    backoff_base_s=cfg.retry_backoff_s,
                    backoff_max_s=cfg.retry_backoff_max_s,
                ),
                breaker=BreakerConfig(
                    window=cfg.breaker_window,
                    min_volume=cfg.breaker_min_volume,
                    failure_threshold=cfg.breaker_failure_threshold,
                    reset_timeout_s=cfg.breaker_reset_s,
                ),
                fallback_workers=fallback,
                inline=cfg.degrade_inline,
                seed=cfg.resilience_seed,
            )
        self.cache = DecodeCache(cfg.cache_bytes, stats=self.stats)
        self.autoscaler = None
        if cfg.autoscale:
            from .autoscale import AutoscaleConfig, Autoscaler

            self.autoscaler = Autoscaler(
                sched_pool,  # chaos wrapper delegates resize/queue_depth
                AutoscaleConfig(
                    min_workers=cfg.autoscale_min_workers or 1,
                    max_workers=cfg.autoscale_max_workers or 4 * cfg.workers,
                    high_watermark=cfg.autoscale_high_watermark,
                    low_watermark=cfg.autoscale_low_watermark,
                    cooldown_s=cfg.autoscale_cooldown_s,
                    poll_s=cfg.autoscale_poll_s,
                ),
                scheduler=self.scheduler,
                stats=self.stats,
            ).start()
        self._closed = False

    def _deadline(self, timeout_s: Optional[float]) -> Optional[Deadline]:
        budget = timeout_s if timeout_s is not None else self.config.deadline_s
        return Deadline.after(budget) if budget is not None else None

    def _submit(
        self,
        name,
        arg,
        priority,
        nbytes,
        batchable,
        trace,
        deadline,
        validator=None,
        raw_fallback=None,
    ) -> PoolFuture:
        if self.router is not None:
            return self.router.submit(
                name, arg, deadline=deadline, priority=priority,
                batchable=batchable, nbytes=nbytes, trace=trace,
                validator=validator, raw_fallback=raw_fallback,
            )
        return self.scheduler.submit(
            name, arg, priority=priority, nbytes=nbytes, batchable=batchable,
            trace=trace, deadline=deadline,
        )

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
        """Submit a compression request; the future resolves to the
        compressed bytes (a single v2 stream below the chunk threshold, a
        ``CSZ2CHNK`` container above it).

        ``timeout_s`` (default: ``config.deadline_s``) bounds the request
        end to end: expired work is shed, overrunning workers are
        reclaimed, and with resilience enabled the degradation chain may
        answer with a raw-passthrough container (``CSZ2RAW1`` -- lossless,
        flagged, decodable by :meth:`decompress`) rather than miss the
        deadline or fail."""
        cfg = self.config
        data = np.asarray(data)
        if cfg.codec != "cuszp2":
            return self._compress_codec(
                data, rel=rel, abs=abs, priority=priority, timeout_s=timeout_s
            )
        mode = mode if mode is not None else cfg.mode
        # the span opens before validation, so the input scan and bound
        # resolution are inside the request's traced time
        span = (
            self.tracer.begin(
                "service.compress", bytes_in=int(data.nbytes), mode=mode,
                priority=priority,
            )
            if self.tracer is not None
            else None
        )
        try:
            # validate the codec settings here, on the caller's thread and
            # before any task or chunk plan, as the plugin path validates
            # its options: the error must not depend on the input size
            CompressorConfig(mode=mode, block=cfg.block, group_blocks=cfg.group_blocks)
            if (rel is None) == (abs is None):
                raise InvalidInputError("specify exactly one of rel= or abs=")
            eb = ErrorBound.relative(rel) if rel is not None else ErrorBound.absolute(abs)
            eb_abs = eb.resolve(validate_input(data))
        except BaseException:
            if span is not None:
                self.tracer.end(span, ok=False)
            raise
        t0 = time.perf_counter()
        self.stats.counter("service.requests").inc()
        self.stats.counter("service.bytes_in").inc(data.nbytes)
        trace = TraceContext(self.tracer, span) if span is not None else None
        deadline = self._deadline(timeout_s)
        validator = _verify_stream_result if cfg.validate_results else None

        if data.nbytes <= cfg.chunk_bytes:
            arg = {
                "data": data,
                "eb_abs": eb_abs,
                "mode": mode,
                "block": cfg.block,
                "group_blocks": cfg.group_blocks,
            }
            master = self._submit(
                "chunk.compress", arg, priority=priority, nbytes=data.nbytes,
                batchable=True, trace=trace, deadline=deadline,
                validator=validator,
                raw_fallback=(
                    (lambda: _chunked.raw_to_bytes(data))
                    if cfg.degrade_raw else None
                ),
            )
        else:
            spans, axis = _chunked.plan_chunks(
                data.shape,
                data.dtype.itemsize,
                block=cfg.block,
                group_blocks=cfg.group_blocks,
                chunk_bytes=cfg.chunk_bytes,
            )
            views = _chunked._chunk_views(data, spans, axis)
            futures = [
                self._submit(
                    "chunk.compress",
                    {
                        "data": view,
                        "eb_abs": eb_abs,
                        "mode": mode,
                        "block": cfg.block,
                        "group_blocks": cfg.group_blocks,
                    },
                    priority=priority,
                    nbytes=view.nbytes,
                    batchable=False,
                    trace=trace,
                    deadline=deadline,
                    validator=validator,
                    # per-chunk raw floor: a sick fleet degrades only the
                    # chunks it failed, flagged per-entry in the manifest
                    raw_fallback=(
                        (lambda view=view: _chunked.raw_to_bytes(view))
                        if cfg.degrade_raw else None
                    ),
                )
                for view in views
            ]

            def assemble(streams):
                import zlib

                entries = tuple(
                    _chunked.ChunkEntry(
                        nelems=hi - lo,
                        nbytes=int(s.size),
                        crc32=zlib.crc32(s.tobytes()) & 0xFFFFFFFF,
                        raw=_chunked.is_raw(s),
                    )
                    for (lo, hi), s in zip(spans, streams)
                )
                manifest = _chunked.ChunkManifest(
                    shape=tuple(data.shape),
                    dtype=np.dtype(data.dtype).name,
                    mode=mode,
                    predictor_ndim=1,
                    block=cfg.block,
                    group_blocks=cfg.group_blocks,
                    eb_abs=eb_abs,
                    axis=axis,
                    entries=entries,
                )
                return _chunked.ChunkedStream(manifest, streams).to_bytes()

            master = _gather(futures, assemble)

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

    def _compress_codec(
        self,
        data: np.ndarray,
        rel: Optional[float],
        abs: Optional[float],  # noqa: A002 - mirrors compress()
        priority: str,
        timeout_s: Optional[float],
    ) -> PoolFuture:
        """Route a compression request through a non-default plugin
        (``config.codec``): one ``codec.compress`` task, no chunk fan-out.

        The error bound rides inside the plugin's options (bounded plugins
        only; fixed-rate plugins like cuzfp ignore it and take their knobs
        from ``config.codec_opts``).  ``validate_results`` is a CSZ2 CRC
        check, so it does not apply here; the raw-passthrough degradation
        floor still does."""
        cfg = self.config
        from repro import codecs as _codecs

        plugin = _codecs.resolve(cfg.codec)
        opts = dict(cfg.codec_opts)
        if plugin.bounded:
            if (rel is None) == (abs is None):
                raise InvalidInputError("specify exactly one of rel= or abs=")
            opts["rel" if rel is not None else "abs"] = rel if rel is not None else abs
        # fail fast on the caller's thread: bad options should not cost a
        # round trip to a worker (the worker re-validates regardless)
        plugin.validate_options(dict(opts))

        t0 = time.perf_counter()
        self.stats.counter("service.requests").inc()
        self.stats.counter("service.bytes_in").inc(data.nbytes)
        span = (
            self.tracer.begin(
                "service.compress", bytes_in=int(data.nbytes), codec=cfg.codec,
                priority=priority,
            )
            if self.tracer is not None
            else None
        )
        trace = TraceContext(self.tracer, span) if span is not None else None
        master = self._submit(
            "codec.compress",
            {"data": data, "codec": cfg.codec, "opts": opts},
            priority=priority,
            nbytes=data.nbytes,
            batchable=True,
            trace=trace,
            deadline=self._deadline(timeout_s),
            raw_fallback=(
                (lambda: _chunked.raw_to_bytes(data)) if cfg.degrade_raw else None
            ),
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
                self._submit(
                    "chunk.decompress", c, priority=priority,
                    nbytes=int(c.size), batchable=False, trace=trace,
                    deadline=deadline,
                )
                for c in chunks.chunks
            ]
            m = chunks.manifest

            def assemble(parts):
                if m.axis == "flat":
                    out = np.concatenate([p.reshape(-1) for p in parts])
                else:
                    out = np.concatenate(parts, axis=0)
                return out.reshape(m.shape)

            master = _gather(futures, assemble)
        else:
            # single v2 stream, a CSZ2RAW1 passthrough container, or any
            # registered plugin's stream; the worker task sniffs the magic
            master = self._submit(
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
        if self.router is not None:
            self.router.close()  # cancel retry timers, stop fallback tiers
        self.scheduler.shutdown(cancel_pending=cancel_pending)
        self.pool.shutdown(wait=not cancel_pending)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close(cancel_pending=any(exc))
