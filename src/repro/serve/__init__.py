"""repro.serve -- the in-process compression service layer.

cuSZp2's pitch is end-to-end throughput: compression fast enough to sit
inline with I/O and communication (paper Section 1; Section 5.6's in-situ
checkpointing and compression-enabled collectives).  This package turns
the library codec into that pipeline component:

* :mod:`~repro.serve.chunked` -- bounded-memory chunked streaming engine
  over the :mod:`repro.codecs` plugin contract (split where the plugin
  says, bit-identical to the monolithic codec);
* :mod:`~repro.serve.pool` -- thread/process worker pool with warmup,
  crash recovery, and graceful shutdown;
* :mod:`~repro.serve.scheduler` -- bounded queue, priority lanes,
  micro-batching, explicit :class:`~repro.serve.scheduler.QueueFull`
  backpressure;
* :mod:`~repro.serve.cache` -- content-hashed LRU decode cache;
* :mod:`~repro.serve.stats` -- metrics registry (latency histograms,
  queue depth, utilization, hit rates) dumpable as JSON;
* :mod:`~repro.serve.deadline` / :mod:`~repro.serve.resilience` --
  deadline propagation, retries with backoff, per-tier circuit breakers,
  and the graceful-degradation chain down to raw passthrough;
* :mod:`~repro.serve.shm` -- zero-copy shared-memory transport: chunk
  payloads live in refcounted arena slots, only descriptors cross the
  pool boundary;
* :mod:`~repro.serve.autoscale` -- queue-depth-driven worker-pool
  autoscaler with hysteresis and cooldown;
* :mod:`~repro.serve.http` -- stdlib-asyncio HTTP front end with
  admission control, per-tenant quotas, and SLO-driven shedding;
* :mod:`~repro.serve.service` -- :class:`CompressionService`, the facade
  gluing the pieces together.

See docs/SERVING.md for architecture and tuning guidance, and
docs/RESILIENCE.md for the failure-handling model.
"""

from .autoscale import AutoscaleConfig, Autoscaler
from .cache import DecodeCache, content_key
from .chunked import (
    DEFAULT_CHUNK_BYTES,
    ChunkedStream,
    ChunkManifest,
    compress_chunked,
    decompress_chunked,
    is_chunked,
    is_raw,
    raw_from_bytes,
    raw_to_bytes,
)
from .deadline import Deadline, DeadlineExceeded, WorkerTimeout
from .http import HttpConfig, HttpFrontend, TokenBucket
from .pool import (
    PoolClosed,
    PoolFuture,
    ProcessBackend,
    TaskError,
    ThreadBackend,
    UnknownTask,
    WaitTimeout,
    WorkerCrash,
    WorkerPool,
    register_task,
    registered_tasks,
    unregister_task,
)
from .resilience import (
    BreakerConfig,
    CircuitBreaker,
    CircuitOpen,
    CorruptResult,
    ResilienceError,
    ResilientRouter,
    RetryPolicy,
    TaskFailure,
    classify_error,
    is_classified,
)
from .scheduler import QueueFull, Scheduler
from .service import CompressionService, ServiceConfig
from .shm import ShmArena, ShmDescriptor, ShmReclaimed, ShmTransport
from .stats import Histogram, MetricsRegistry

__all__ = [
    "CompressionService",
    "ServiceConfig",
    "AutoscaleConfig",
    "Autoscaler",
    "BreakerConfig",
    "CircuitBreaker",
    "CircuitOpen",
    "CorruptResult",
    "Deadline",
    "DeadlineExceeded",
    "ResilienceError",
    "ResilientRouter",
    "RetryPolicy",
    "TaskFailure",
    "WaitTimeout",
    "WorkerTimeout",
    "classify_error",
    "is_classified",
    "is_raw",
    "raw_from_bytes",
    "raw_to_bytes",
    "ChunkedStream",
    "ChunkManifest",
    "DecodeCache",
    "DEFAULT_CHUNK_BYTES",
    "Histogram",
    "HttpConfig",
    "HttpFrontend",
    "MetricsRegistry",
    "PoolClosed",
    "PoolFuture",
    "ProcessBackend",
    "QueueFull",
    "Scheduler",
    "ShmArena",
    "ShmDescriptor",
    "ShmReclaimed",
    "ShmTransport",
    "TaskError",
    "ThreadBackend",
    "TokenBucket",
    "UnknownTask",
    "WorkerCrash",
    "WorkerPool",
    "compress_chunked",
    "content_key",
    "decompress_chunked",
    "is_chunked",
    "register_task",
    "registered_tasks",
    "unregister_task",
]
