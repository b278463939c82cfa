"""The benchmark's workloads and metrics, defined once.

``run.py`` prints these metrics, ``run.py calibrate --write`` renders them
(with measured bounds) into the repository's ``BENCHMARK.json``, and the
smoke test checks that the two agree.
"""

from __future__ import annotations

#: Seconds one run measures when the caller gives no ``--seconds``: as
#: long as 4 + 22 x 3 runs, with their set-ups, fit in under an hour with
#: a margin.
RUN_SECONDS = 35

#: Fresh set-up samples per untraced run (the measured process plus
#: probes); ``setup_s`` is their median.
SETUP_SAMPLES = 5

#: The tail latency percentile each run reports beside the median: the
#: highest whole-5 percentile with at least ten samples beyond it on every
#: workload in a RUN_SECONDS run (serve-bulk, the slowest, completes about
#: 450 writes and as many reads).
TAIL = 95

#: Error bound every workload compresses under.
REL = 1e-3

WORKLOADS = {
    "codec-bulk": (
        "Bare repro.compress/decompress on four 1 MiB fields: all time is in "
        "repro.core kernels, as in the paper's headline throughput"
    ),
    "serve-bulk": (
        "Same inputs through a 1-worker CompressionService that splits them into "
        "chunks: its ratio to codec-bulk is the service gap; distinct inputs, so "
        "the decode cache always misses"
    ),
    "http-small": (
        "256 KiB requests on a keep-alive connection to the HTTP front end: "
        "per-request costs dominate; a quarter of decompresses hit the decode cache"
    ),
}

#: name -> (unit, better).  Every workload reports every one of these;
#: "write" is the operation that hands data to the system (compress call,
#: POST /v1/compress), "read" the one that gets it back (decompress call,
#: POST /v1/decompress).  Throughput is that of the run's fastest input
#: cycle (workload.Phase.end_to_end).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "write_MiBps": ("MiB/s", "higher"),
    "read_MiBps": ("MiB/s", "higher"),
    "ratio": ("x", "higher"),
    "peak_rss_MiB": ("MiB", "lower"),
}

#: Per-layer metrics of a traced run, named after the modules they
#: measure.  ``*_frac`` is the share of operation wall time the layer owns
#: exclusively (see layers.py); ``*_per_op`` counts are divided by the
#: operations run.  name -> (unit, better)
PER_LAYER = {
    # repro.core: the codec and its stages
    "core.compress_frac": ("frac", "lower"),
    "core.decompress_frac": ("frac", "lower"),
    "core.quantize_frac": ("frac", "lower"),
    "core.predict_frac": ("frac", "lower"),
    "core.fle_frac": ("frac", "lower"),
    "core.scan_frac": ("frac", "lower"),
    "core.pack_frac": ("frac", "lower"),
    "core.verify_frac": ("frac", "lower"),
    "core.split_frac": ("frac", "lower"),
    "core.fle_decode_frac": ("frac", "lower"),
    "core.undiff_frac": ("frac", "lower"),
    "core.dequantize_frac": ("frac", "lower"),
    "core.calls_per_op": ("1/op", "lower"),
    "core.MiB_in_per_op": ("MiB/op", "lower"),
    # repro.serve.service and repro.serve.chunked
    "serve.service.compress_self_frac": ("frac", "lower"),
    "serve.service.decompress_self_frac": ("frac", "lower"),
    "serve.chunked.self_frac": ("frac", "lower"),
    "serve.service.requests_per_op": ("1/op", "lower"),
    # repro.serve.scheduler
    "serve.scheduler.wait_frac": ("frac", "lower"),
    "serve.scheduler.dispatches_per_op": ("1/op", "lower"),
    "serve.scheduler.batches_per_op": ("1/op", "higher"),
    "serve.scheduler.batched_requests_per_op": ("1/op", "higher"),
    "serve.scheduler.batch_fill": ("1/batch", "higher"),
    # repro.serve.pool and repro.serve.shm
    "serve.pool.overhead_frac": ("frac", "lower"),
    "serve.pool.busy_frac": ("frac", "lower"),
    "serve.pool.tasks_per_op": ("1/op", "lower"),
    "serve.pool.dispatch_MiB_per_op": ("MiB/op", "lower"),
    "serve.pool.result_MiB_per_op": ("MiB/op", "lower"),
    "serve.pool.shm_bytes_frac": ("frac", "higher"),
    "serve.pool.transport_fallbacks": ("count", "lower"),
    "serve.pool.task_errors": ("count", "lower"),
    "serve.pool.resubmissions": ("count", "lower"),
    "serve.pool.utilization": ("frac", "higher"),
    # repro.serve.resilience
    "serve.resilience.validate_frac": ("frac", "lower"),
    "serve.resilience.retry_wait_frac": ("frac", "lower"),
    "serve.resilience.retries": ("count", "lower"),
    "serve.resilience.raw_fallbacks": ("count", "lower"),
    "serve.resilience.inline_tasks": ("count", "lower"),
    # repro.serve.cache
    "serve.cache.hit_rate": ("frac", "higher"),
    "serve.cache.hits_per_op": ("1/op", "higher"),
    "serve.cache.misses_per_op": ("1/op", "lower"),
    "serve.cache.evictions_per_op": ("1/op", "lower"),
    "serve.cache.get_frac": ("frac", "lower"),
    "serve.cache.put_frac": ("frac", "lower"),
    # repro.serve.http
    "serve.http.overhead_frac": ("frac", "lower"),
    "serve.http.requests_per_op": ("1/op", "lower"),
    "serve.http.rejects": ("count", "lower"),
    # the benchmark's own view of the trace
    "bench.unattributed_frac": ("frac", "lower"),
    "bench.trace_overhead": ("frac", "lower"),
}
