"""Closed-loop load generator for the compression service.

Drives a :class:`~repro.serve.service.CompressionService` with ``clients``
concurrent closed-loop clients (each issues its next request only after
the previous one completed -- the standard way to measure a service's
latency under a fixed concurrency level, as opposed to open-loop arrival
rates that conflate queueing with service time).  Each iteration
compresses one field (bulk lane) and decompresses the result (interactive
lane), so the report exercises both paths plus the decode cache.

``repro serve-bench`` is the CLI front-end; ``benchmarks/bench_serve.py``
records the 1-worker vs N-worker baseline into ``BENCH_serve.json``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import asdict, dataclass
from typing import List, Optional

import numpy as np

from .service import CompressionService, ServiceConfig


@dataclass(frozen=True)
class BenchConfig:
    """One serve-bench run."""

    size_mb: float = 8.0
    workers: int = 2
    backend: str = "thread"  # worker-pool flavor: "thread" | "process"
    transport: str = "pickle"  # "pickle" | "shm" (zero-copy arena)
    requests: int = 8  # total iterations (compress + decompress each)
    clients: int = 2
    rel: float = 1e-3
    mode: str = "outlier"
    chunk_mb: float = 4.0
    distinct: int = 2  # distinct fields cycled through (cache misses)
    seed: int = 0
    verify: bool = True  # error-bound check on the first decode
    dataset: Optional[str] = None
    field: Optional[str] = None


def _make_fields(cfg: BenchConfig) -> List[np.ndarray]:
    if cfg.dataset is not None:
        from repro.datasets import get_dataset

        ds = get_dataset(cfg.dataset)
        spec = ds.field(cfg.field) if cfg.field else ds.fields[0]
        base = spec.generate(ds.dtype).reshape(-1)
        nelems = max(int(cfg.size_mb * 1e6) // base.dtype.itemsize, 1)
        reps = -(-nelems // base.size)
        base = np.tile(base, reps)[:nelems]
        fields = []
        for i in range(cfg.distinct):
            f = base.copy()
            f[:1] += i * 1e-9  # distinct content hash, same statistics
            fields.append(f)
        return fields
    rng = np.random.default_rng(cfg.seed)
    nelems = max(int(cfg.size_mb * 1e6) // 4, 1)
    return [
        np.cumsum(rng.normal(size=nelems)).astype(np.float32)
        for _ in range(cfg.distinct)
    ]


def run_serve_bench(cfg: BenchConfig) -> dict:
    """Run one closed-loop campaign; returns the JSON-able report."""
    fields = _make_fields(cfg)
    svc = CompressionService(
        ServiceConfig(
            workers=cfg.workers,
            backend=cfg.backend,
            transport=cfg.transport,
            codec_opts=(("mode", cfg.mode),),
            chunk_bytes=int(cfg.chunk_mb * (1 << 20)),
        )
    )
    errors: List[str] = []
    processed = [0]
    lock = threading.Lock()
    try:
        svc.pool.wait_ready(60.0)  # exclude worker warmup from the timing

        per_client = -(-cfg.requests // cfg.clients)
        iters = [per_client] * cfg.clients
        for i in range(per_client * cfg.clients - cfg.requests):
            iters[i] -= 1
        start_gate = threading.Event()

        def client(cid: int, n: int) -> None:
            start_gate.wait()
            for it in range(n):
                field = fields[(cid + it) % len(fields)]
                try:
                    blob = svc.compress(field, rel=cfg.rel, priority="bulk").result(600)
                    recon = svc.decompress(blob, priority="interactive").result(600)
                    if cfg.verify and it == 0:
                        from repro.metrics import check_error_bound

                        eb_abs = cfg.rel * float(field.max() - field.min())
                        if not check_error_bound(field, recon, eb_abs):
                            errors.append(
                                f"client {cid}: reconstruction exceeds "
                                f"eb_abs={eb_abs:g}"
                            )
                    with lock:
                        processed[0] += field.nbytes + recon.nbytes
                except Exception as e:  # noqa: BLE001 - reported in summary
                    errors.append(f"client {cid} iter {it}: {e!r}")

        threads = [
            threading.Thread(target=client, args=(cid, n), daemon=True)
            for cid, n in enumerate(iters)
        ]
        for t in threads:
            t.start()
        t0 = time.perf_counter()
        start_gate.set()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        snap = svc.stats_snapshot()
    finally:
        svc.close()

    field_bytes = fields[0].nbytes
    chunk_bytes = int(cfg.chunk_mb * (1 << 20))
    counters = snap.get("counters", {})
    transport_bytes = {
        stage: counters.get(f"pool.transport.{stage}_bytes", 0.0)
        for stage in (
            "dispatch_shm", "dispatch_pickled", "result_shm", "result_pickled",
        )
    }
    transport_bytes["fallbacks"] = (
        snap.get("gauges", {})
        .get("pool.transport.fallbacks", {})
        .get("value", 0.0)
    )
    return {
        "config": asdict(cfg),
        "cpu_count": os.cpu_count(),
        "field_mb": field_bytes / 1e6,
        "chunks_per_request": max(-(-field_bytes // chunk_bytes), 1)
        if field_bytes > chunk_bytes
        else 1,
        "wall_s": wall,
        "throughput_mbs": processed[0] / wall / 1e6 if wall > 0 else 0.0,
        "transport": cfg.transport,
        "transport_bytes": transport_bytes,
        "errors": errors,
        "stats": snap,
    }


def format_report(report: dict) -> str:
    """Human-readable rendering of a :func:`run_serve_bench` report."""
    cfg = report["config"]
    hists = report["stats"]["histograms"]
    gauges = report["stats"]["gauges"]
    lines = [
        f"serve-bench: workers={cfg['workers']} backend={cfg['backend']} "
        f"transport={cfg.get('transport', 'pickle')} "
        f"chunk={cfg['chunk_mb']:g}MiB requests={cfg['requests']} "
        f"clients={cfg['clients']} rel={cfg['rel']:g} mode={cfg['mode']}",
        f"field: {report['field_mb']:.1f} MB x {cfg['distinct']} distinct "
        f"({report['chunks_per_request']} chunk(s)/request)",
        f"wall time: {report['wall_s']:.3f} s",
        f"throughput: {report['throughput_mbs']:.1f} MB/s "
        "(uncompressed bytes through the service)",
    ]
    for name, label in (
        ("service.compress_latency_s", "compress  "),
        ("service.decompress_latency_s", "decompress"),
    ):
        h = hists.get(name)
        if h:
            lines.append(
                f"{label} p50={h['p50_s'] * 1e3:8.1f} ms  "
                f"p95={h['p95_s'] * 1e3:8.1f} ms  "
                f"max={h['max_s'] * 1e3:8.1f} ms  (n={h['count']})"
            )
    tb = report.get("transport_bytes")
    if tb is not None:
        lines.append(
            "transport bytes: "
            f"dispatch shm={tb['dispatch_shm'] / 1e6:.1f}MB "
            f"pickled={tb['dispatch_pickled'] / 1e6:.1f}MB | "
            f"result shm={tb['result_shm'] / 1e6:.1f}MB "
            f"pickled={tb['result_pickled'] / 1e6:.1f}MB "
            f"(fallbacks={tb['fallbacks']:.0f})"
        )
    cache = report["stats"].get("cache", {})
    util = gauges.get("pool.utilization", {}).get("value", 0.0)
    depth = gauges.get("scheduler.queue_depth", {}).get("max", 0.0)
    lines.append(
        f"worker utilization: {util * 100:.0f}%   max queue depth: {depth:.0f}   "
        f"cache hit rate: {cache.get('hit_rate', 0.0) * 100:.0f}% "
        f"({cache.get('hits', 0)}/{cache.get('hits', 0) + cache.get('misses', 0)})"
    )
    if report["errors"]:
        lines.append(f"ERRORS ({len(report['errors'])}):")
        lines += [f"  {e}" for e in report["errors"][:10]]
    return "\n".join(lines)


def dump_report(report: dict, path) -> None:
    with open(path, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
