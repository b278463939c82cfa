"""Service metrics: counters, gauges, latency histograms, JSON dump.

Every moving part of the service layer (pool, scheduler, cache, facade)
reports into one :class:`MetricsRegistry` so a single snapshot answers
"what is the service doing right now": per-request latency distributions,
queue depth, worker utilization, cache hit rate, and bytes in/out.

The histogram uses fixed log2-spaced buckets (1 us .. ~67 s), the standard
shape for service latency: cheap to record (one bisect per observation),
mergeable, and quantile-estimable without keeping samples.

Every primitive is **thread-safe**: the service mutates metrics from pool
threads, submitting threads, and callers concurrently, so each
metric serializes its mutations behind its own lock (``value += n`` and
the histogram's count/sum/bucket triple are not atomic in Python) and
reads its summary under the same lock, making a snapshot internally
consistent per metric (a histogram's sum, count, and buckets always
describe the same set of observations).
"""

from __future__ import annotations

import json
import threading
import time
from bisect import bisect_left
from typing import Dict, List, Optional, Tuple


def _bucket_bounds() -> List[float]:
    # 1us * 2**k for k = 0..26 -> last finite bound ~67s.
    return [1e-6 * (1 << k) for k in range(27)]


class Counter:
    """A monotonically increasing counter (thread-safe)."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A point-in-time value; also tracks the high-water mark (thread-safe)."""

    __slots__ = ("_lock", "_value", "_max")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0
        self._max = 0.0

    def set(self, v: float) -> None:
        v = float(v)
        with self._lock:
            self._value = v
            if v > self._max:
                self._max = v

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    @property
    def max(self) -> float:
        with self._lock:
            return self._max


class Histogram:
    """Log2-bucketed distribution of non-negative observations (seconds).

    All mutation and every multi-field read happen under one lock, so an
    observer never sees a torn state where ``sum``/``count``/bucket
    counts disagree.
    """

    def __init__(self):
        self.bounds = _bucket_bounds()
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.bounds) + 1)  # +1: overflow bucket
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = 0.0

    def observe(self, v: float) -> None:
        v = float(v)
        i = bisect_left(self.bounds, v)
        with self._lock:
            self._counts[i] += 1
            self._count += 1
            self._sum += v
            if v < self._min:
                self._min = v
            if v > self._max:
                self._max = v

    # -- consistent reads ----------------------------------------------------

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def min(self) -> float:
        with self._lock:
            return self._min

    @property
    def max(self) -> float:
        with self._lock:
            return self._max

    @property
    def counts(self) -> List[int]:
        with self._lock:
            return list(self._counts)

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def buckets(self) -> Tuple[List[float], List[int], int, float]:
        """Atomic ``(bounds, per-bucket counts, count, sum)`` -- the raw
        state exporters need, read in one lock acquisition."""
        with self._lock:
            return list(self.bounds), list(self._counts), self._count, self._sum

    def _quantile_locked(self, q: float) -> float:
        if not self._count:
            return 0.0
        target = q * self._count
        seen = 0
        for i, c in enumerate(self._counts):
            seen += c
            if seen >= target:
                bound = self.bounds[i] if i < len(self.bounds) else self._max
                return min(bound, self._max)
        return self._max

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the q-quantile observation
        (clamped to the observed max; 0.0 when empty)."""
        with self._lock:
            return self._quantile_locked(q)

    def summary(self) -> Dict[str, float]:
        with self._lock:
            return {
                "count": self._count,
                "mean_s": self._sum / self._count if self._count else 0.0,
                "min_s": self._min if self._count else 0.0,
                "p50_s": self._quantile_locked(0.50),
                "p95_s": self._quantile_locked(0.95),
                "p99_s": self._quantile_locked(0.99),
                "max_s": self._max,
            }


class MetricsRegistry:
    """Thread-safe named metrics with a JSON-dumpable snapshot."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._t0 = time.perf_counter()

    def counter(self, name: str) -> Counter:
        with self._lock:
            return self._counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            return self._gauges.setdefault(name, Gauge())

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            return self._histograms.setdefault(name, Histogram())

    def observe_latency(self, name: str, started_at: float) -> float:
        """Record ``now - started_at`` into histogram ``name``; returns it."""
        dt = time.perf_counter() - started_at
        self.histogram(name).observe(dt)
        return dt

    @property
    def uptime_s(self) -> float:
        return time.perf_counter() - self._t0

    def metrics(self) -> Tuple[Dict[str, Counter], Dict[str, Gauge], Dict[str, Histogram]]:
        """Shallow copies of the metric maps (for exporters; the metric
        objects themselves stay live and thread-safe)."""
        with self._lock:
            return dict(self._counters), dict(self._gauges), dict(self._histograms)

    def snapshot(self) -> Dict[str, dict]:
        with self._lock:
            return {
                "uptime_s": self.uptime_s,
                "counters": {k: c.value for k, c in sorted(self._counters.items())},
                "gauges": {
                    k: {"value": g.value, "max": g.max}
                    for k, g in sorted(self._gauges.items())
                },
                "histograms": {
                    k: h.summary() for k, h in sorted(self._histograms.items())
                },
            }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent)
