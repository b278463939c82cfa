"""Split operation wall time across layers from the spans the program emits.

A traced run wraps each benchmark operation in a root span; the program's
own spans (``service.*``, ``scheduler.wait``, ``pool.task.*``, ``chunk.*``,
``codec.*``, ``cache.*``, ``resilience.*``) nest beneath it.
:class:`Breakdown` paints every instant of a root's interval onto exactly
one owner -- the deepest span open at that instant -- so the owned times
of all layers plus the unattributed remainder sum to the operation time,
the way the paper's Fig. 12 splits a kernel into stages.

Two rules refine "deepest span wins":

* A span that only waits (``scheduler.wait``, ``resilience.retry_wait``)
  yields to a working span of the same depth, because with one worker the
  next chunk's queue wait overlaps the current chunk's task.
* An instant of a ``service.*`` span that only the service span or a
  waiting span covers belongs to the pool while one of the request's
  tasks is between dispatch and start, or between end and the next
  service-side event (queue transit, result shipping, the pool manager's
  poll interval; see :func:`_pool_intervals`); otherwise it is the
  service's own time or the wait's.

Worker processes record spans with their own ``perf_counter``.  On Linux
that clock is ``CLOCK_MONOTONIC``, shared by every process on the host,
so adopted worker spans line up with the parent's.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional

MIB = float(1 << 20)

#: codec stages reported one by one (``codec.<stage>`` spans)
STAGES = ("quantize", "predict", "fle", "scan", "pack",
          "verify", "split", "fle_decode", "undiff", "dequantize")
_DECODE_STAGES = {"verify", "split", "fle_decode", "undiff", "dequantize",
                  "fused_decode", "decompress"}
_WAITING = {"scheduler.wait", "resilience.retry_wait"}
_OWNER = {
    "scheduler.wait": "serve.scheduler.wait",
    "resilience.validate": "serve.resilience.validate",
    "resilience.retry_wait": "serve.resilience.retry_wait",
    "cache.get": "serve.cache.get",
    "cache.put": "serve.cache.put",
    "service.compress": "serve.service.compress_self",
    "service.decompress": "serve.service.decompress_self",
}
UNATTRIBUTED = "bench.unattributed"


def _owner_key(name: str) -> str:
    if name.startswith("codec."):
        return "core." + name[len("codec."):]
    if name.startswith("chunk."):
        return "serve.chunked.self"
    if name.startswith("pool.task."):
        return "serve.pool.overhead"  # worker-side task glue
    # the benchmark's own root spans and anything unmapped
    return _OWNER.get(name, UNATTRIBUTED)


def _end(span) -> float:
    return span.t1 if span.t1 is not None else span.t0


def _pool_intervals(service) -> List[tuple]:
    """Intervals of a ``service.*`` span during which its work is inside
    the pool but no worker runs it: from each dispatch (a
    ``scheduler.wait`` ending) to its task's start, and from each task's
    end to the next service-side event (validation, cache fill, the next
    dispatch, or the request's end).  A micro-batch member whose task ran
    under another request's span is in the pool from dispatch to its next
    service-side event."""
    waits = sorted(_end(c) for c in service.children if c.name == "scheduler.wait")
    tasks = [c for c in service.children if c.name.startswith("pool.task.")]
    events = sorted(c.t0 for c in service.children
                    if c.name not in _WAITING and not c.name.startswith("pool.task."))

    def next_event(t: float) -> float:
        later = [e for e in events if e >= t] + [w for w in waits if w > t]
        return min(later, default=_end(service))

    out = []
    for task in tasks:
        dispatched = [w for w in waits if w <= task.t0]
        if dispatched:
            out.append((dispatched[-1], task.t0))
        out.append((_end(task), next_event(_end(task))))
    if not tasks:
        out += [(w, next_event(w)) for w in waits]
    return out


class Breakdown:
    """Exclusive seconds per layer over a set of root spans, plus the
    span counts the per-layer table needs."""

    def __init__(self):
        self.owned: Dict[str, float] = defaultdict(float)
        self.core_dir: Dict[str, float] = defaultdict(float)
        self.root_s = 0.0
        self.core_calls = 0
        self.core_bytes_in = 0
        self.pool_busy_s = 0.0

    def add(self, roots: Iterable) -> "Breakdown":
        for root in roots:
            self._add_root(root)
        return self

    def _add_root(self, root) -> None:
        flat: List[tuple] = []  # (span, depth, direction, pool intervals)

        def visit(span, depth, direction, in_pool):
            if span.name == "codec.compress":
                direction = "compress"
            elif span.name == "codec.decompress":
                direction = "decompress"
            if span.name.startswith("codec."):
                if span.name in ("codec.compress", "codec.decompress"):
                    self.core_calls += 1
                    self.core_bytes_in += int(span.attrs.get("bytes_in", 0))
                if direction is None:
                    stage = span.name[len("codec."):]
                    direction = "decompress" if stage in _DECODE_STAGES else "compress"
            if span.name.startswith("pool.task."):
                self.pool_busy_s += _end(span) - span.t0
            if span.name.startswith("service."):
                in_pool = _pool_intervals(span)
            flat.append((span, depth, direction, in_pool))
            for c in span.children:
                visit(c, depth + 1, direction, in_pool)

        visit(root, 0, None, ())
        lo, hi = root.t0, _end(root)
        self.root_s += hi - lo
        events = []
        for i, (span, _, _, _) in enumerate(flat):
            t0, t1 = max(span.t0, lo), min(_end(span), hi)
            if t1 > t0:
                events.append((t0, 1, i))
                events.append((t1, 0, i))
        events.sort()
        active: set = set()
        prev = lo
        for t, is_start, i in events:
            if t > prev and active:
                self._paint(flat, active, prev, t)
            prev = max(prev, t)
            if is_start:
                active.add(i)
            else:
                active.discard(i)

    def _paint(self, flat, active, a: float, b: float) -> None:
        i = max(active, key=lambda j: (flat[j][1], flat[j][0].name not in _WAITING))
        span, _, direction, in_pool = flat[i]
        key = _owner_key(span.name)
        if (span.name.startswith("service.") or span.name in _WAITING) and any(
                lo <= a and b <= hi for lo, hi in in_pool):
            key = "serve.pool.overhead"
        self.owned[key] += b - a
        if key.startswith("core."):
            self.core_dir[direction] += b - a

    # -- transport between processes ----------------------------------------

    def to_dict(self) -> dict:
        return {
            "owned": dict(self.owned), "core_dir": dict(self.core_dir),
            "root_s": self.root_s,
            "core_calls": self.core_calls, "core_bytes_in": self.core_bytes_in,
            "pool_busy_s": self.pool_busy_s,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Breakdown":
        b = cls()
        b.owned.update(d["owned"])
        b.core_dir.update(d["core_dir"])
        for k in ("root_s", "core_calls", "core_bytes_in", "pool_busy_s"):
            setattr(b, k, d[k])
        return b


#: gauges the per-layer table reads: a running total (fallbacks) and a
#: lifetime ratio that is read as-is, not differenced (utilization)
_GAUGES = ("pool.transport.fallbacks", "pool.utilization")
_LATEST = {"pool.utilization"}


def counters_of(snapshot: Optional[dict]) -> Dict[str, float]:
    """Flatten a ``stats_snapshot()`` / ``MetricsRegistry.snapshot()`` into
    ``{name: value}``: its counters, the service's decode-cache totals as
    ``cache.*``, and the gauges the per-layer table reads."""
    if not snapshot:
        return {}
    out = dict(snapshot.get("counters", {}))
    gauges = snapshot.get("gauges", {})
    out.update({k: gauges[k]["value"] for k in _GAUGES if k in gauges})
    for k in ("hits", "misses", "evictions"):
        if k in snapshot.get("cache", {}):
            out[f"cache.{k}"] = snapshot["cache"][k]
    return out


def delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    """Increments between two :func:`counters_of` results."""
    return {k: v if k in _LATEST else v - before.get(k, 0.0) for k, v in after.items()}


def per_layer(b: Breakdown, op_s: float, ops: int, counters: Dict[str, float],
              trace_overhead: float, http_overhead_s: float = 0.0,
              unattributed_extra_s: float = 0.0) -> Dict[str, float]:
    """Every ``spec.PER_LAYER`` metric from a traced phase.

    ``op_s`` is the summed wall time of the phase's operations and ``ops``
    their count; ``counters`` holds the phase's counter increments."""
    c = lambda name: float(counters.get(name, 0.0))  # noqa: E731
    frac = lambda s: s / op_s if op_s > 0 else 0.0  # noqa: E731
    per_op = lambda n: n / ops if ops else 0.0  # noqa: E731
    own = b.owned
    m = {
        "core.compress_frac": frac(b.core_dir.get("compress", 0.0)),
        "core.decompress_frac": frac(b.core_dir.get("decompress", 0.0)),
    }
    for stage in STAGES:
        m[f"core.{stage}_frac"] = frac(own.get(f"core.{stage}", 0.0))
    dispatch = c("pool.transport.dispatch_pickled_bytes") + c("pool.transport.dispatch_shm_bytes")
    result = c("pool.transport.result_pickled_bytes") + c("pool.transport.result_shm_bytes")
    shm = c("pool.transport.dispatch_shm_bytes") + c("pool.transport.result_shm_bytes")
    hits, misses = c("cache.hits"), c("cache.misses")
    batches = c("scheduler.batches")
    m.update({
        "core.calls_per_op": per_op(b.core_calls),
        "core.MiB_in_per_op": per_op(b.core_bytes_in / MIB),
        "serve.service.compress_self_frac": frac(own.get("serve.service.compress_self", 0.0)),
        "serve.service.decompress_self_frac": frac(own.get("serve.service.decompress_self", 0.0)),
        "serve.chunked.self_frac": frac(own.get("serve.chunked.self", 0.0)),
        "serve.service.requests_per_op": per_op(c("service.requests")),
        "serve.scheduler.wait_frac": frac(own.get("serve.scheduler.wait", 0.0)),
        "serve.scheduler.dispatches_per_op": per_op(c("scheduler.dispatches")),
        "serve.scheduler.batches_per_op": per_op(batches),
        "serve.scheduler.batched_requests_per_op": per_op(c("scheduler.batched_requests")),
        "serve.scheduler.batch_fill": c("scheduler.batched_requests") / batches if batches else 0.0,
        "serve.pool.overhead_frac": frac(own.get("serve.pool.overhead", 0.0)),
        "serve.pool.busy_frac": frac(b.pool_busy_s),
        "serve.pool.tasks_per_op": per_op(c("pool.tasks")),
        "serve.pool.dispatch_MiB_per_op": per_op(dispatch / MIB),
        "serve.pool.result_MiB_per_op": per_op(result / MIB),
        "serve.pool.shm_bytes_frac": shm / (dispatch + result) if dispatch + result else 0.0,
        "serve.pool.transport_fallbacks": c("pool.transport.fallbacks"),
        "serve.pool.task_errors": c("pool.task_errors"),
        "serve.pool.resubmissions": c("pool.resubmissions"),
        "serve.pool.utilization": c("pool.utilization"),
        "serve.resilience.validate_frac": frac(own.get("serve.resilience.validate", 0.0)),
        "serve.resilience.retry_wait_frac": frac(own.get("serve.resilience.retry_wait", 0.0)),
        "serve.resilience.retries": c("resilience.retries"),
        "serve.resilience.raw_fallbacks": c("resilience.raw_fallbacks"),
        "serve.resilience.inline_tasks": c("resilience.inline_tasks"),
        "serve.cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "serve.cache.hits_per_op": per_op(hits),
        "serve.cache.misses_per_op": per_op(misses),
        "serve.cache.evictions_per_op": per_op(c("cache.evictions")),
        "serve.cache.get_frac": frac(own.get("serve.cache.get", 0.0)),
        "serve.cache.put_frac": frac(own.get("serve.cache.put", 0.0)),
        "serve.http.overhead_frac": frac(http_overhead_s),
        "serve.http.requests_per_op": per_op(c("http.requests")),
        "serve.http.rejects": sum(v for k, v in counters.items()
                                  if k in ("http.admission_rejects", "http.quota_rejects",
                                           "http.deadline_sheds")
                                  or (k.startswith("http.status.") and k != "http.status.200")),
        "bench.unattributed_frac": frac(own.get(UNATTRIBUTED, 0.0) + unattributed_extra_s),
        "bench.trace_overhead": trace_overhead,
    })
    return m
