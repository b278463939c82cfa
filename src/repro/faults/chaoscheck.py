"""Chaos campaign: drive a real service through injected failure.

``repro chaoscheck`` (CLI) and :func:`run_chaoscheck` (library) stand up
a real :class:`~repro.serve.service.CompressionService` with resilience
enabled, interpose a :class:`~repro.faults.chaos.ChaosWorkerPool` below
the scheduler, and push a seeded request mix through it while workers
hang, crash, dawdle, corrupt results, and stall.  Three behavioral
oracles judge every single request:

* **no-hang** -- the request's future completes within a generous wall
  guard (several deadlines); a future that never resolves is the one
  unacceptable outcome of a resilient system.
* **right-bytes** -- a successful compress returns either bytes
  *bit-identical* to the monolithic codec's output for the same input,
  or a flagged raw-passthrough container that round-trips the input
  exactly; a successful decompress returns the exact expected array.
  Degradation may change *where* work ran, never *what* it produced.
* **classified-failure** -- an unsuccessful request fails with an error
  from the documented taxonomy (`repro.serve.is_classified` or a
  deterministic client error), so callers can always dispatch on type.

Any oracle violation is recorded with enough context to replay (seed,
request index, fault schedule) and fails the campaign.  Zero violations
over a seeded campaign is the serving layer's behavioral contract --
CI runs this on every push (the ``chaos-smoke`` job).
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core import compress as core_compress, decompress as core_decompress
from repro.serve import chunked as _chunked
from repro.serve.pool import WaitTimeout
from repro.serve.resilience import CLIENT_ERRORS, classify_error, is_classified
from repro.serve.service import CompressionService

from .chaos import ChaosConfig, ChaosWorkerPool

__all__ = ["ChaosCheckConfig", "ChaosCheckResult", "run_chaoscheck"]


@dataclass(frozen=True)
class ChaosCheckConfig:
    """Campaign shape: request mix, fault rates, and budgets."""

    seed: int = 0
    requests: int = 500
    deadline_s: float = 0.5
    workers: int = 2
    backend: str = "thread"
    transport: str = "pickle"  # worker transport ("pickle" | "shm")
    hang_rate: float = 0.02
    crash_rate: float = 0.05
    slow_rate: float = 0.10
    corrupt_rate: float = 0.05
    stall_rate: float = 0.05
    inflight: int = 16  # outstanding requests kept in flight
    max_elems: int = 4096  # request payload size cap (float32 elements)
    decompress_frac: float = 0.3  # fraction of requests that decode
    rel: float = 1e-3
    time_budget_s: Optional[float] = None  # stop submitting when exceeded
    hang_guard_s: Optional[float] = None  # default: 4x deadline + 2s

    @property
    def guard_s(self) -> float:
        if self.hang_guard_s is not None:
            return self.hang_guard_s
        return 4.0 * self.deadline_s + 2.0


@dataclass
class ChaosCheckResult:
    """Everything a triage needs: counts, violations, and the event log."""

    config: dict
    requests: int = 0
    successes: int = 0
    raw_successes: int = 0  # served by the raw-passthrough floor
    classified_errors: Dict[str, int] = field(default_factory=dict)
    injected: Dict[str, int] = field(default_factory=dict)
    violations: List[dict] = field(default_factory=list)
    events: List[dict] = field(default_factory=list)
    elapsed_s: float = 0.0
    resilience_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self, indent: int = 2) -> str:
        payload = asdict(self)
        payload["ok"] = self.ok
        return json.dumps(payload, indent=indent)

    def summary(self) -> str:
        errs = sum(self.classified_errors.values())
        lines = [
            f"chaoscheck: {self.requests} requests, "
            f"{self.successes} ok ({self.raw_successes} via raw passthrough), "
            f"{errs} classified failures, {len(self.violations)} violations",
            f"  injected: " + (
                ", ".join(f"{k}={v}" for k, v in sorted(self.injected.items()))
                or "none"
            ),
        ]
        if self.classified_errors:
            lines.append(
                "  errors:   "
                + ", ".join(
                    f"{k}={v}" for k, v in sorted(self.classified_errors.items())
                )
            )
        keys = (
            "resilience.retries", "resilience.degraded.inline",
            "resilience.raw_fallbacks", "resilience.breaker.transitions",
            "pool.watchdog_kills", "pool.worker_crashes",
            "pool.deadline_sheds", "scheduler.deadline_sheds",
        )
        shown = {k: self.resilience_stats[k] for k in keys
                 if self.resilience_stats.get(k)}
        if shown:
            lines.append(
                "  recovery: " + ", ".join(f"{k}={v}" for k, v in shown.items())
            )
        for v in self.violations[:10]:
            lines.append(f"  VIOLATION {v['kind']} @ request {v['index']}: "
                         f"{v['detail']}")
        if len(self.violations) > 10:
            lines.append(f"  ... and {len(self.violations) - 10} more violations")
        lines.append("chaoscheck: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Oracles (one verdict per completed request)
# ---------------------------------------------------------------------------

def _check_compress_result(blob, data: np.ndarray, rel: float) -> Tuple[bool, str]:
    """right-bytes for compress: (is_raw, failure detail or '')."""
    arr = np.asarray(blob)
    if _chunked.is_raw(arr):
        back = _chunked.raw_from_bytes(arr)
        if not (back.shape == data.shape and back.dtype == data.dtype
                and np.array_equal(back, data)):
            return True, "raw passthrough does not round-trip the input exactly"
        return True, ""
    if _chunked.is_chunked(arr):
        stream = _chunked.ChunkedStream.from_bytes(arr)
        got = _chunked.decompress_chunked(arr)
        if any(e.raw for e in stream.manifest.entries):
            # degraded container: raw chunks are exact, compressed chunks
            # are bounded, so the whole decode must respect the bound
            from repro.core.quantize import ErrorBound, validate_input

            eb_abs = ErrorBound.relative(rel).resolve(validate_input(data))
            err = float(np.max(np.abs(got.astype(np.float64) - data)))
            if err > eb_abs * (1.0 + 1e-6):
                return True, (
                    f"degraded container violates the error bound "
                    f"({err:.3e} > {eb_abs:.3e})"
                )
            return True, ""
        # fully compressed container: framing differs from a monolithic
        # stream by design, decode bit-identity is the contract
        want = core_decompress(core_compress(data, rel=rel))
        if not np.array_equal(got, want):
            return False, "chunked container decode differs from monolithic decode"
        return False, ""
    reference = core_compress(data, rel=rel)
    if not np.array_equal(arr, reference):
        return False, (
            f"compressed bytes differ from monolithic codec output "
            f"({arr.size} vs {reference.size} bytes)"
        )
    return False, ""


def _check_decompress_result(out, expected: np.ndarray) -> str:
    got = np.asarray(out)
    if got.shape != expected.shape or got.dtype != expected.dtype:
        return (f"decode shape/dtype mismatch: {got.dtype}{got.shape} vs "
                f"{expected.dtype}{expected.shape}")
    if not np.array_equal(got, expected):
        return "decoded array differs from the expected reconstruction"
    return ""


def _classify(exc: BaseException) -> Tuple[bool, str]:
    """(is part of the documented taxonomy, label)."""
    if is_classified(exc) or isinstance(exc, CLIENT_ERRORS):
        return True, classify_error(exc)
    return False, f"unclassified:{type(exc).__name__}"


# ---------------------------------------------------------------------------
# Campaign driver
# ---------------------------------------------------------------------------

def run_chaoscheck(
    config: Optional[ChaosCheckConfig] = None,
    progress: Optional[Callable[[int, int], None]] = None,
) -> ChaosCheckResult:
    """Run one seeded chaos campaign; see the module docstring for the
    oracles.  Deterministic per ``config.seed`` up to thread timing (the
    *fault schedule* and payloads always replay exactly)."""
    cfg = config if config is not None else ChaosCheckConfig()
    result = ChaosCheckResult(config=asdict(cfg))
    rng = np.random.default_rng(cfg.seed)

    # reference corpus for decode requests, built with the direct codec
    # before any chaos exists
    corpus: List[Tuple[np.ndarray, np.ndarray]] = []  # (blob, expected recon)
    for _ in range(8):
        n = int(rng.integers(256, cfg.max_elems + 1))
        data = rng.standard_normal(n, dtype=np.float32)
        blob = core_compress(data, rel=cfg.rel)
        corpus.append((blob, core_decompress(blob)))

    chaos_cfg = ChaosConfig(
        seed=cfg.seed,
        hang_rate=cfg.hang_rate,
        crash_rate=cfg.crash_rate,
        slow_rate=cfg.slow_rate,
        corrupt_rate=cfg.corrupt_rate,
        stall_rate=cfg.stall_rate,
        hang_s=min(4.0 * cfg.deadline_s, 2.0),
    )
    chaos_pool: List[ChaosWorkerPool] = []

    def wrapper(pool):
        cp = ChaosWorkerPool(pool, chaos_cfg)
        chaos_pool.append(cp)
        return cp

    svc = CompressionService(
        workers=cfg.workers,
        backend=cfg.backend,
        transport=cfg.transport,
        warmup=False,
        deadline_s=cfg.deadline_s,
        max_respawns=8 * cfg.requests,  # chaos burns restarts by design
        breaker_reset_s=max(cfg.deadline_s / 4.0, 0.05),
        pool_wrapper=wrapper,
    )

    t_start = time.perf_counter()
    pending: List[dict] = []  # {"future", "kind", "index", "data"/"expected", "t0"}

    def violation(kind: str, index: int, detail: str, **extra) -> None:
        result.violations.append(
            {"kind": kind, "index": index, "detail": detail, **extra}
        )

    def settle(entry: dict) -> None:
        fut = entry["future"]
        idx = entry["index"]
        event = {"index": idx, "kind": entry["kind"]}
        try:
            value = fut.result(timeout=cfg.guard_s)
        except WaitTimeout:
            fut.cancel()
            event["outcome"] = "hang"
            violation(
                "hang", idx,
                f"{entry['kind']} future unresolved after {cfg.guard_s:.1f}s "
                f"(deadline was {cfg.deadline_s}s)",
            )
            result.events.append(event)
            return
        except BaseException as e:  # noqa: BLE001 - the oracle judges it
            known, label = _classify(e)
            event["outcome"] = "error"
            event["error"] = label
            if known:
                result.classified_errors[label] = (
                    result.classified_errors.get(label, 0) + 1
                )
            else:
                violation("unclassified_error", idx, f"{e!r}")
            result.events.append(event)
            return
        event["elapsed_s"] = round(time.perf_counter() - entry["t0"], 4)
        if entry["kind"] == "compress":
            raw, detail = _check_compress_result(value, entry["data"], cfg.rel)
            if detail:
                event["outcome"] = "wrong_bytes"
                violation("wrong_bytes", idx, detail)
            else:
                event["outcome"] = "ok_raw" if raw else "ok"
                result.successes += 1
                result.raw_successes += int(raw)
        else:
            detail = _check_decompress_result(value, entry["expected"])
            if detail:
                event["outcome"] = "wrong_bytes"
                violation("wrong_bytes", idx, detail)
            else:
                event["outcome"] = "ok"
                result.successes += 1
        result.events.append(event)

    try:
        for i in range(cfg.requests):
            if (
                cfg.time_budget_s is not None
                and time.perf_counter() - t_start > cfg.time_budget_s
            ):
                break
            entry: dict = {"index": i, "t0": time.perf_counter()}
            if rng.random() < cfg.decompress_frac:
                blob, expected = corpus[int(rng.integers(len(corpus)))]
                entry["kind"] = "decompress"
                entry["expected"] = expected
                # cache=False: every decode must take the chaotic path
                entry["future"] = svc.decompress(blob, cache=False)
            else:
                n = int(rng.integers(256, cfg.max_elems + 1))
                data = rng.standard_normal(n, dtype=np.float32)
                entry["kind"] = "compress"
                entry["data"] = data
                entry["future"] = svc.compress(data, rel=cfg.rel)
            pending.append(entry)
            result.requests += 1
            if len(pending) >= cfg.inflight:
                settle(pending.pop(0))
            if progress is not None:
                progress(i + 1, cfg.requests)
        while pending:
            settle(pending.pop(0))
    finally:
        closer = threading.Thread(target=svc.close, daemon=True)
        closer.start()
        closer.join(timeout=max(cfg.guard_s, 10.0))
        if closer.is_alive():
            violation(
                "shutdown_hang", result.requests,
                "service.close() did not return within the guard window",
            )

    result.elapsed_s = round(time.perf_counter() - t_start, 3)
    if chaos_pool:
        injected: Dict[str, int] = {}
        for _, kind in chaos_pool[0].events:
            injected[kind] = injected.get(kind, 0) + 1
        result.injected = injected
    snap = svc.stats.snapshot()
    counters = snap.get("counters", snap)
    result.resilience_stats = {
        k: v for k, v in counters.items()
        if isinstance(v, (int, float))
        and (k.startswith(("resilience.", "chaos.", "scheduler.deadline"))
             or k in ("pool.watchdog_kills", "pool.worker_crashes",
                      "pool.deadline_sheds", "pool.resubmissions"))
    }
    return result
