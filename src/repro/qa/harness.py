"""The fuzzing campaign loop behind ``repro fuzz`` and CI's fuzz-smoke.

A campaign is ``(seed, iters, paths)``: iteration ``i`` draws case
``draw_case(seed, i)`` and runs every applicable selected oracle on it.
Failures are shrunk (:mod:`repro.qa.shrink`), persisted
(:mod:`repro.qa.corpus`) and collected into the report; the campaign
stops early after ``max_failures`` distinct failures or when the time
budget runs out, and the report records exactly how far it got so a rerun
with the same seed retraces the identical trajectory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .corpus import save_failure
from .generators import draw_case
from .oracles import ORACLES, OracleContext, OracleFailure, applicable_oracles
from .shrink import shrink_case


@dataclass(frozen=True)
class FuzzConfig:
    """Everything that determines a campaign (and its replay)."""

    seed: int = 0
    iters: int = 200
    paths: Tuple[str, ...] = tuple(ORACLES)
    time_budget: Optional[float] = None  # seconds; None = unbounded
    corpus_dir: Optional[str] = None  # where shrunk failures are written
    shrink: bool = True
    max_failures: int = 5
    workers: int = 0  # >0: differential worker-pool checks on the chunked path

    def __post_init__(self):
        for p in self.paths:
            if p not in ORACLES:
                raise ValueError(
                    f"unknown path {p!r}; choose from {sorted(ORACLES)}"
                )


@dataclass
class FuzzFailure:
    """One confirmed invariant violation (post-shrink)."""

    oracle: str
    family: str
    index: int
    detail: str
    original_size: int
    shrunk_size: int
    corpus_path: Optional[str] = None


@dataclass
class FuzzReport:
    """Campaign outcome: counts per family/oracle plus every failure."""

    config: FuzzConfig
    iterations: int = 0
    checks: int = 0
    by_family: Dict[str, int] = field(default_factory=dict)
    by_oracle: Dict[str, int] = field(default_factory=dict)
    failures: List[FuzzFailure] = field(default_factory=list)
    elapsed: float = 0.0
    stopped_early: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"fuzz campaign: seed={self.config.seed} "
            f"iterations={self.iterations}/{self.config.iters} "
            f"oracle-checks={self.checks} elapsed={self.elapsed:.1f}s"
        ]
        fams = ", ".join(f"{k}:{v}" for k, v in sorted(self.by_family.items()))
        orcs = ", ".join(f"{k}:{v}" for k, v in sorted(self.by_oracle.items()))
        lines.append(f"  families: {fams}")
        lines.append(f"  oracles:  {orcs}")
        if self.stopped_early:
            lines.append(f"  stopped early: {self.stopped_early}")
        for f in self.failures:
            lines.append(
                f"  FAIL [{f.oracle}] {f.family} i={f.index}: {f.detail.splitlines()[0]}"
            )
            lines.append(
                f"       shrunk {f.original_size} -> {f.shrunk_size} elements"
                + (f"; saved to {f.corpus_path}" if f.corpus_path else "")
            )
        lines.append("FUZZ " + ("PASSED" if self.ok else "FAILED"))
        return "\n".join(lines)


def run_fuzz(cfg: FuzzConfig) -> FuzzReport:
    """Run a campaign; deterministic given ``cfg`` (wall-clock budget aside)."""
    report = FuzzReport(config=cfg)
    t0 = time.monotonic()
    deadline = t0 + cfg.time_budget if cfg.time_budget else None

    pool = None
    shm_pool = None
    ctx = OracleContext()
    try:
        if cfg.workers > 0 and "chunked" in cfg.paths:
            from ..serve.pool import WorkerPool

            pool = WorkerPool(nworkers=cfg.workers, backend="thread")
            pool.wait_ready()
            ctx.pool = pool
        if "serve_shm" in cfg.paths:
            from ..serve.pool import WorkerPool

            shm_pool = WorkerPool(
                nworkers=max(cfg.workers, 2), backend="process",
                transport="shm", warmup=False,
                shm_min_bytes=1,  # even tiny fuzz payloads ride descriptors
            )
            shm_pool.wait_ready()
            ctx.shm_pool = shm_pool

        for i in range(cfg.iters):
            if deadline is not None and time.monotonic() > deadline:
                report.stopped_early = f"time budget ({cfg.time_budget:g}s) exhausted"
                break
            if len(report.failures) >= cfg.max_failures:
                report.stopped_early = f"max_failures ({cfg.max_failures}) reached"
                break
            case = draw_case(cfg.seed, i)
            report.iterations += 1
            report.by_family[case.family] = report.by_family.get(case.family, 0) + 1
            for oname in applicable_oracles(case, cfg.paths):
                report.by_oracle[oname] = report.by_oracle.get(oname, 0) + 1
                report.checks += 1
                try:
                    ORACLES[oname](case, ctx)
                except OracleFailure as failure:
                    report.failures.append(
                        _handle_failure(case, oname, failure, cfg)
                    )
                    break  # later oracles on the same case would re-report it
    finally:
        if pool is not None:
            pool.shutdown()
        if shm_pool is not None:
            shm_pool.shutdown()
    report.elapsed = time.monotonic() - t0
    return report


def _handle_failure(
    case, oracle_name: str, failure: OracleFailure, cfg: FuzzConfig
) -> FuzzFailure:
    original_size = int(case.data.size)
    corpus_path = None
    if cfg.shrink:
        shrunk = shrink_case(case, ORACLES[oracle_name], failure)
        case, failure = shrunk.case, shrunk.failure
        shrunk_size = shrunk.shrunk_size
    else:
        shrunk_size = original_size
    if cfg.corpus_dir:
        corpus_path = str(save_failure(case, failure, cfg.corpus_dir))
    return FuzzFailure(
        oracle=oracle_name,
        family=case.family,
        index=case.index,
        detail=failure.detail,
        original_size=original_size,
        shrunk_size=shrunk_size,
        corpus_path=corpus_path,
    )


def smoke_campaign(
    seed: int = 0,
    iters: int = 30,
    paths: Optional[Sequence[str]] = None,
) -> FuzzReport:
    """The small fixed campaign CI runs under the ``qa`` marker."""
    return run_fuzz(
        FuzzConfig(seed=seed, iters=iters, paths=tuple(paths or ORACLES))
    )
