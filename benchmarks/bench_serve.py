"""E-SERVE: service throughput across workers x backend x transport.

Standalone (no pytest).  Runs the closed-loop serve-bench campaign over a
1/2/4/8-worker matrix of thread/pickle, process/pickle and process/shm on
a 64 MiB Miranda field and writes ``benchmarks/results/BENCH_serve.json``
(shm needs process workers; the committed file predates that and still
holds thread/shm cells).  Each cell records wall time, throughput, and
the per-stage transport byte split (dispatch/result x shm/pickled, plus
fallback count), so the file shows exactly how much payload the shm
descriptors took off the pickled pool boundary.

cuSZp2's headline on GPU comes from eliminating data movement (one fused
pass instead of repeated global-memory round trips); the shm transport is
the serving-layer analogue -- chunk payloads stay in shared segments and
only descriptors cross the process boundary.  On a multi-core host the
4-worker process/shm cell should beat the committed process/pickle
scaling factor; on a 1-core host the file documents that baseline
honestly (see ``cpu_count``).

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py
    PYTHONPATH=src python benchmarks/bench_serve.py --quick
    PYTHONPATH=src python benchmarks/bench_serve.py \
        --quick --check benchmarks/results/BENCH_serve.json

``--quick`` shrinks the field to 8 MiB and the matrix to the CI smoke
cells (1 and 4 process workers, both transports).  ``--check`` compares
each transport's 4-worker process throughput against the committed
file's per-transport ``ci_reference`` (quick mode) or matrix cell (full
mode) and exits non-zero on a >30% regression.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.serve.bench import BenchConfig, run_serve_bench  # noqa: E402

#: the pre-shm baseline this file existed to beat: 4 process workers over
#: the pickled transport reached 1.462x over 1 worker (1-core recording host)
PICKLE_BASELINE_SPEEDUP = 1.462

REGRESSION_FLOOR = 0.70

WORKER_COUNTS = (1, 2, 4, 8)
BACKENDS = ("thread", "process")
TRANSPORTS = ("pickle", "shm")

FULL_MB = 64.0
QUICK_MB = 8.0
CHUNK_MB_FULL = 8.0
CHUNK_MB_QUICK = 1.0
REQUESTS = 4

#: the cell whose throughput is tracked by the regression gate
HEADLINE_WORKERS = 4
HEADLINE_BACKEND = "process"


def run_cell(workers: int, backend: str, transport: str,
             size_mb: float, chunk_mb: float) -> dict:
    rep = run_serve_bench(
        BenchConfig(
            size_mb=size_mb,
            workers=workers,
            backend=backend,
            transport=transport,
            requests=REQUESTS,
            clients=2,
            chunk_mb=chunk_mb,
            distinct=2,
            dataset="Miranda",  # registry data, not synthetic noise
        )
    )
    cell = {
        "workers": workers,
        "backend": backend,
        "transport": transport,
        "wall_s": round(rep["wall_s"], 3),
        "throughput_mbs": round(rep["throughput_mbs"], 2),
        "chunks_per_request": rep["chunks_per_request"],
        "transport_bytes": {
            k: int(v) for k, v in rep["transport_bytes"].items()
        },
        "errors": rep["errors"],
    }
    tb = cell["transport_bytes"]
    print(
        f"{backend:8s} {transport:7s} workers={workers}  "
        f"wall {cell['wall_s']:7.2f}s  {cell['throughput_mbs']:7.1f} MB/s  "
        f"shm {tb['dispatch_shm'] + tb['result_shm']:>12d} B  "
        f"pickled {tb['dispatch_pickled'] + tb['result_pickled']:>12d} B"
    )
    return cell


def _find(cells, workers, backend, transport):
    for c in cells:
        if (c["workers"], c["backend"], c["transport"]) == (
            workers, backend, transport
        ):
            return c
    return None


def scaling_summary(cells) -> dict:
    """Per (backend, transport): throughput by worker count + 4/1 speedup."""
    out = {}
    for backend in BACKENDS:
        for transport in TRANSPORTS:
            series = {
                str(w): c["wall_s"]
                for w in WORKER_COUNTS
                if (c := _find(cells, w, backend, transport)) is not None
            }
            if not series:
                continue
            entry = {"wall_s_by_workers": series}
            one = _find(cells, 1, backend, transport)
            four = _find(cells, 4, backend, transport)
            if one and four and four["wall_s"]:
                entry["speedup_4_over_1"] = round(
                    one["wall_s"] / four["wall_s"], 3
                )
            out[f"{backend}/{transport}"] = entry
    return out


def _headline(cells, transport):
    return _find(cells, HEADLINE_WORKERS, HEADLINE_BACKEND, transport)


def check_regression(report: dict, baseline_path: str) -> int:
    ref = json.loads(Path(baseline_path).read_text())
    rc = 0
    for transport in TRANSPORTS:
        head = _headline(report["matrix"], transport)
        if head is None:
            continue
        if report["quick"]:
            ref_head = (ref.get("ci_reference") or {}).get(transport)
        else:
            ref_head = _headline(ref.get("matrix", []), transport)
        if not ref_head:
            print(
                f"{transport}: no committed reference; measured "
                f"{head['throughput_mbs']:.1f} MB/s (not gated)"
            )
            continue
        got = head["throughput_mbs"]
        floor = REGRESSION_FLOOR * ref_head["throughput_mbs"]
        if got < floor:
            print(
                f"REGRESSION [{transport}]: {HEADLINE_WORKERS}-worker "
                f"{HEADLINE_BACKEND} throughput {got:.1f} MB/s is below "
                f"{REGRESSION_FLOOR:.0%} of the committed "
                f"{ref_head['throughput_mbs']:.1f} MB/s (floor {floor:.1f})"
            )
            rc = 1
        else:
            print(
                f"regression check OK [{transport}]: {got:.1f} MB/s >= "
                f"{floor:.1f} MB/s ({REGRESSION_FLOOR:.0%} of committed "
                f"{ref_head['throughput_mbs']:.1f})"
            )
    return rc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="8 MiB field, CI smoke cells only")
    ap.add_argument(
        "--out",
        default=str(Path(__file__).parent / "results" / "BENCH_serve.json"),
    )
    ap.add_argument(
        "--check",
        metavar="BASELINE_JSON",
        help="exit non-zero if headline throughput regresses >30%% vs this file",
    )
    args = ap.parse_args(argv)

    size_mb = QUICK_MB if args.quick else FULL_MB
    chunk_mb = CHUNK_MB_QUICK if args.quick else CHUNK_MB_FULL
    if args.quick:
        grid = [(w, HEADLINE_BACKEND, t)
                for t in TRANSPORTS for w in (1, HEADLINE_WORKERS)]
    else:
        grid = [(w, b, t)
                for b in BACKENDS for t in TRANSPORTS for w in WORKER_COUNTS
                if (b, t) != ("thread", "shm")]

    cells = [run_cell(w, b, t, size_mb, chunk_mb) for (w, b, t) in grid]
    bad = [c for c in cells if c["errors"]]
    if bad:
        for c in bad:
            print(f"ERRORS in {c['backend']}/{c['transport']} "
                  f"workers={c['workers']}: {c['errors']}")
        return 1

    report = {
        "generated_by": "benchmarks/bench_serve.py",
        "quick": bool(args.quick),
        "cpu_count": os.cpu_count(),
        "field_mb": size_mb,
        "chunk_mb": chunk_mb,
        "requests": REQUESTS,
        "matrix": cells,
        "scaling": scaling_summary(cells),
        "pickle_baseline_speedup_4_over_1": PICKLE_BASELINE_SPEEDUP,
        "shm_speedup_over_pickle": {
            f"{b}/{w}w": round(p["wall_s"] / s["wall_s"], 3)
            for b in BACKENDS
            for w in WORKER_COUNTS
            if (p := _find(cells, w, b, "pickle"))
            and (s := _find(cells, w, b, "shm"))
            and s["wall_s"]
        },
        "note": (
            "speedup_4_over_1 requires >= 4 cores to show real scaling; on "
            "smaller hosts this file is an honest single-core baseline (see "
            "cpu_count).  transport_bytes splits payload traffic into shm "
            "descriptors vs pickled queue bytes per stage."
        ),
    }
    if not args.quick:
        # quick-mode reference measured in the same run so CI smoke runs
        # have an apples-to-apples, per-transport number to regress against
        print("-- ci reference (quick field) --")
        report["ci_reference"] = {}
        for transport in TRANSPORTS:
            cell = run_cell(HEADLINE_WORKERS, HEADLINE_BACKEND, transport,
                            QUICK_MB, CHUNK_MB_QUICK)
            if cell["errors"]:
                print(f"ERRORS in ci_reference/{transport}: {cell['errors']}")
                return 1
            report["ci_reference"][transport] = {
                "field_mb": QUICK_MB,
                "workers": HEADLINE_WORKERS,
                "backend": HEADLINE_BACKEND,
                "throughput_mbs": cell["throughput_mbs"],
                "wall_s": cell["wall_s"],
            }

    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")
    for key, entry in report["scaling"].items():
        if "speedup_4_over_1" in entry:
            print(f"scaling {key}: {entry['speedup_4_over_1']:.3f}x "
                  f"(pickled baseline {PICKLE_BASELINE_SPEEDUP}x)")
    if args.check:
        return check_regression(report, args.check)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
