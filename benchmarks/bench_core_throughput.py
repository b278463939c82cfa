"""Core codec throughput benchmark (standalone, no pytest).

Measures wall-clock compress/decompress throughput of the codec over the
full ``mode x dtype x predictor_ndim`` matrix on a 64 MiB Miranda field,
and writes ``benchmarks/results/BENCH_core.json``.  The headline
configuration (outlier mode, float32, 1-D predictor) is the one tracked
against the recorded pre-vectorization baseline of 72 MiB/s compress /
60 MiB/s decompress.

Usage::

    PYTHONPATH=src python benchmarks/bench_core_throughput.py
    PYTHONPATH=src python benchmarks/bench_core_throughput.py --quick
    PYTHONPATH=src python benchmarks/bench_core_throughput.py \
        --quick --check benchmarks/results/BENCH_core.json

``--quick`` shrinks the field to 4 MiB for CI smoke runs.  ``--check``
compares the run's headline compress and decompress throughput against a
previously committed results file (the quick run compares against that
file's ``ci_reference`` section, measured with ``--quick`` on the same
machine that produced the full numbers) and exits non-zero when either
drops by more than 30%.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import compress, decompress  # noqa: E402
from repro.datasets import get_dataset  # noqa: E402

#: pre-rewrite kernel throughput on the 64 MiB float32 field (MiB/s)
BASELINE = {"compress_MiBps": 72.0, "decompress_MiBps": 60.0}

#: CI fails when compress or decompress throughput drops below this
#: fraction of the committed reference
REGRESSION_FLOOR = 0.70

#: The headline metrics ``--check`` gates, each against its own reference.
GATED = ("compress_MiBps", "decompress_MiBps")

FULL_ELEMS = 1 << 24  # 16M float32 = 64 MiB
QUICK_ELEMS = 1 << 20  # 1M float32 = 4 MiB

HEADLINE = ("outlier", "float32", 1)

#: The key the codec's one kernel path has in the results schema
#: (``ci_reference``, ``headline_by_backend``), so reports and the committed
#: BENCH_core.json compare.
PATH = "numpy"


def make_field(nelems: int) -> np.ndarray:
    """A Miranda turbulence field replicated to exactly ``nelems`` floats."""
    f = get_dataset("Miranda").fields[0]
    scale = 1
    while int(np.prod((f.shape[0] * scale,) + tuple(f.shape[1:]))) < nelems:
        scale *= 2
    return f.generate(np.dtype(np.float32), scale=scale).reshape(-1)[:nelems].copy()


def shape_for(nelems: int, ndim: int):
    """Split ``nelems`` (a power of two) into an ``ndim``-cube-ish shape."""
    k = nelems.bit_length() - 1
    exps = [k // ndim + (1 if i < k % ndim else 0) for i in range(ndim)]
    return tuple(1 << e for e in exps)


def bench_one(data: np.ndarray, mode: str, ndim: int, block: int, repeats: int) -> dict:
    mib = data.nbytes / 2**20
    kw = dict(rel=1e-3, mode=mode, predictor_ndim=ndim, block=block)
    buf = compress(data, **kw)  # warmup
    decompress(buf)
    best_c = best_d = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        buf = compress(data, **kw)
        best_c = min(best_c, time.perf_counter() - t0)
        t0 = time.perf_counter()
        out = decompress(buf)
        best_d = min(best_d, time.perf_counter() - t0)
    assert out.nbytes == data.nbytes, "roundtrip size mismatch"
    return {
        "mode": mode,
        "dtype": str(data.dtype),
        "predictor_ndim": ndim,
        "block": block,
        "field_MiB": round(mib, 2),
        "compress_MiBps": round(mib / best_c, 1),
        "decompress_MiBps": round(mib / best_d, 1),
        "ratio": round(data.nbytes / buf.size, 2),
    }


def run_matrix(nelems: int, repeats: int) -> list:
    base = make_field(nelems)
    results = []
    for dtype in (np.float32, np.float64):
        field = base if dtype is np.float32 else base.astype(np.float64)
        for ndim in (1, 2, 3):
            block = 32 if ndim == 1 else 64  # 8x8 / 4x4x4 tiles need 64
            data = field if ndim == 1 else field.reshape(shape_for(nelems, ndim))
            for mode in ("plain", "outlier"):
                reps = repeats + 2 if (mode, str(np.dtype(dtype)), ndim) == HEADLINE else repeats
                r = bench_one(data, mode, ndim, block, reps)
                results.append(r)
                print(
                    f"{mode:8s} {r['dtype']:8s} ndim={ndim}  "
                    f"compress {r['compress_MiBps']:7.1f} MiB/s  "
                    f"decompress {r['decompress_MiBps']:7.1f} MiB/s  "
                    f"ratio {r['ratio']:.2f}"
                )
    return results


def headline_of(results: list) -> dict:
    [h] = [r for r in results if (r["mode"], r["dtype"], r["predictor_ndim"]) == HEADLINE]
    return h


def _reference_headline(ref: dict, quick: bool) -> dict:
    """The headline row of a committed results file: ``ci_reference["numpy"]``
    for a quick run (a flat pre-registry ``ci_reference`` is that row
    itself), else the full-field headline result."""
    if quick:
        ci = ref.get("ci_reference") or {}
        return ci if "compress_MiBps" in ci else ci.get(PATH, {})
    return headline_of(ref["results"])


def check_regression(report: dict, baseline_path: str) -> int:
    ref_head = _reference_headline(json.loads(Path(baseline_path).read_text()), report["quick"])
    head = report["headline_by_backend"][PATH]
    rc = 0
    for metric in GATED:
        direction = metric.split("_")[0]
        got = head[metric]
        if metric not in ref_head:
            print(f"no committed {direction} reference; measured {got:.1f} MiB/s (not gated)")
            continue
        floor = REGRESSION_FLOOR * ref_head[metric]
        if got < floor:
            print(
                f"REGRESSION: headline {direction} {got:.1f} MiB/s "
                f"is below {REGRESSION_FLOOR:.0%} of the committed baseline "
                f"{ref_head[metric]:.1f} MiB/s (floor {floor:.1f})"
            )
            rc = 1
        else:
            print(
                f"regression check OK {direction}: {got:.1f} MiB/s >= "
                f"{floor:.1f} MiB/s ({REGRESSION_FLOOR:.0%} of committed "
                f"{ref_head[metric]:.1f})"
            )
    return rc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true", help="4 MiB field (CI smoke)")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument(
        "--out",
        default=str(Path(__file__).parent / "results" / "BENCH_core.json"),
    )
    ap.add_argument(
        "--check",
        metavar="BASELINE_JSON",
        help="exit non-zero if headline compress or decompress regresses >30%% "
        "vs this file",
    )
    args = ap.parse_args(argv)

    nelems = QUICK_ELEMS if args.quick else FULL_ELEMS
    results = run_matrix(nelems, args.repeats)
    head = headline_of(results)
    report = {
        "generated_by": "benchmarks/bench_core_throughput.py",
        "numpy": np.__version__,
        "quick": bool(args.quick),
        "cpu_count": __import__("os").cpu_count(),
        "field": {"dataset": "Miranda", "elements": nelems},
        "repeats": args.repeats,
        "results": results,
        "headline": head,
        "headline_by_backend": {PATH: head},
        "baseline": dict(
            BASELINE, note="pre-vectorization kernels, 64 MiB float32 Miranda field"
        ),
        "speedup": {
            "compress": round(head["compress_MiBps"] / BASELINE["compress_MiBps"], 2),
            "decompress": round(
                head["decompress_MiBps"] / BASELINE["decompress_MiBps"], 2
            ),
        },
    }
    if not args.quick:
        # quick-mode reference measured in the same run so CI smoke runs
        # have an apples-to-apples number to regress against
        print("-- ci reference (quick field) --")
        qh = headline_of(run_matrix(QUICK_ELEMS, args.repeats))
        report["ci_reference"] = {
            PATH: {
                "elements": QUICK_ELEMS,
                "compress_MiBps": qh["compress_MiBps"],
                "decompress_MiBps": qh["decompress_MiBps"],
            }
        }

    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")
    print(
        f"headline: compress {head['compress_MiBps']:.1f} MiB/s "
        f"({report['speedup']['compress']:.2f}x baseline), "
        f"decompress {head['decompress_MiBps']:.1f} MiB/s "
        f"({report['speedup']['decompress']:.2f}x baseline)"
    )
    if args.check:
        return check_regression(report, args.check)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
