"""Core codec throughput benchmark (standalone, no pytest).

Measures wall-clock compress/decompress throughput of every benchmarkable
kernel backend over the full ``mode x dtype x predictor_ndim`` matrix on a
64 MiB Miranda field, and writes ``benchmarks/results/BENCH_core.json``.
The headline configuration (outlier mode, float32, 1-D predictor, numpy
backend) is the one tracked against the recorded pre-vectorization
baseline of 72 MiB/s compress / 60 MiB/s decompress.

Backends come from the :mod:`repro.core.backends` registry.  The
``fused-python`` backend is excluded (it is the byte-identity test vehicle
for the fused kernels, ~1000x too slow to benchmark); ``numba`` is benched
only where numba is installed, and its results are recorded under its own
key so the regression gate only ever compares a backend against itself.

Usage::

    PYTHONPATH=src python benchmarks/bench_core_throughput.py
    PYTHONPATH=src python benchmarks/bench_core_throughput.py --quick
    PYTHONPATH=src python benchmarks/bench_core_throughput.py \
        --quick --check benchmarks/results/BENCH_core.json

``--quick`` shrinks the field to 4 MiB for CI smoke runs.  ``--check``
compares the run's per-backend headline compress and decompress
throughput against a previously committed results file (the quick run
compares against that file's per-backend ``ci_reference`` section,
measured with ``--quick`` on the same machine that produced the full
numbers) and exits non-zero when either drops by more than 30%.  A
backend absent from the reference (e.g. numba on a host where the
committed file was recorded without it) is reported but never gated.
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
from repro.core.backends import available_backends  # noqa: E402
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

#: Registered backends that are never benchmarked: the pure-Python fused
#: kernels exist to keep the fused algorithm under byte-identity test on
#: hosts without numba, not to move bytes.
UNBENCHABLE = {"fused-python"}


def bench_backends() -> list:
    return [b for b in available_backends() if b not in UNBENCHABLE]


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


def bench_one(
    data: np.ndarray, mode: str, ndim: int, block: int, repeats: int,
    backend: str = "numpy",
) -> dict:
    mib = data.nbytes / 2**20
    kw = dict(rel=1e-3, mode=mode, predictor_ndim=ndim, block=block,
              kernel_backend=backend)
    buf = compress(data, **kw)  # warmup (includes any JIT compilation)
    decompress(buf, kernel_backend=backend)
    best_c = best_d = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        buf = compress(data, **kw)
        best_c = min(best_c, time.perf_counter() - t0)
        t0 = time.perf_counter()
        out = decompress(buf, kernel_backend=backend)
        best_d = min(best_d, time.perf_counter() - t0)
    assert out.nbytes == data.nbytes, "roundtrip size mismatch"
    return {
        "kernel_backend": backend,
        "mode": mode,
        "dtype": str(data.dtype),
        "predictor_ndim": ndim,
        "block": block,
        "field_MiB": round(mib, 2),
        "compress_MiBps": round(mib / best_c, 1),
        "decompress_MiBps": round(mib / best_d, 1),
        "ratio": round(data.nbytes / buf.size, 2),
    }


def run_matrix(nelems: int, repeats: int, backend: str = "numpy") -> list:
    base = make_field(nelems)
    results = []
    for dtype in (np.float32, np.float64):
        field = base if dtype is np.float32 else base.astype(np.float64)
        for ndim in (1, 2, 3):
            block = 32 if ndim == 1 else 64  # 8x8 / 4x4x4 tiles need 64
            data = field if ndim == 1 else field.reshape(shape_for(nelems, ndim))
            for mode in ("plain", "outlier"):
                reps = repeats + 2 if (mode, str(np.dtype(dtype)), ndim) == HEADLINE else repeats
                r = bench_one(data, mode, ndim, block, reps, backend)
                results.append(r)
                print(
                    f"{backend:8s} {mode:8s} {r['dtype']:8s} ndim={ndim}  "
                    f"compress {r['compress_MiBps']:7.1f} MiB/s  "
                    f"decompress {r['decompress_MiBps']:7.1f} MiB/s  "
                    f"ratio {r['ratio']:.2f}"
                )
    return results


def headline_of(results: list, backend: str = "numpy") -> dict:
    [h] = [
        r
        for r in results
        if (r["mode"], r["dtype"], r["predictor_ndim"]) == HEADLINE
        and r.get("kernel_backend", "numpy") == backend
    ]
    return h


def _reference_headlines(ref: dict, quick: bool) -> dict:
    """Per-backend reference headline rows from a committed results file.

    Handles the pre-registry format (a flat ``ci_reference`` dict and
    untagged result rows) by attributing everything to ``"numpy"``.
    """
    if quick:
        ci = ref.get("ci_reference") or {}
        if "compress_MiBps" in ci:  # pre-registry flat format
            return {"numpy": ci}
        return {k: v for k, v in ci.items() if isinstance(v, dict)}
    out = {}
    for row in ref["results"]:
        if (row["mode"], row["dtype"], row["predictor_ndim"]) == HEADLINE:
            out[row.get("kernel_backend", "numpy")] = row
    return out


def check_regression(report: dict, baseline_path: str) -> int:
    ref = json.loads(Path(baseline_path).read_text())
    refs = _reference_headlines(ref, report["quick"])
    rc = 0
    for backend, head in sorted(report["headline_by_backend"].items()):
        ref_head = refs.get(backend)
        if not ref_head:
            # a backend with no same-backend reference is informational
            # only: the gate never compares jit numbers against numpy ones
            print(
                f"{backend}: no committed reference for this backend; "
                f"measured {head['compress_MiBps']:.1f} MiB/s compress, "
                f"{head['decompress_MiBps']:.1f} MiB/s decompress (not gated)"
            )
            continue
        for metric in GATED:
            direction = metric.split("_")[0]
            got = head[metric]
            if metric not in ref_head:
                print(f"{backend}: no committed {direction} reference; "
                      f"measured {got:.1f} MiB/s (not gated)")
                continue
            floor = REGRESSION_FLOOR * ref_head[metric]
            if got < floor:
                print(
                    f"REGRESSION [{backend}]: headline {direction} {got:.1f} MiB/s "
                    f"is below {REGRESSION_FLOOR:.0%} of the committed baseline "
                    f"{ref_head[metric]:.1f} MiB/s (floor {floor:.1f})"
                )
                rc = 1
            else:
                print(
                    f"regression check OK [{backend}] {direction}: {got:.1f} MiB/s >= "
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
    backends = bench_backends()
    if "numba" not in backends:
        print("numba backend not available (numba not installed): numpy only")
    results = []
    for backend in backends:
        results += run_matrix(nelems, args.repeats, backend)
    head = headline_of(results, "numpy")
    report = {
        "generated_by": "benchmarks/bench_core_throughput.py",
        "numpy": np.__version__,
        "quick": bool(args.quick),
        "cpu_count": __import__("os").cpu_count(),
        "field": {"dataset": "Miranda", "elements": nelems},
        "repeats": args.repeats,
        "kernel_backends": backends,
        "results": results,
        "headline": head,
        "headline_by_backend": {b: headline_of(results, b) for b in backends},
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
    if "numba" not in backends:
        report["numba_note"] = (
            "numba was not installed on the recording host, so no jit "
            "reference exists; a numba-enabled multicore host records its "
            "own ci_reference entry and is gated only against itself"
        )
    if not args.quick:
        # quick-mode reference measured in the same run so CI smoke runs
        # have an apples-to-apples, same-backend number to regress against
        print("-- ci reference (quick field) --")
        report["ci_reference"] = {}
        for backend in backends:
            quick_results = run_matrix(QUICK_ELEMS, args.repeats, backend)
            qh = headline_of(quick_results, backend)
            report["ci_reference"][backend] = {
                "elements": QUICK_ELEMS,
                "compress_MiBps": qh["compress_MiBps"],
                "decompress_MiBps": qh["decompress_MiBps"],
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
