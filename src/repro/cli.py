"""Command-line interface mirroring the paper's artifact-evaluation flow.

The AE appendix drives everything through two binaries (``gsz_p`` /
``gsz_o``) plus wrap-up Python scripts; this CLI reproduces that surface:

* ``repro compress file.f32 1e-3 --mode outlier`` -- compress a raw
  SDRBench field, verify the bound, and print the gsz-style report
  (ratio + simulated A100 end-to-end speeds, ``Pass error check!``).
* ``repro decompress file.csz2 -o out.f32`` -- reconstruct a field.
* ``repro evaluate CESM-ATM --rel 1e-3`` -- the per-dataset sweep the
  ``1-execution.py`` script prints (P and O modes, min/max/avg ratios,
  simulated throughput).
* ``repro experiment fig14`` -- regenerate any paper table/figure.
* ``repro datasets`` -- list the Table II/IV registry.

Run as ``python -m repro.cli ...`` (or the ``repro`` console script).
"""

from __future__ import annotations

import argparse
import signal
import sys
import time
from pathlib import Path

import numpy as np


def _load_raw(path: str, dims=None) -> np.ndarray:
    from .datasets.io import read_field

    return read_field(path, dims=tuple(dims) if dims else None)


def _parse_dims(text):
    if not text:
        return None
    return [int(x) for x in text.replace("x", ",").split(",") if x]


#: Compressor plugins (repro.codecs registry) plus the per-field
#: auto-tuner.  Kept as a literal (not imported from repro.codecs) so
#: ``--help`` works without importing numpy; a test pins this list against
#: the live registry.
CODECS = ["auto", "cuszp2", "cuszp", "fzgpu", "cuzfp", "cusz", "cuszx", "mgard"]


def _parse_codec_opts(items) -> dict:
    """``--codec-opt k=v`` pairs to a dict (values stay strings; the
    plugin's option schema coerces and validates them)."""
    opts = {}
    for item in items or []:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise SystemExit(f"--codec-opt expects name=value, got {item!r}")
        opts[key.strip()] = value.strip()
    return opts


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_compress(args) -> int:
    from . import compress, compression_ratio
    from .core import decompress
    from .gpusim import A100_40GB, Artifacts, get_device
    from .gpusim import pipelines as P
    from .metrics import check_error_bound

    data = _load_raw(args.input, _parse_dims(args.dims))
    if args.codec != "cuszp2":
        return _compress_codec_cli(args, data)
    mode = {"p": "plain", "o": "outlier"}.get(args.mode, args.mode)

    chunk_bytes = int(args.chunk_mb * (1 << 20))
    if args.workers > 1 or data.nbytes > chunk_bytes:
        return _compress_chunked_cli(args, data, mode, chunk_bytes)

    t0 = time.perf_counter()
    if args.absolute:
        stream = compress(data, abs=args.error_bound, mode=mode)
        eb_abs = args.error_bound
    else:
        stream = compress(data, rel=args.error_bound, mode=mode)
        rng = float(data.max() - data.min())
        eb_abs = args.error_bound * (rng if rng else max(abs(float(data.max())), 1.0))
    wall = time.perf_counter() - t0

    out_path = Path(args.output or (args.input + ".csz2"))
    stream.tofile(out_path)

    device = get_device(args.device) if args.device else A100_40GB
    art = Artifacts.from_cuszp2_stream(data, stream)
    comp = P.cuszp2_compression(art, device).end_to_end_throughput(device, art.input_bytes)
    dec = P.cuszp2_decompression(art, device).end_to_end_throughput(device, art.input_bytes)

    print("GSZ finished!")
    print(f"GSZ compression end-to-end speed: {comp:.6f} GB/s (simulated {device.name})")
    print(f"GSZ decompression end-to-end speed: {dec:.6f} GB/s (simulated {device.name})")
    print(f"GSZ compression ratio: {compression_ratio(data, stream):.6f}")
    print(f"(functional codec wall time: {wall:.3f} s for {data.nbytes / 1e6:.1f} MB)")
    print(f"compressed stream written to {out_path}")
    print()
    recon = decompress(stream)
    if check_error_bound(data.reshape(-1), recon.reshape(-1), eb_abs):
        print("Pass error check!")
        return 0
    print("ERROR CHECK FAILED")
    return 1


def _compress_codec_cli(args, data) -> int:
    """``repro compress --codec <name|auto>``: compress through a
    registered plugin (or the per-field auto-tuner) instead of the golden
    cuSZp2 path."""
    from . import codecs
    from .metrics import check_error_bound

    bound_key = "abs" if args.absolute else "rel"
    opts = _parse_codec_opts(args.codec_opt)
    t0 = time.perf_counter()
    if args.codec == "auto":
        if opts:
            raise SystemExit("--codec auto picks its own options; drop --codec-opt")
        stream, rec = codecs.autotune_compress(data, **{bound_key: args.error_bound})
        name, bounded, eb_abs = rec.codec, True, rec.eb_abs
        print(rec.describe())
    else:
        plugin = codecs.resolve(args.codec)
        name, bounded = plugin.name, plugin.bounded
        if bounded:
            opts[bound_key] = args.error_bound
        stream = codecs.encode(data, name, **opts)
        if args.absolute:
            eb_abs = args.error_bound
        else:
            rng = float(data.max() - data.min())
            eb_abs = args.error_bound * (rng if rng else max(abs(float(data.max())), 1.0))
    wall = time.perf_counter() - t0

    out_path = Path(args.output or (args.input + f".{name}"))
    stream.tofile(out_path)
    print(f"codec: {name} (repro.codecs plugin)")
    print(f"compression ratio: {data.nbytes / stream.size:.6f}")
    print(f"(functional codec wall time: {wall:.3f} s for {data.nbytes / 1e6:.1f} MB)")
    print(f"compressed stream written to {out_path}")
    print()
    recon = codecs.decode(stream)
    if not bounded:
        print(f"(fixed-rate codec {name}: no error bound to check)")
        return 0
    if check_error_bound(data.reshape(-1), recon.reshape(-1), eb_abs):
        print("Pass error check!")
        return 0
    print("ERROR CHECK FAILED")
    return 1


def _compress_chunked_cli(args, data, mode: str, chunk_bytes: int) -> int:
    """Bounded-memory (and optionally parallel) compression of big inputs."""
    from .metrics import check_error_bound
    from .serve import WorkerPool, compress_chunked, decompress_chunked

    bound = {"abs" if args.absolute else "rel": args.error_bound}
    pool = None
    t0 = time.perf_counter()
    try:
        if args.workers > 1:
            pool = WorkerPool(nworkers=args.workers, backend=args.backend)
            pool.wait_ready()
        chunked = compress_chunked(
            data, mode=mode, chunk_bytes=chunk_bytes, pool=pool, **bound
        )
        buf = chunked.to_bytes()
        wall = time.perf_counter() - t0

        out_path = Path(args.output or (args.input + ".csz2"))
        buf.tofile(out_path)

        print("GSZ finished!")
        print(
            f"chunked into {chunked.nchunks} group-aligned chunk(s) of "
            f"<= {chunk_bytes / (1 << 20):g} MiB input "
            f"({args.workers} worker(s), {args.backend} backend)"
        )
        print(f"GSZ compression ratio: {data.nbytes / buf.size:.6f}")
        print(f"(functional codec wall time: {wall:.3f} s for {data.nbytes / 1e6:.1f} MB)")
        print(f"compressed stream written to {out_path}")
        print()
        recon = decompress_chunked(chunked, pool=pool)
    finally:
        if pool is not None:
            pool.shutdown()
    eb_abs = chunked.manifest.eb_abs
    if check_error_bound(data.reshape(-1), recon.reshape(-1), eb_abs):
        print("Pass error check!")
        return 0
    print("ERROR CHECK FAILED")
    return 1


def cmd_decompress(args) -> int:
    from .core import IntegrityError, decompress
    from .core.errors import StreamFormatError
    from .core.stream import StreamHeader
    from .serve import decompress_chunked, is_chunked

    stream = np.fromfile(args.input, dtype=np.uint8)
    try:
        from .serve.chunked import is_raw, raw_from_bytes

        if is_raw(stream):
            # raw passthrough emitted by the serving degradation chain:
            # stored uncompressed, guarded by its own payload CRC32
            print("raw passthrough container (CSZ2RAW1, uncompressed, CRC32)")
            recon = raw_from_bytes(stream)
        elif is_chunked(stream):
            from .serve.chunked import ChunkedStream

            chunked = ChunkedStream.from_bytes(stream)
            print(
                f"chunked container: {chunked.nchunks} chunk(s), "
                f"format v2 streams (header+group checksums)"
            )
            bad = chunked.verify()
            if bad:
                print(f"integrity check FAILED: chunk(s) {bad} fail their manifest CRC32")
                print("hint: retransmit the damaged chunks (each chunk is independent)")
                return 1
            recon = decompress_chunked(chunked)
        else:
            from . import codecs as _codecs

            name = args.codec or _codecs.sniff(stream)
            if name is not None and name != "cuszp2":
                print(f"{name} stream (repro.codecs plugin)")
                recon = _codecs.decode(stream, codec=args.codec)
            else:
                header = StreamHeader.unpack(stream)
                checks = "header+group checksums" if header.version >= 2 else "no checksums"
                print(f"stream format v{header.version} ({checks})")
                recon = decompress(stream, on_corruption=args.on_corruption)
    except IntegrityError as e:
        print(f"integrity check FAILED: {e}")
        print("hint: retry with --on-corruption recover to salvage intact block groups")
        return 1
    except StreamFormatError as e:
        print(f"not a stream of any registered codec: {e}")
        return 1
    out_path = Path(args.output or (str(args.input).removesuffix(".csz2") + ".out"))
    suffix = ".f64" if recon.dtype == np.float64 else ".f32"
    if out_path.suffix not in (".f32", ".f64"):
        out_path = out_path.with_suffix(suffix)
    recon.tofile(out_path)
    print(f"decompressed {recon.size} x {recon.dtype} -> {out_path}")
    return 0


def cmd_serve_bench(args) -> int:
    from .serve.bench import BenchConfig, dump_report, format_report, run_serve_bench

    cfg = BenchConfig(
        size_mb=args.size_mb,
        workers=args.workers,
        backend=args.backend,
        transport=args.transport,
        requests=args.requests,
        clients=args.clients,
        rel=args.rel,
        mode=args.mode,
        chunk_mb=args.chunk_mb,
        distinct=args.distinct,
        seed=args.seed,
        dataset=args.dataset,
        field=args.field,
    )
    report = run_serve_bench(cfg)
    print(format_report(report))
    if args.json:
        dump_report(report, args.json)
        print(f"\n(report written to {args.json})")
    return 1 if report["errors"] else 0


def cmd_serve(args) -> int:
    """Serve compress/decompress over HTTP until interrupted."""
    from .serve.http import HttpConfig, HttpFrontend, parse_hostport
    from .serve.service import CompressionService, ServiceConfig

    host, port = parse_hostport(args.http)
    svc = CompressionService(
        ServiceConfig(
            workers=args.workers,
            backend=args.backend,
            transport=args.transport,
            deadline_s=args.deadline_s,
            autoscale=args.autoscale,
            autoscale_max_workers=args.max_workers,
        )
    )
    frontend = HttpFrontend(
        svc,
        HttpConfig(
            host=host,
            port=port,
            max_inflight=args.max_inflight,
            tenant_rate=args.tenant_rate,
            tenant_burst=args.tenant_burst,
        ),
    )
    print(
        f"serving on http://{host}:{port}  "
        f"(workers={args.workers} backend={args.backend} "
        f"transport={args.transport}"
        f"{' autoscale' if args.autoscale else ''})"
    )
    print("endpoints: POST /v1/compress  POST /v1/decompress  "
          "GET /v1/stats  GET /healthz")
    # SIGTERM must tear down like Ctrl-C does, or the shm arena's named
    # segments outlive the process in /dev/shm
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    try:
        frontend.run()
    finally:
        svc.close()
    return 0


def cmd_trace(args) -> int:
    """Trace one compress + decompress round trip through the service and
    print the per-stage breakdown (paper Fig. 12's kernel-cost split,
    measured on the functional codec)."""
    from .metrics import check_error_bound
    from .obs import Tracer, activate, deactivate, folded, spans_to_json, summarize
    from .obs.export import prometheus_text
    from .serve.service import CompressionService

    if args.input:
        data = _load_raw(args.input, _parse_dims(args.dims))
    else:
        rng = np.random.default_rng(args.seed)
        n = max(int(args.size_mb * (1 << 20)) // 4, 1)
        data = np.cumsum(rng.standard_normal(n)).astype(np.float32)

    mode = {"p": "plain", "o": "outlier"}.get(args.mode, args.mode)
    bound = {"abs" if args.absolute else "rel": args.error_bound}
    tracer = Tracer()
    activate(tracer)  # capture caller-thread spans (cache) too
    try:
        with CompressionService(
            workers=args.workers,
            backend=args.backend,
            codec_opts=(("mode", mode),),
            chunk_bytes=int(args.chunk_mb * (1 << 20)),
            tracer=tracer,
        ) as svc:
            svc.pool.wait_ready()
            t0 = time.perf_counter()
            stream = svc.compress(data, **bound).result()
            recon = svc.decompress(stream).result()
            wall = time.perf_counter() - t0
    finally:
        deactivate()

    roots = tracer.roots()
    table, cov = summarize(roots, wall)
    print(
        f"traced compress+decompress of {data.nbytes / 1e6:.1f} MB "
        f"({args.workers} worker(s), {args.backend} backend), "
        f"wall {wall * 1e3:.1f} ms"
    )
    print()
    print(table)
    print()
    print(f"trace coverage: {cov * 100:.1f}% of wall time inside spans")
    print(f"compression ratio: {data.nbytes / stream.size:.3f}")

    if args.json:
        Path(args.json).write_text(spans_to_json(roots))
        print(f"(span trees written to {args.json})")
    if args.folded:
        Path(args.folded).write_text(folded(roots))
        print(f"(folded stacks written to {args.folded}; feed to flamegraph.pl)")
    if args.metrics:
        Path(args.metrics).write_text(prometheus_text(svc.stats))
        print(f"(metrics exposition written to {args.metrics})")

    eb_abs = (
        args.error_bound
        if args.absolute
        else args.error_bound * float(np.ptp(data) or max(abs(float(data.max())), 1.0))
    )
    if check_error_bound(data.reshape(-1), recon.reshape(-1), eb_abs):
        print("Pass error check!")
        return 0
    print("ERROR CHECK FAILED")
    return 1


def cmd_fuzz(args) -> int:
    """Property-based differential fuzzing across every codec path."""
    from .qa import FuzzConfig, replay, run_fuzz
    from .qa.corpus import corpus_entries

    if args.replay:
        failures = 0
        for target in args.replay:
            target_path = Path(target)
            entries = [target_path] if target_path.is_file() else corpus_entries(target_path)
            if not entries:
                print(f"{target}: no corpus entries")
                continue
            for entry in entries:
                failure = replay(entry)
                if failure is None:
                    print(f"PASS {entry}")
                else:
                    failures += 1
                    print(f"FAIL {entry}\n     {failure}")
        print(f"replay: {failures} failing entr{'y' if failures == 1 else 'ies'}")
        return 1 if failures else 0

    cfg = FuzzConfig(
        seed=args.seed,
        iters=args.iters,
        paths=tuple(args.paths) if args.paths else FuzzConfig().paths,
        time_budget=args.time_budget,
        corpus_dir=args.corpus_dir,
        shrink=not args.no_shrink,
        max_failures=args.max_failures,
        workers=args.workers,
    )
    report = run_fuzz(cfg)
    print(report.summary())
    if not report.ok and cfg.corpus_dir:
        print(f"(shrunk counterexamples saved under {cfg.corpus_dir})")
    return 0 if report.ok else 1


def cmd_store_bench(args) -> int:
    """Working-set sweep of the compressed-array tier (repro.store)."""
    import json

    from .store.bench import check_regression, run_sweep

    multipliers = tuple(args.multiplier) if args.multiplier else None
    report = run_sweep(quick=args.quick, seed=args.seed, multipliers=multipliers)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    h = report["headline"]
    print(
        f"headline: {h['multiplier']}x working set, {h['spills']} spills / "
        f"{h['faults']} faults, workload {h['workload_MiBps']:.1f} MiB/s"
    )
    if args.check:
        reference = json.loads(Path(args.check).read_text())
        ok, msg = check_regression(report, reference)
        print(msg)
        return 0 if ok else 1
    return 0


def cmd_faultcheck(args) -> int:
    from .faults import run_faultcheck

    result = run_faultcheck(
        trials=args.trials,
        seed=args.seed,
        quick=args.quick,
        injectors=args.injector or None,
    )
    print(result.summary())
    return 0 if result.ok else 1


def cmd_chaoscheck(args) -> int:
    from .faults import ChaosCheckConfig, run_chaoscheck

    cfg = ChaosCheckConfig(
        seed=args.seed,
        requests=args.requests,
        deadline_s=args.deadline_s,
        workers=args.workers,
        backend=args.backend,
        transport=args.transport,
        hang_rate=args.hang_rate,
        crash_rate=args.crash_rate,
        slow_rate=args.slow_rate,
        corrupt_rate=args.corrupt_rate,
        stall_rate=args.stall_rate,
        time_budget_s=args.time_budget,
    )
    result = run_chaoscheck(cfg)
    print(result.summary())
    if args.events:
        out = Path(args.events)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(result.to_json())
        print(f"(event log written to {args.events})")
    return 0 if result.ok else 1


def cmd_evaluate(args) -> int:
    from .datasets import get_dataset
    from .gpusim import A100_40GB
    from .harness import dataset_runs, simulate

    ds = get_dataset(args.dataset)
    rel = args.rel
    print(f"=====")
    print(f"Done with Execution GSZ-P and GSZ-O on {ds.name.lower()} under {rel:g}")
    for comp, label in (("cuszp2-p", "GSZ-P"), ("cuszp2-o", "GSZ-O")):
        runs = dataset_runs(ds.name, comp, rel)
        comp_t = np.mean([simulate(r, A100_40GB, "compress") for r in runs.values()])
        dec_t = np.mean([simulate(r, A100_40GB, "decompress") for r in runs.values()])
        ratios = [r.ratio for r in runs.values()]
        print(f"{label}\tcompression throughput: {comp_t} GB/s (simulated A100)")
        print(f"{label}\tdecompression throughput: {dec_t} GB/s (simulated A100)")
        print(f"{label}\tmax compression ratio: {max(ratios):.6f}")
        print(f"{label}\tmin compression ratio: {min(ratios):.6f}")
        print(f"{label}\tavg compression ratio: {np.mean(ratios)}")
        print()
    print("=====")
    return 0


EXPERIMENTS = {
    "table1": "table1_features",
    "fig02": "fig02_hybrid_gap",
    "fig09": "fig09_memory_motivation",
    "fig10": "fig10_vectorization",
    "fig14": "fig14_throughput",
    "fig15": "fig15_hacc_fields",
    "fig16": "fig16_memory_bandwidth",
    "fig17": "fig17_lookback",
    "fig18": "fig18_isosurface_quality",
    "table3": "table3_compression_ratio",
    "fig19": "fig19_double_precision",
    "table5": "table5_double_cr",
    "fig20": "fig20_random_access",
    "fig21": "fig21_other_gpus",
    "table6": "table6_dimensionality",
    "ablation": "ablation_breakdown",
    "block-size": "ablation_block_size",
}


def cmd_experiment(args) -> int:
    from .harness import experiments as E

    if args.name not in EXPERIMENTS:
        print(f"unknown experiment {args.name!r}; choose from: {', '.join(sorted(EXPERIMENTS))}")
        return 2
    result = getattr(E, EXPERIMENTS[args.name])()
    print(result.text)
    if args.output:
        Path(args.output).write_text(result.text + "\n")
        print(f"\n(written to {args.output})")
    return 0


def cmd_datasets(args) -> int:
    from .datasets import ALL_DATASETS

    print(f"{'dataset':<10} {'suite':<12} {'paper dims':<16} {'fields':>6} {'size':>9}  dtype")
    for ds in ALL_DATASETS:
        print(
            f"{ds.name:<10} {ds.suite:<12} {ds.paper_dims:<16} "
            f"{ds.paper_fields:>6} {ds.paper_size_gb:>7.2f}GB  {ds.dtype}"
        )
    return 0


def cmd_pack(args) -> int:
    from .core.archive import pack_dataset

    if args.codec != "cuszp2":
        return _pack_codec_cli(args)
    buf = pack_dataset(args.dataset, args.rel, mode=args.mode)
    out = Path(args.output or f"{args.dataset}.csz2arch")
    buf.tofile(out)
    print(f"packed {args.dataset} at REL {args.rel:g} -> {out} ({buf.size:,} bytes)")
    return 0


def _pack_codec_cli(args) -> int:
    """``repro pack --codec <name|auto>``: archive a dataset through a
    registered plugin, or let the auto-tuner pick per field."""
    from . import codecs
    from .core.archive import pack_streams
    from .datasets import get_dataset

    fields = get_dataset(args.dataset).generate_all()
    if args.codec == "auto":
        buf, records = codecs.autotune_pack(fields, rel=args.rel)
        for name, rec in records.items():
            label = rec.opts and " " + ",".join(f"{k}={v}" for k, v in rec.opts.items()) or ""
            print(f"  {name}: {rec.codec}{label} (sample ratio {rec.sample_ratio:.2f})")
    else:
        plugin = codecs.resolve(args.codec)
        bound = {"rel": args.rel} if plugin.bounded else {}
        buf = pack_streams(
            {name: codecs.encode(data, plugin.name, **bound) for name, data in fields.items()}
        )
    out = Path(args.output or f"{args.dataset}.csz2arch")
    buf.tofile(out)
    print(
        f"packed {args.dataset} (codec {args.codec}) at REL {args.rel:g} "
        f"-> {out} ({buf.size:,} bytes)"
    )
    return 0


def cmd_codecs(args) -> int:
    """List the compressor-plugin registry with each plugin's options."""
    from . import codecs

    for plugin in codecs.list_plugins().values():
        kind = "error-bounded" if plugin.bounded else "fixed-rate"
        if plugin.heavy:
            kind += ", CPU-GPU hybrid"
        default = " (default)" if plugin.name == codecs.DEFAULT_CODEC else ""
        print(f"{plugin.name}{default}: {plugin.description}")
        print(f"    [{kind}; stream magic {plugin.magic!r}; max ndim {plugin.max_ndim}]")
        for opt in plugin.options.values():
            bits = [f"{opt.type.__name__}"]
            if opt.default is not None:
                bits.append(f"default {opt.default}")
            if opt.choices is not None:
                bits.append("one of " + "/".join(str(c) for c in opt.choices))
            if opt.minimum is not None:
                bits.append(f">= {opt.minimum:g}")
            print(f"    {opt.name} ({', '.join(bits)}): {opt.doc}")
        print()
    print("compress with:  repro compress FILE BOUND --codec NAME [--codec-opt k=v]")
    print("auto-tune with: repro compress FILE BOUND --codec auto")
    return 0


def cmd_extract(args) -> int:
    from .core.archive import DatasetArchive
    from .datasets import write_field

    archive = DatasetArchive(np.fromfile(args.archive, dtype=np.uint8))
    if args.field is None:
        print("fields:", ", ".join(archive.names))
        return 0
    data = archive.extract(args.field)
    suffix = ".f64" if data.dtype == np.float64 else ".f32"
    out = Path(args.output or f"{args.field}{suffix}")
    write_field(out, data)
    print(f"extracted {args.field}: shape {data.shape} -> {out}")
    return 0


def cmd_generate(args) -> int:
    from .datasets import get_dataset, write_field

    ds = get_dataset(args.dataset)
    spec = ds.field(args.field)
    data = spec.generate(ds.dtype, scale=args.scale)
    suffix = ".f64" if ds.dtype == np.float64 else ".f32"
    out = Path(args.output or f"{ds.name}_{spec.name}{suffix}".replace("/", "_"))
    write_field(out, data)
    print(f"generated {ds.name}/{spec.name}: shape {data.shape}, {data.nbytes / 1e6:.1f} MB -> {out}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="cuSZp2 (SC 2024) reproduction: compression CLI + experiment runner",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compress", help="compress a raw .f32/.f64 field")
    c.add_argument("input", help="raw field file (.f32 or .f64, SDRBench layout)")
    c.add_argument("error_bound", type=float, help="REL bound, e.g. 1e-3 (or ABS with --absolute)")
    c.add_argument("--mode", default="outlier", choices=["plain", "outlier", "p", "o"])
    c.add_argument("--absolute", action="store_true", help="treat the bound as absolute")
    c.add_argument("--dims", help="logical dims, e.g. 512x512x512 (optional)")
    c.add_argument("--device", help="device for simulated throughput (default A100-40GB)")
    c.add_argument("-o", "--output", help="output stream path (default <input>.csz2)")
    c.add_argument(
        "--workers", type=int, default=1,
        help="compress group-aligned chunks in parallel over N workers (default 1)",
    )
    c.add_argument(
        "--chunk-mb", type=float, default=32.0,
        help="inputs above this threshold stream through the chunked engine "
        "in bounded memory (default 32 MiB; also the chunk size)",
    )
    c.add_argument(
        "--backend", default="process", choices=["thread", "process"],
        help="worker-pool backend for --workers > 1 (default process)",
    )
    c.add_argument(
        "--codec", default="cuszp2", choices=CODECS,
        help="compressor plugin from the repro.codecs registry, or 'auto' "
        "to let the per-field tuner pick (default cuszp2; see `repro codecs`)",
    )
    c.add_argument(
        "--codec-opt", action="append", metavar="NAME=VALUE",
        help="plugin option for --codec (repeatable; e.g. rate=16 for cuzfp); "
        "validated against the plugin's option schema",
    )
    c.set_defaults(fn=cmd_compress)

    d = sub.add_parser("decompress", help="decompress a .csz2 stream")
    d.add_argument("input")
    d.add_argument("-o", "--output")
    d.add_argument(
        "--on-corruption",
        default="raise",
        choices=["raise", "recover"],
        help="corrupt v2 stream: fail (default) or decode intact groups + NaN-fill",
    )
    d.add_argument(
        "--codec", default=None, choices=[c for c in CODECS if c != "auto"],
        help="force a specific plugin instead of sniffing the stream magic",
    )
    d.set_defaults(fn=cmd_decompress)

    sb = sub.add_parser(
        "serve-bench",
        help="closed-loop load generator for the compression service",
    )
    sb.add_argument("--size-mb", type=float, default=8.0, help="field size (default 8 MB)")
    sb.add_argument("--workers", type=int, default=2)
    sb.add_argument(
        "--backend", default="thread", choices=["thread", "process"],
        help="worker-pool backend",
    )
    sb.add_argument(
        "--transport", default="pickle", choices=["pickle", "shm"],
        help="worker transport: pickled queues or zero-copy shared memory",
    )
    sb.add_argument("--requests", type=int, default=8, help="total compress+decompress iterations")
    sb.add_argument("--clients", type=int, default=2, help="concurrent closed-loop clients")
    sb.add_argument("--rel", type=float, default=1e-3)
    sb.add_argument("--mode", default="outlier", choices=["plain", "outlier"])
    sb.add_argument("--chunk-mb", type=float, default=4.0)
    sb.add_argument("--distinct", type=int, default=2, help="distinct fields cycled per client")
    sb.add_argument("--seed", type=int, default=0)
    sb.add_argument("--dataset", help="use a registry dataset field instead of a random walk")
    sb.add_argument("--field", help="field name within --dataset (default: first)")
    sb.add_argument("--json", help="also dump the full JSON report to this path")
    sb.set_defaults(fn=cmd_serve_bench)

    sv = sub.add_parser(
        "serve",
        help="HTTP compression service (asyncio front end over the pool)",
    )
    sv.add_argument(
        "--http", default=":8080", metavar="HOST:PORT",
        help="bind address; ':8080' binds 127.0.0.1:8080 (default)",
    )
    sv.add_argument("--workers", type=int, default=2)
    sv.add_argument(
        "--backend", default="process", choices=["thread", "process"],
        help="worker-pool backend (default process for real parallelism)",
    )
    sv.add_argument(
        "--transport", default="shm", choices=["pickle", "shm"],
        help="worker transport (default shm: zero-copy shared memory)",
    )
    sv.add_argument("--deadline-s", type=float, default=None,
                    help="default per-request budget (None = unbounded)")
    sv.add_argument("--max-inflight", type=int, default=64,
                    help="admission-control cap on concurrent requests")
    sv.add_argument("--tenant-rate", type=float, default=50.0,
                    help="per-tenant token-bucket refill (requests/s)")
    sv.add_argument("--tenant-burst", type=float, default=20.0,
                    help="per-tenant token-bucket capacity")
    sv.add_argument("--autoscale", action="store_true",
                    help="grow/shrink the pool from queue depth")
    sv.add_argument("--max-workers", type=int, default=None,
                    help="autoscaler ceiling (default 4 x --workers)")
    sv.set_defaults(fn=cmd_serve)

    tr = sub.add_parser(
        "trace",
        help="trace a compress+decompress round trip; print the stage breakdown",
    )
    tr.add_argument(
        "input", nargs="?",
        help="raw field file (.f32/.f64); omit for a synthetic random walk",
    )
    tr.add_argument("--size-mb", type=float, default=4.0,
                    help="synthetic field size when no input file (default 4 MB)")
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--dims", help="logical dims for a raw input file")
    tr.add_argument("--error-bound", type=float, default=1e-3,
                    help="REL bound (ABS with --absolute), default 1e-3")
    tr.add_argument("--absolute", action="store_true")
    tr.add_argument("--mode", default="outlier", choices=["plain", "outlier", "p", "o"])
    tr.add_argument("--workers", type=int, default=2)
    tr.add_argument(
        "--backend", default="thread", choices=["thread", "process"],
        help="worker-pool backend",
    )
    tr.add_argument("--chunk-mb", type=float, default=4.0)
    tr.add_argument("--json", help="write the span trees as JSON to this path")
    tr.add_argument("--folded", help="write flamegraph folded stacks to this path")
    tr.add_argument("--metrics", help="write Prometheus-style metrics text to this path")
    tr.set_defaults(fn=cmd_trace)

    fz = sub.add_parser(
        "fuzz",
        help="property-based differential fuzzing: all codec paths must agree",
    )
    fz.add_argument("--seed", type=int, default=0, help="campaign seed (default 0)")
    fz.add_argument("--iters", type=int, default=200, help="generated cases (default 200)")
    fz.add_argument(
        "--paths",
        action="append",
        choices=["roundtrip", "chunked", "random_access", "corruption", "store",
                 "serve_shm", "codecs"],
        help="restrict to one oracle path (repeatable; default all)",
    )
    fz.add_argument(
        "--time-budget", type=float, default=None,
        help="stop after this many seconds (default unbounded)",
    )
    fz.add_argument(
        "--corpus-dir", default="qa_corpus",
        help="where shrunk counterexamples are written (default ./qa_corpus; "
        "created only on failure)",
    )
    fz.add_argument("--no-shrink", action="store_true", help="skip counterexample minimization")
    fz.add_argument("--max-failures", type=int, default=5, help="stop after N failures")
    fz.add_argument(
        "--workers", type=int, default=0,
        help="also differential-check the worker-pool chunked path with N thread workers",
    )
    fz.add_argument(
        "--replay", action="append", metavar="FILE_OR_DIR",
        help="replay saved corpus entries instead of fuzzing (repeatable)",
    )
    fz.set_defaults(fn=cmd_fuzz)

    sb2 = sub.add_parser(
        "store-bench",
        help="compressed-array tier working-set sweep (spill/fault-in throughput)",
    )
    sb2.add_argument("--quick", action="store_true", help="small CI smoke sweep")
    sb2.add_argument("--seed", type=int, default=0)
    sb2.add_argument(
        "--multiplier", action="append", type=int, metavar="N",
        help="working-set multiple of the budget (repeatable; default sweep)",
    )
    sb2.add_argument(
        "--out", default="benchmarks/results/BENCH_store.json",
        help="report path (default benchmarks/results/BENCH_store.json)",
    )
    sb2.add_argument(
        "--check", metavar="REFERENCE_JSON",
        help="exit non-zero if workload throughput regresses >30%% vs this file",
    )
    sb2.set_defaults(fn=cmd_store_bench)

    fc = sub.add_parser("faultcheck", help="fault-injection campaign: every fault detected?")
    fc.add_argument("--trials", type=int, default=25, help="trials per injector x workload")
    fc.add_argument("--seed", type=int, default=0)
    fc.add_argument("--quick", action="store_true", help="small CI smoke campaign")
    fc.add_argument(
        "--injector",
        action="append",
        choices=["bitflip", "truncate", "burst", "header"],
        help="restrict to one injector (repeatable; default all)",
    )
    fc.set_defaults(fn=cmd_faultcheck)

    cc = sub.add_parser(
        "chaoscheck",
        help="behavioral chaos campaign: hangs/crashes/corruption vs the resilient service",
    )
    cc.add_argument("--seed", type=int, default=0)
    cc.add_argument("--requests", type=int, default=500)
    cc.add_argument("--deadline-s", type=float, default=0.5, help="per-request budget")
    cc.add_argument("--workers", type=int, default=2)
    cc.add_argument("--backend", choices=["thread", "process"], default="thread")
    cc.add_argument(
        "--transport", default="pickle", choices=["pickle", "shm"],
        help="worker transport: pickled queues or zero-copy shared memory",
    )
    cc.add_argument("--hang-rate", type=float, default=0.02)
    cc.add_argument("--crash-rate", type=float, default=0.05)
    cc.add_argument("--slow-rate", type=float, default=0.10)
    cc.add_argument("--corrupt-rate", type=float, default=0.05)
    cc.add_argument("--stall-rate", type=float, default=0.05)
    cc.add_argument("--time-budget", type=float, default=None,
                    help="stop submitting after SECONDS (requests already sent still settle)")
    cc.add_argument("--events", default=None, metavar="PATH",
                    help="write the JSON event log (outcome per request) to PATH")
    cc.set_defaults(fn=cmd_chaoscheck)

    e = sub.add_parser("evaluate", help="sweep one registry dataset (AE 1-execution.py style)")
    e.add_argument("dataset")
    e.add_argument("--rel", type=float, default=1e-3)
    e.set_defaults(fn=cmd_evaluate)

    x = sub.add_parser("experiment", help="regenerate a paper table/figure")
    x.add_argument("name", help=f"one of: {', '.join(sorted(EXPERIMENTS))}")
    x.add_argument("-o", "--output", help="also write the rendering to a file")
    x.set_defaults(fn=cmd_experiment)

    ls = sub.add_parser("datasets", help="list the Table II/IV dataset registry")
    ls.set_defaults(fn=cmd_datasets)

    pk = sub.add_parser("pack", help="compress a registry dataset into one archive")
    pk.add_argument("dataset")
    pk.add_argument("--rel", type=float, default=1e-3)
    pk.add_argument("--mode", default="outlier", choices=["plain", "outlier"])
    pk.add_argument(
        "--codec", default="cuszp2", choices=CODECS,
        help="plugin for every field, or 'auto' for per-field tuning "
        "(default cuszp2; extraction sniffs, so mixed archives just work)",
    )
    pk.add_argument("-o", "--output")
    pk.set_defaults(fn=cmd_pack)

    co = sub.add_parser(
        "codecs",
        help="list the compressor-plugin registry (names, options, flags)",
    )
    co.set_defaults(fn=cmd_codecs)

    ex = sub.add_parser("extract", help="extract a field from an archive (omit FIELD to list)")
    ex.add_argument("archive")
    ex.add_argument("field", nargs="?")
    ex.add_argument("-o", "--output")
    ex.set_defaults(fn=cmd_extract)

    g = sub.add_parser("generate", help="write a synthetic field as a raw file")
    g.add_argument("dataset")
    g.add_argument("field")
    g.add_argument("--scale", type=int, default=1)
    g.add_argument("-o", "--output")
    g.set_defaults(fn=cmd_generate)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:  # e.g. `repro datasets | head`
        import os

        try:
            sys.stdout.close()
        except Exception:
            pass
        os._exit(0)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
