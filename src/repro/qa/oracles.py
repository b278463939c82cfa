"""Differential oracles: the invariants every codec path must satisfy.

Each oracle is a function ``oracle(case, ctx)`` that either returns
normally or raises :class:`OracleFailure` with enough detail to triage.
Any exception that is *not* a typed :class:`~repro.core.errors.CuSZp2Error`
escaping a codec entry point is itself a failure -- the decoder contract
says hostile input produces typed errors, never tracebacks from deep
inside NumPy.

The oracles mirror the shipped entry points:

``roundtrip``
    compress -> decompress respects the error bound pointwise, preserves
    shape/dtype, and is deterministic (same input -> same bytes).
``chunked``
    monolithic, serial-chunked, worker-pool-chunked and
    container-round-tripped decodes are all bit-identical; per-chunk
    decodes equal the matching slices of the monolithic decode.
``random_access``
    :class:`RandomAccessor` slices equal full-decode slices bit-for-bit.
``corruption``
    every injected fault is detected or harmless, and recover mode
    reconstructs intact groups bit-identically (never silently wrong).
``store``
    the compressed-array tier (``repro.store``) agrees with a plain
    ndarray mirror under random interleaved reads/writes; flushed streams
    verify clean and round-trip bit-identically through the monolithic
    codec; batched ``rewrite_blocks`` == sequential ``rewrite_block``.
``serve_shm``
    chunked requests routed through process workers on the zero-copy
    shared-memory transport produce byte-identical chunk streams and
    containers vs the inline codec (descriptors never corrupt payloads).
``codecs``
    every plugin in the :mod:`repro.codecs` registry honors the uniform
    contract: deterministic bytes, dtype+shape-preserving roundtrip within
    the bound (bounded plugins), sniffed ``decode`` agrees with direct
    decompression, and hostile input answers with classified errors.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..core import compress, decompress
from ..core.errors import CuSZp2Error
from ..core.random_access import RandomAccessor
from ..faults import make_injector
from ..faults.check import check_recovery, classify_decode
from ..serve.chunked import ChunkedStream, compress_chunked, decompress_chunked
from .generators import FuzzCase, case_rng


class OracleFailure(AssertionError):
    """A differential invariant was violated for a concrete case."""

    def __init__(self, oracle: str, case: FuzzCase, detail: str):
        self.oracle = oracle
        self.case = case
        self.detail = detail
        super().__init__(f"[{oracle}] {case.describe()}: {detail}")


@dataclass
class OracleContext:
    """Shared per-campaign resources (an optional worker pool) plus a
    one-entry compression cache so the oracles of one case compress once."""

    pool: Optional[object] = None  # repro.serve.pool.WorkerPool
    shm_pool: Optional[object] = None  # process WorkerPool(transport="shm")
    _key: Optional[Tuple] = field(default=None, repr=False)
    _stream: Optional[np.ndarray] = field(default=None, repr=False)

    def stream_for(self, case: FuzzCase) -> np.ndarray:
        # id(case.data) distinguishes shrinker variants of the same case
        key = (case.seed, case.index, id(case.data))
        if self._key != key:
            self._stream = compress(case.data, **case.codec_kwargs)
            self._key = key
        return self._stream


def _fail(oracle: str, case: FuzzCase, detail: str) -> OracleFailure:
    return OracleFailure(oracle, case, detail)


def _guard(oracle: str, case: FuzzCase, fn: Callable, what: str):
    """Run ``fn``; untyped exceptions become failures, typed errors re-raise."""
    try:
        return fn()
    except CuSZp2Error:
        raise
    except OracleFailure:
        raise
    except Exception:
        raise _fail(
            oracle, case, f"{what} escaped with an untyped exception:\n"
            + traceback.format_exc(limit=6)
        ) from None


def _max_error_ok(original: np.ndarray, recon: np.ndarray, eb_abs: float) -> Optional[str]:
    """None when the pointwise error respects the bound, else a diagnosis.

    Like the CUDA original (which reconstructs with a floating multiply),
    the guarantee is ``eb`` plus half an ULP of the reconstructed value.
    """
    a = original.astype(np.float64, copy=False).reshape(-1)
    b = recon.astype(np.float64, copy=False).reshape(-1)
    err = np.abs(a - b)
    # half an ULP in the reconstruction's NATIVE dtype: the final cast of
    # q * 2eb to float32/float64 may round that far beyond the bound
    native = np.abs(recon.reshape(-1))
    half_ulp = 0.5 * float(np.spacing(native.max() if native.size else recon.dtype.type(0)))
    limit = eb_abs * (1 + 1e-12) + half_ulp
    worst = int(np.argmax(err)) if err.size else 0
    if err.size and float(err[worst]) > limit:
        return (
            f"error bound violated: |x-x'|={float(err[worst]):g} > {limit:g} "
            f"at element {worst} (x={a[worst]!r}, x'={b[worst]!r}, eb={eb_abs:g})"
        )
    return None


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def oracle_roundtrip(case: FuzzCase, ctx: OracleContext) -> None:
    name = "roundtrip"
    if case.expect_error is not None:
        try:
            compress(case.data, **case.codec_kwargs)
        except case.expect_error:
            return
        except Exception as e:
            raise _fail(
                name, case,
                f"expected {case.expect_error.__name__}, got {type(e).__name__}: {e}",
            ) from None
        raise _fail(
            name, case, f"expected {case.expect_error.__name__}, but compress succeeded"
        )

    def _do():
        stream = ctx.stream_for(case)
        again = compress(case.data, **case.codec_kwargs)
        if not np.array_equal(stream, again):
            raise _fail(name, case, "compression is nondeterministic: two runs differ")
        recon = decompress(stream)
        if recon.dtype != case.data.dtype:
            raise _fail(name, case, f"dtype {case.data.dtype} decoded as {recon.dtype}")
        if case.data.ndim <= 3 and recon.shape != case.data.shape:
            raise _fail(name, case, f"shape {case.data.shape} decoded as {recon.shape}")
        diag = _max_error_ok(case.data, recon, case.resolved_eb())
        if diag:
            raise _fail(name, case, diag)

    try:
        _guard(name, case, _do, "compress/decompress")
    except CuSZp2Error as e:
        raise _fail(
            name, case, f"codec rejected a finite input: {type(e).__name__}: {e}"
        ) from None


def oracle_chunked(case: FuzzCase, ctx: OracleContext) -> None:
    name = "chunked"
    if case.expect_error is not None:
        return  # compress refuses; nothing differential to check

    def _do():
        mono = ctx.stream_for(case)
        recon_mono = decompress(mono)
        n = case.data.size
        # 3+ chunks whenever the input allows it (group-aligned by planner).
        chunk_elems = max(1, n // 3)
        chunked = compress_chunked(
            case.data, chunk_elems=chunk_elems, **case.codec_kwargs
        )
        recon_chunk = decompress_chunked(chunked)
        if recon_chunk.shape != recon_mono.shape or recon_chunk.dtype != recon_mono.dtype:
            raise _fail(
                name, case,
                f"chunked decode shape/dtype {recon_chunk.shape}/{recon_chunk.dtype} "
                f"!= monolithic {recon_mono.shape}/{recon_mono.dtype}",
            )
        if recon_chunk.tobytes() != recon_mono.tobytes():
            bad = int(
                np.flatnonzero(recon_chunk.reshape(-1) != recon_mono.reshape(-1))[0]
            )
            raise _fail(
                name, case,
                f"chunked decode differs from monolithic at flat element {bad} "
                f"({chunked.nchunks} chunks)",
            )
        # per-chunk decodes must equal the matching monolithic slices
        flat_mono = recon_mono.reshape(-1)
        for i, (lo, hi) in enumerate(chunked.element_spans()):
            part = chunked.decode_chunk(i).reshape(-1)
            if part.tobytes() != flat_mono[lo:hi].tobytes():
                raise _fail(
                    name, case,
                    f"chunk {i} decodes differently from monolithic slice [{lo}:{hi})",
                )
        # container serialization round-trips and self-verifies
        container = chunked.to_bytes()
        reread = ChunkedStream.from_bytes(container)
        bad_chunks = reread.verify()
        if bad_chunks:
            raise _fail(name, case, f"container chunks fail CRC after round trip: {bad_chunks}")
        if decompress_chunked(reread).tobytes() != recon_mono.tobytes():
            raise _fail(name, case, "container round trip changed the decode")
        # worker-pool fan-out must produce the very same chunk streams
        if ctx.pool is not None:
            pooled = compress_chunked(
                case.data, chunk_elems=chunk_elems, pool=ctx.pool, **case.codec_kwargs
            )
            for i, (a, b) in enumerate(zip(chunked.chunks, pooled.chunks)):
                if a.tobytes() != b.tobytes():
                    raise _fail(
                        name, case, f"worker-pool chunk {i} bytes differ from serial"
                    )
            if decompress_chunked(pooled, pool=ctx.pool).tobytes() != recon_mono.tobytes():
                raise _fail(name, case, "worker-pool decode differs from monolithic")

    try:
        _guard(name, case, _do, "chunked engine")
    except CuSZp2Error as e:
        raise _fail(
            name, case, f"chunked path rejected a finite input: {type(e).__name__}: {e}"
        ) from None


def oracle_random_access(case: FuzzCase, ctx: OracleContext) -> None:
    name = "random_access"
    if case.expect_error is not None or case.params["predictor_ndim"] != 1:
        return

    def _do():
        stream = ctx.stream_for(case)
        full = decompress(stream).reshape(-1)
        ra = RandomAccessor(stream)
        rng = case_rng(case.seed ^ 0x5A5A5A, case.index)
        n = full.size
        L = ra.block
        # boundary blocks plus random interior slices
        slices = [(0, min(L, n)), (max(0, n - L), n), (0, n)]
        for _ in range(6):
            a = int(rng.integers(0, n))
            b = int(rng.integers(a, min(n, a + 4 * L) + 1))
            slices.append((a, b))
        for lo, hi in slices:
            got = ra.decode_range(lo, hi)
            want = full[lo:hi]
            if got.tobytes() != want.tobytes():
                bad = int(np.flatnonzero(got != want)[0]) if got.size == want.size else -1
                raise _fail(
                    name, case,
                    f"decode_range({lo}, {hi}) differs from full decode "
                    f"(first mismatch at offset {bad})",
                )
        # block-granular API agrees too
        for idx in {0, ra.nblocks - 1, int(rng.integers(0, ra.nblocks))}:
            blk = ra.decode_block(idx)
            lo = idx * L
            want = full[lo : lo + blk.size]
            if blk.tobytes() != want.tobytes():
                raise _fail(name, case, f"decode_block({idx}) differs from full decode")

    try:
        _guard(name, case, _do, "random access")
    except CuSZp2Error as e:
        raise _fail(
            name, case,
            f"random access rejected an intact stream: {type(e).__name__}: {e}",
        ) from None


_INJECTOR_PLAN = ("bitflip", "truncate", "burst", "header")


def oracle_corruption(case: FuzzCase, ctx: OracleContext) -> None:
    name = "corruption"
    if case.expect_error is not None:
        return

    def _do():
        stream = ctx.stream_for(case)
        clean = decompress(stream)
        rng = case_rng(case.seed ^ 0xC0FFEE, case.index)
        for iname in _INJECTOR_PLAN:
            inj_seed = int(rng.integers(0, 2**31))
            corrupt = make_injector(iname, seed=inj_seed).apply(stream)
            outcome, detail = classify_decode(stream, corrupt, clean)
            if outcome == "MISSED":
                raise _fail(
                    name, case,
                    f"{iname}(seed={inj_seed}) produced silent garbage: {detail}",
                )
            mismatch = check_recovery(corrupt, clean, block=case.params["block"])
            if mismatch is not None:
                raise _fail(
                    name, case, f"{iname}(seed={inj_seed}) recover mode: {mismatch}"
                )
            if case.params["predictor_ndim"] == 1:
                # accessor construction over damaged bytes: typed error or service
                try:
                    ra = RandomAccessor(corrupt, on_corruption="recover")
                    ra.decode_blocks(np.arange(min(4, ra.nblocks)))
                except CuSZp2Error:
                    pass

    _guard(name, case, _do, "corruption handling")


def _random_basic_index(rng, shape):
    """A random numpy basic index over ``shape`` (scalars and stepped
    slices; the exotic forms are pinned by unit tests)."""
    idx = []
    for dim in shape:
        kind = int(rng.integers(0, 3))
        if kind == 0:
            idx.append(int(rng.integers(0, dim)))
        else:
            a = int(rng.integers(0, dim + 1))
            b = int(rng.integers(0, dim + 1))
            idx.append(slice(min(a, b), max(a, b), int(rng.integers(1, 4))))
    return tuple(idx)


def oracle_store(case: FuzzCase, ctx: OracleContext) -> None:
    """The compressed-array tier against a plain-ndarray mirror.

    Random interleaved reads and writes must agree with the mirror within
    the error bound; ``flush()`` output must verify clean and round-trip
    bit-identically through the monolithic codec; and the batched
    ``rewrite_blocks`` must be byte-identical to applying ``rewrite_block``
    sequentially.
    """
    name = "store"
    if case.expect_error is not None or case.params["predictor_ndim"] != 1:
        return

    def _do():
        from ..core.integrity import verify as verify_stream
        from ..store import CompressedArray

        eb = case.resolved_eb()
        kw = dict(case.bound_kwargs)
        arr = CompressedArray.from_array(
            case.data,
            mode=case.params["mode"],
            block=case.params["block"],
            group_blocks=case.params["group_blocks"],
            **kw,
        )
        # the mirror tracks the last written value per element; unwritten
        # elements hold the original data, so both kinds sit within eb
        mirror = case.data.astype(np.float64).copy()
        rng = case_rng(case.seed ^ 0x570E, case.index)
        flat_pool = case.data.reshape(-1).astype(np.float64)
        for op in range(12):
            key = _random_basic_index(rng, arr.shape)
            if rng.random() < 0.5:
                got = np.asarray(arr[key], dtype=np.float64)
                want = np.asarray(mirror[key])
                if got.shape != want.shape:
                    raise _fail(
                        name, case,
                        f"read {key!r} shape {got.shape} != mirror {want.shape}",
                    )
                diag = _max_error_ok(want, got.astype(case.data.dtype), eb)
                if diag:
                    raise _fail(name, case, f"read {key!r}: {diag}")
            else:
                sel_shape = np.asarray(mirror[key]).shape
                # values drawn from the field itself (plus small eb-steps)
                # stay inside the stream's quantization range
                vals = rng.choice(flat_pool, size=sel_shape or ()) + eb * float(
                    rng.integers(-2, 3)
                )
                vals = vals.astype(case.data.dtype)
                arr[key] = vals
                mirror[key] = vals.astype(np.float64)
        # flush: clean verify + bit-identical monolithic round trip
        flushed = arr.flush()
        if arr.dirty_blocks:
            raise _fail(name, case, "dirty blocks survived flush()")
        report = verify_stream(flushed)
        if not report.ok:
            raise _fail(name, case, f"flushed stream fails verify: {report.summary()}")
        full = decompress(flushed)
        if full.shape != arr.shape or full.dtype != arr.dtype:
            raise _fail(
                name, case,
                f"flushed decode shape/dtype {full.shape}/{full.dtype} != "
                f"array {arr.shape}/{arr.dtype}",
            )
        via_array = np.asarray(arr[(slice(None),) * arr.ndim])
        if full.tobytes() != via_array.tobytes():
            raise _fail(
                name, case, "monolithic decode of flush() differs from array reads"
            )
        if full.tobytes() != arr.to_numpy().tobytes():
            raise _fail(name, case, "to_numpy() differs from monolithic decode")
        diag = _max_error_ok(mirror, full, eb)
        if diag:
            raise _fail(name, case, f"flushed state vs mirror: {diag}")
        # batched rewrite == sequential rewrite, byte for byte
        base = ctx.stream_for(case)
        ra = RandomAccessor(base)
        k = min(ra.nblocks, 3)
        idxs = sorted(rng.choice(ra.nblocks, size=k, replace=False).tolist())
        vals = [ra.decode_block(i)[::-1].copy() for i in idxs]
        batched = ra.rewrite_blocks(idxs, vals)
        seq = base
        for i, v in zip(idxs, vals):
            seq = RandomAccessor(seq).rewrite_block(i, v)
        if batched.tobytes() != seq.tobytes():
            raise _fail(
                name, case,
                f"rewrite_blocks({idxs}) differs from sequential rewrite_block",
            )

    try:
        _guard(name, case, _do, "compressed-array tier")
    except CuSZp2Error as e:
        raise _fail(
            name, case,
            f"store path rejected a finite input: {type(e).__name__}: {e}",
        ) from None


def oracle_serve_shm(case: FuzzCase, ctx: OracleContext) -> None:
    """The zero-copy shm transport against the inline codec.

    Every chunk stream produced by process workers running on
    ``transport="shm"`` must be byte-identical to the serial in-process
    compression, the assembled ``CSZ2CHNK`` container must match too, and
    the pool-side decode must equal the monolithic decode -- descriptors,
    arena reuse, and slot reclamation may never alter a payload.
    """
    name = "serve_shm"
    if case.expect_error is not None or ctx.shm_pool is None:
        return

    def _do():
        mono = ctx.stream_for(case)
        recon_mono = decompress(mono)
        n = case.data.size
        chunk_elems = max(1, n // 3)
        serial = compress_chunked(
            case.data, chunk_elems=chunk_elems, **case.codec_kwargs
        )
        pooled = compress_chunked(
            case.data, chunk_elems=chunk_elems, pool=ctx.shm_pool,
            **case.codec_kwargs,
        )
        if serial.nchunks != pooled.nchunks:
            raise _fail(
                name, case,
                f"shm pool planned {pooled.nchunks} chunks, inline {serial.nchunks}",
            )
        for i, (a, b) in enumerate(zip(serial.chunks, pooled.chunks)):
            if a.tobytes() != b.tobytes():
                raise _fail(
                    name, case, f"shm-pool chunk {i} bytes differ from inline"
                )
        if np.asarray(serial.to_bytes()).tobytes() != np.asarray(
            pooled.to_bytes()
        ).tobytes():
            raise _fail(name, case, "shm-pool container bytes differ from inline")
        if decompress_chunked(pooled, pool=ctx.shm_pool).tobytes() != recon_mono.tobytes():
            raise _fail(name, case, "shm-pool decode differs from monolithic")

    try:
        _guard(name, case, _do, "shm transport")
    except CuSZp2Error as e:
        raise _fail(
            name, case,
            f"shm path rejected a finite input: {type(e).__name__}: {e}",
        ) from None


#: The plugin-conformance sweep recompresses the case through every
#: registered codec, so it runs on a bounded prefix of big cases (the
#: hybrids, which drag a real Huffman pass along, get a tighter cap).
_CODEC_MAX_ELEMS = 2048
_CODEC_HEAVY_MAX_ELEMS = 256


def oracle_codecs(case: FuzzCase, ctx: OracleContext) -> None:
    """Every registered compressor plugin against the uniform contract.

    For hostile cases every plugin must answer with the case's expected
    classified error.  For finite cases every plugin must compress
    deterministically, decompress back to the exact dtype+shape, agree
    with the sniffing :func:`repro.codecs.decode`, and (bounded plugins)
    respect the error bound pointwise.  Baseline plugins may refuse a
    particular finite input with a classified error (e.g. FZ-GPU's 32-bit
    zigzag overflow); the default plugin may not.
    """
    name = "codecs"
    from .. import codecs as _codecs
    from ..core.quantize import ErrorBound, validate_input

    if case.expect_error is not None:
        for plugin in _codecs.list_plugins().values():
            opts = dict(case.bound_kwargs) if plugin.bounded else {}
            try:
                plugin.compress(case.data, **opts)
            except case.expect_error:
                continue
            except Exception as e:
                raise _fail(
                    name, case,
                    f"plugin {plugin.name!r}: expected "
                    f"{case.expect_error.__name__}, got {type(e).__name__}: {e}",
                ) from None
            raise _fail(
                name, case,
                f"plugin {plugin.name!r}: expected {case.expect_error.__name__}, "
                "but compress succeeded",
            )
        return

    flat = case.data.reshape(-1)

    def _do():
        for plugin in _codecs.list_plugins().values():
            cap = _CODEC_HEAVY_MAX_ELEMS if plugin.heavy else _CODEC_MAX_ELEMS
            sub = case.data
            if sub.size > cap or sub.ndim > plugin.max_ndim:
                sub = flat[: min(cap, flat.size)].copy()
            opts = dict(case.bound_kwargs) if plugin.bounded else {}
            try:
                stream = plugin.compress(sub, **opts)
            except CuSZp2Error as e:
                if plugin.name in ("cuszp2", "cuszp"):
                    raise _fail(
                        name, case,
                        f"plugin {plugin.name!r} rejected a finite input: "
                        f"{type(e).__name__}: {e}",
                    ) from None
                continue  # a classified refusal is a legal baseline answer
            again = plugin.compress(sub, **opts)
            if not np.array_equal(np.asarray(stream), np.asarray(again)):
                raise _fail(
                    name, case,
                    f"plugin {plugin.name!r} is nondeterministic: two runs differ",
                )
            recon = plugin.decompress(stream)
            if recon.dtype != sub.dtype:
                raise _fail(
                    name, case,
                    f"plugin {plugin.name!r}: dtype {sub.dtype} decoded as {recon.dtype}",
                )
            if recon.shape != sub.shape:
                raise _fail(
                    name, case,
                    f"plugin {plugin.name!r}: shape {sub.shape} decoded as {recon.shape}",
                )
            sniffed = _codecs.decode(stream)
            if sniffed.tobytes() != recon.tobytes():
                raise _fail(
                    name, case,
                    f"plugin {plugin.name!r}: sniffing decode() differs from "
                    "direct decompression",
                )
            if plugin.bounded:
                if "abs" in case.bound_kwargs:
                    eb_abs = float(case.bound_kwargs["abs"])
                else:
                    eb_abs = ErrorBound.relative(
                        float(case.bound_kwargs["rel"])
                    ).resolve(validate_input(sub))
                diag = _max_error_ok(sub, recon, eb_abs)
                if diag:
                    raise _fail(name, case, f"plugin {plugin.name!r}: {diag}")

    try:
        _guard(name, case, _do, "compressor plugins")
    except CuSZp2Error as e:
        raise _fail(
            name, case,
            f"plugin path raised on valid data: {type(e).__name__}: {e}",
        ) from None


#: name -> oracle; drives --paths selection and corpus replay.
ORACLES: Dict[str, Callable[[FuzzCase, OracleContext], None]] = {
    "roundtrip": oracle_roundtrip,
    "chunked": oracle_chunked,
    "random_access": oracle_random_access,
    "corruption": oracle_corruption,
    "store": oracle_store,
    "serve_shm": oracle_serve_shm,
    "codecs": oracle_codecs,
}


def applicable_oracles(case: FuzzCase, paths=None):
    """The subset of ``paths`` (default: all) that applies to ``case``."""
    names = list(paths) if paths else list(ORACLES)
    out = []
    for nm in names:
        if nm not in ORACLES:
            raise ValueError(f"unknown oracle {nm!r}; choose from {sorted(ORACLES)}")
        if nm in ("random_access", "store") and case.params["predictor_ndim"] != 1:
            continue
        if nm not in ("roundtrip", "codecs") and case.expect_error is not None:
            continue
        out.append(nm)
    return out
