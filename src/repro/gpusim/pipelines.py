"""Pipeline cost builders: functional codec results -> simulated timings.

This is where the two halves of the reproduction meet.  The functional
codecs (:mod:`repro.core`, :mod:`repro.baselines`) produce *measured*
artifacts -- real compressed sizes, zero-block fractions, block counts --
and the builders here convert them into :class:`PipelineCost` objects whose
evaluation on a :class:`DeviceSpec` yields simulated end-to-end throughput,
kernel throughput, and Nsight-style memory throughput.

Because traffic and payload-proportional work come from actual compression
results, dataset-dependent effects in the paper emerge rather than being
scripted: Outlier mode outrunning Plain mode on HACC (fewer bytes to emit,
Fig. 15), JetIn's zero blocks flushing at memset speed (Fig. 14), and
double precision doubling throughput (per-element ops over twice the bytes,
Fig. 19).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import calibration as cal
from .access import Pattern
from .device import DeviceSpec
from .kernelmodel import KernelCost, PipelineCost


@dataclass(frozen=True)
class Artifacts:
    """Measured facts about one (dataset, compressor, bound) run that the
    performance model consumes."""

    nelems: int
    elem_size: int  # 4 or 8
    compressed_bytes: int
    #: cuSZp2-format streams: payload and offset-section sizes; zero-block
    #: fraction drives the memset fast path.  Baselines leave these None/0.
    payload_bytes: Optional[int] = None
    offsets_bytes: Optional[int] = None
    zero_block_fraction: float = 0.0
    mode: str = "plain"

    @property
    def input_bytes(self) -> int:
        return self.nelems * self.elem_size

    @property
    def ratio(self) -> float:
        return self.input_bytes / self.compressed_bytes

    @property
    def n_thread_blocks(self) -> int:
        return -(-self.nelems // cal.ELEMS_PER_TB)

    @classmethod
    def from_cuszp2_stream(cls, data: np.ndarray, buf: np.ndarray) -> "Artifacts":
        """Derive artifacts from a real compressed stream."""
        from ..core import fle, stream

        header, offsets, payload = stream.split(buf)
        sizes = fle.block_payload_sizes(offsets, header.block)
        return cls(
            nelems=header.nelems,
            elem_size=header.dtype.itemsize,
            compressed_bytes=int(buf.size),
            payload_bytes=int(payload.size),
            offsets_bytes=int(offsets.size),
            zero_block_fraction=float(np.mean(sizes == 0)),
            mode="outlier" if header.mode else "plain",
        )


# ---------------------------------------------------------------------------
# Synchronization latencies (shared by the cuSZp2/cuSZp builders)
# ---------------------------------------------------------------------------

from functools import lru_cache

#: Discrete-event scans above this many thread blocks are simulated at the
#: cap and scaled linearly.  Both timelines are asymptotically linear in
#: block count -- the chained scan is a chain of identical links, and the
#: lookback pipeline advances wave by wave -- so only O(1) warm-up effects
#: are lost; validated against full runs in tests/gpusim/test_pipelines.py.
TIMELINE_CAP = 16384


def _run_timeline(work_per_tb_s: float, n_tb: int, device: DeviceSpec, kind: str):
    from ..scan.chained import chained_timeline
    from ..scan.lookback import lookback_timeline

    sim_n = min(n_tb, TIMELINE_CAP)
    work = np.full(sim_n, work_per_tb_s)
    fn = lookback_timeline if kind == "lookback" else chained_timeline
    tl = fn(work, cal.T_FLAG_S, device.resident_blocks)
    if sim_n == n_tb:
        return tl
    factor = n_tb / sim_n
    return type(tl)(
        local_finish_s=tl.local_finish_s * factor,
        scan_finish_s=tl.scan_finish_s * factor,
        nblocks=n_tb,
        **(
            {"mean_lookback_depth": tl.mean_lookback_depth}
            if hasattr(tl, "mean_lookback_depth")
            else {}
        ),
    )


@lru_cache(maxsize=1024)
def inkernel_sync_s(n_thread_blocks: int, device: DeviceSpec, kind: str) -> float:
    """Latency of the in-kernel Global Prefix-sum stage (step 3)."""
    if kind not in ("lookback", "chained"):
        raise ValueError(f"unknown sync kind {kind!r}")
    return _run_timeline(cal.T_SYNC_LOCAL_S, n_thread_blocks, device, kind).scan_finish_s


@lru_cache(maxsize=256)
def standalone_scan_timeline(nelems: int, elem_size: int, device: DeviceSpec, kind: str):
    """The Fig.-17 experiment: a device-wide scan stage where every thread
    block streams its tile (local reduce over real data) before the global
    step.  Per-block work is the tile's share of DRAM at the scan stage's
    sustainable utilization."""
    n_tb = -(-nelems // cal.ELEMS_PER_TB)
    tb_bytes = cal.ELEMS_PER_TB * elem_size
    per_tb_bw = device.dram_bw * cal.SCAN_LOCAL_UTIL / device.resident_blocks  # GB/s
    return _run_timeline(tb_bytes / (per_tb_bw * 1e9), n_tb, device, kind)


# ---------------------------------------------------------------------------
# cuSZp2 (ours)
# ---------------------------------------------------------------------------

def cuszp2_compression(
    art: Artifacts,
    device: DeviceSpec,
    vectorized: bool = True,
    sync: str = "lookback",
) -> PipelineCost:
    """CUSZP2-P/-O single-kernel compression."""
    n = art.input_bytes
    k = KernelCost("cuszp2-compress")
    # Two passes over the input: sizing pass + emission pass (Section V-B).
    k.read(n, Pattern.VECTORIZED, "input pass 1")
    k.read(n, Pattern.VECTORIZED, "input pass 2")
    k.write(art.payload_bytes, Pattern.BLOCK_SCATTER, "compressed payload")
    k.write(art.offsets_bytes, Pattern.COALESCED, "offset bytes")
    k.write(8 * art.n_thread_blocks, Pattern.COALESCED, "scan descriptors")
    ops = cal.QUANT_OPS_PER_ELEM * art.nelems
    ops += cal.PACK_OPS_PER_PAYLOAD_BYTE * art.payload_bytes
    if art.mode == "outlier":
        ops += cal.SELECT_OPS_PER_ELEM * art.nelems
    k.compute(ops)
    k.sync(inkernel_sync_s(art.n_thread_blocks, device, sync))
    if not vectorized:
        from .kernelmodel import ablate_vectorization

        k = ablate_vectorization(k)
    return PipelineCost("cuszp2-compress", [k])


def cuszp2_decompression(
    art: Artifacts,
    device: DeviceSpec,
    vectorized: bool = True,
    sync: str = "lookback",
) -> PipelineCost:
    """Single-kernel decompression; zero blocks are flushed with a
    cudaMemset-speed fill and skip dequantization entirely (Section V-B's
    explanation of JetIn's 1 TB/s decompression)."""
    n = art.input_bytes
    z = art.zero_block_fraction
    k = KernelCost("cuszp2-decompress")
    k.read(art.payload_bytes, Pattern.VECTORIZED, "compressed payload")
    k.read(art.offsets_bytes, Pattern.COALESCED, "offset bytes")
    k.write(n * (1.0 - z), Pattern.VECTORIZED, "reconstructed data")
    if z > 0:
        k.write(n * z, Pattern.MEMSET, "zero-block flush")
    ops = cal.DEQUANT_OPS_PER_ELEM * art.nelems * (1.0 - z)
    ops += cal.UNPACK_OPS_PER_PAYLOAD_BYTE * art.payload_bytes
    k.compute(ops)
    k.sync(inkernel_sync_s(art.n_thread_blocks, device, sync))
    if not vectorized:
        from .kernelmodel import ablate_vectorization

        k = ablate_vectorization(k)
    return PipelineCost("cuszp2-decompress", [k])


def cuszp2_random_access(art: Artifacts, device: DeviceSpec, blocks_accessed: int = 1) -> PipelineCost:
    """Random access (Section VI-B): read all offset bytes, run the global
    prefix sum, decode only the requested block(s)."""
    k = KernelCost("cuszp2-random-access")
    k.read(art.offsets_bytes, Pattern.COALESCED, "offset bytes")
    mean_block_payload = art.payload_bytes / max(art.offsets_bytes, 1)
    k.read(mean_block_payload * blocks_accessed, Pattern.COALESCED, "target blocks")
    k.write(32 * art.elem_size * blocks_accessed, Pattern.COALESCED, "decoded block")
    # Offset decode is byte-serial per thread; zero blocks short-circuit.
    ops = cal.RA_OPS_PER_OFFSET_BYTE * art.offsets_bytes * (1.0 - art.zero_block_fraction)
    k.compute(ops + cal.UNPACK_OPS_PER_PAYLOAD_BYTE * mean_block_payload * blocks_accessed)
    n_tb = -(-(art.offsets_bytes or 1) // cal.ELEMS_PER_TB)
    k.sync(inkernel_sync_s(max(n_tb, 1), device, "lookback"))
    return PipelineCost("cuszp2-random-access", [k])


# ---------------------------------------------------------------------------
# cuSZp (the predecessor: same format, scalar access, chained scan)
# ---------------------------------------------------------------------------

def cuszp_compression(art: Artifacts, device: DeviceSpec) -> PipelineCost:
    k = KernelCost("cuszp-compress")
    # Paper Fig. 16: "strided and scalar-manner memory access patterns".
    k.read(art.input_bytes, Pattern.STRIDED, "input pass 1")
    k.read(art.input_bytes, Pattern.COALESCED, "input pass 2")
    k.write(art.payload_bytes, Pattern.BLOCK_SCATTER, "compressed payload")
    k.write(art.offsets_bytes, Pattern.COALESCED, "offset bytes")
    k.compute(
        cal.QUANT_OPS_PER_ELEM * art.nelems
        + cal.PACK_OPS_PER_PAYLOAD_BYTE * art.payload_bytes
    )
    k.sync(inkernel_sync_s(art.n_thread_blocks, device, "chained"))
    return PipelineCost("cuszp-compress", [k])


def cuszp_decompression(art: Artifacts, device: DeviceSpec) -> PipelineCost:
    z = art.zero_block_fraction
    k = KernelCost("cuszp-decompress")
    k.read(art.payload_bytes, Pattern.COALESCED, "compressed payload")
    k.read(art.offsets_bytes, Pattern.COALESCED, "offset bytes")
    k.write(art.input_bytes * (1 - z), Pattern.STRIDED, "reconstructed data")
    if z > 0:
        k.write(art.input_bytes * z, Pattern.MEMSET, "zero-block flush")
    k.compute(
        cal.DEQUANT_OPS_PER_ELEM * art.nelems * (1 - z)
        + cal.UNPACK_OPS_PER_PAYLOAD_BYTE * art.payload_bytes
    )
    k.sync(inkernel_sync_s(art.n_thread_blocks, device, "chained"))
    return PipelineCost("cuszp-decompress", [k])


# ---------------------------------------------------------------------------
# FZ-GPU (multi-kernel: quant+Lorenzo, bitshuffle, atomic compaction)
# ---------------------------------------------------------------------------

def fzgpu_compression(art: Artifacts, device: DeviceSpec) -> PipelineCost:
    n = art.input_bytes
    k1 = KernelCost("fzgpu-quant-lorenzo")
    k1.read(n, Pattern.COALESCED).write(n, Pattern.COALESCED)
    k1.compute(cal.FZGPU_OPS_PER_ELEM * art.nelems)
    k2 = KernelCost("fzgpu-bitshuffle")
    k2.read(n, Pattern.COALESCED).write(n, Pattern.COALESCED)
    k2.compute(cal.FZGPU_SHUFFLE_OPS_PER_ELEM * art.nelems)
    k3 = KernelCost("fzgpu-compaction")
    k3.read(n, Pattern.COALESCED, "shuffled planes")
    k3.write(art.compressed_bytes, Pattern.ATOMIC, "compacted output")
    k3.compute(8.0 * art.nelems)
    return PipelineCost("fzgpu-compress", [k1, k2, k3])


def fzgpu_decompression(art: Artifacts, device: DeviceSpec) -> PipelineCost:
    n = art.input_bytes
    k1 = KernelCost("fzgpu-expand")
    k1.read(art.compressed_bytes, Pattern.ATOMIC).write(n, Pattern.COALESCED)
    k1.compute(8.0 * art.nelems)
    k2 = KernelCost("fzgpu-unshuffle")
    k2.read(n, Pattern.COALESCED).write(n, Pattern.COALESCED)
    k2.compute(cal.FZGPU_SHUFFLE_OPS_PER_ELEM * art.nelems)
    k3 = KernelCost("fzgpu-dequant")
    k3.read(n, Pattern.COALESCED).write(n, Pattern.COALESCED)
    k3.compute(cal.FZGPU_OPS_PER_ELEM * art.nelems)
    return PipelineCost("fzgpu-decompress", [k1, k2, k3])


# ---------------------------------------------------------------------------
# cuZFP (fixed-rate transform coder; compute-bound)
# ---------------------------------------------------------------------------

def cuzfp_compression(art: Artifacts, device: DeviceSpec) -> PipelineCost:
    k = KernelCost("cuzfp-encode")
    k.read(art.input_bytes, Pattern.STRIDED, "4^d brick gather")
    k.write(art.compressed_bytes, Pattern.COALESCED, "fixed-rate stream")
    k.compute(cal.CUZFP_OPS_PER_ELEM * art.nelems)
    return PipelineCost("cuzfp-compress", [k])


def cuzfp_decompression(art: Artifacts, device: DeviceSpec) -> PipelineCost:
    k = KernelCost("cuzfp-decode")
    k.read(art.compressed_bytes, Pattern.COALESCED)
    k.write(art.input_bytes, Pattern.STRIDED, "4^d brick scatter")
    k.compute(cal.CUZFP_DECODE_OPS_PER_ELEM * art.nelems)
    return PipelineCost("cuzfp-decompress", [k])


# ---------------------------------------------------------------------------
# CPU-GPU hybrids (Fig. 2): cuSZ, cuSZx, MGARD-GPU
# ---------------------------------------------------------------------------

def hybrid_compression(art: Artifacts, device: DeviceSpec, family: str) -> PipelineCost:
    """Hybrid pipelines pay PCIe transfers and host-side stages on top of
    their kernels -- the kernel vs. end-to-end gap of Fig. 2."""
    if family not in cal.HYBRID_HOST_FRACTION:
        raise ValueError(f"unknown hybrid family {family!r}")
    n = art.input_bytes
    k = KernelCost(f"{family}-kernels")
    k.read(n, Pattern.COALESCED).write(n, Pattern.COALESCED)
    k.compute(cal.HYBRID_KERNEL_OPS_PER_ELEM[family] * art.nelems)
    pipe = PipelineCost(f"{family}-compress", [k])
    pipe.pcie_bytes = n + art.compressed_bytes  # codes down, stream back up
    pipe.host_bytes = cal.HYBRID_HOST_FRACTION[family] * n
    pipe.host_fixed_s = cal.HYBRID_HOST_FIXED_S[family]
    return pipe


def hybrid_decompression(art: Artifacts, device: DeviceSpec, family: str) -> PipelineCost:
    n = art.input_bytes
    k = KernelCost(f"{family}-kernels")
    k.read(n, Pattern.COALESCED).write(n, Pattern.COALESCED)
    k.compute(cal.HYBRID_KERNEL_OPS_PER_ELEM[family] * art.nelems * 0.8)
    pipe = PipelineCost(f"{family}-decompress", [k])
    pipe.pcie_bytes = art.compressed_bytes + n
    pipe.host_bytes = cal.HYBRID_HOST_FRACTION[family] * n * 0.7  # decode side
    pipe.host_fixed_s = cal.HYBRID_HOST_FIXED_S[family] * 0.5
    return pipe
