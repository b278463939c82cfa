"""Stream verification: the paper's 'Pass error check!' as a library call.

The AE appendix's binaries end every run with an internal error-bound
check.  :func:`verify` packages that: decompress a stream against its
original data and report whether the stored bound held, along with the
quality numbers a user would log.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import stream as stream_mod
from .compressor import decompress


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of verifying a compressed stream against its original."""

    passed: bool
    eb_abs: float
    max_error: float
    psnr_db: float
    compression_ratio: float
    nelems: int

    def __str__(self) -> str:
        status = "Pass error check!" if self.passed else "ERROR CHECK FAILED"
        return (
            f"{status}\n"
            f"  error bound:  {self.eb_abs:.6e}\n"
            f"  max error:    {self.max_error:.6e}\n"
            f"  PSNR:         {self.psnr_db:.2f} dB\n"
            f"  ratio:        {self.compression_ratio:.4f}"
        )


def verify(original: np.ndarray, stream) -> VerificationReport:
    """Decompress ``stream`` and check it against ``original``.

    The pass criterion is the codec's guarantee: pointwise error at most
    the stored absolute bound plus a half-ULP of the reconstruction (see
    ``repro.core.quantize``).
    """
    from ..metrics import max_abs_error, psnr

    buf = stream_mod.as_stream_bytes(stream)
    header, _, _ = stream_mod.split(buf)
    recon = decompress(buf)

    flat_orig = np.asarray(original).reshape(-1)
    flat_recon = np.asarray(recon).reshape(-1)
    if flat_orig.size != flat_recon.size:
        raise ValueError(
            f"original has {flat_orig.size} elements, stream decodes {flat_recon.size}"
        )
    err = max_abs_error(flat_orig, flat_recon)
    slack = 0.5 * float(np.spacing(np.abs(flat_recon).max())) if flat_recon.size else 0.0
    return VerificationReport(
        passed=err <= header.eb_abs + slack,
        eb_abs=header.eb_abs,
        max_error=err,
        psnr_db=psnr(flat_orig, flat_recon),
        compression_ratio=flat_orig.size * flat_orig.dtype.itemsize / buf.size,
        nelems=header.nelems,
    )
