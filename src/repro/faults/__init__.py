"""Deterministic fault injection for compressed streams.

Production compressed data crosses unreliable links and sits on storage
that bit-rots; this subsystem provides the *attack side* of the format-v2
integrity story: seedable injectors that damage a stream the way real
transports do (bit flips, truncation, burst erasure, header corruption),
plus a self-check harness (:func:`repro.faults.check.run_faultcheck`,
``repro faultcheck`` in the CLI) asserting that every injected fault is
either detected by the decoder or provably harmless.

The same injectors drive the corruption oracle of :mod:`repro.qa` and
the hypothesis fuzzing suite.

:mod:`repro.faults.chaos` extends the idea from bytes to *behavior*:
seeded worker hangs, crashes, slow responses, corrupted results, and
queue stalls injected below the serving layer's scheduler, with
:mod:`repro.faults.chaoscheck` (``repro chaoscheck``) running campaign
oracles -- every request succeeds in time, degrades with correct bytes,
or fails with a classified error; never hangs, never lies.
"""

from .chaos import ChaosConfig, ChaosWorkerPool, SimulatedCrash
from .chaoscheck import ChaosCheckConfig, ChaosCheckResult, run_chaoscheck
from .injectors import (
    INJECTORS,
    BitFlip,
    BurstErasure,
    FaultInjector,
    HeaderCorruption,
    Truncation,
    make_injector,
)
from .check import (
    FaultCheckResult,
    FaultTrial,
    check_recovery,
    classify_decode,
    run_faultcheck,
)

__all__ = [
    "ChaosConfig",
    "ChaosWorkerPool",
    "ChaosCheckConfig",
    "ChaosCheckResult",
    "SimulatedCrash",
    "run_chaoscheck",
    "FaultInjector",
    "BitFlip",
    "Truncation",
    "BurstErasure",
    "HeaderCorruption",
    "INJECTORS",
    "make_injector",
    "run_faultcheck",
    "FaultCheckResult",
    "FaultTrial",
    "classify_decode",
    "check_recovery",
]
