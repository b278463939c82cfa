"""Name of the codec's kernel path, for benchmark records.

The codec has one kernel path, the vectorized NumPy pipeline in
:mod:`repro.core.compressor`.  This stub exists only so the benchmark
suite's workload (``benchmarks/suite/workload.py``), which records
``resolve_backend("auto").name`` in every run's ``versions``, keeps
working; nothing in the package calls it.
"""

from types import SimpleNamespace


def resolve_backend(name: str = "auto") -> SimpleNamespace:
    """Return an object whose ``.name`` is ``"numpy"``, whatever ``name``."""
    return SimpleNamespace(name="numpy")
