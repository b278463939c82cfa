"""Serve-suite fixtures.

The autouse leak check enforces the shm transport's central lifecycle
invariant: no test may leave a shared-memory segment mapped or linked.
Both views are checked -- the in-process creator registry
(``active_segments``) and the kernel's ``/dev/shm`` directory (which
also catches segments a crashed child left behind).
"""

import glob

import pytest

from repro.serve import pool as pool_module
from repro.serve.shm import SEGMENT_PREFIX, active_segments


def _dev_shm_segments():
    return sorted(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*"))


@pytest.fixture(autouse=True)
def no_shm_leaks():
    before = set(_dev_shm_segments())
    yield
    leaked = active_segments()
    assert not leaked, f"test leaked live shm arenas: {leaked}"
    on_disk = [s for s in _dev_shm_segments() if s not in before]
    assert not on_disk, f"test leaked /dev/shm segments: {on_disk}"


@pytest.fixture
def slow_tick(monkeypatch):
    """Stretch the pool manager's housekeeping tick to 5 s (the scheduler
    has no tick).  A submitter hands work straight to an idle worker and
    worker messages wake the manager, so work must still flow in
    milliseconds; anything that waits for the tick instead shows up as a
    multi-second stall."""
    monkeypatch.setattr(pool_module, "HOUSEKEEPING_TICK_S", 5.0)
