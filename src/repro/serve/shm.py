"""Zero-copy shared-memory transport for process workers.

The pickled transport serializes every chunk payload (and every result)
through a ``multiprocessing`` queue: two full copies plus pickle framing
per crossing, which is what capped BENCH_serve.json's process-worker
scaling.  This module replaces the *payload bytes* with named
``multiprocessing.shared_memory`` segments: ndarrays are written once
into a slot of a shared arena and only a tiny :class:`ShmDescriptor`
(segment, slot, offset, length, dtype, shape, generation) crosses the
queue.  The worker maps the same segment and reads the payload as a
zero-copy NumPy view; results travel back the same way.  Thread workers
already share the caller's memory, so a thread pool refuses this
transport.

Safety model (the part chaos must not break):

* every slot carries a header ``(refcount, generation, owner_pid,
  used_bytes)``; allocation bumps the generation, so a descriptor is
  valid only while its generation matches the slot's.  Releasing with a
  stale generation is a no-op (double-free safe) and *reading* through a
  stale descriptor raises :class:`ShmReclaimed` -- a classified
  :class:`~repro.serve.pool.TaskError` subclass, never garbage bytes.
* request slots are owned by the dispatching parent: it releases them
  when the task completes or when crash recovery gives up on the worker.
  Result slots are owned by the worker that allocated them (``owner_pid``
  records it); the parent copies the result out and releases the slot,
  and :meth:`ShmArena.reclaim_owner` frees everything a worker that died
  mid-write left behind.
* payloads that do not fit a slot (or find the arena full) fall back to
  the pickled path, counted in ``pool.transport.fallbacks`` -- the
  transport degrades, it never refuses work.

Python < 3.13 registers *every* attach with the ``resource_tracker``,
which would unlink the segment when the first worker exits; attaches here
go through :func:`_attach_segment`, which suppresses that registration
(``track=False`` on interpreters that have it).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .pool import TaskError

__all__ = [
    "SEGMENT_PREFIX",
    "ShmArena",
    "ShmDescriptor",
    "ShmReclaimed",
    "ShmTransport",
    "TRANSPORTS",
    "active_segments",
    "payload_nbytes",
]

#: Every arena segment name starts with this, so tests (and operators)
#: can audit ``/dev/shm`` for leaks without false positives.
SEGMENT_PREFIX = "reproshm-"

#: Transport names accepted by the pool / service / CLI.
TRANSPORTS = ("pickle", "shm")

#: ndarrays smaller than this ride the pickled path even under shm --
#: a descriptor plus a slot round-trip costs more than pickling does.
DEFAULT_MIN_BYTES = 4096

#: Per-slot header: refcount, generation, owner_pid, used_bytes (int64).
_HDR_FIELDS = 4
_HDR_BYTES = _HDR_FIELDS * 8
_REFCOUNT, _GENERATION, _OWNER, _USED = range(_HDR_FIELDS)

#: Live arena names created by *this* process (for leak auditing).
_LIVE_SEGMENTS: Dict[str, "ShmArena"] = {}
_LIVE_LOCK = threading.Lock()


class ShmReclaimed(TaskError):
    """A descriptor pointed at a slot that was already reclaimed (its
    generation moved on).  Classified and retryable: the payload is gone
    but re-encoding from the original argument succeeds."""


def active_segments() -> List[str]:
    """Names of arena segments created by this process and not yet
    destroyed -- the leak-check hook used by the test suite."""
    with _LIVE_LOCK:
        return sorted(_LIVE_SEGMENTS)


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker side
    effects (pre-3.13 registers every attach, which would unlink the
    segment when any single attaching process exits)."""
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track flag
        pass
    from multiprocessing import resource_tracker

    orig = resource_tracker.register
    resource_tracker.register = lambda *a, **kw: None  # type: ignore[assignment]
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = orig  # type: ignore[assignment]


@dataclass(frozen=True)
class ShmDescriptor:
    """A payload's address: everything a peer needs to map it back.

    ``offset``/``nbytes`` locate the bytes inside ``segment``;
    ``slot``/``generation`` validate the claim against the slot header
    (a reclaimed slot's generation has moved on).  ``dtype``/``shape``/
    ``order`` rebuild the ndarray view without copying.
    """

    segment: str
    slot: int
    offset: int
    nbytes: int
    generation: int
    dtype: str
    shape: Tuple[int, ...]
    order: str = "C"


class ShmArena:
    """A named shared segment carved into fixed-size refcounted slots.

    The creating process owns the segment (and unlinks it on
    :meth:`destroy`); workers attach by name.  All slot-state mutation
    happens under ``lock`` -- a ``multiprocessing`` lock shared by fork /
    spawn args, so parent and workers serialize against each other.
    """

    def __init__(
        self,
        nslots: int = 16,
        slot_bytes: int = 8 << 20,
        name: Optional[str] = None,
        lock=None,
        _attach: bool = False,
    ):
        if nslots < 1:
            raise ValueError(f"nslots must be >= 1, got {nslots}")
        if slot_bytes < _HDR_BYTES:
            raise ValueError(f"slot_bytes must be >= {_HDR_BYTES}, got {slot_bytes}")
        self.nslots = nslots
        self.slot_bytes = slot_bytes
        self._data_off = nslots * _HDR_BYTES
        total = self._data_off + nslots * slot_bytes
        if lock is None:
            import multiprocessing

            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-fork platforms
                ctx = multiprocessing.get_context()
            lock = ctx.Lock()
        self.lock = lock
        self._closed = False
        if _attach:
            self.name = name
            self._owner = False
            self._shm = _attach_segment(name)
        else:
            self.name = (
                name
                if name is not None
                else f"{SEGMENT_PREFIX}{os.getpid():x}-{os.urandom(4).hex()}"
            )
            self._owner = True
            self._shm = shared_memory.SharedMemory(
                name=self.name, create=True, size=total
            )
            self._headers().fill(0)
            with _LIVE_LOCK:
                _LIVE_SEGMENTS[self.name] = self
        # generation counters survive attach (they live in the segment)

    # -- spec / attach -------------------------------------------------------

    def spec(self) -> tuple:
        """Picklable attach recipe for worker processes."""
        return (self.name, self.nslots, self.slot_bytes, self.lock)

    @classmethod
    def attach(cls, spec: tuple) -> "ShmArena":
        name, nslots, slot_bytes, lock = spec
        return cls(nslots=nslots, slot_bytes=slot_bytes, name=name, lock=lock,
                   _attach=True)

    # -- raw views -----------------------------------------------------------

    def _headers(self) -> np.ndarray:
        return np.ndarray(
            (self.nslots, _HDR_FIELDS), dtype=np.int64, buffer=self._shm.buf
        )

    def _slot_view(self, slot: int, nbytes: int, offset_in_slot: int = 0) -> np.ndarray:
        off = self._data_off + slot * self.slot_bytes + offset_in_slot
        return np.ndarray((nbytes,), dtype=np.uint8, buffer=self._shm.buf, offset=off)

    def slot_offset(self, slot: int) -> int:
        """Byte offset of ``slot``'s payload region inside the segment."""
        return self._data_off + slot * self.slot_bytes

    # -- slot lifecycle ------------------------------------------------------

    def alloc(self, nbytes: int) -> Optional[Tuple[int, int]]:
        """Claim a free slot for ``nbytes``; ``(slot, generation)`` or
        ``None`` when the payload does not fit / the arena is full."""
        if self._closed or nbytes > self.slot_bytes:
            return None
        with self.lock:
            hdr = self._headers()
            free = np.flatnonzero(hdr[:, _REFCOUNT] == 0)
            if free.size == 0:
                return None
            slot = int(free[0])
            gen = int(hdr[slot, _GENERATION]) + 1
            hdr[slot, _REFCOUNT] = 1
            hdr[slot, _GENERATION] = gen
            hdr[slot, _OWNER] = os.getpid()
            hdr[slot, _USED] = nbytes
            return slot, gen

    def write(self, slot: int, payload: np.ndarray) -> None:
        """Copy ``payload`` bytes into a claimed slot."""
        flat = np.ascontiguousarray(payload).view(np.uint8).reshape(-1)
        self._slot_view(slot, flat.size)[:] = flat

    def put(self, arr: np.ndarray) -> Optional[ShmDescriptor]:
        """Claim a slot, write ``arr`` into it, and return its descriptor
        (``None`` on fallback)."""
        contiguous = np.ascontiguousarray(arr)
        claim = self.alloc(contiguous.nbytes)
        if claim is None:
            return None
        slot, gen = claim
        self.write(slot, contiguous)
        return ShmDescriptor(
            segment=self.name,
            slot=slot,
            offset=self.slot_offset(slot),
            nbytes=int(contiguous.nbytes),
            generation=gen,
            dtype=np.dtype(arr.dtype).str,
            shape=tuple(int(s) for s in arr.shape),
        )

    def get(self, desc: ShmDescriptor, copy: bool = False) -> np.ndarray:
        """Resolve a descriptor to an ndarray.

        ``copy=False`` returns a read-only zero-copy view (valid until
        the slot is released); ``copy=True`` detaches from the segment.
        A stale descriptor (reclaimed slot) raises :class:`ShmReclaimed`.
        """
        if desc.segment != self.name:
            raise ShmReclaimed(
                f"descriptor for segment {desc.segment!r} resolved against "
                f"{self.name!r}"
            )
        with self.lock:
            hdr = self._headers()
            if (
                desc.slot < 0
                or desc.slot >= self.nslots
                or int(hdr[desc.slot, _GENERATION]) != desc.generation
                or int(hdr[desc.slot, _REFCOUNT]) <= 0
            ):
                raise ShmReclaimed(
                    f"slot {desc.slot} of {self.name} was reclaimed "
                    f"(descriptor generation {desc.generation})"
                )
            raw = self._slot_view(desc.slot, desc.nbytes)
            arr = np.ndarray(desc.shape, dtype=np.dtype(desc.dtype), buffer=raw.data)
            if copy:
                return arr.copy()
            view = arr.view()
            view.setflags(write=False)
            return view

    def release(self, desc: ShmDescriptor) -> bool:
        """Drop one reference; generation-guarded, so releasing twice (or
        after a reclaim) is a safe no-op.  True when the ref was live."""
        if self._closed or desc.segment != self.name:
            return False
        with self.lock:
            hdr = self._headers()
            if (
                desc.slot < 0
                or desc.slot >= self.nslots
                or int(hdr[desc.slot, _GENERATION]) != desc.generation
                or int(hdr[desc.slot, _REFCOUNT]) <= 0
            ):
                return False
            hdr[desc.slot, _REFCOUNT] -= 1
            if hdr[desc.slot, _REFCOUNT] <= 0:
                hdr[desc.slot, _REFCOUNT] = 0
                hdr[desc.slot, _OWNER] = 0
                hdr[desc.slot, _USED] = 0
            return True

    def reclaim_owner(self, pid: int) -> int:
        """Free every slot owned by ``pid`` (a worker that died mid-write
        left them claimed forever otherwise).  Returns slots reclaimed."""
        if self._closed:
            return 0
        with self.lock:
            hdr = self._headers()
            mine = np.flatnonzero(
                (hdr[:, _OWNER] == pid) & (hdr[:, _REFCOUNT] > 0)
            )
            for slot in mine:
                hdr[slot, _REFCOUNT] = 0
                hdr[slot, _GENERATION] += 1  # invalidate outstanding descriptors
                hdr[slot, _OWNER] = 0
                hdr[slot, _USED] = 0
            return int(mine.size)

    def slots_in_use(self) -> int:
        with self.lock:
            return int(np.count_nonzero(self._headers()[:, _REFCOUNT] > 0))

    # -- teardown ------------------------------------------------------------

    def close(self) -> None:
        """Unmap this process's view (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        except (OSError, BufferError):  # pragma: no cover - torn-down mapping
            pass

    def destroy(self) -> None:
        """Close and unlink the segment (creator only; idempotent)."""
        owner = self._owner
        self.close()
        if owner:
            self._owner = False
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            with _LIVE_LOCK:
                _LIVE_SEGMENTS.pop(self.name, None)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.destroy() if self._owner else self.close()


# ---------------------------------------------------------------------------
# Payload walkers
# ---------------------------------------------------------------------------

def payload_nbytes(obj: Any) -> int:
    """Total ndarray bytes reachable inside a task payload (the bytes a
    pickled crossing would copy; descriptor crossings move ~100)."""
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, dict):
        return sum(payload_nbytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(payload_nbytes(v) for v in obj)
    return 0


class ShmTransport:
    """Encode/decode task payloads against a shared :class:`ShmArena`.

    One transport per pool; the parent creates it, workers attach via
    :meth:`spec`/:meth:`attach`.  ``encode`` swaps every ndarray of at
    least ``min_bytes`` for a :class:`ShmDescriptor` (recursing dicts /
    lists / tuples, so chunk dicts, batch tuples, and chaos directives
    all work unchanged); ``decode`` swaps them back.  Arrays that do not
    fit ride the pickled path and are counted as fallbacks.
    """

    name = "shm"

    def __init__(self, arena: ShmArena, min_bytes: int = DEFAULT_MIN_BYTES):
        self.arena = arena
        self.min_bytes = min_bytes
        self.fallbacks = 0  # arrays big enough for shm that did not fit
        self._fb_lock = threading.Lock()

    @classmethod
    def create(
        cls,
        nslots: int = 16,
        slot_bytes: int = 8 << 20,
        min_bytes: int = DEFAULT_MIN_BYTES,
    ) -> "ShmTransport":
        return cls(ShmArena(nslots=nslots, slot_bytes=slot_bytes), min_bytes)

    def spec(self) -> tuple:
        return ("shm", self.arena.spec(), self.min_bytes)

    @classmethod
    def attach(cls, spec: tuple) -> "ShmTransport":
        tag, arena_spec, min_bytes = spec
        if tag != "shm":  # pragma: no cover - defensive
            raise ValueError(f"not an shm transport spec: {spec!r}")
        return cls(ShmArena.attach(arena_spec), min_bytes)

    # -- encode/decode -------------------------------------------------------

    def encode(self, obj: Any, refs: Optional[List[ShmDescriptor]] = None):
        """Replace large ndarrays in ``obj`` with descriptors.

        Returns ``(encoded, refs)`` where ``refs`` lists every descriptor
        created -- the caller owns those references and must
        :meth:`release_refs` them when the peer is done (or lost)."""
        if refs is None:
            refs = []
        encoded = self._encode(obj, refs)
        return encoded, refs

    def _encode(self, obj: Any, refs: List[ShmDescriptor]) -> Any:
        if isinstance(obj, np.ndarray):
            if obj.nbytes < self.min_bytes:
                return obj
            desc = self.arena.put(obj)
            if desc is None:
                with self._fb_lock:
                    self.fallbacks += 1
                return obj
            refs.append(desc)
            return desc
        if isinstance(obj, dict):
            return {k: self._encode(v, refs) for k, v in obj.items()}
        if isinstance(obj, tuple):
            return tuple(self._encode(v, refs) for v in obj)
        if isinstance(obj, list):
            return [self._encode(v, refs) for v in obj]
        return obj

    def decode(self, obj: Any, copy: bool = False) -> Any:
        """Resolve descriptors back to ndarrays (zero-copy views by
        default; ``copy=True`` detaches from the arena)."""
        if isinstance(obj, ShmDescriptor):
            return self.arena.get(obj, copy=copy)
        if isinstance(obj, dict):
            return {k: self.decode(v, copy) for k, v in obj.items()}
        if isinstance(obj, tuple):
            return tuple(self.decode(v, copy) for v in obj)
        if isinstance(obj, list):
            return [self.decode(v, copy) for v in obj]
        return obj

    # -- accounting / reclamation -------------------------------------------

    @staticmethod
    def descriptors(obj: Any, out: Optional[List[ShmDescriptor]] = None):
        """Every descriptor reachable inside ``obj``."""
        if out is None:
            out = []
        if isinstance(obj, ShmDescriptor):
            out.append(obj)
        elif isinstance(obj, dict):
            for v in obj.values():
                ShmTransport.descriptors(v, out)
        elif isinstance(obj, (list, tuple)):
            for v in obj:
                ShmTransport.descriptors(v, out)
        return out

    def release_refs(self, refs: List[ShmDescriptor]) -> None:
        for desc in refs:
            self.arena.release(desc)

    def release_all(self, obj: Any) -> None:
        """Release every descriptor reachable in ``obj`` (used for late
        results from abandoned workers, which would otherwise leak)."""
        self.release_refs(self.descriptors(obj))

    def reclaim_owner(self, pid: int) -> int:
        return self.arena.reclaim_owner(pid)

    def close(self) -> None:
        self.arena.close()

    def destroy(self) -> None:
        self.arena.destroy()


def make_transport(transport, nslots: int = 16, slot_bytes: int = 8 << 20,
                   min_bytes: int = DEFAULT_MIN_BYTES):
    """``None`` for the pickled path (``"pickle"`` or ``None``), a new
    :class:`ShmTransport` for ``"shm"``."""
    if transport is None or transport == "pickle":
        return None
    if transport == "shm":
        return ShmTransport.create(
            nslots=nslots, slot_bytes=slot_bytes, min_bytes=min_bytes
        )
    raise ValueError(f"transport must be one of {TRANSPORTS}, got {transport!r}")
