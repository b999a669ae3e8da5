"""Shared-memory scene shipping for the persistent worker runtime.

The persistent backend (:mod:`repro.experiments.persistent`) keeps worker
processes alive across plans and moves the bulky scene payloads out of the
pickle stream: a plan's job images (and transfer mask stacks) are interned
once per distinct array into ``multiprocessing.shared_memory`` segments by
the parent's :class:`SharedScenePool`; each dispatched job carries only a
:class:`SharedArrayRef` (segment name, shape, dtype) and the worker maps it
back to a read-only view through its :class:`SharedArrayAttachments`
cache.  A transfer plan whose N jobs all share one scene ships the pixels
exactly once, not N times.  This is the runtime's only cross-process
array traffic: workers cache activation bundles in private memory.

CPython's :mod:`multiprocessing.resource_tracker` registers *every*
``SharedMemory`` attach — owner or not — and unlinks registered segments
when the attaching process exits.  A worker that merely mapped a parent's
scene segment would therefore destroy it for everyone on shutdown;
:func:`attach_shared_memory` attaches and immediately unregisters, making
attachment side-effect free.  Ownership is strictly creator-side: the scene
pool unlinks what it created, and :func:`reap_segments` unlinks by prefix
what a killed parent left behind.
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass
# Imported here, never lazily: a worker forked while another thread of the
# parent is importing these modules deadlocks on the inherited import lock.
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.detectors.activation_cache import image_digest

#: Arrays smaller than this are cheaper to pickle than to segment (the
#: attach + mmap round-trip has fixed cost); they stay in the job payload.
SHARE_MIN_BYTES = 16 * 1024

#: Job attributes eligible for shared-memory shipping.  Covers the scene
#: (every job type) and the transfer stage's stacked mask tensor; anything
#: else a job carries is small provenance.
SHAREABLE_JOB_ATTRS: tuple[str, ...] = ("image", "masks")

#: Where the platform exposes POSIX shared memory as files (Linux).  Leak
#: audits and crash reaping scan it; on platforms without it both degrade
#: to no-ops and only the tracker-based cleanup applies.
SHM_DIR = "/dev/shm"


def attach_shared_memory(name: str):
    """Attach to an existing segment without adopting ownership of it.

    Plain ``SharedMemory(name=...)`` registers the mapping with the
    resource tracker even though this process did not create the segment,
    which would unlink it when this process exits; the unregister makes the
    attach purely observational.
    """
    segment = shared_memory.SharedMemory(name=name)
    try:
        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker is an implementation detail
        pass
    return segment


def list_segments(prefix: str) -> list[str]:
    """Names of live segments under ``prefix`` (leak audits; Linux only)."""
    if not os.path.isdir(SHM_DIR):  # pragma: no cover - non-Linux fallback
        return []
    return sorted(entry for entry in os.listdir(SHM_DIR) if entry.startswith(prefix))


def reap_segments(prefix: str) -> list[str]:
    """Force-unlink every segment under ``prefix``; returns what was reaped.

    The fallback for scene segments whose pool never closed: a parent
    killed mid-plan cannot unlink its pool, so a later process reaps the
    dead runtime's prefix (``rpr<pid>``) by name, and
    :meth:`~repro.experiments.persistent.PersistentWorkerRuntime.close`
    reaps its own prefix as a backstop.
    """
    reaped = []
    for entry in list_segments(prefix):
        try:
            os.unlink(os.path.join(SHM_DIR, entry))
            reaped.append(entry)
        except OSError:  # pragma: no cover - raced with normal cleanup
            pass
    return reaped


@dataclass(frozen=True)
class SharedArrayRef:
    """A picklable pointer to an array living in a shared segment."""

    segment: str
    shape: tuple
    dtype: str

    @property
    def nbytes(self) -> int:
        return int(np.dtype(self.dtype).itemsize * int(np.prod(self.shape or (1,))))


class SharedScenePool:
    """Parent-side intern pool: one segment per distinct array content.

    ``share()`` is keyed by the array's content digest (dtype + shape +
    bytes, the activation cache's key function), so the models × images
    grid — where every model's job carries the same few scenes — creates
    one segment per scene regardless of how many jobs reference it.  An
    identity fast path skips even the digest when the *same array object*
    recurs (a plan's jobs alias their shared scene/mask arrays), so
    dispatch cost does not scale with jobs × array bytes; the pool
    therefore assumes shared arrays are not mutated during its lifetime,
    which plan dispatch (one ``execute`` call) guarantees.
    """

    _SEQ = 0

    def __init__(self, prefix: str | None = None) -> None:
        if prefix is None:
            prefix = f"rps{os.getpid()}x{SharedScenePool._SEQ}"
            SharedScenePool._SEQ += 1
        self.prefix = prefix
        self._by_digest: dict[bytes, tuple] = {}
        # id() -> (array, ref): the array reference keeps the id alive.
        self._by_id: dict[int, tuple] = {}
        self._seq = 0

    def __len__(self) -> int:
        return len(self._by_digest)

    def share(self, array: np.ndarray) -> SharedArrayRef:
        """The (interned) shared ref for ``array``, creating on first sight."""
        identity = self._by_id.get(id(array))
        if identity is not None and identity[0] is array:
            return identity[1]
        original = array
        array = np.ascontiguousarray(array)
        digest = image_digest(array)
        cached = self._by_digest.get(digest)
        if cached is not None:
            self._by_id[id(original)] = (original, cached[1])
            return cached[1]
        name = f"{self.prefix}n{self._seq}"
        self._seq += 1
        segment = shared_memory.SharedMemory(
            create=True, name=name, size=max(1, array.nbytes)
        )
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
        view[...] = array
        ref = SharedArrayRef(segment=name, shape=array.shape, dtype=str(array.dtype))
        self._by_digest[digest] = (segment, ref)
        self._by_id[id(original)] = (original, ref)
        return ref

    def close(self) -> None:
        """Unlink and unmap every segment this pool created (idempotent)."""
        for segment, _ in self._by_digest.values():
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already reaped
                pass
            try:
                segment.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
        self._by_digest.clear()
        self._by_id.clear()


class SharedArrayAttachments:
    """Worker-side cache of attached segments and their read-only views.

    Attaching is cached by segment name — a worker running many jobs over
    the same scene maps it once.  ``close_all()`` drops the mappings (the
    parent broadcasts it at plan end, after which the parent unlinks; an
    unlinked-but-mapped segment stays readable, so ordering is forgiving).
    """

    def __init__(self) -> None:
        self._attached: dict[str, tuple] = {}

    def __len__(self) -> int:
        return len(self._attached)

    def restore(self, ref: SharedArrayRef) -> np.ndarray:
        """The read-only array view behind ``ref``, attaching on first use."""
        cached = self._attached.get(ref.segment)
        if cached is not None:
            return cached[1]
        segment = attach_shared_memory(ref.segment)
        view = np.ndarray(
            tuple(ref.shape), dtype=np.dtype(ref.dtype), buffer=segment.buf
        )
        # Scenes are shared across jobs and workers: read-only so one job
        # cannot corrupt another's input through the common mapping.
        view.flags.writeable = False
        self._attached[ref.segment] = (segment, view)
        return view

    def close_all(self) -> int:
        """Unmap every attachment; returns how many were open."""
        count = len(self._attached)
        for segment, _ in self._attached.values():
            try:
                segment.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
        self._attached.clear()
        return count


def extract_shared_arrays(job, pool: SharedScenePool):
    """Strip a job's bulky arrays into the pool; returns ``(slim, refs)``.

    ``slim`` is a shallow copy with the shared attributes nulled (the
    original job is never mutated — the parent's plan stays intact), and
    ``refs`` maps attribute name → :class:`SharedArrayRef`.  Jobs with no
    array meeting :data:`SHARE_MIN_BYTES` pass through unchanged with empty
    refs, so small plans pay zero shared-memory overhead.
    """
    refs: dict[str, SharedArrayRef] = {}
    slim = None
    for attr in SHAREABLE_JOB_ATTRS:
        value = getattr(job, attr, None)
        if isinstance(value, np.ndarray) and value.nbytes >= SHARE_MIN_BYTES:
            if slim is None:
                slim = copy.copy(job)
            refs[attr] = pool.share(value)
            setattr(slim, attr, None)
    return (slim if slim is not None else job, refs)


def restore_shared_arrays(job, refs, attachments: SharedArrayAttachments):
    """Worker-side inverse of :func:`extract_shared_arrays` (in place)."""
    for attr, ref in refs.items():
        setattr(job, attr, attachments.restore(ref))
    return job
