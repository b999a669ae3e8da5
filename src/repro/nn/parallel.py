"""The process's core budget, and short-lived threads that share units.

A process computes on its *share* of the cores: every usable core
(``os.sched_getaffinity``) when it runs jobs itself, and ``cores // n_jobs``
in each worker of an ``n_jobs``-process pool, which calls
:func:`split_cores` once when it starts (its BLAS then runs on the share
too).

:func:`run_shared` runs one function on the calling thread and on helper
threads that pull units from one shared stream, :func:`threads_for` of
them.  The helpers start inside the call and are joined before it
returns: no thread outlives a call, so a fork never inherits one.

Inside that region every participating thread runs BLAS on one thread
(:func:`blas_one_thread`), through ``openblas_set_num_threads_local`` of the
OpenBLAS that numpy loaded; otherwise each application thread's products
would fan out over the same cores again.  Where the loaded BLAS has no such
setter, :func:`threads_for` answers 1 and the guard does nothing.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

Unit = TypeVar("Unit")

#: Cores this process computes on; ``None`` means every usable core.
_share: int | None = None


def _usable_cores() -> int:
    """Cores this process may run on (its CPU affinity where known)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity outside Linux
        return os.cpu_count() or 1


def split_cores(n_jobs: int) -> None:
    """Take this process's share as one of ``n_jobs`` pool workers.

    Where its thread count can be set, the worker's BLAS runs on at most
    the same share, so ``n_jobs`` workers with unpinned BLAS do not each
    fan their products out over every core; a lower count pinned by the
    environment stays.
    """
    global _share
    _share = max(1, _usable_cores() // max(1, n_jobs))
    setter = blas_setter()
    if setter is not None:
        pinned = setter(_share)
        if pinned < _share:
            setter(pinned)


def core_share() -> int:
    """Cores this process computes on."""
    return _usable_cores() if _share is None else _share


@functools.cache
def blas_setter() -> Callable[[int], int] | None:
    """``openblas_set_num_threads_local`` of numpy's OpenBLAS, or ``None``.

    The setter takes a thread count and returns the previous one.  It is
    looked up once, on first use, among the OpenBLAS libraries mapped into
    this process (``/proc/self/maps``), preferring those shipped inside
    numpy's own directory; no library is loaded that was not already.
    """
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
        paths = {f[5].strip() for f in fields if len(f) == 6}
    except OSError:
        return None
    paths = [path for path in paths if "openblas" in path.lower()]
    numpy_dir = os.path.dirname(np.__file__)  # .../numpy, also .../numpy.libs
    owned = [path for path in paths if path.startswith(numpy_dir)]
    for path in sorted(owned or paths):
        try:
            library = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
            setter = library.openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = ctypes.c_int
        return setter
    return None


@contextmanager
def blas_one_thread():
    """Run BLAS on one thread inside the block, then restore the count."""
    setter = blas_setter()
    if setter is None:
        yield
        return
    previous = setter(1)
    try:
        yield
    finally:
        setter(previous)


def threads_for(units: int) -> int:
    """Threads for ``units`` independent units: at least two units each,
    at most the process's share, and one where BLAS cannot be held to one
    thread per caller."""
    if blas_setter() is None:
        return 1
    return max(1, min(core_share(), units // 2))


class _Stream:
    """A thread-safe iterator over units that ends early once closed."""

    def __init__(self, units: Sequence) -> None:
        self._units = iter(units)
        self._lock = threading.Lock()
        self._closed = False

    def __iter__(self) -> "_Stream":
        return self

    def __next__(self):
        with self._lock:
            if self._closed:
                raise StopIteration
            return next(self._units)

    def close(self) -> None:
        self._closed = True


def run_shared(work: Callable[[Iterator[Unit]], None], units: Sequence[Unit]) -> None:
    """Call ``work(stream)`` on this thread and on helper threads,
    :func:`threads_for` ``len(units)`` threads in all.

    All of them iterate one shared stream of ``units``, so each unit runs
    exactly once, on whichever thread takes it.  Every participating thread
    runs BLAS on one thread.  If any thread raises (``KeyboardInterrupt``
    included), the others stop at their next unit, every helper is joined,
    and the first error is raised here.
    """
    stream = _Stream(units)
    errors: list[BaseException] = []

    def helper_work() -> None:
        try:
            with blas_one_thread():
                work(stream)
        except BaseException as error:
            stream.close()
            errors.append(error)

    started: list[threading.Thread] = []
    # The caller's guard is set before any helper starts and restored after
    # the last one is joined, so the caller's BLAS count comes back whether
    # the setter's count is per thread or per process.
    with blas_one_thread():
        try:
            for _ in range(threads_for(len(units)) - 1):
                helper = threading.Thread(target=helper_work, daemon=True)
                helper.start()
                started.append(helper)
            work(stream)
        except BaseException as error:
            stream.close()
            errors.append(error)
        finally:
            for helper in started:
                while helper.is_alive():
                    try:
                        helper.join()
                    except BaseException as error:  # interrupted while waiting
                        stream.close()
                        errors.append(error)
    if errors:
        raise errors[0]
