"""Persistent worker runtime: the pooled execution backend.

A pool of long-lived workers that keeps what one plan built — detector
memos, activation bundles — warm for the next, instead of paying pool
start-up and rebuilding both per plan.  The engine's contract holds
throughout — bit-identical results to
:class:`~repro.experiments.engine.SerialBackend` for any plan, worker count
and submission order:

* **Long-lived workers** (:class:`PersistentWorkerRuntime`): processes
  spawn once and survive across ``execute_plan`` calls, keeping their
  detector memo and activation store warm.  A transfer sweep's
  cross-evaluation stage lands on workers that still hold the attack
  stage's bundles — serial, which rebuilds its store per ``run()``, builds
  them again.  Each worker caches bundles in a plain
  :class:`~repro.detectors.activation_cache.ActivationCacheStore` in its
  own heap, like the serial backend — no other process reads them, and the
  kernel frees them with the worker.
* **One plan-ordered queue**: the parent keeps a plan's pending jobs in one
  deque, in plan order.  A worker with a free slot (``prefetch`` of them)
  takes the first pending job for a model it already holds, else the first
  pending job, so a model's bundles are reused where they live and no
  worker idles while jobs wait.  The first fill goes round the workers one
  slot at a time, so even a one-model plan spreads over every worker.

Jobs travel by value: the parent pickles each one in the dispatching
thread and queues the bytes, so a worker receives its own copy of the
job's scene (and masks), and a job that writes into its scene changes no
other job's input.  A job that cannot be pickled raises
:class:`pickle.PicklingError` naming it, instead of vanishing in a queue's
feeder thread.

The runtime also runs the per-model cache lifecycle the serial backend
applies: it tracks remaining jobs per model across the whole plan and
broadcasts an invalidation to every worker when a model's last job
finishes, so long sweeps do not thrash worker LRUs with dead models'
scenes.  :meth:`PersistentWorkerRuntime.pin_models` defers that
invalidation for models bridging multi-stage sweeps.

Failure semantics: a job that raises surfaces as a
:class:`~repro.experiments.engine.JobExecutionError` carrying the
worker-side traceback, and an abort-epoch broadcast makes every worker
skip jobs of the failed plan that were already queued to it; a worker
that *dies* is reaped, respawned and its in-flight jobs put back at the
front of the queue (the same bytes are re-sent), with a per-job crash
budget that turns a poison job into a
:class:`~repro.experiments.engine.WorkerCrashError` instead of an
infinite respawn loop.  The parent polices liveness (``is_alive()``)
whenever no message arrives for 0.2 s, also while it waits for stats from
a worker that will never answer; idle workers' heartbeats are dropped.
A worker whose parent dies (killed, ``os._exit``) exits by itself within
a heartbeat interval: a watchdog thread sees ``os.getppid()`` change.
Results travel over *per-worker pipes* (multiplexed in the parent with
``multiprocessing.connection.wait``), each with its worker as sole
writer, because a shared result queue is not crash-safe: a worker
SIGKILLed while its (or its feeder thread's) write is in flight would
leave either a torn message that blocks the parent's next read forever —
the surviving writers keep EOF from ever arriving — or a dead holder of
the shared write lock that deadlocks every other worker's sends.  A
private pipe turns any crash, at any instant, into a local EOF.

The runtime is job-agnostic: anything picklable with a ``job_id`` and an
``execute(WorkerContext)`` runs here unchanged.  The streaming sequence
workload (:class:`~repro.experiments.jobs.SequenceAttackJob`) leans on
that — it ships only a tiny :class:`~repro.experiments.jobs.SequenceSpec`
recipe (frames are regenerated in-worker, so no pixel crosses the pipe),
its per-frame bundles live in the worker's activation store under the
same lifecycle broadcasts, and ``effective_cache_size`` provisions the
store for each job's rolling ``frame_cache_size`` window so warm frames
are not evicted mid-sequence.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import queue as queue_module
import threading
from multiprocessing import connection as mp_connection
from multiprocessing.reduction import ForkingPickler
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.detectors.activation_cache import ActivationCacheStore
from repro.experiments.engine import (
    ExecutionBackend,
    JobExecutionError,
    WorkerCrashError,
    delta_store_size_for_config,
    effective_cache_size,
)
from repro.experiments.jobs import (
    DetectorInstanceSpec,
    ExperimentPlan,
    JobOutcome,
    WorkerContext,
    build_cached,
    detector_if_built,
    job_model_specs,
    release_detector,
)
from repro.nn.parallel import split_cores

#: Process-wide counter giving each runtime a unique ``segment_prefix``.
_RUNTIME_SEQ = 0

#: Seconds between an idle worker's heartbeats, and between its checks
#: that its parent is still alive.
HEARTBEAT_INTERVAL = 1.0

__all__ = [
    "PersistentPoolBackend",
    "PersistentWorkerRuntime",
    "WorkerCrashError",
]


# --- worker process ----------------------------------------------------------


def _watch_parent(parent_pid: int) -> None:
    """End this worker once its parent is gone (daemon thread body).

    A dead parent breaks none of the worker's pipes — the worker and its
    later-forked siblings hold their parent-side ends too — so no send ever
    fails.  The kernel does reparent the worker, which changes
    ``os.getppid()``.  A thread sees that whether the worker is idle or in
    the middle of a job.
    """
    while os.getppid() == parent_pid:
        time.sleep(HEARTBEAT_INTERVAL)
    os._exit(1)


def _worker_main(
    index: int,
    generation: int,
    task_queue,
    result_conn,
    use_cache: bool,
    cache_size: int,
    delta_store_size: int = 0,
    abort_epoch=None,
    n_jobs: int = 1,
) -> None:
    """The long-lived worker loop: jobs, lifecycle messages, clean stop.

    All state a worker accumulates — detector memo, activation store —
    lives for the whole process and is what makes the runtime pay off
    across plans.  Messages arrive on a private FIFO queue, so lifecycle
    broadcasts (invalidate, resize) are ordered against the job stream.
    Each job arrives as the bytes the parent pickled: the worker unpickles
    its own copy of the job's scene and masks.

    ``abort_epoch`` is a shared value the parent bumps when a plan dies;
    queued jobs from an epoch at or below it are skipped without being
    executed, so an aborted plan's backlog cannot burn minutes of compute
    producing results nobody will collect.  While the queue is idle the
    worker emits a heartbeat every :data:`HEARTBEAT_INTERVAL` seconds.

    ``result_conn`` is this worker's *private* pipe to the parent (this
    process is its only writer): sends are synchronous, never interleave
    with other workers and share no lock with them, so a SIGKILL at any
    moment — even mid-``send`` — can corrupt or block nobody else; the
    parent just sees this pipe EOF.

    The worker computes on its share of the cores, one of ``n_jobs``
    (:func:`~repro.nn.parallel.split_cores`), and exits when its parent
    dies (:func:`_watch_parent`).
    """
    threading.Thread(
        target=_watch_parent,
        args=(os.getppid(),),
        daemon=True,
        name="repro-parent-watch",
    ).start()
    split_cores(n_jobs)
    store = (
        ActivationCacheStore(max_entries=cache_size, delta_store_size=delta_store_size)
        if use_cache
        else None
    )
    context = WorkerContext(store=store, worker_id=f"worker-{index}")
    job_counters = {"executed": 0, "skipped_stale": 0}
    while True:
        try:
            message = task_queue.get(timeout=HEARTBEAT_INTERVAL)
        except queue_module.Empty:
            try:
                result_conn.send(("heartbeat", index, generation, time.monotonic()))
            except (OSError, ValueError):  # pragma: no cover - parent gone
                return
            continue
        kind = message[0]
        if kind == "job":
            _, epoch, job_id, payload = message
            if abort_epoch is not None and epoch <= abort_epoch.value:
                # The plan this job belongs to already died in the parent;
                # skipping here (before any execute work) is what makes
                # abort cheap even with deep prefetch backlogs.
                job_counters["skipped_stale"] += 1
                continue
            job_counters["executed"] += 1
            job = None
            try:
                job = pickle.loads(payload)
                outcome = job.execute(context)
                outcome.worker_id = context.worker_id
                result_conn.send(("done", index, generation, epoch, outcome))
            except Exception as exc:
                result_conn.send(
                    (
                        "error",
                        index,
                        generation,
                        epoch,
                        job_id,
                        f"{type(exc).__name__}: {exc}",
                        traceback.format_exc(),
                    )
                )
            finally:
                # By-value specs (wrapped live detectors) never recur — a
                # fresh copy arrives with every job — so keeping them would
                # grow the memo without bound in a long-lived process.
                for spec in job_model_specs(job):
                    if isinstance(spec, DetectorInstanceSpec):
                        if store is not None:
                            store.invalidate(spec.detector)
                        release_detector(spec)
        elif kind == "invalidate":
            # Per-model lifecycle broadcast: the model's last job finished
            # somewhere in the runtime; drop its bundles and its memo entry.
            _, specs = message
            for spec in specs:
                detector = detector_if_built(spec)
                if detector is not None and store is not None:
                    store.invalidate(detector)
                release_detector(spec)
        elif kind == "resize":
            # Grow-only cap broadcast (plan auto-sizing); never changes
            # results, only how many bundles survive between plans.
            _, new_size = message
            if store is not None:
                store.resize(new_size)
        elif kind == "stats":
            result_conn.send(
                (
                    "stats",
                    index,
                    generation,
                    {
                        "store": None if store is None else dict(store.stats),
                        "jobs": dict(job_counters),
                    },
                )
            )
        elif kind == "stop":
            try:
                result_conn.send(("stopped", index, generation))
            except (OSError, ValueError):  # pragma: no cover - parent gone
                pass
            return


# --- parent-side runtime -----------------------------------------------------


@dataclass
class _WorkerHandle:
    """Parent-side bookkeeping for one worker process."""

    index: int
    generation: int
    process: object
    task_queue: object
    reader: object
    models: set = field(default_factory=set)
    #: ``job_id -> (job, payload)`` for jobs sent and not yet answered.
    inflight: dict = field(default_factory=dict)

    @property
    def worker_id(self) -> str:
        return f"worker-{self.index}"


class PersistentWorkerRuntime:
    """A pool of long-lived workers pulling jobs from one plan-ordered queue.

    Parameters
    ----------
    n_jobs:
        Worker-process count.
    use_cache / cache_size:
        Per-worker activation-store provisioning (a store lives as long as
        its worker, which is the whole point).
    start_method:
        ``multiprocessing`` start method; ``None`` = platform default.
    prefetch:
        Jobs kept in flight per worker.  Small (default 2) so a worker that
        finishes early takes the next job instead of waiting behind a slow
        sibling's queue, and the per-model lifecycle broadcasts interleave
        with the job stream.  Only in-flight jobs are pickled onto a
        worker's queue; the rest of the plan stays in the parent's pending
        deque as objects.  A prefetch of 1 balances as well but adds a
        round trip before every job.
    max_crashes_per_job:
        Worker deaths a single job may witness before the runtime raises
        :class:`~repro.experiments.engine.WorkerCrashError` instead of
        re-dispatching it again.
    """

    def __init__(
        self,
        n_jobs: int = 2,
        use_cache: bool = True,
        cache_size: int = 4,
        start_method: str | None = None,
        prefetch: int = 2,
        max_crashes_per_job: int = 3,
        delta_store_size: int = 0,
    ) -> None:
        global _RUNTIME_SEQ
        if n_jobs < 1:
            raise ValueError("n_jobs must be at least 1")
        self.n_jobs = int(n_jobs)
        self.use_cache = bool(use_cache)
        self.cache_size = int(cache_size)
        # The configured cap is the restart signature; the effective cap
        # grows (grow-only) when a plan brings more distinct models, via a
        # "resize" broadcast instead of a warm-state-destroying restart.
        self.effective_cache_size = int(cache_size)
        self.delta_store_size = int(delta_store_size)
        self.prefetch = max(1, int(prefetch))
        self.max_crashes_per_job = max(1, int(max_crashes_per_job))
        self._context = multiprocessing.get_context(start_method)
        self._prefix = f"rpr{os.getpid()}x{_RUNTIME_SEQ}"
        _RUNTIME_SEQ += 1
        self._workers: list[_WorkerHandle] = []
        # Shared with every worker: the highest epoch known to have been
        # aborted.  Workers compare queued jobs against it and skip stale
        # ones instead of executing into the void.
        self._abort_epoch = self._context.Value("q", 0)
        self._epoch = 0
        #: The running plan's unsent jobs, in plan order, as
        #: ``(job_id, job, payload)``; ``payload`` is the pickled job once
        #: it has been sent (a respawn puts it back unchanged), else None.
        self._pending: deque = deque()
        self._pinned: set = set()
        self._deferred_invalidation: set = set()
        self.started = False
        self.closed = False
        self.workers_respawned = 0
        atexit.register(self.close)

    # -- lifecycle ----------------------------------------------------------
    @property
    def cache_signature(self) -> tuple[bool, int, int]:
        return (self.use_cache, self.cache_size, self.delta_store_size)

    @property
    def start_method_is_fork(self) -> bool:
        return self._context.get_start_method() == "fork"

    @property
    def segment_prefix(self) -> str:
        """A name prefix unique to this runtime; no segment carries it.

        Kept because ``perfbench``'s sweep workload reads it for its leak
        audit; the runtime ships jobs by value and creates no shared memory.
        """
        return self._prefix

    def start(self) -> None:
        """Spawn the workers (idempotent; called lazily by execute)."""
        if self.closed:
            raise RuntimeError("runtime is closed")
        if self.started:
            return
        self._workers = [
            self._spawn(index, generation=0) for index in range(self.n_jobs)
        ]
        self.started = True

    def _spawn(self, index: int, generation: int) -> _WorkerHandle:
        task_queue = self._context.Queue()
        # Results come back over a per-worker pipe, not a shared queue.
        # A shared channel is not crash-safe: a worker SIGKILLed while its
        # (or its feeder thread's) write is in flight leaves either a torn
        # message — which blocks the parent's next read forever, since the
        # surviving writers keep EOF from ever arriving — or a dead holder
        # of the shared write lock, which deadlocks every other worker's
        # sends.  With a private pipe the worker is its sole writer: sends
        # are synchronous and unshared, and any crash simply EOFs this one
        # pipe, which liveness policing turns into a respawn.
        reader, writer = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_worker_main,
            args=(
                index,
                generation,
                task_queue,
                writer,
                self.use_cache,
                self.effective_cache_size,
                self.delta_store_size,
                self._abort_epoch,
                self.n_jobs,
            ),
            daemon=True,
            name=f"repro-persistent-{index}",
        )
        process.start()
        # The worker owns the write end now; dropping the parent's copy is
        # what makes a dead worker's pipe read as EOF instead of hanging.
        writer.close()
        return _WorkerHandle(
            index=index,
            generation=generation,
            process=process,
            task_queue=task_queue,
            reader=reader,
        )

    def close(self) -> None:
        """Stop every worker and close its queue and pipe (idempotent)."""
        if self.closed:
            return
        self.closed = True
        # The safety-net registration from __init__ would otherwise pin
        # this runtime (workers, queues and all) until interpreter exit —
        # a real leak for apps cycling many runtimes.
        atexit.unregister(self.close)
        if not self.started:
            return
        for worker in self._workers:
            try:
                worker.task_queue.put(("stop",))
            except (OSError, ValueError):  # pragma: no cover - queue torn down
                pass
        deadline = time.monotonic() + 10.0
        for worker in self._workers:
            worker.process.join(timeout=max(0.1, deadline - time.monotonic()))
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.terminate()
                worker.process.join(timeout=5.0)
            self._reap_worker(worker)
        self._workers = []

    def resize_cache(self, max_entries: int) -> None:
        """Grow every worker's activation-store cap (never shrinks).

        Respawned workers pick the grown cap up through
        ``effective_cache_size``; the configured cap (and with it the
        restart signature) is untouched.
        """
        max_entries = int(max_entries)
        if max_entries <= self.effective_cache_size:
            return
        self.effective_cache_size = max_entries
        if self.started:
            for worker in self._workers:
                worker.task_queue.put(("resize", max_entries))

    # -- model pinning ------------------------------------------------------
    def pin_models(self, specs: Sequence) -> None:
        """Defer end-of-model invalidation for ``specs`` until unpinned."""
        self._pinned.update(specs)

    def unpin_models(self, specs: Sequence) -> None:
        """Lift pins; models that finished while pinned are invalidated now."""
        due = []
        for spec in specs:
            self._pinned.discard(spec)
            if spec in self._deferred_invalidation:
                self._deferred_invalidation.discard(spec)
                due.append(spec)
        if due:
            self._broadcast_invalidate(due)

    def _broadcast_invalidate(self, specs: Sequence) -> None:
        if not self.started:
            return
        specs = list(specs)
        for worker in self._workers:
            worker.task_queue.put(("invalidate", specs))
            worker.models.difference_update(specs)

    # -- scheduling ---------------------------------------------------------
    def _take(self, worker: _WorkerHandle) -> tuple:
        """Pop the first pending job for a model the worker holds, else the
        first pending job."""
        if worker.models:
            for position, entry in enumerate(self._pending):
                if not worker.models.isdisjoint(job_model_specs(entry[1])):
                    del self._pending[position]
                    return entry
        return self._pending.popleft()

    def _send(self, worker: _WorkerHandle, epoch: int) -> None:
        """Send the worker its next pending job, if any is left.

        The job is pickled here, in the dispatching thread: a job that
        cannot be pickled raises :class:`pickle.PicklingError` naming it,
        where a queue's feeder thread would only print the error and drop
        the message, leaving the plan waiting for good.
        """
        if not self._pending:
            return
        job_id, job, payload = self._take(worker)
        if payload is None:
            try:
                payload = bytes(ForkingPickler.dumps(job))
            except Exception as exc:
                raise pickle.PicklingError(
                    f"job {job_id!r} cannot be pickled for a worker: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
        worker.inflight[job_id] = (job, payload)
        worker.models.update(job_model_specs(job))
        worker.task_queue.put(("job", epoch, job_id, payload))

    def _fill(self, worker: _WorkerHandle, epoch: int) -> None:
        """Top the worker's in-flight window up from the pending deque."""
        while self._pending and len(worker.inflight) < self.prefetch:
            self._send(worker, epoch)

    # -- execution ----------------------------------------------------------
    def execute(self, jobs: Sequence, on_outcome=None) -> list[JobOutcome]:
        """Run ``jobs`` on the persistent pool; outcomes in ``jobs`` order.

        Results are bit-identical to serial execution: jobs are
        deterministic in their own payload, so routing, prefetch and
        completion order never leak into outcomes.  ``on_outcome`` (if
        given) is called with each outcome as it streams in — the hook the
        engine's checkpoint journal rides, so a crash mid-plan loses only
        the jobs still in flight.
        """
        self.start()
        self._epoch += 1
        epoch = self._epoch
        jobs = list(jobs)

        remaining: dict = {}
        specs_by_job: dict = {}
        for job in jobs:
            specs = job_model_specs(job)
            specs_by_job[job.job_id] = specs
            for spec in specs:
                remaining[spec] = remaining.get(spec, 0) + 1

        self._pending = deque((job.job_id, job, None) for job in jobs)
        for worker in self._workers:
            worker.inflight.clear()
        outcomes: dict = {}
        crashes: dict = {}
        try:
            # The first fill goes round the workers one slot at a time, so
            # a plan shorter than the pool's window still spreads out.
            for _ in range(self.prefetch):
                for worker in self._workers:
                    self._send(worker, epoch)
            while len(outcomes) < len(jobs):
                message = self._next_message(epoch, crashes)
                kind = message[0]
                if kind == "done":
                    _, index, generation, msg_epoch, outcome = message
                    if msg_epoch != epoch:
                        continue  # stale result from an aborted plan
                    worker = self._workers[index]
                    if worker.generation == generation:
                        # Free the slot even for a respawn duplicate, or the
                        # replacement's in-flight window would starve.
                        worker.inflight.pop(outcome.job_id, None)
                        self._fill(worker, epoch)
                    if outcome.job_id in outcomes:
                        continue  # duplicate completion after a respawn
                    outcomes[outcome.job_id] = outcome
                    if on_outcome is not None:
                        on_outcome(outcome)
                    self._finish_models(specs_by_job[outcome.job_id], remaining)
                elif kind == "error":
                    _, index, generation, msg_epoch, job_id, text, tb = message
                    if msg_epoch != epoch:
                        continue
                    raise JobExecutionError(job_id, f"worker-{index}", text, tb)
                # anything else ("stats", "stopped" leftovers) is dropped
        except BaseException:
            self._abort()
            raise
        return [outcomes[job.job_id] for job in jobs]

    def _finish_models(self, specs, remaining: dict) -> None:
        """Decrement per-model job counts; broadcast lifecycle invalidation.

        This is the pooled equivalent of the serial backend's per-model
        lifecycle: once a model's last job (anywhere in the runtime)
        completes, every worker drops its entries — unless the model is
        pinned, in which case the drop is deferred to ``unpin_models``.
        """
        finished = []
        for spec in specs:
            if spec not in remaining:
                # Inventing a count here (the old `.get(spec, 1)`) would
                # silently turn a bookkeeping bug into a premature
                # invalidation broadcast; a model can only finish if the
                # plan setup counted it.
                raise RuntimeError(
                    f"model lifecycle bookkeeping desynced: spec {spec!r} "
                    "finished a job but was never counted for this plan"
                )
            remaining[spec] -= 1
            if remaining[spec] == 0:
                if spec in self._pinned:
                    self._deferred_invalidation.add(spec)
                else:
                    finished.append(spec)
        if finished:
            self._broadcast_invalidate(finished)

    def _get_result(self, timeout: float):
        """Timed read multiplexed over the per-worker result pipes.

        Raises :class:`queue.Empty` on timeout — and on a pipe that turns
        out to hold only a dead worker's EOF, so the caller's
        Empty-handling (liveness policing) reaps the corpse; its reader is
        closed by the respawn and drops out of the wait set.
        """
        readers = [
            worker.reader for worker in self._workers if worker.reader is not None
        ]
        if not readers:  # pragma: no cover - only between spawn batches
            raise queue_module.Empty
        for ready in mp_connection.wait(readers, timeout):
            try:
                return ready.recv()
            except (EOFError, OSError):
                continue
        raise queue_module.Empty

    def _next_message(self, epoch: int, crashes: dict):
        """Block for the next result, policing worker liveness meanwhile."""
        while True:
            try:
                message = self._get_result(0.2)
            except queue_module.Empty:
                self._police_liveness(epoch, crashes)
                continue
            if message[0] != "heartbeat":
                return message

    def _police_liveness(self, epoch: int, crashes: dict) -> None:
        """Respawn any dead worker (heartbeat silence ends up here too)."""
        for worker in list(self._workers):
            if not worker.process.is_alive():
                self._respawn(worker, epoch, crashes)

    def _respawn(self, worker: _WorkerHandle, epoch: int, crashes: dict) -> None:
        """Reap a dead worker, replace it, and requeue its in-flight jobs.

        The slot is *always* left holding a live replacement — even on the
        poison path, where the budget-exhausted job is dropped and
        :class:`~repro.experiments.engine.WorkerCrashError` raised only
        after the replacement is installed.  Raising first would leave
        ``self._workers[index]`` pointing at the reaped corpse (closed task
        queue and all), poisoning every later plan on the same runtime.
        """
        self.workers_respawned += 1
        poison: tuple[object, int] | None = None
        for job_id in worker.inflight:
            crashes[job_id] = crashes.get(job_id, 0) + 1
            if poison is None and crashes[job_id] >= self.max_crashes_per_job:
                poison = (job_id, crashes[job_id])
        self._reap_worker(worker)
        replacement = self._spawn(worker.index, worker.generation + 1)
        self._workers[worker.index] = replacement
        if poison is not None:
            raise WorkerCrashError(*poison)
        # The dead worker's in-flight jobs go back to the front of the
        # queue, in their order and with their bytes, so they are the next
        # ones sent, unchanged.  The fresh process holds no models.
        requeued = [(job_id, *entry) for job_id, entry in worker.inflight.items()]
        self._pending.extendleft(reversed(requeued))
        self._fill(replacement, epoch)

    def _reap_worker(self, worker: _WorkerHandle) -> None:
        """Join an exited worker and close its task queue and result pipe."""
        worker.process.join(timeout=1.0)
        # A worker that died never reads the rest of its queue, so a job
        # bigger than the pipe buffer leaves the queue's feeder thread
        # blocked in its write for good; joining that thread at interpreter
        # exit would then hang.
        worker.task_queue.cancel_join_thread()
        try:
            worker.task_queue.close()
        except (OSError, ValueError):  # pragma: no cover
            pass
        # Completed messages still buffered in the dead worker's pipe are
        # dropped with it: its in-flight jobs are re-dispatched anyway, and
        # re-execution is bit-identical by the engine's core contract.
        if worker.reader is not None:
            try:
                worker.reader.close()
            except (OSError, ValueError):  # pragma: no cover
                pass
            worker.reader = None

    def _abort(self) -> None:
        """Clear plan state after a failure; stale results die by epoch.

        Bumping the shared abort-epoch makes workers *skip* this plan's
        jobs already sitting in their queues — without it, every queued
        job would still execute to completion (minutes of NSGA compute per
        job) just to have its result dropped by the parent's epoch filter.
        """
        self._abort_epoch.value = max(self._abort_epoch.value, self._epoch)
        self._pending.clear()
        for worker in self._workers:
            worker.inflight.clear()

    # -- introspection ------------------------------------------------------
    def _collect_worker_stats(self, timeout: float) -> dict[str, dict]:
        """Gather one stats payload per worker slot, surviving dead workers.

        The wait polices liveness: a worker that died before (or instead
        of) answering is respawned and the request re-sent to its
        replacement, so this returns for every slot instead of hanging the
        full timeout on a corpse.  Only payloads from the slot's *current*
        generation count — stale generations answered for processes that
        no longer own the slot.
        """
        self.start()
        requested: dict[int, int] = {}
        for worker in self._workers:
            worker.task_queue.put(("stats",))
            requested[worker.index] = worker.generation
        collected: dict[str, dict] = {}
        crashes: dict = {}
        deadline = time.monotonic() + timeout
        while len(collected) < len(self._workers):
            budget = deadline - time.monotonic()
            if budget <= 0:
                raise TimeoutError("workers did not report stats in time")
            try:
                message = self._get_result(min(0.2, budget))
            except queue_module.Empty:
                self._police_liveness(self._epoch, crashes)
                for worker in self._workers:
                    if requested.get(worker.index) != worker.generation:
                        worker.task_queue.put(("stats",))
                        requested[worker.index] = worker.generation
                continue
            if message[0] != "stats":
                continue  # heartbeats and stale plan traffic
            _, index, generation, payload = message
            worker = self._workers[index]
            if worker.generation == generation:
                collected[worker.worker_id] = payload
        return collected

    def worker_cache_stats(self, timeout: float = 30.0) -> dict[str, dict | None]:
        """Each worker's *cumulative* store counters (test/debug hook).

        Only meaningful between plans (the runtime is single-plan at a
        time); per-job deltas on outcomes remain the source of truth for
        reported statistics.
        """
        return {
            worker_id: payload["store"]
            for worker_id, payload in self._collect_worker_stats(timeout).items()
        }

    def worker_job_stats(self, timeout: float = 30.0) -> dict[str, dict]:
        """Each worker's job counters: ``executed`` and ``skipped_stale``.

        ``skipped_stale`` counts jobs a worker dropped because their epoch
        was at or below the abort broadcast — the observable proof that an
        aborted plan's backlog did not keep executing.
        """
        return {
            worker_id: payload["jobs"]
            for worker_id, payload in self._collect_worker_stats(timeout).items()
        }


# --- engine backend ----------------------------------------------------------


class PersistentPoolBackend(ExecutionBackend):
    """Engine backend running plans on one :class:`PersistentWorkerRuntime`.

    The runtime is created lazily from the first plan's cache settings and
    *reused across* ``run()`` calls — that reuse (warm detector memos, warm
    activation bundles, no pool startup) is what beats serial on repeated
    or multi-stage sweeps even on one core.  A plan with different cache
    settings transparently restarts the runtime.

    ``submission_seed`` shuffles the dispatch order (parity suites exercise
    scheduling independence with it).  Before a fork-started runtime
    spawns, the first plan's detectors are built in the parent, so the
    workers inherit them copy-on-write instead of each training the zoo.
    """

    name = "persistent"

    def __init__(
        self,
        n_jobs: int = 2,
        start_method: str | None = None,
        submission_seed: int | None = None,
        prefetch: int = 2,
        max_crashes_per_job: int = 3,
    ) -> None:
        if n_jobs < 1:
            raise ValueError("n_jobs must be at least 1")
        self.n_jobs = int(n_jobs)
        self.start_method = start_method
        self.submission_seed = submission_seed
        self.prefetch = prefetch
        self.max_crashes_per_job = max_crashes_per_job
        self._runtime: PersistentWorkerRuntime | None = None
        self._pinned: set = set()

    @property
    def runtime(self) -> PersistentWorkerRuntime | None:
        """The live runtime (``None`` before the first run / after close)."""
        return self._runtime

    def _ensure_runtime(self, attack_config) -> PersistentWorkerRuntime:
        signature = (
            bool(attack_config.use_activation_cache),
            int(attack_config.activation_cache_size),
            delta_store_size_for_config(attack_config),
        )
        runtime = self._runtime
        if runtime is not None and (
            runtime.closed or runtime.cache_signature != signature
        ):
            runtime.close()
            runtime = None
        if runtime is None:
            runtime = PersistentWorkerRuntime(
                n_jobs=self.n_jobs,
                use_cache=signature[0],
                cache_size=signature[1],
                start_method=self.start_method,
                prefetch=self.prefetch,
                max_crashes_per_job=self.max_crashes_per_job,
                delta_store_size=signature[2],
            )
            if self._pinned:
                runtime.pin_models(list(self._pinned))
            self._runtime = runtime
        return runtime

    def run(self, plan: ExperimentPlan) -> list[JobOutcome]:
        runtime = self._ensure_runtime(plan.attack_config)
        runtime.resize_cache(effective_cache_size(plan))
        jobs = list(plan.jobs)
        if self.submission_seed is not None:
            rng = np.random.default_rng(self.submission_seed)
            jobs = [jobs[i] for i in rng.permutation(len(jobs))]
        if not runtime.started and runtime.start_method_is_fork:
            for spec in plan.model_specs():
                build_cached(spec)
        return runtime.execute(jobs, on_outcome=self._notify)

    def pin_models(self, specs: Sequence) -> None:
        self._pinned.update(specs)
        if self._runtime is not None:
            self._runtime.pin_models(specs)

    def unpin_models(self, specs: Sequence) -> None:
        for spec in specs:
            self._pinned.discard(spec)
        if self._runtime is not None:
            self._runtime.unpin_models(specs)

    def close(self) -> None:
        if self._runtime is not None:
            self._runtime.close()
            self._runtime = None
