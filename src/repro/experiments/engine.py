"""Pluggable execution backends for experiment work plans.

A sweep's :class:`~repro.experiments.jobs.ExperimentPlan` is pure data —
any ordered list of jobs following the generic job protocol (``job_id`` +
``execute(context)``); this module provides the interchangeable engines
that execute one:

* :class:`SerialBackend` — the in-process reference executor.  It owns one
  sweep-level :class:`~repro.detectors.activation_cache.ActivationCacheStore`
  and reproduces the historical runner's cache lifecycle exactly (entries
  invalidated and stats counters reset once a model's last job finishes, so
  hit rates are per-model, not cumulative).
* ``PersistentPoolBackend`` (:mod:`repro.experiments.persistent`) — the
  pooled engine: long-lived workers that survive across ``execute_plan``
  calls, each with a private activation store and detector memo, pulling
  jobs (shipped by value) from one plan-ordered queue.  Resolved by name
  (``"persistent"``, and by default for ``n_jobs > 1``) to avoid an import
  cycle.

Because every job carries its own pre-derived NSGA-II seed (or the shared
default), and jobs are deterministic given (model specs, image, config,
seed), **all backends produce bit-identical results** for the same plan —
worker count and completion order only change wall-clock time.  The parity
suites in ``tests/experiments/test_engine.py`` (attack jobs),
``tests/experiments/test_transfer.py`` (transfer jobs) and
``tests/defenses/test_evaluation.py`` (defense jobs) enforce this.

:func:`execute_plan` is the single entry point: it runs a backend, restores
plan order, and merges the per-job :class:`CacheStats` deltas into
per-model, per-worker and sweep-level totals.  Two optional layers make
long plans restartable:

* ``checkpoint`` — a :class:`~repro.experiments.checkpoint.PlanCheckpoint`
  journal (duck-typed: ``load(plan)`` + ``record(outcome)``).  Completed
  outcomes are journaled *as they stream in* (via the backend's
  ``on_outcome`` hook, not after ``run()`` returns), so a plan killed
  mid-flight resumes from its journal: journaled jobs are skipped and
  their outcomes loaded.
* ``retry`` — a :class:`RetryPolicy` re-running the un-collected remainder
  of a plan after a :class:`JobExecutionError` (transient worker-side
  failure) or a :class:`WorkerCrashError` (crash budget exhausted), with a
  per-job attempt budget that keeps poison jobs from looping forever.
"""

from __future__ import annotations

import time
import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace as dataclasses_replace
from typing import Callable, Sequence

from repro.detectors.activation_cache import ActivationCacheStore, CacheStats
from repro.experiments.jobs import (
    ExperimentPlan,
    JobOutcome,
    WorkerContext,
    build_cached,
    job_model_specs,
    job_stats_label,
)

#: Backend names accepted by :func:`resolve_backend` (and the CLI).
BACKEND_NAMES: tuple[str, ...] = ("serial", "persistent")


def effective_cache_size(plan: ExperimentPlan) -> int:
    """The activation-cache entry cap a backend should provision for a plan.

    A cap smaller than the plan's distinct-model count guarantees lifecycle
    thrash — every model's bundle is evicted before its next scene arrives —
    so the cap is auto-grown to the model count (with a one-line warning
    naming both sizes).  A streaming plan whose jobs keep a rolling window
    of frame bundles alive (``frame_cache_size``) needs that many entries
    per model.  Growth never changes results, only hit rates.
    """
    configured = int(plan.attack_config.activation_cache_size)
    distinct = len(plan.model_specs())
    per_model = 1
    for job in plan.jobs:
        per_model = max(per_model, int(getattr(job, "frame_cache_size", 1)))
    floor = distinct * per_model
    if floor > configured:
        warnings.warn(
            f"activation_cache_size={configured} is below the plan's "
            f"{floor} concurrently live (model, scene) bundles; growing "
            f"the cache to {floor} entries to avoid lifecycle thrash",
            RuntimeWarning,
            stacklevel=2,
        )
        return floor
    return configured


def delta_store_size_for_config(config) -> int:
    """Delta-store entry cap an attack config implies (0 = reuse off)."""
    if not getattr(config, "use_delta_reuse", False):
        return 0
    return int(getattr(config, "delta_store_size", 0))


def plan_delta_store_size(plan: ExperimentPlan) -> int:
    """Delta-store entry cap for a plan's stores (0 = delta reuse off)."""
    return delta_store_size_for_config(plan.attack_config)


class JobExecutionError(RuntimeError):
    """A job raised inside a worker process.

    Captures which job failed, where it ran and the worker-side traceback,
    and — unlike an arbitrary exception re-raised through a pool — survives
    pickling across the process boundary (multi-argument exceptions break
    the default unpickle path, so :meth:`__reduce__` is explicit).
    """

    def __init__(
        self,
        job_id: object,
        worker_id: str,
        message: str,
        worker_traceback: str = "",
    ) -> None:
        super().__init__(
            f"job {job_id!r} failed on worker {worker_id}: {message}"
        )
        self.job_id = job_id
        self.worker_id = worker_id
        self.job_message = message
        self.worker_traceback = worker_traceback

    def __reduce__(self):
        return (
            type(self),
            (self.job_id, self.worker_id, self.job_message, self.worker_traceback),
        )


class WorkerCrashError(RuntimeError):
    """A worker died repeatedly while the same job was in flight.

    Raised by the persistent runtime after the per-job crash budget is
    exhausted; distinguishes a poison job (kills every worker it lands on)
    from a transient worker death, which the runtime absorbs by respawning
    and re-dispatching.  Defined here (not in
    :mod:`repro.experiments.persistent`) so :class:`RetryPolicy` can
    classify it without importing the runtime.
    """

    def __init__(self, job_id: object, crashes: int) -> None:
        super().__init__(
            f"job {job_id!r} was in flight through {crashes} worker deaths; "
            "giving up instead of respawning forever"
        )
        self.job_id = job_id
        self.crashes = crashes


@dataclass(frozen=True)
class RetryPolicy:
    """How :func:`execute_plan` requeues jobs after a worker-side failure.

    ``max_retries`` is the number of *additional* dispatches a failing job
    may get (so ``max_retries=2`` allows three attempts in total).  Once a
    job exhausts its budget the original error propagates — that is the
    poison-job verdict, as opposed to a transient failure that succeeds on
    requeue.  Only failures raised *by workers* are retried: an exception
    escaping :class:`SerialBackend` is an in-process bug, re-running it
    would re-raise identically — as would a job the persistent runtime
    cannot pickle (:class:`pickle.PicklingError`).
    """

    max_retries: int = 2
    retry_errors: bool = True
    retry_crashes: bool = True

    def should_retry(self, error: BaseException) -> bool:
        """Whether this failure class is requeued at all (budget aside)."""
        if isinstance(error, WorkerCrashError):
            return self.retry_crashes
        if isinstance(error, JobExecutionError):
            return self.retry_errors
        return False


@dataclass
class ExecutionReport:
    """Everything :func:`execute_plan` learned while running a plan.

    ``outcomes`` is in *plan order* regardless of how the backend scheduled
    the jobs.  The cache-stats maps aggregate the per-job deltas: per model
    (the per-model hit rates the sweep reports), per worker (one entry per
    pool process, or ``"serial"``), and in total.

    ``journal_hits`` counts outcomes loaded from the checkpoint journal
    instead of executed this run (0 for a fresh or checkpoint-less run);
    ``retries`` counts failed sub-plan dispatches the :class:`RetryPolicy`
    absorbed.
    """

    outcomes: list[JobOutcome]
    backend: str = "serial"
    n_jobs: int = 1
    per_model: dict[str, CacheStats] = field(default_factory=dict)
    per_worker: dict[str, CacheStats] = field(default_factory=dict)
    duration_seconds: float = 0.0
    cache_enabled: bool = True
    journal_hits: int = 0
    retries: int = 0

    @property
    def cache_stats(self) -> CacheStats:
        """Sweep-level totals merged over all workers."""
        return CacheStats.merge(list(self.per_worker.values()))

    def cache_rows(self) -> list[dict[str, object]]:
        """Per-model cache statistics as report rows."""
        return [
            {
                "model": name,
                "hits": stats.hits,
                "misses": stats.misses,
                "evictions": stats.evictions,
                "invalidations": stats.invalidations,
                "hit_rate": stats.hit_rate,
            }
            for name, stats in self.per_model.items()
        ]

    def summary(self) -> dict[str, object]:
        """JSON-friendly provenance shared by every sweep's report type.

        The architecture comparison, the transferability report and the
        defense evaluations all persist this same structure, so saved
        reports record how they were produced (backend, worker count,
        wall-clock, cache traffic) in one common shape.
        """
        return {
            "backend": self.backend,
            "n_jobs": self.n_jobs,
            "workers": sorted(self.per_worker),
            "duration_seconds": self.duration_seconds,
            "cache_enabled": self.cache_enabled,
            "cache_stats": self.cache_stats.as_dict(),
            "per_model_cache": {
                name: stats.as_dict() for name, stats in self.per_model.items()
            },
            "journal_hits": self.journal_hits,
            "retries": self.retries,
        }


def merge_execution_summaries(parts: "Sequence[dict]") -> dict[str, object]:
    """Combine stage summaries of a multi-stage sweep into one record.

    The transferability experiment runs two plan executions (mask
    optimisation, then the cross-evaluation matrix); the persisted report
    carries both stage summaries plus combined wall-clock and cache totals.
    """
    merged_stats = CacheStats()
    for part in parts:
        stats = part.get("cache_stats", {})
        merged_stats = merged_stats + CacheStats(
            hits=int(stats.get("hits", 0)),
            misses=int(stats.get("misses", 0)),
            evictions=int(stats.get("evictions", 0)),
            invalidations=int(stats.get("invalidations", 0)),
            delta_hits=int(stats.get("delta_hits", 0)),
            delta_misses=int(stats.get("delta_misses", 0)),
            delta_bytes=int(stats.get("delta_bytes", 0)),
        )
    # A multi-stage sweep may legitimately run its stages on different
    # backends; stamping the whole run with the first stage's name would
    # misreport every later stage, so disagreement is reported as "mixed"
    # (per-stage names stay available under "stages").
    backends = {str(part.get("backend", "serial")) for part in parts}
    if not backends:
        backend = "serial"
    elif len(backends) == 1:
        backend = backends.pop()
    else:
        backend = "mixed"
    return {
        "backend": backend,
        "n_jobs": max((int(part.get("n_jobs", 1)) for part in parts), default=1),
        "duration_seconds": sum(
            float(part.get("duration_seconds", 0.0)) for part in parts
        ),
        "cache_enabled": any(part.get("cache_enabled", False) for part in parts),
        "cache_stats": merged_stats.as_dict(),
        "journal_hits": sum(int(part.get("journal_hits", 0)) for part in parts),
        "retries": sum(int(part.get("retries", 0)) for part in parts),
        "stages": list(parts),
    }


class ExecutionBackend(ABC):
    """Executes a plan's jobs, in any order, returning one outcome each."""

    name: str = "abstract"
    n_jobs: int = 1
    #: Streaming hook set by :func:`execute_plan` when journaling: called
    #: with each completed :class:`JobOutcome` *as it arrives*, before
    #: ``run()`` returns — the property that lets a checkpoint journal
    #: survive the parent dying mid-plan.
    on_outcome: "Callable[[JobOutcome], None] | None" = None

    @abstractmethod
    def run(self, plan: ExperimentPlan) -> list[JobOutcome]:
        """Execute every job of the plan; outcomes may be in any order."""

    def _notify(self, outcome: JobOutcome) -> None:
        """Deliver one completed outcome to the streaming hook, if set."""
        callback = self.on_outcome
        if callback is not None:
            callback(outcome)

    def close(self) -> None:
        """Release backend-held resources (worker processes and their pipes).

        A no-op for the stateless backends; sweeps that *resolve* a backend
        from a name own it and close it when done, while a caller-provided
        instance is left alive for the caller to reuse.
        """

    def pin_models(self, specs: Sequence) -> None:
        """Defer cache invalidation for ``specs`` until they are unpinned.

        Multi-stage sweeps pin the models bridging their stages so the
        per-model lifecycle (drop a finished model's cache entries) does
        not destroy state the next stage will hit.  No-op on backends
        without cross-plan state — serial rebuilds its store per ``run()``
        anyway.
        """

    def unpin_models(self, specs: Sequence) -> None:
        """Lift :meth:`pin_models`, applying any deferred invalidation."""


class SerialBackend(ExecutionBackend):
    """In-process executor reproducing the historical nested loop.

    One sweep-level activation store serves all jobs; once a model's last
    job finishes its entries are invalidated (the sweep never revisits a
    finished model) and the stats counters are reset so the recorded hit
    rates are per-model.  ``order`` optionally executes the jobs in a
    different sequence — results are order-independent (each job's seed is
    baked into the job), which the parity suite exploits to simulate
    arbitrary completion orders without a pool.
    """

    name = "serial"

    def __init__(self, order: Sequence[int] | None = None) -> None:
        self.order = None if order is None else list(order)

    def run(self, plan: ExperimentPlan) -> list[JobOutcome]:
        config = plan.attack_config
        store = (
            ActivationCacheStore(
                max_entries=effective_cache_size(plan),
                delta_store_size=plan_delta_store_size(plan),
            )
            if config.use_activation_cache
            else None
        )
        context = WorkerContext(store=store)
        order = self.order if self.order is not None else range(len(plan.jobs))
        remaining = plan.jobs_per_model()
        outcomes: list[JobOutcome] = []
        for index in order:
            job = plan.jobs[index]
            outcome = job.execute(context)
            outcome.worker_id = "serial"
            outcomes.append(outcome)
            self._notify(outcome)
            for spec in job_model_specs(job):
                remaining[spec] -= 1
                if remaining[spec] == 0 and store is not None:
                    # The sweep never returns to a finished model: drop its
                    # entries (they would only displace live scenes) and
                    # reset the counters so hit rates stay per-model.
                    store.invalidate(build_cached(spec))
                    store.reset_stats()
        return outcomes


def resolve_backend(
    backend: "str | ExecutionBackend | None" = None, n_jobs: int = 1
) -> ExecutionBackend:
    """Build a backend from a name (or pass an instance through).

    ``None`` auto-selects: serial for ``n_jobs == 1``, the persistent
    worker runtime otherwise (lazily imported — it depends on this module).
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend is None:
        backend = "serial" if n_jobs <= 1 else "persistent"
    name = backend.lower()
    if name == "serial":
        return SerialBackend()
    if name == "persistent":
        from repro.experiments.persistent import PersistentPoolBackend

        return PersistentPoolBackend(n_jobs=max(1, n_jobs))
    raise ValueError(
        f"unknown execution backend {backend!r}; expected one of {BACKEND_NAMES}"
    )


def execute_plan(
    plan: ExperimentPlan,
    backend: ExecutionBackend,
    checkpoint=None,
    retry: RetryPolicy | None = None,
) -> ExecutionReport:
    """Run the plan on a backend and aggregate outcomes in plan order.

    Parameters
    ----------
    checkpoint:
        Optional :class:`~repro.experiments.checkpoint.PlanCheckpoint`
        (duck-typed: ``load(plan) -> {job_id: JobOutcome}`` +
        ``record(outcome)``).  Already-journaled jobs are skipped and their
        outcomes loaded (``report.journal_hits`` counts them); every newly
        completed outcome is journaled as it streams in, so an interrupted
        plan resumes where it stopped.
    retry:
        Optional :class:`RetryPolicy`: after a worker-side failure
        (:class:`JobExecutionError` / :class:`WorkerCrashError`) the
        un-collected remainder of the plan is re-dispatched, until the
        failing job exhausts its per-job attempt budget — then the error
        propagates (a poison job).  Outcomes collected before the failure
        are kept (and journaled), never re-run.
    """
    start = time.perf_counter()
    collected: dict = {}
    if checkpoint is not None:
        collected.update(checkpoint.load(plan))
    journal_hits = len(collected)
    retries = 0
    attempts: dict = {}

    def _collect(outcome: JobOutcome) -> None:
        if outcome.job_id in collected:
            return
        collected[outcome.job_id] = outcome
        if checkpoint is not None:
            checkpoint.record(outcome)

    while True:
        pending = [job for job in plan.jobs if job.job_id not in collected]
        if not pending:
            break
        subplan = (
            plan
            if len(pending) == len(plan.jobs)
            else dataclasses_replace(plan, jobs=pending)
        )
        backend.on_outcome = _collect
        try:
            raw = backend.run(subplan)
        except (JobExecutionError, WorkerCrashError) as error:
            count = attempts[error.job_id] = attempts.get(error.job_id, 0) + 1
            if (
                retry is None
                or not retry.should_retry(error)
                or count > retry.max_retries
            ):
                raise
            retries += 1
            continue
        finally:
            backend.on_outcome = None
        if len(raw) != len(subplan.jobs):
            raise RuntimeError(
                f"backend {backend.name!r} returned {len(raw)} outcomes "
                f"for {len(subplan.jobs)} jobs"
            )
        if len({outcome.job_id for outcome in raw}) != len(raw):
            raise RuntimeError(
                f"backend {backend.name!r} returned duplicate job ids"
            )
        for outcome in raw:
            _collect(outcome)
        break
    duration = time.perf_counter() - start

    outcomes = [collected[job.job_id] for job in plan.jobs]
    per_model: dict[str, CacheStats] = {}
    per_worker: dict[str, CacheStats] = {}
    for job, outcome in zip(plan.jobs, outcomes):
        # Worker attribution is independent of the cache: a sweep with the
        # activation cache disabled still reports which workers ran (with
        # zero counters), it just has no per-model cache rows.
        worker = outcome.worker_id
        per_worker.setdefault(worker, CacheStats())
        if outcome.cache_stats is None:
            continue
        per_worker[worker] = per_worker[worker] + outcome.cache_stats
        name = job_stats_label(job)
        if name is None:
            continue
        per_model[name] = per_model.get(name, CacheStats()) + outcome.cache_stats

    return ExecutionReport(
        outcomes=outcomes,
        backend=backend.name,
        n_jobs=getattr(backend, "n_jobs", 1),
        per_model=per_model,
        per_worker=per_worker,
        duration_seconds=duration,
        cache_enabled=plan.attack_config.use_activation_cache,
        journal_hits=journal_hits,
        retries=retries,
    )
