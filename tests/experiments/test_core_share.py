"""One core budget per process: every backend's job computes on its share.

A process that runs jobs itself (the serial backend) computes on every
usable core; each worker of an ``n_jobs``-process persistent pool on
``max(1, cores // n_jobs)``, respawned workers included, and its BLAS runs
on no more threads than that.  Inside the
attention kernel's region BLAS runs on one thread, and the region restores
the caller's BLAS thread count when it ends.
"""

import os

import pytest

from repro.core.config import AttackConfig
from repro.core.regions import HalfImageRegion
from repro.experiments.engine import SerialBackend, execute_plan
from repro.experiments.jobs import ExperimentPlan, JobOutcome
from repro.experiments.persistent import PersistentPoolBackend
from repro.nn import parallel
from repro.nn.attention import attention_rows
from repro.nsga.algorithm import NSGAConfig

CORES = len(os.sched_getaffinity(0))
HAS_SETTER = parallel.blas_setter() is not None


def _blas_count() -> int | None:
    """This process's BLAS thread count, where the loaded BLAS can say."""
    setter = parallel.blas_setter()
    if setter is None:
        return None
    count = setter(1)
    setter(count)
    return count


def _blas_report() -> dict:
    """The share, the kernel's thread count for a call with many units, and
    the BLAS thread count outside and inside the kernel's region."""
    outside = _blas_count()
    with parallel.blas_one_thread():
        inside = _blas_count()
    return {
        "pid": os.getpid(),
        "share": parallel.core_share(),
        "threads": parallel.threads_for(1 << 20),
        "blas": inside,
        "blas_outside": outside,
    }


class _ShareJob:
    """Reports :func:`_blas_report` from the process that executes it.

    With a ``sentinel`` path it kills its worker on the first dispatch
    (leaving the file behind) and reports from the retry.
    """

    def __init__(self, job_id: int, sentinel: str | None = None):
        self.job_id = job_id
        self.sentinel = sentinel

    def execute(self, context):
        if self.sentinel is not None and not os.path.exists(self.sentinel):
            with open(self.sentinel, "w"):
                pass
            os._exit(13)
        return JobOutcome(job_id=self.job_id, result=_blas_report())


def _plan(jobs) -> ExperimentPlan:
    config = AttackConfig(
        nsga=NSGAConfig(num_iterations=1, population_size=4, seed=0),
        region=HalfImageRegion("right"),
    )
    return ExperimentPlan(jobs=list(jobs), attack_config=config, name="core-share")


def _expected(share: int, blas_outside: int | None) -> dict:
    return {
        "share": share,
        "threads": share if HAS_SETTER else 1,
        "blas": 1 if HAS_SETTER else None,
        "blas_outside": blas_outside,
    }


def _expected_in_worker() -> dict:
    """Each of two pool workers: half the cores, BLAS on no more threads."""
    share = max(1, CORES // 2)
    here = _blas_count()
    return _expected(share, None if here is None else min(share, here))


def _reports(report) -> list[dict]:
    return [outcome.result for outcome in report.outcomes]


def _without_pid(result: dict) -> dict:
    return {name: value for name, value in result.items() if name != "pid"}


class TestShareOfEachBackend:
    def test_serial_backend_uses_every_usable_core(self):
        report = execute_plan(_plan(_ShareJob(i) for i in range(2)), SerialBackend())
        for result in _reports(report):
            assert result["pid"] == os.getpid()
            assert _without_pid(result) == _expected(CORES, _blas_count())

    def test_persistent_workers_split_the_cores(self):
        backend = PersistentPoolBackend(n_jobs=2)
        try:
            report = execute_plan(_plan(_ShareJob(i) for i in range(4)), backend)
        finally:
            backend.close()
        for result in _reports(report):
            assert result["pid"] != os.getpid()
            assert _without_pid(result) == _expected_in_worker()

    def test_respawned_worker_keeps_the_share(self, tmp_path):
        backend = PersistentPoolBackend(n_jobs=2)
        try:
            execute_plan(_plan(_ShareJob(i) for i in range(2)), backend)
            runtime = backend.runtime
            original = {worker.process.pid for worker in runtime._workers}
            sentinel = str(tmp_path / "killed-once")
            report = execute_plan(_plan([_ShareJob(0, sentinel)]), backend)
            assert runtime.workers_respawned == 1
        finally:
            backend.close()
        (result,) = _reports(report)
        # The killed worker's job reran on its replacement.
        assert result["pid"] not in original
        assert _without_pid(result) == _expected_in_worker()

    def test_parent_share_is_untouched_by_its_pools(self):
        backend = PersistentPoolBackend(n_jobs=2)
        try:
            execute_plan(_plan(_ShareJob(i) for i in range(2)), backend)
        finally:
            backend.close()
        assert parallel.core_share() == CORES


@pytest.mark.skipif(not HAS_SETTER, reason="the loaded BLAS has no thread-local setter")
class TestBlasGuard:
    def test_guard_restores_the_callers_count(self):
        setter = parallel.blas_setter()
        previous = setter(3)
        try:
            with parallel.blas_one_thread():
                assert setter(1) == 1
            assert setter(3) == 3
        finally:
            setter(previous)

    def test_worker_blas_is_held_to_the_share(self, monkeypatch):
        monkeypatch.setattr(parallel, "_share", None)
        setter = parallel.blas_setter()
        previous = setter(CORES + 3)
        try:
            parallel.split_cores(1)
            assert parallel.core_share() == CORES
            assert _blas_count() == CORES
            setter(1)  # as if pinned by the environment: the lower count stays
            parallel.split_cores(1)
            assert _blas_count() == 1
        finally:
            setter(previous)

    def test_threaded_and_failing_calls_restore_the_callers_count(self, monkeypatch):
        monkeypatch.setattr(parallel, "_share", 2)
        setter = parallel.blas_setter()
        query = key = value = [[[1.0, 2.0]] * 8] * 8  # 8 images, 8 tokens
        previous = setter(3)
        try:
            attention_rows(query, key, value, 1.0)
            assert setter(3) == 3

            def failing(block, **kwargs):
                raise ArithmeticError("normalisation failed")

            with pytest.raises(ArithmeticError):
                attention_rows(query, key, value, 1.0, normalize=failing)
            assert setter(3) == 3
        finally:
            setter(previous)
