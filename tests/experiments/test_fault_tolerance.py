"""Crash/kill fault-injection: journaled plans resume bit-identically.

The scenarios the checkpoint layer exists for, run against the real attack
plan in :mod:`fault_plan` (tiny geometry, deterministic outcomes):

* a **worker** hard-killed mid-plan (persistent runtime) — the crash
  budget surfaces ``WorkerCrashError``, the journal holds what finished,
  and a resumed run completes with bit-identical results; with a
  ``RetryPolicy`` the same crash is absorbed inside one ``execute_plan``;
* a **transient job failure** on the persistent runtime — resume and
  in-run retry both recover;
* the **parent process** SIGKILLed mid-plan (``n_jobs`` ∈ {2, 4}) — it
  leaves no shared-memory segment behind, a fresh process resumes from the
  journal and the final report is bit-identical to an uninterrupted serial
  run.
"""

import os
import signal
import subprocess
import sys
import time
from dataclasses import replace as dataclasses_replace
from pathlib import Path

import pytest

# The shared plan module lives beside this file (it doubles as the child
# process' entry point); importlib import-mode does not put test dirs on
# sys.path, so register it explicitly.
_HERE = str(Path(__file__).resolve().parent)
if _HERE not in sys.path:
    sys.path.insert(0, _HERE)

import fault_plan
from fault_plan import KillOnceAttackJob, build_plan
from repro.experiments.checkpoint import PlanCheckpoint
from repro.experiments.engine import (
    JobExecutionError,
    RetryPolicy,
    SerialBackend,
    WorkerCrashError,
    execute_plan,
)
from repro.experiments.persistent import PersistentPoolBackend
from repro.experiments.shm import list_segments


@pytest.fixture(scope="module")
def plan():
    return build_plan()


@pytest.fixture(scope="module")
def serial_fingerprints(plan):
    report = execute_plan(plan, SerialBackend())
    return [outcome.result.fingerprint() for outcome in report.outcomes]


def _fingerprints(report):
    return [outcome.result.fingerprint() for outcome in report.outcomes]


def _with_kill_once(plan, index: int, sentinel: str):
    """The same plan with job ``index`` swapped for its kill-once twin."""
    jobs = list(plan.jobs)
    original = jobs[index]
    jobs[index] = KillOnceAttackJob(
        job_id=original.job_id,
        model=original.model,
        image=original.image,
        config=original.config,
        scene_index=original.scene_index,
        nsga_seed=original.nsga_seed,
        sentinel=sentinel,
    )
    return dataclasses_replace(plan, jobs=jobs)


class _FailOnceAttackJob(KillOnceAttackJob):
    """Raises (instead of killing the worker) on first dispatch."""

    def execute(self, context):
        if self.sentinel and not os.path.exists(self.sentinel):
            with open(self.sentinel, "w"):
                pass
            raise ValueError("injected transient failure")
        return KillOnceAttackJob.execute(self, context)


class TestWorkerDeathResume:
    def test_worker_kill_interrupts_then_journal_resumes(
        self, plan, serial_fingerprints, tmp_path
    ):
        """Crash-budget abort mid-plan, then resume: bit-identical report.

        The kill job is the *last* job, so its worker completes (and
        journals) at least one sibling job of the same model before dying
        — the resume is guaranteed a journal hit.
        """
        faulty = _with_kill_once(plan, 3, str(tmp_path / "crashed-once"))
        backend = PersistentPoolBackend(n_jobs=2, max_crashes_per_job=1)
        try:
            with pytest.raises(WorkerCrashError):
                execute_plan(
                    faulty, backend, checkpoint=PlanCheckpoint(tmp_path)
                )
            resumed = execute_plan(
                faulty, backend, checkpoint=PlanCheckpoint(tmp_path)
            )
        finally:
            backend.close()
        assert resumed.journal_hits >= 1
        assert _fingerprints(resumed) == serial_fingerprints

    def test_worker_kill_absorbed_by_retry_policy(
        self, plan, serial_fingerprints, tmp_path
    ):
        """With a RetryPolicy the crash never surfaces: one execute_plan
        call re-dispatches the remainder and completes bit-identically."""
        faulty = _with_kill_once(plan, 1, str(tmp_path / "crashed-once"))
        backend = PersistentPoolBackend(n_jobs=2, max_crashes_per_job=1)
        try:
            report = execute_plan(
                faulty,
                backend,
                checkpoint=PlanCheckpoint(tmp_path),
                retry=RetryPolicy(max_retries=2),
            )
        finally:
            backend.close()
        assert report.retries >= 1
        assert _fingerprints(report) == serial_fingerprints


class TestTransientFailureResume:
    def test_pool_failure_then_journal_resume(
        self, plan, serial_fingerprints, tmp_path
    ):
        # The failing job is last: its worker runs it after an earlier job,
        # whose outcome arrives (and is journaled) first, so the resume is
        # guaranteed a journal hit.
        jobs = list(plan.jobs)
        jobs[3] = _FailOnceAttackJob(
            job_id=jobs[3].job_id,
            model=jobs[3].model,
            image=jobs[3].image,
            config=jobs[3].config,
            scene_index=jobs[3].scene_index,
            nsga_seed=jobs[3].nsga_seed,
            sentinel=str(tmp_path / "failed-once"),
        )
        faulty = dataclasses_replace(plan, jobs=jobs)
        backend = PersistentPoolBackend(n_jobs=2)
        try:
            with pytest.raises(JobExecutionError):
                execute_plan(faulty, backend, checkpoint=PlanCheckpoint(tmp_path))
            resumed = execute_plan(
                faulty, backend, checkpoint=PlanCheckpoint(tmp_path)
            )
        finally:
            backend.close()
        assert resumed.journal_hits >= 1
        assert _fingerprints(resumed) == serial_fingerprints

    def test_pool_failure_absorbed_by_retry_policy(
        self, plan, serial_fingerprints, tmp_path
    ):
        jobs = list(plan.jobs)
        jobs[0] = _FailOnceAttackJob(
            job_id=jobs[0].job_id,
            model=jobs[0].model,
            image=jobs[0].image,
            config=jobs[0].config,
            scene_index=jobs[0].scene_index,
            nsga_seed=jobs[0].nsga_seed,
            sentinel=str(tmp_path / "failed-once"),
        )
        faulty = dataclasses_replace(plan, jobs=jobs)
        backend = PersistentPoolBackend(n_jobs=2)
        try:
            report = execute_plan(faulty, backend, retry=RetryPolicy(max_retries=2))
        finally:
            backend.close()
        assert report.retries >= 1
        assert _fingerprints(report) == serial_fingerprints


class TestParentDeathResume:
    """SIGKILL the whole driving process group mid-plan, then resume."""

    def _launch_child(self, n_jobs: int, checkpoint_dir: Path):
        here = Path(__file__).resolve().parent
        src = Path(fault_plan.__file__).resolve()  # lives next to this test
        import repro

        repro_src = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(repro_src), str(here)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        return subprocess.Popen(
            [sys.executable, str(src), str(n_jobs), str(checkpoint_dir)],
            env=env,
            start_new_session=True,  # its own process group: killpg reaps workers too
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def _wait_for_journal_outcomes(self, path: Path, minimum: int, child) -> int:
        deadline = time.monotonic() + 300.0
        while time.monotonic() < deadline:
            if child.poll() is not None and not path.exists():
                raise AssertionError("child exited before journaling anything")
            if path.exists():
                lines = path.read_text().count("\n")
                if lines >= 1 + minimum:  # header + outcomes
                    return lines - 1
                if child.poll() is not None:
                    return lines - 1  # child finished the whole plan
            time.sleep(0.05)
        raise AssertionError("journal never accumulated outcomes")

    @pytest.mark.parametrize("n_jobs", [2, 4])
    def test_parent_sigkill_then_resume_matches_serial(
        self, plan, serial_fingerprints, tmp_path, n_jobs
    ):
        journal = tmp_path / f"{plan.name}.journal.jsonl"
        child = self._launch_child(n_jobs, tmp_path)
        try:
            journaled = self._wait_for_journal_outcomes(journal, 1, child)
            if child.poll() is None:
                os.killpg(child.pid, signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:  # pragma: no cover - cleanup backstop
                os.killpg(child.pid, signal.SIGKILL)
                child.wait(timeout=30)
        # A SIGKILLed parent cleans nothing up, and it has nothing to:
        # jobs travel by value, so no shared-memory segment outlives it.
        assert list_segments(f"rpr{child.pid}") == []
        assert journaled >= 1

        resumed = execute_plan(
            plan, SerialBackend(), checkpoint=PlanCheckpoint(tmp_path)
        )
        assert resumed.journal_hits >= 1
        assert _fingerprints(resumed) == serial_fingerprints
