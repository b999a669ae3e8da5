"""Persistent-runtime parity, dispatch, lifecycle, failure and transport tests.

The persistent backend's contract has five layers, each enforced here:

1. **Parity** — bit-identical results to ``SerialBackend`` for any worker
   count, submission order and seed derivation mode (the engine contract).
2. **Dispatch** — workers pull from one plan-ordered queue: a worker with
   a free slot takes the first pending job for a model it holds, else the
   first pending job, and the first fill goes round the workers, so a
   one-model plan spreads over every worker.
3. **Lifecycle** — the per-model invalidation the serial backend applies is
   broadcast to workers, deferred for pinned models so multi-stage sweeps
   keep their bundles warm between stages.
4. **Failure** — a raising job surfaces a :class:`JobExecutionError` and
   broadcasts an abort-epoch so queued stale jobs are skipped, a killed
   worker is reaped and replaced (the slot always holds a live
   replacement, even on the poison path), a job that cannot be pickled
   raises instead of hanging, no worker outlives ``close()``, and none
   outlives its parent.
5. **Transport** — jobs travel by value, so a job that writes into its
   scene changes no other job's input, and neither the parent nor a
   worker imports ``multiprocessing.shared_memory``; two sweeps in one
   interpreter print no resource-tracker errors.
"""

import hashlib
import json
import multiprocessing
import os
import pickle
import queue
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import AttackConfig
from repro.core.regions import HalfImageRegion
from repro.data.dataset import generate_dataset
from repro.detectors.training import TrainingConfig
from repro.experiments.engine import (
    BACKEND_NAMES,
    JobExecutionError,
    SerialBackend,
    execute_plan,
    resolve_backend,
)
from repro.experiments.jobs import (
    ExperimentPlan,
    JobOutcome,
    ModelSpec,
    build_attack_plan,
)
from repro.experiments.persistent import (
    PersistentPoolBackend,
    PersistentWorkerRuntime,
    WorkerCrashError,
    _WorkerHandle,
)
from repro.nsga.algorithm import NSGAConfig

LENGTH, WIDTH = 48, 96
SEEDS = (1,)
ARCHITECTURES = ("yolo", "detr")


@pytest.fixture(scope="module")
def training():
    return TrainingConfig(
        scenes_per_class=2,
        image_length=LENGTH,
        image_width=WIDTH,
        background_clusters=12,
    )


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(
        num_images=2, seed=5, image_length=LENGTH, image_width=WIDTH, half="left"
    )


@pytest.fixture(scope="module")
def attack_config():
    return AttackConfig(
        nsga=NSGAConfig(num_iterations=3, population_size=8, seed=0),
        region=HalfImageRegion("right"),
    )


@pytest.fixture(scope="module")
def plan(dataset, attack_config, training):
    return build_attack_plan(
        architectures=ARCHITECTURES,
        seeds=SEEDS,
        dataset=dataset,
        attack_config=attack_config,
        training=training,
    )


@pytest.fixture(scope="module")
def seeded_plan(dataset, attack_config, training):
    return build_attack_plan(
        architectures=ARCHITECTURES,
        seeds=SEEDS,
        dataset=dataset,
        attack_config=attack_config,
        training=training,
        experiment_seed=2023,
    )


@pytest.fixture(scope="module")
def serial_report(plan):
    return execute_plan(plan, SerialBackend())


@pytest.fixture(scope="module")
def seeded_serial_report(seeded_plan):
    return execute_plan(seeded_plan, SerialBackend())


def _result_fingerprint(result) -> tuple:
    solutions = tuple(
        (s.mask.values.tobytes(), s.intensity, s.degradation, s.distance, s.rank)
        for s in result.solutions
    )
    return (
        result.detector_name,
        result.num_evaluations,
        result.cache_hits,
        solutions,
    )


def _report_fingerprints(report) -> list:
    return [_result_fingerprint(outcome.result) for outcome in report.outcomes]


def _toy_config() -> AttackConfig:
    return AttackConfig(
        nsga=NSGAConfig(num_iterations=2, population_size=4, seed=7),
        region=HalfImageRegion("right"),
    )


# --- toy jobs (module level: they cross the process boundary) ---------------


class _CountingJob:
    def __init__(self, job_id: int, value: int):
        self.job_id = job_id
        self.value = value

    def execute(self, context):
        return JobOutcome(job_id=self.job_id, result=self.value * self.value)


class _ModelJob(_CountingJob):
    """A counting job that names a model, so dispatch follows affinity."""

    def __init__(self, job_id: int, model: str):
        super().__init__(job_id, job_id)
        self.model = model


class _FailingJob:
    def __init__(self, job_id: int):
        self.job_id = job_id

    def execute(self, context):
        raise ValueError("deliberate job failure")


class _KillOnceJob:
    """Kills its worker on first dispatch, completes on the retry."""

    def __init__(self, job_id: int, sentinel: str):
        self.job_id = job_id
        self.sentinel = sentinel

    def execute(self, context):
        if not os.path.exists(self.sentinel):
            with open(self.sentinel, "w"):
                pass
            os._exit(13)
        return JobOutcome(job_id=self.job_id, result="survived")


class _AlwaysKillJob:
    """Poison job: kills every worker it is dispatched to."""

    def __init__(self, job_id: int):
        self.job_id = job_id

    def execute(self, context):
        os._exit(13)


class _SleepJob:
    """Burns wall-clock so an abort broadcast can land while it is queued."""

    def __init__(self, job_id: int, seconds: float = 0.3):
        self.job_id = job_id
        self.seconds = seconds

    def execute(self, context):
        time.sleep(self.seconds)
        return JobOutcome(job_id=self.job_id, result="slept")


class _SceneDigestJob:
    """Digests its scene, optionally after overwriting it with zeros."""

    def __init__(self, job_id: int, image, scribble: bool = False):
        self.job_id = job_id
        self.image = image
        self.scribble = scribble

    def execute(self, context):
        if self.scribble:
            self.image[...] = 0.0
        return JobOutcome(job_id=self.job_id, result=_digest(self.image))


def _digest(array) -> str:
    return hashlib.blake2b(array.tobytes(), digest_size=16).hexdigest()


def _fresh_env() -> dict:
    """The environment of a new interpreter that imports this checkout's repro."""
    import repro

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).resolve().parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _run_fresh_interpreter(script: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a new interpreter that imports this checkout's repro."""
    return subprocess.run(
        [sys.executable, "-c", script],
        env=_fresh_env(),
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )


def _run_in_own_session(script: str, timeout: float) -> str:
    """Run ``script`` in a fresh interpreter and process group; its stdout.

    The group is killed afterwards, so a worker the script leaves behind —
    or a script that hangs past ``timeout`` — cannot outlive the test.
    """
    with subprocess.Popen(
        [sys.executable, "-c", script],
        env=_fresh_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as child:
        try:
            stdout, stderr = child.communicate(timeout=timeout)
        finally:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    assert child.returncode == 0, stderr
    return stdout


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process; a zombie counts as dead."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:  # pragma: no cover - no procfs: a signalable pid lives
        return True
    return state != "Z"


# --- parity ------------------------------------------------------------------


class TestPersistentParity:
    @pytest.mark.parametrize("n_jobs", [1, 2, 4])
    def test_matches_serial_bit_exactly(self, plan, serial_report, n_jobs):
        """Persistent sweeps are bit-identical to serial at any worker count,
        with shuffled submission covering out-of-order dispatch."""
        backend = PersistentPoolBackend(n_jobs=n_jobs, submission_seed=100 + n_jobs)
        try:
            report = execute_plan(plan, backend)
        finally:
            backend.close()
        assert _report_fingerprints(report) == _report_fingerprints(serial_report)
        assert report.backend == "persistent"
        assert set(report.per_worker) <= {f"worker-{i}" for i in range(n_jobs)}

    @pytest.mark.parametrize("n_jobs", [2, 4])
    def test_matches_serial_with_derived_seeds(
        self, seeded_plan, seeded_serial_report, n_jobs
    ):
        backend = PersistentPoolBackend(n_jobs=n_jobs, submission_seed=7 * n_jobs)
        try:
            report = execute_plan(seeded_plan, backend)
        finally:
            backend.close()
        assert _report_fingerprints(report) == _report_fingerprints(
            seeded_serial_report
        )

    def test_runtime_reuse_across_plans_stays_bit_identical(
        self, plan, serial_report
    ):
        """The whole point of persistence: a second plan on warm workers
        (resident detectors, cached bundles) must change nothing."""
        backend = PersistentPoolBackend(n_jobs=2, submission_seed=1)
        try:
            cold = execute_plan(plan, backend)
            runtime = backend.runtime
            warm = execute_plan(plan, backend)
            assert backend.runtime is runtime  # same workers, not a restart
        finally:
            backend.close()
        assert _report_fingerprints(cold) == _report_fingerprints(serial_report)
        assert _report_fingerprints(warm) == _report_fingerprints(serial_report)

    def test_resolve_backend_knows_persistent(self):
        assert "persistent" in BACKEND_NAMES
        backend = resolve_backend("persistent", n_jobs=3)
        assert isinstance(backend, PersistentPoolBackend)
        assert backend.n_jobs == 3
        backend.close()  # never started: close is a safe no-op

    def test_fork_started_workers_inherit_the_first_plans_detectors(
        self, monkeypatch
    ):
        """Before a fork-started runtime spawns, the backend builds the first
        plan's detectors in the parent, once per model, so the workers
        inherit them instead of each training the zoo; later plans on the
        running workers build nothing in the parent."""
        built = []
        monkeypatch.setattr("repro.experiments.persistent.build_cached", built.append)

        def plan(jobs):
            return ExperimentPlan(jobs=jobs, attack_config=_toy_config(), name="warm")

        backend = PersistentPoolBackend(n_jobs=2, start_method="fork")
        try:
            execute_plan(
                plan([_ModelJob(0, "A"), _ModelJob(1, "B"), _ModelJob(2, "A")]),
                backend,
            )
            assert built == ["A", "B"]
            execute_plan(plan([_ModelJob(3, "C")]), backend)
        finally:
            backend.close()
        assert built == ["A", "B"]


# --- dispatch ----------------------------------------------------------------


class TestDispatch:
    """Two workers with a prefetch of 2 take a 4-job plan in the first fill,
    so where each job runs is fixed before any job finishes."""

    @staticmethod
    def _worker_ids(jobs) -> list[str]:
        runtime = PersistentWorkerRuntime(n_jobs=2)
        try:
            return [outcome.worker_id for outcome in runtime.execute(jobs)]
        finally:
            runtime.close()

    def test_one_model_plan_splits_over_both_workers(self):
        """Affinity never leaves a worker idle: four jobs of one model run
        two on each worker, not all four on the first one to hold it."""
        workers = self._worker_ids([_ModelJob(i, "A") for i in range(4)])
        assert Counter(workers) == {"worker-0": 2, "worker-1": 2}

    def test_each_worker_takes_the_plans_next_job(self):
        """Plan [A, A, B, B]: the first fill goes round the workers, so the
        two A jobs start at once on different workers (and so do the Bs)."""
        workers = self._worker_ids(
            [_ModelJob(0, "A"), _ModelJob(1, "A"), _ModelJob(2, "B"), _ModelJob(3, "B")]
        )
        assert workers[0] != workers[1]
        assert workers[2] != workers[3]

    def test_a_worker_first_takes_jobs_for_the_models_it_holds(self):
        """Pinned models stay on the workers that ran them, and the next
        plan's first fill hands each worker the job for its own model,
        even where plan order puts another model's job first."""
        runtime = PersistentWorkerRuntime(n_jobs=2)
        runtime.pin_models(["A", "B"])
        try:
            first = runtime.execute([_ModelJob(0, "A"), _ModelJob(1, "B")])
            second = runtime.execute([_ModelJob(2, "B"), _ModelJob(3, "A")])
        finally:
            runtime.close()
        holder_a, holder_b = (outcome.worker_id for outcome in first)
        assert holder_a != holder_b
        assert [outcome.worker_id for outcome in second] == [holder_b, holder_a]

    def test_take_pops_the_first_job_of_a_held_model_else_the_first_job(self):
        """The pick rule itself, without workers: the first pending job for
        a model the worker holds, else the head of the deque; what is left
        stays in plan order."""
        runtime = PersistentWorkerRuntime(n_jobs=1)
        try:
            entries = [(i, _ModelJob(i, model), None) for i, model in enumerate("ABCB")]
            runtime._pending.extend(entries)

            def handle(models):
                return _WorkerHandle(
                    index=0,
                    generation=0,
                    process=None,
                    task_queue=None,
                    reader=None,
                    models=set(models),
                )

            assert runtime._take(handle({"B", "D"})) is entries[1]
            assert runtime._take(handle({"D"})) is entries[0]
            assert runtime._take(handle(())) is entries[2]
            assert list(runtime._pending) == [entries[3]]
        finally:
            runtime.close()

    def test_finished_models_drop_out_of_the_workers_affinity(self):
        """Unpinned, a model whose last job finished is invalidated on every
        worker, so the next plan's first fill follows plan order alone."""
        runtime = PersistentWorkerRuntime(n_jobs=2)
        try:
            first = runtime.execute([_ModelJob(0, "A"), _ModelJob(1, "B")])
            held = [set(worker.models) for worker in runtime._workers]
            second = runtime.execute([_ModelJob(2, "B"), _ModelJob(3, "A")])
        finally:
            runtime.close()
        assert [outcome.worker_id for outcome in first] == ["worker-0", "worker-1"]
        assert held == [set(), set()]
        assert [outcome.worker_id for outcome in second] == ["worker-0", "worker-1"]

    def test_respawn_puts_in_flight_jobs_back_at_the_front(self):
        """A dead worker's in-flight jobs go back to the front of the pending
        deque, ahead of the rest of the plan, and its replacement is sent
        the very bytes the parent pickled for the first dispatch."""
        runtime = PersistentWorkerRuntime(n_jobs=1, prefetch=2)
        try:
            runtime.start()
            dead = runtime._workers[0]
            dead.process.kill()
            dead.process.join(timeout=5.0)
            sent = {}
            for job in (_CountingJob(0, 2), _CountingJob(1, 3)):
                sent[job.job_id] = (job, pickle.dumps(job))
            dead.inflight.update(sent)
            rest = [(job_id, _CountingJob(job_id, job_id), None) for job_id in (2, 3)]
            runtime._pending.extend(rest)
            runtime._respawn(dead, epoch=1, crashes={})
            replacement = runtime._workers[0]
            assert replacement is not dead and replacement.generation == 1
            assert list(replacement.inflight) == [0, 1]
            for job_id, (job, payload) in sent.items():
                assert replacement.inflight[job_id][0] is job
                assert replacement.inflight[job_id][1] is payload
            assert list(runtime._pending) == rest
        finally:
            runtime.close()

    def test_unpicklable_job_is_neither_queued_nor_in_flight(self):
        """Pickling happens before anything is sent: a job that cannot be
        pickled raises PicklingError naming it, chained to the pickler's
        error, and leaves the worker's queue and in-flight window empty."""
        runtime = PersistentWorkerRuntime(n_jobs=1)
        worker = _WorkerHandle(
            index=0, generation=0, process=None, task_queue=queue.Queue(), reader=None
        )
        job = _CountingJob("lambda-job", lambda: 1)
        runtime._pending.append((job.job_id, job, None))
        try:
            with pytest.raises(pickle.PicklingError, match="'lambda-job'") as err:
                runtime._send(worker, epoch=1)
        finally:
            runtime.close()
        assert err.value.__cause__ is not None
        assert worker.task_queue.empty()
        assert worker.inflight == {} and worker.models == set()


# --- multi-stage sweeps ------------------------------------------------------


class TestMultiStageSweepParity:
    """Transfer and defense sweeps on a persistent backend vs serial."""

    def test_transfer_matrix_matches_serial_and_reuses_bundles(
        self, training, dataset
    ):
        from repro.experiments.transfer import run_transferability_experiment

        specs = [
            ModelSpec("yolo", 1, training=training),
            ModelSpec("detr", 1, training=training),
        ]
        image = dataset[0].image
        config = _toy_config()
        serial = run_transferability_experiment(
            specs, image, config, backend=SerialBackend()
        )
        backend = PersistentPoolBackend(n_jobs=2, submission_seed=9)
        try:
            persistent = run_transferability_experiment(
                specs, image, config, backend=backend
            )
        finally:
            backend.close()
        assert persistent.matrix.tobytes() == serial.matrix.tobytes()
        assert persistent.masks_intensity == serial.masks_intensity
        for left, right in zip(persistent.best_masks, serial.best_masks):
            assert np.array_equal(left, right)
        assert persistent.execution["backend"] == "persistent"
        # The warm-bundle guarantee: stage 2 (the matrix evaluation) lands
        # on workers still holding stage 1's pinned activation bundles, so
        # it hits instead of rebuilding — serial rebuilds its store between
        # stages and must re-miss.
        eval_stats = persistent.execution["stages"][1]["cache_stats"]
        assert eval_stats["hits"] > 0
        assert eval_stats["misses"] == 0
        serial_eval_stats = serial.execution["stages"][1]["cache_stats"]
        assert serial_eval_stats["misses"] > 0

    def test_defense_evaluation_matches_serial(self, training, dataset):
        from repro.defenses.augmentation import NoiseAugmentationConfig
        from repro.defenses.evaluation import evaluate_defense
        from repro.defenses.jobs import DefendedModelSpec

        undefended = ModelSpec("detr", 1, training=training)
        defended = DefendedModelSpec(
            base=undefended,
            augmentation=NoiseAugmentationConfig(augmented_copies=1),
            training=training,
        )
        sample = dataset[0]
        config = _toy_config()
        serial = evaluate_defense(
            undefended, defended, sample.image, sample.ground_truth, config
        )
        backend = PersistentPoolBackend(n_jobs=2, submission_seed=61)
        try:
            persistent = evaluate_defense(
                undefended,
                defended,
                sample.image,
                sample.ground_truth,
                config,
                backend=backend,
            )
        finally:
            backend.close()
        assert (
            persistent.undefended_result.fingerprint()
            == serial.undefended_result.fingerprint()
        )
        assert (
            persistent.defended_result.fingerprint()
            == serial.defended_result.fingerprint()
        )
        assert (
            persistent.undefended_best_degradation
            == serial.undefended_best_degradation
        )
        assert persistent.defended_best_degradation == serial.defended_best_degradation
        assert persistent.clean_recall_undefended == serial.clean_recall_undefended
        assert persistent.clean_recall_defended == serial.clean_recall_defended
        assert persistent.execution["backend"] == "persistent"


# --- lifecycle ---------------------------------------------------------------


class TestModelLifecycle:
    def _tiny_plan(self, training, scenes, architectures=("yolo",)):
        return build_attack_plan(
            architectures=architectures,
            seeds=SEEDS,
            dataset=scenes,
            attack_config=_toy_config(),
            training=training,
        )

    def test_finished_models_are_invalidated_on_workers(self, training, dataset):
        """The pooled cache-lifecycle bugfix: when a model's last job
        completes anywhere in the runtime, every worker drops its entries
        (the one-shot pool let dead models thrash worker LRUs forever)."""
        plan = self._tiny_plan(training, list(dataset), ARCHITECTURES)
        backend = PersistentPoolBackend(n_jobs=2, submission_seed=5)
        try:
            execute_plan(plan, backend)
            stats = backend.runtime.worker_cache_stats()
            assert set(stats) == {"worker-0", "worker-1"}
            assert all(payload is not None for payload in stats.values())
            # Every worker that built bundles also dropped them.
            assert all(payload["entries"] == 0 for payload in stats.values())
            total_invalidations = sum(p["invalidations"] for p in stats.values())
            total_misses = sum(p["misses"] for p in stats.values())
            assert total_misses > 0
            assert total_invalidations == total_misses  # each build later dropped
        finally:
            backend.close()

    def test_pinned_models_keep_entries_until_unpinned(self, training, dataset):
        plan = self._tiny_plan(training, [dataset[0]])
        specs = plan.model_specs()
        backend = PersistentPoolBackend(n_jobs=1)
        try:
            backend.pin_models(specs)
            execute_plan(plan, backend)
            pinned_stats = backend.runtime.worker_cache_stats()
            assert sum(p["entries"] for p in pinned_stats.values()) > 0
            backend.unpin_models(specs)
            unpinned_stats = backend.runtime.worker_cache_stats()
            assert sum(p["entries"] for p in unpinned_stats.values()) == 0
        finally:
            backend.close()


# --- failure handling --------------------------------------------------------

#: One persistent worker: a plan whose second job holds a lambda (which no
#: pickler can ship), under a retry policy, then a healthy plan.
_UNPICKLABLE_JOB = """
import json, pickle, time

from repro.core.config import AttackConfig
from repro.experiments.engine import RetryPolicy, execute_plan
from repro.experiments.jobs import ExperimentPlan, JobOutcome
from repro.experiments.persistent import PersistentPoolBackend


class Job:
    def __init__(self, job_id, extra=None):
        self.job_id = job_id
        self.extra = extra

    def execute(self, context):
        return JobOutcome(job_id=self.job_id, result=self.job_id)


def plan(jobs):
    return ExperimentPlan(jobs=jobs, attack_config=AttackConfig(), name="pickling")


raised = None
backend = PersistentPoolBackend(n_jobs=1)
try:
    start = time.monotonic()
    try:
        execute_plan(
            plan([Job(0), Job("lambda-job", lambda: 1)]),
            backend,
            retry=RetryPolicy(max_retries=2),
        )
    except pickle.PicklingError as error:
        raised = {
            "message": str(error),
            "cause": type(error.__cause__).__name__,
            "seconds": time.monotonic() - start,
        }
    report = execute_plan(plan([Job(i) for i in range(3)]), backend)
finally:
    backend.close()
print(json.dumps({"raised": raised, "next": [o.result for o in report.outcomes]}))
"""

#: A 2-worker plan whose first job sleeps for ten minutes; once it has
#: started, the parent prints its workers' pids and exits without close().
_PARENT_EXITS = """
import json, os, sys, threading, time

from repro.core.config import AttackConfig
from repro.experiments.engine import execute_plan
from repro.experiments.jobs import ExperimentPlan, JobOutcome
from repro.experiments.persistent import PersistentPoolBackend

STARTED = sys.argv[1]


class Job:
    def __init__(self, job_id, seconds):
        self.job_id = job_id
        self.seconds = seconds

    def execute(self, context):
        if self.seconds:
            open(STARTED, "w").close()
            time.sleep(self.seconds)
        return JobOutcome(job_id=self.job_id, result=None)


backend = PersistentPoolBackend(n_jobs=2)
plan = ExperimentPlan(
    jobs=[Job(0, 600.0), Job(1, 0.0)], attack_config=AttackConfig(), name="orphans"
)
threading.Thread(target=execute_plan, args=(plan, backend), daemon=True).start()
deadline = time.monotonic() + 120.0
while not os.path.exists(STARTED) and time.monotonic() < deadline:
    time.sleep(0.05)
print(json.dumps([worker.process.pid for worker in backend.runtime._workers]))
sys.stdout.flush()
os._exit(0)
"""



class TestFailureHandling:
    def test_raising_job_surfaces_job_execution_error(self):
        plan = ExperimentPlan(
            jobs=[_CountingJob(0, 2), _FailingJob(1), _CountingJob(2, 3)],
            attack_config=_toy_config(),
            name="failing",
        )
        backend = PersistentPoolBackend(n_jobs=2)
        try:
            with pytest.raises(JobExecutionError) as err:
                execute_plan(plan, backend)
            assert err.value.job_id == 1
            assert "ValueError" in str(err.value)
            assert "deliberate job failure" in err.value.worker_traceback
            # The runtime survives an aborted plan: stale results from the
            # failed epoch are dropped and the next plan runs clean.
            healthy = ExperimentPlan(
                jobs=[_CountingJob(i, i + 1) for i in range(4)],
                attack_config=_toy_config(),
                name="recovery",
            )
            report = execute_plan(healthy, backend)
            assert [o.result for o in report.outcomes] == [1, 4, 9, 16]
        finally:
            backend.close()

    def test_killed_worker_is_reaped_and_replaced(self, tmp_path):
        sentinel = str(tmp_path / "killed-once")
        plan = ExperimentPlan(
            jobs=[
                _CountingJob(0, 1),
                _KillOnceJob(1, sentinel),
                _CountingJob(2, 2),
                _CountingJob(3, 3),
            ],
            attack_config=_toy_config(),
            name="kill-once",
        )
        backend = PersistentPoolBackend(n_jobs=1)
        try:
            report = execute_plan(plan, backend)
            assert [o.job_id for o in report.outcomes] == [0, 1, 2, 3]
            assert report.outcomes[1].result == "survived"
            runtime = backend.runtime
            assert runtime.workers_respawned >= 1
        finally:
            backend.close()

    def test_poison_job_raises_worker_crash_error(self):
        plan = ExperimentPlan(
            jobs=[_AlwaysKillJob(0)],
            attack_config=_toy_config(),
            name="poison",
        )
        backend = PersistentPoolBackend(n_jobs=1, max_crashes_per_job=2)
        try:
            with pytest.raises(WorkerCrashError) as err:
                execute_plan(plan, backend)
            assert err.value.job_id == 0
            assert err.value.crashes == 2
        finally:
            backend.close()

    def test_backend_survives_poison_job_and_runs_next_plan(self):
        """Regression: the crash-budget raise used to leave the dead
        worker's corpse in its slot (closed task queue and all), so the
        *next* plan on the same backend crashed trying to fill it.  The
        slot must hold a live replacement before WorkerCrashError surfaces."""
        poison = ExperimentPlan(
            jobs=[_AlwaysKillJob(0)],
            attack_config=_toy_config(),
            name="poison",
        )
        backend = PersistentPoolBackend(n_jobs=1, max_crashes_per_job=2)
        try:
            with pytest.raises(WorkerCrashError):
                execute_plan(poison, backend)
            runtime = backend.runtime
            assert all(w.process.is_alive() for w in runtime._workers)
            healthy = ExperimentPlan(
                jobs=[_CountingJob(i, i + 1) for i in range(4)],
                attack_config=_toy_config(),
                name="after-poison",
            )
            report = execute_plan(healthy, backend)
            assert [o.result for o in report.outcomes] == [1, 4, 9, 16]
        finally:
            backend.close()

    def test_abort_epoch_skips_stale_queued_jobs(self):
        """After a JobExecutionError aborts a plan, jobs of that plan still
        queued on workers must be *skipped*, not executed into the void."""
        plan = ExperimentPlan(
            jobs=[_FailingJob(0), _SleepJob(1), _SleepJob(2), _SleepJob(3)],
            attack_config=_toy_config(),
            name="stale-backlog",
        )
        backend = PersistentPoolBackend(n_jobs=1, prefetch=4)
        try:
            with pytest.raises(JobExecutionError):
                execute_plan(plan, backend)
            runtime = backend.runtime
            # A healthy plan on the same runtime still runs to completion
            # (its epoch is above the abort mark)...
            healthy = ExperimentPlan(
                jobs=[_CountingJob(i, i) for i in range(3)],
                attack_config=_toy_config(),
                name="after-abort",
            )
            report = execute_plan(healthy, backend)
            assert [o.result for o in report.outcomes] == [0, 1, 4]
            # ...and the worker's own counters prove the aborted plan's
            # backlog was dropped without execution: of the three sleep
            # jobs queued behind the failing one, at most one (already
            # dequeued when the abort landed) may have run.
            job_stats = runtime.worker_job_stats()
            skipped = sum(p["skipped_stale"] for p in job_stats.values())
            executed = sum(p["executed"] for p in job_stats.values())
            assert skipped >= 2
            assert executed <= 2 + len(healthy.jobs)
        finally:
            backend.close()

    def test_worker_cache_stats_survives_dead_idle_worker(self):
        """The stats wait polices liveness: a worker killed while idle is
        respawned and the request re-sent, instead of the old behaviour of
        hanging until the full timeout and raising TimeoutError."""
        plan = ExperimentPlan(
            jobs=[_CountingJob(i, i) for i in range(4)],
            attack_config=_toy_config(),
            name="stats-liveness",
        )
        backend = PersistentPoolBackend(n_jobs=2)
        try:
            execute_plan(plan, backend)
            runtime = backend.runtime
            runtime._workers[0].process.kill()
            runtime._workers[0].process.join(timeout=5.0)
            stats = runtime.worker_cache_stats(timeout=15.0)
            assert set(stats) == {"worker-0", "worker-1"}
            assert runtime.workers_respawned >= 1
        finally:
            backend.close()

    def test_unpicklable_job_raises_and_the_next_plan_runs(self):
        """A job that cannot be pickled raises PicklingError naming it at
        once — the queue's feeder thread used to drop it and leave the plan
        waiting for good — and RetryPolicy does not retry it."""
        report = json.loads(
            _run_in_own_session(_UNPICKLABLE_JOB, timeout=60.0).splitlines()[-1]
        )
        raised = report["raised"]
        assert raised is not None
        assert "'lambda-job'" in raised["message"]
        assert raised["cause"] in {"PicklingError", "AttributeError", "TypeError"}
        assert raised["seconds"] < 10.0
        assert report["next"] == [0, 1, 2]

    def test_workers_exit_when_their_parent_dies(self, tmp_path):
        """A parent that exits without close() takes its workers with it:
        the one busy in a long job and the idle one are both gone within
        10 s, instead of living on with PPID 1."""
        output = tmp_path / "pids.json"
        pids: list[int] = []
        # Output goes to a file, not a pipe: an orphaned worker would hold
        # a pipe open, and waiting for its EOF is not what is tested here.
        with open(output, "w") as handle:
            child = subprocess.Popen(
                [sys.executable, "-c", _PARENT_EXITS, str(tmp_path / "started")],
                env=_fresh_env(),
                stdout=handle,
                start_new_session=True,
            )
        try:
            assert child.wait(timeout=180) == 0
            pids = json.loads(output.read_text().splitlines()[-1])
            assert len(pids) == 2
            deadline = time.monotonic() + 10.0
            while any(map(_pid_alive, pids)) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not [pid for pid in pids if _pid_alive(pid)]
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            for pid in pids:
                if _pid_alive(pid):
                    os.kill(pid, signal.SIGKILL)

    def test_frequent_heartbeats_and_parent_checks_disturb_nothing(
        self, monkeypatch
    ):
        """With heartbeats and parent checks every 50 ms, the idle worker's
        heartbeats arrive while the other sleeps in a job: the plan still
        completes, nobody is respawned, and no worker of a live parent
        takes itself for an orphan."""
        monkeypatch.setattr("repro.experiments.persistent.HEARTBEAT_INTERVAL", 0.05)
        runtime = PersistentWorkerRuntime(n_jobs=2, start_method="fork")
        seen = Counter()
        receive = runtime._get_result

        def counting_receive(timeout):
            message = receive(timeout)
            seen[message[0]] += 1
            return message

        runtime._get_result = counting_receive
        try:
            outcomes = runtime.execute([_SleepJob(0, 0.5), _CountingJob(1, 3)])
            assert [outcome.result for outcome in outcomes] == ["slept", 9]
            assert seen["heartbeat"] >= 1 and seen["done"] == 2
            assert runtime.workers_respawned == 0
            assert all(worker.process.is_alive() for worker in runtime._workers)
        finally:
            runtime.close()

    def test_close_leaves_no_worker_alive(self, training, dataset):
        """``close()`` stops every worker: each exits cleanly on the stop
        message and is joined, so none outlives the runtime."""
        plan = build_attack_plan(
            architectures=("yolo",),
            seeds=SEEDS,
            dataset=[dataset[0]],
            attack_config=_toy_config(),
            training=training,
        )
        backend = PersistentPoolBackend(n_jobs=2)
        report = execute_plan(plan, backend)
        assert len(report.outcomes) == 1
        processes = [worker.process for worker in backend.runtime._workers]
        assert len(processes) == 2
        assert all(process.is_alive() for process in processes)
        backend.close()
        assert not any(process.is_alive() for process in processes)
        assert [process.exitcode for process in processes] == [0, 0]


# --- runtime bookkeeping -----------------------------------------------------


class TestRuntimeBookkeeping:
    def test_close_unregisters_the_atexit_hook(self, monkeypatch):
        """Every runtime registers close() as an atexit safety net; closing
        must unregister it, or cycled runtimes pin their resources (and an
        unbounded list of callbacks) until interpreter exit."""
        registered = []
        unregistered = []

        class _FakeAtexit:
            @staticmethod
            def register(func):
                registered.append(func)
                return func

            @staticmethod
            def unregister(func):
                unregistered.append(func)

        monkeypatch.setattr("repro.experiments.persistent.atexit", _FakeAtexit)
        runtime = PersistentWorkerRuntime(n_jobs=1)
        assert registered == [runtime.close]
        runtime.close()
        assert unregistered == [runtime.close]
        runtime.close()  # idempotent: no second unregister
        assert unregistered == [runtime.close]

    def test_finish_models_rejects_uncounted_spec(self):
        """Regression: an uncounted spec used to get a count invented for it
        (``remaining.get(spec, 1) - 1`` == 0), silently triggering a bogus
        invalidation broadcast.  Bookkeeping desync is now a hard error."""
        runtime = PersistentWorkerRuntime(n_jobs=1)
        try:
            remaining = {"counted": 2}
            runtime._finish_models(["counted"], remaining)
            assert remaining == {"counted": 1}
            with pytest.raises(RuntimeError, match="never counted"):
                runtime._finish_models(["phantom"], remaining)
        finally:
            runtime.close()


# --- transport ---------------------------------------------------------------

#: Probe run in a fresh interpreter: a 2-worker persistent transfer sweep
#: (scene plus int16 masks) and a compare plan, each against serial, then
#: one probe job per worker reporting which watched modules it has loaded.
#: A fork hook records which of them the parent held at each fork.
_IMPORT_PROBE = """
import json, os, sys

WATCHED = ("multiprocessing.shared_memory", "multiprocessing.resource_tracker")
at_fork = []
os.register_at_fork(
    before=lambda: at_fork.append([name for name in WATCHED if name in sys.modules])
)

from repro.core.config import AttackConfig
from repro.core.regions import HalfImageRegion
from repro.data.dataset import generate_dataset
from repro.detectors.training import TrainingConfig
from repro.experiments.engine import SerialBackend, execute_plan
from repro.experiments.jobs import (
    ExperimentPlan, JobOutcome, ModelSpec, build_attack_plan,
)
from repro.experiments.persistent import PersistentPoolBackend
from repro.experiments.transfer import run_transferability_experiment
from repro.nsga.algorithm import NSGAConfig


class ProbeJob:
    def __init__(self, job_id):
        self.job_id = job_id

    def execute(self, context):
        loaded = [name for name in WATCHED if name in sys.modules]
        return JobOutcome(job_id=self.job_id, result=loaded)


training = TrainingConfig(
    scenes_per_class=2, image_length=48, image_width=96, background_clusters=12
)
dataset = generate_dataset(
    num_images=2, seed=5, image_length=48, image_width=96, half="left"
)
config = AttackConfig(
    nsga=NSGAConfig(num_iterations=2, population_size=4, seed=7),
    region=HalfImageRegion("right"),
)
specs = [ModelSpec("yolo", 1, training=training), ModelSpec("detr", 1, training=training)]
compare = build_attack_plan(
    architectures=("yolo", "detr"), seeds=(1,), dataset=dataset,
    attack_config=config, training=training,
)
probe = ExperimentPlan(jobs=[ProbeJob(0), ProbeJob(1)], attack_config=config, name="probe")


def transfer_bytes(result):
    return [result.matrix.tobytes()] + [mask.tobytes() for mask in result.best_masks]


backend = PersistentPoolBackend(n_jobs=2)
try:
    transfer = run_transferability_experiment(
        specs, dataset[0].image, config, backend=backend
    )
    swept = execute_plan(compare, backend)
    probed = execute_plan(probe, backend)
finally:
    backend.close()
serial_transfer = run_transferability_experiment(
    specs, dataset[0].image, config, backend=SerialBackend()
)
serial_swept = execute_plan(compare, SerialBackend())
print(json.dumps({
    "parent": [name for name in WATCHED if name in sys.modules],
    "at_fork": at_fork,
    "workers": {o.worker_id: o.result for o in probed.outcomes},
    "mask_dtypes": sorted({str(mask.dtype) for mask in transfer.best_masks}),
    "transfer_matches_serial": transfer_bytes(transfer) == transfer_bytes(serial_transfer),
    "compare_matches_serial": [o.result.fingerprint() for o in swept.outcomes]
    == [o.result.fingerprint() for o in serial_swept.outcomes],
}))
"""

#: Two 2-worker persistent sweeps in one fresh interpreter, over 48x96
#: float64 scenes (110 KB each, far above any pickling threshold).
_TWO_SWEEPS = """
from repro.core.config import AttackConfig
from repro.core.regions import HalfImageRegion
from repro.data.dataset import generate_dataset
from repro.detectors.training import TrainingConfig
from repro.experiments.engine import execute_plan
from repro.experiments.jobs import build_attack_plan
from repro.experiments.persistent import PersistentPoolBackend
from repro.nsga.algorithm import NSGAConfig

plan = build_attack_plan(
    architectures=("yolo", "detr"),
    seeds=(1,),
    dataset=generate_dataset(
        num_images=2, seed=5, image_length=48, image_width=96, half="left"
    ),
    attack_config=AttackConfig(
        nsga=NSGAConfig(num_iterations=1, population_size=4, seed=7),
        region=HalfImageRegion("right"),
    ),
    training=TrainingConfig(
        scenes_per_class=2, image_length=48, image_width=96, background_clusters=12
    ),
)
assert plan.jobs[0].image.nbytes >= 16 * 1024
for sweep in range(2):
    backend = PersistentPoolBackend(n_jobs=2)
    try:
        assert len(execute_plan(plan, backend).outcomes) == len(plan.jobs)
    finally:
        backend.close()
print("swept twice")
"""


#: One worker, two jobs over one 737 KB scene: the first zeroes its copy
#: and kills its worker before the second is read off the task queue.
_RESPAWN_AFTER_SCRIBBLE = """
import hashlib, json, os, tempfile

import numpy as np

from repro.core.config import AttackConfig
from repro.experiments.engine import execute_plan
from repro.experiments.jobs import ExperimentPlan, JobOutcome
from repro.experiments.persistent import PersistentPoolBackend

SENTINEL = os.path.join(tempfile.mkdtemp(), "died-once")


def digest(array):
    return hashlib.blake2b(array.tobytes(), digest_size=16).hexdigest()


class SceneJob:
    def __init__(self, job_id, image, die_once):
        self.job_id = job_id
        self.image = image
        self.die_once = die_once

    def execute(self, context):
        if self.die_once and not os.path.exists(SENTINEL):
            self.image[...] = 0.0
            open(SENTINEL, "w").close()
            os._exit(13)
        return JobOutcome(job_id=self.job_id, result=digest(self.image))


image = np.random.default_rng(1).uniform(0, 255, size=(96, 320, 3))
original = digest(image)
plan = ExperimentPlan(
    jobs=[SceneJob(0, image, True), SceneJob(1, image, False)],
    attack_config=AttackConfig(),
    name="respawn-by-value",
)
backend = PersistentPoolBackend(n_jobs=1)
try:
    report = execute_plan(plan, backend)
    respawned = backend.runtime.workers_respawned
finally:
    backend.close()
print(json.dumps({
    "original": original,
    "digests": [o.result for o in report.outcomes],
    "parent_after": digest(image),
    "respawned": respawned,
}))
"""


class TestTransport:
    def test_jobs_travel_by_value(self):
        """A job that writes into its scene changes no other job's input:
        the second job over the same parent array sees the parent's bytes
        on the same worker."""
        image = np.random.default_rng(0).uniform(0, 255, size=(LENGTH, WIDTH, 3))
        original = _digest(image)
        plan = ExperimentPlan(
            jobs=[
                _SceneDigestJob(0, image, scribble=True),
                _SceneDigestJob(1, image),
            ],
            attack_config=_toy_config(),
            name="by-value",
        )
        backend = PersistentPoolBackend(n_jobs=1)
        try:
            report = execute_plan(plan, backend)
        finally:
            backend.close()
        assert [o.worker_id for o in report.outcomes] == ["worker-0", "worker-0"]
        assert report.outcomes[0].result == _digest(np.zeros_like(image))
        assert report.outcomes[1].result == original
        assert _digest(image) == original

    def test_respawn_redispatches_the_parents_bytes(self):
        """A worker that scribbles on its scene and dies takes its copy with
        it: the replacement receives the parent's unchanged jobs.  The job
        queued behind it is bigger than the pipe buffer, so the dead
        worker's queue is left with a write in flight; the interpreter must
        still exit."""
        result = _run_fresh_interpreter(_RESPAWN_AFTER_SCRIBBLE)
        report = json.loads(result.stdout.strip().splitlines()[-1])
        assert report["respawned"] >= 1
        assert report["digests"] == [report["original"]] * 2
        assert report["parent_after"] == report["original"]

    def test_list_segments_filters_by_prefix(self, tmp_path, monkeypatch):
        """The leak-audit helper kept for the benchmark names the entries
        under a prefix, sorted, and finds nothing without a directory."""
        from repro.experiments import shm

        for name in ("rpr7x0s1n1", "rpr7x0s1n0", "rpr71x0s1n0", "other"):
            (tmp_path / name).touch()
        monkeypatch.setattr(shm, "SHM_DIR", str(tmp_path))
        assert shm.list_segments("rpr7x") == ["rpr7x0s1n0", "rpr7x0s1n1"]
        assert shm.list_segments("rps") == []
        monkeypatch.setattr(shm, "SHM_DIR", str(tmp_path / "missing"))
        assert shm.list_segments("rpr7x") == []

    @pytest.mark.skipif(
        multiprocessing.get_all_start_methods()[0] != "fork",
        reason="the fork hook sees worker starts only under the fork method",
    )
    def test_no_shared_memory_import_in_parent_or_workers(self):
        """Workers fork from the parent, and a worker that imports a module
        after its fork can block on an import lock inherited from another
        parent thread.  So the parent never imports ``shared_memory``, and a
        watched module the parent lacked at fork time stays out of every
        worker — through a transfer sweep (scene plus int16 masks) and a
        compare plan, both equal to serial."""
        report = json.loads(
            _run_fresh_interpreter(_IMPORT_PROBE).stdout.strip().splitlines()[-1]
        )
        assert report["transfer_matches_serial"] is True
        assert report["compare_matches_serial"] is True
        assert report["mask_dtypes"] == ["int16"]
        assert "multiprocessing.shared_memory" not in report["parent"]
        assert len(report["at_fork"]) >= 2  # both workers forked
        held_at_fork = {name for names in report["at_fork"] for name in names}
        assert "multiprocessing.shared_memory" not in held_at_fork
        assert set(report["workers"]) == {"worker-0", "worker-1"}
        for loaded in report["workers"].values():
            assert set(loaded) <= held_at_fork

    def test_second_sweep_prints_no_resource_tracker_errors(self):
        """Two 2-worker persistent sweeps over 110 KB scenes in one
        interpreter: no traceback, no ``KeyError`` and no leaked
        ``shared_memory`` warning reach stderr."""
        result = _run_fresh_interpreter(_TWO_SWEEPS)
        assert result.stdout.strip().splitlines()[-1] == "swept twice"
        assert "Traceback" not in result.stderr
        assert "KeyError" not in result.stderr
        assert "leaked shared_memory" not in result.stderr
