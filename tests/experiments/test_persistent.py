"""Persistent-runtime parity, lifecycle, failure-recovery and shm tests.

The persistent backend's contract has three layers, each enforced here:

1. **Parity** — bit-identical results to ``SerialBackend`` for any worker
   count, submission order and seed derivation mode (the engine contract).
2. **Lifecycle** — the per-model invalidation the serial backend applies is
   broadcast to workers (the PR 6 bugfix), deferred for pinned models so
   multi-stage sweeps keep their bundles warm between stages.
3. **Failure** — a raising job surfaces a :class:`JobExecutionError` and
   broadcasts an abort-epoch so queued stale jobs are skipped, a killed
   worker is reaped and replaced without corrupting shared memory (the
   slot always holds a live replacement, even on the poison path), idle
   liveness is policed through heartbeats, and no segment survives
   ``close()``.
"""

import os
import subprocess
import sys
import time
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
)
from repro.experiments.shm import (
    SHARE_MIN_BYTES,
    SharedArrayAttachments,
    SharedScenePool,
    extract_shared_arrays,
    list_segments,
    restore_shared_arrays,
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


class _ArrayCarrier:
    def __init__(self, job_id: int, image):
        self.job_id = job_id
        self.image = image


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

    @pytest.mark.parametrize("n_jobs", [2])
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
            # Warm worker bundles live in private memory, not in segments.
            assert list_segments(backend.runtime.segment_prefix) == []
            backend.unpin_models(specs)
            unpinned_stats = backend.runtime.worker_cache_stats()
            assert sum(p["entries"] for p in unpinned_stats.values()) == 0
        finally:
            backend.close()


# --- failure handling --------------------------------------------------------


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
            prefix = runtime.segment_prefix
        finally:
            backend.close()
        assert list_segments(prefix) == []  # reaped worker leaked nothing

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
            prefix = runtime.segment_prefix
        finally:
            backend.close()
        assert list_segments(prefix) == []

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

    def test_close_leaves_no_shared_memory(self, training, dataset):
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
        prefix = backend.runtime.segment_prefix
        backend.close()
        assert list_segments(prefix) == []


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


# --- shared-memory plumbing --------------------------------------------------


class TestSharedMemoryPlumbing:
    def test_scene_pool_interns_by_content(self):
        pool = SharedScenePool(prefix="tpool1")
        try:
            image = np.arange(SHARE_MIN_BYTES, dtype=np.float64)
            first = pool.share(image)
            second = pool.share(image.copy())
            assert first == second
            assert len(pool) == 1
            assert pool.share(image + 1.0) != first
            assert len(pool) == 2
            assert len(list_segments("tpool1")) == 2
        finally:
            pool.close()
        assert list_segments("tpool1") == []

    def test_extract_restore_roundtrip(self):
        pool = SharedScenePool(prefix="tpool2")
        attachments = SharedArrayAttachments()
        try:
            image = np.random.default_rng(0).uniform(
                0, 255, size=(LENGTH, WIDTH, 3)
            )
            job = _ArrayCarrier(0, image)
            slim, refs = extract_shared_arrays(job, pool)
            assert slim is not job and job.image is image  # original untouched
            assert slim.image is None and set(refs) == {"image"}
            restore_shared_arrays(slim, refs, attachments)
            assert np.array_equal(slim.image, image)
            assert not slim.image.flags.writeable
            # Second restore of the same segment reuses the attachment.
            assert restore_shared_arrays(
                _ArrayCarrier(1, None), refs, attachments
            ).image is slim.image
            assert len(attachments) == 1
        finally:
            attachments.close_all()
            pool.close()

    def test_small_arrays_stay_in_the_job(self):
        pool = SharedScenePool(prefix="tpool3")
        try:
            job = _ArrayCarrier(0, np.zeros(4))
            slim, refs = extract_shared_arrays(job, pool)
            assert slim is job and refs == {}
            assert len(pool) == 0
        finally:
            pool.close()

    def test_leaked_segments_names_open_scene_segments(self):
        """Scene pools are the only segment owners under a runtime's
        prefix: ``leaked_segments`` names a pool's segment while the pool
        is open and nothing once it closes."""
        runtime = PersistentWorkerRuntime(n_jobs=1)
        pool = SharedScenePool(prefix=f"{runtime.segment_prefix}s0")
        try:
            assert runtime.leaked_segments() == []
            ref = pool.share(np.arange(SHARE_MIN_BYTES, dtype=np.float64))
            assert runtime.leaked_segments() == [ref.segment]
        finally:
            pool.close()
            runtime.close()
        assert runtime.leaked_segments() == []

    def test_runtime_import_loads_the_shared_memory_modules(self):
        """Workers fork from a parent that already holds both modules, so
        none imports them after the fork — where an import lock inherited
        from another thread's half-done import would deadlock it."""
        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(repro.__file__).resolve().parents[1])]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        check = (
            "import sys, repro.experiments.persistent; "
            "print('multiprocessing.shared_memory' in sys.modules, "
            "'multiprocessing.resource_tracker' in sys.modules)"
        )
        result = subprocess.run(
            [sys.executable, "-c", check],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        assert result.stdout.split() == ["True", "True"]
