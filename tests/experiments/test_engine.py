"""Execution-engine parity: serial and pooled sweeps are bit-identical.

The engine's contract is that the work plan fully determines the sweep's
results: every backend (in-process serial, shuffled serial, the persistent
worker pool at any worker count and submission order) must produce
bit-identical ``AttackResult``s for the same plan.  These tests pin the
serial reference against a hand-rolled copy of the historical nested
models × images loop; ``test_persistent.py`` holds the pooled parity suite
at ``n_jobs ∈ {1, 2, 4}``.
"""

import numpy as np
import pytest

from repro.core.attack import ButterflyAttack
from repro.core.config import AttackConfig
from repro.core.regions import HalfImageRegion
from repro.data.dataset import generate_dataset
from repro.detectors.activation_cache import ActivationCacheStore, CacheStats
from repro.detectors.training import TrainingConfig
from repro.detectors.zoo import build_model_zoo
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import (
    BACKEND_NAMES,
    SerialBackend,
    execute_plan,
    merge_execution_summaries,
    resolve_backend,
)
from repro.experiments.jobs import build_attack_plan
from repro.experiments.persistent import PersistentPoolBackend
from repro.experiments.runner import run_architecture_comparison
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
    """Everything an attack result asserts about the attack, exactly."""
    solutions = tuple(
        (
            s.mask.values.tobytes(),
            s.intensity,
            s.degradation,
            s.distance,
            s.rank,
        )
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


class TestSerialBackend:
    def test_reproduces_historical_nested_loop(
        self, plan, serial_report, dataset, attack_config, training
    ):
        """The engine's serial path equals the pre-engine runner bit for bit."""
        store = ActivationCacheStore(max_entries=attack_config.activation_cache_size)
        reference = []
        for architecture in ARCHITECTURES:
            for model in build_model_zoo(architecture, seeds=SEEDS, training=training):
                attack = ButterflyAttack(
                    model, attack_config, activation_store=store
                )
                for sample in dataset:
                    reference.append(attack.attack(sample.image))
                store.invalidate(model)

        assert len(reference) == len(serial_report.outcomes)
        for expected, outcome in zip(reference, serial_report.outcomes):
            assert _result_fingerprint(expected) == _result_fingerprint(outcome.result)

    def test_shuffled_execution_order_is_bit_identical(self, plan, serial_report):
        order = list(np.random.default_rng(17).permutation(len(plan.jobs)))
        shuffled = execute_plan(plan, SerialBackend(order=order))
        assert _report_fingerprints(shuffled) == _report_fingerprints(serial_report)

    def test_outcomes_reassembled_in_plan_order(self, plan):
        reversed_report = execute_plan(
            plan, SerialBackend(order=list(reversed(range(len(plan.jobs)))))
        )
        assert [o.job_id for o in reversed_report.outcomes] == [
            job.job_id for job in plan.jobs
        ]

    def test_provenance_attached(self, plan, serial_report):
        for job, outcome in zip(plan.jobs, serial_report.outcomes):
            assert outcome.result.architecture == job.model.label
            assert outcome.result.model_seed == job.model.seed
            assert outcome.result.scene_index == job.scene_index
            assert outcome.result.job_id == job.job_id

    def test_derived_seeds_differentiate_jobs(self, seeded_serial_report):
        # With per-job seeds the two scenes of one model run different
        # searches (different populations), unlike the shared-seed default.
        first, second = seeded_serial_report.outcomes[0], seeded_serial_report.outcomes[1]
        assert _result_fingerprint(first.result) != _result_fingerprint(second.result)


class TestCacheStatsAggregation:
    def test_per_model_stats_are_not_cumulative(self, attack_config, training):
        """Each model's reported stats cover only its own jobs (the bugfix).

        Attacking the same scene twice per model yields exactly one miss and
        one hit *per model*; before the per-model reset, the second model's
        counters would have included the first model's traffic.
        """
        dataset = generate_dataset(
            num_images=1, seed=5, image_length=LENGTH, image_width=WIDTH, half="left"
        )
        doubled = [dataset[0], dataset[0]]
        plan = build_attack_plan(
            architectures=ARCHITECTURES,
            seeds=SEEDS,
            dataset=doubled,
            attack_config=attack_config,
            training=training,
        )
        report = execute_plan(plan, SerialBackend())
        assert set(report.per_model) == {"single_stage-seed1", "transformer-seed1"}
        for stats in report.per_model.values():
            assert stats.misses == 1
            assert stats.hits == 1
            assert stats.hit_rate == 0.5
        total = report.cache_stats
        assert total.hits == 2 and total.misses == 2

    def test_per_worker_stats_merge_to_total(self, plan):
        backend = PersistentPoolBackend(n_jobs=2, submission_seed=3)
        try:
            report = execute_plan(plan, backend)
        finally:
            backend.close()
        merged = CacheStats.merge(list(report.per_worker.values()))
        assert merged == report.cache_stats
        per_job = CacheStats.merge(
            [o.cache_stats for o in report.outcomes if o.cache_stats is not None]
        )
        assert per_job == merged

    def test_workers_reported_even_with_cache_disabled(
        self, dataset, attack_config, training
    ):
        """Worker attribution does not depend on the activation cache."""
        from dataclasses import replace

        plan = build_attack_plan(
            architectures=("yolo",),
            seeds=SEEDS,
            dataset=dataset,
            attack_config=replace(attack_config, use_activation_cache=False),
            training=training,
        )
        report = execute_plan(plan, SerialBackend())
        assert list(report.per_worker) == ["serial"]
        assert report.per_model == {}  # no cache traffic to attribute
        assert report.cache_stats == CacheStats()
        assert report.cache_enabled is False


class TestMergeExecutionSummaries:
    @staticmethod
    def _part(backend, hits=0, invalidations=0):
        return {
            "backend": backend,
            "n_jobs": 2,
            "duration_seconds": 1.5,
            "cache_enabled": True,
            "cache_stats": {
                "hits": hits, "misses": 0, "evictions": 0,
                "invalidations": invalidations,
            },
        }

    def test_single_backend_name_preserved(self):
        merged = merge_execution_summaries(
            [self._part("persistent"), self._part("persistent")]
        )
        assert merged["backend"] == "persistent"

    def test_mixed_stage_backends_reported_as_mixed(self):
        """Regression: the merged record used to stamp the whole run with
        ``parts[0]["backend"]`` even when stages ran on different backends,
        misreporting every later stage's provenance."""
        merged = merge_execution_summaries(
            [self._part("serial"), self._part("persistent")]
        )
        assert merged["backend"] == "mixed"
        # Per-stage truth stays available for anyone who needs it.
        assert [s["backend"] for s in merged["stages"]] == ["serial", "persistent"]

    def test_cache_totals_include_invalidations(self):
        merged = merge_execution_summaries(
            [
                self._part("serial", hits=2, invalidations=1),
                self._part("serial", hits=1, invalidations=3),
            ]
        )
        assert merged["cache_stats"]["hits"] == 3
        assert merged["cache_stats"]["invalidations"] == 4

    def test_empty_parts_default_to_serial(self):
        assert merge_execution_summaries([])["backend"] == "serial"


class TestResolveBackend:
    def test_auto_selection(self):
        assert resolve_backend(None, n_jobs=1).name == "serial"
        auto = resolve_backend(None, n_jobs=3)
        assert isinstance(auto, PersistentPoolBackend) and auto.n_jobs == 3
        auto.close()  # never started: close is a safe no-op

    def test_names_and_passthrough(self):
        assert BACKEND_NAMES == ("serial", "persistent")
        assert resolve_backend("serial").name == "serial"
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend("threads")

    def test_process_backend_name_is_gone(self, capsys):
        """The one-shot pool's name is refused everywhere a backend is
        named, and every refusal lists the names that are accepted."""
        from repro.cli import build_parser

        with pytest.raises(ValueError) as excinfo:
            resolve_backend("process", n_jobs=2)
        assert str(BACKEND_NAMES) in str(excinfo.value)
        with pytest.raises(ValueError) as excinfo:
            ExperimentConfig(execution_backend="process")
        assert str(("auto",) + BACKEND_NAMES) in str(excinfo.value)
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["compare", "--jobs", "2", "--backend", "process"])
        assert excinfo.value.code == 2
        choices = capsys.readouterr().err.split("choose from", 1)[1]
        assert all(name in choices for name in BACKEND_NAMES)


class TestRunnerIntegration:
    def test_runner_serial_and_pool_comparisons_match(self, training):
        experiment = ExperimentConfig.reduced(
            models_per_architecture=1,
            images_per_model=1,
            ensemble_size=1,
            image_length=LENGTH,
            image_width=WIDTH,
        )
        nsga = NSGAConfig(num_iterations=2, population_size=6, seed=0)
        kwargs = dict(
            experiment=experiment, nsga=nsga, training=training, dataset_seed=5
        )
        serial = run_architecture_comparison(**kwargs)
        backend = PersistentPoolBackend(n_jobs=2, submission_seed=1)
        try:
            pooled = run_architecture_comparison(**kwargs, n_jobs=2, backend=backend)
        finally:
            backend.close()
        for label in serial.results:
            for left, right in zip(serial.results[label], pooled.results[label]):
                assert _result_fingerprint(left) == _result_fingerprint(right)
        assert serial.execution is not None and serial.execution.backend == "serial"
        assert pooled.execution is not None
        assert pooled.execution.backend == "persistent"
        assert serial.report.summary_rows() == pooled.report.summary_rows()

    def test_explicit_serial_config_wins_over_n_jobs(self, training):
        """execution_backend='serial' is honoured even with n_jobs > 1."""
        experiment = ExperimentConfig.reduced(
            models_per_architecture=1,
            images_per_model=1,
            ensemble_size=1,
            image_length=LENGTH,
            image_width=WIDTH,
            n_jobs=2,
            execution_backend="serial",
        )
        comparison = run_architecture_comparison(
            experiment=experiment,
            nsga=NSGAConfig(num_iterations=1, population_size=4, seed=0),
            architectures=("yolo",),
            training=training,
            dataset_seed=5,
        )
        assert comparison.execution.backend == "serial"

    def test_runner_releases_detector_memo(self, training):
        """A finished sweep leaves no zoo behind in the process-local memo."""
        from repro.experiments.jobs import _DETECTOR_MEMO, ModelSpec

        experiment = ExperimentConfig.reduced(
            models_per_architecture=1,
            images_per_model=1,
            ensemble_size=1,
            image_length=LENGTH,
            image_width=WIDTH,
        )
        run_architecture_comparison(
            experiment=experiment,
            nsga=NSGAConfig(num_iterations=1, population_size=4, seed=0),
            architectures=("yolo",),
            training=training,
            dataset_seed=5,
        )
        assert ModelSpec("yolo", 1, training=training) not in _DETECTOR_MEMO
