"""Delta-reuse parity: reuse-on sweeps are bit-identical to reuse-off.

Cross-generation reuse re-splices offspring against evaluated ancestors'
activation grids, so it must be invisible to every result: a seeded attack
— and a whole experiment plan, on every backend and worker count — must
produce byte-identical solutions with the feature on or off.  The speedup
is asserted by ``benchmarks/bench_delta_reuse.py``; here we pin that it
never changes *what* is computed.
"""

import numpy as np
import pytest

from repro.core.attack import ButterflyAttack
from repro.core.config import AttackConfig
from repro.core.regions import HalfImageRegion
from repro.data.dataset import generate_dataset
from repro.detectors.activation_cache import ActivationCacheStore
from repro.detectors.training import TrainingConfig
from repro.experiments.engine import SerialBackend, execute_plan
from repro.experiments.jobs import build_attack_plan
from repro.experiments.persistent import PersistentPoolBackend
from repro.nsga.algorithm import NSGAConfig
from repro.nsga.mutation import MutationConfig

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


def _attack_config(use_delta_reuse: bool) -> AttackConfig:
    return AttackConfig(
        nsga=NSGAConfig(num_iterations=3, population_size=8, seed=0),
        region=HalfImageRegion("right"),
        use_delta_reuse=use_delta_reuse,
    )


@pytest.fixture(scope="module")
def plan_reuse_on(dataset, training):
    return build_attack_plan(
        architectures=ARCHITECTURES,
        seeds=SEEDS,
        dataset=dataset,
        attack_config=_attack_config(True),
        training=training,
    )


@pytest.fixture(scope="module")
def plan_reuse_off(dataset, training):
    return build_attack_plan(
        architectures=ARCHITECTURES,
        seeds=SEEDS,
        dataset=dataset,
        attack_config=_attack_config(False),
        training=training,
    )


@pytest.fixture(scope="module")
def reference_report(plan_reuse_off):
    return execute_plan(plan_reuse_off, SerialBackend())


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


class TestAttackLevelParity:
    @pytest.mark.parametrize("architecture", ["yolo", "detr"])
    @pytest.mark.parametrize("use_cache", [False, True])
    def test_reuse_on_equals_reuse_off_bit_exactly(
        self, architecture, use_cache, yolo_detector, detr_detector, small_dataset
    ):
        detector = yolo_detector if architecture == "yolo" else detr_detector
        nsga = NSGAConfig(
            num_iterations=3,
            population_size=8,
            crossover_probability=0.5,
            mutation=MutationConfig(probability=0.45, window_fraction=0.01),
            seed=7,
        )
        results = []
        for use_delta_reuse in (False, True):
            config = AttackConfig(
                nsga=nsga,
                region=HalfImageRegion("right"),
                use_activation_cache=use_cache,
                use_delta_reuse=use_delta_reuse,
            )
            results.append(
                ButterflyAttack(detector, config).attack(small_dataset[0].image)
            )
        baseline, reused = results
        assert baseline.num_evaluations == reused.num_evaluations
        assert baseline.cache_hits == reused.cache_hits
        assert len(baseline.solutions) == len(reused.solutions)
        for left, right in zip(baseline.solutions, reused.solutions):
            assert np.array_equal(left.mask.values, right.mask.values)
            assert (left.intensity, left.degradation, left.distance, left.rank) == (
                right.intensity,
                right.degradation,
                right.distance,
                right.rank,
            )

    def test_warm_attack_records_delta_traffic(self, yolo_detector, small_dataset):
        """With reuse on, the shared store's delta counters actually move."""
        store = ActivationCacheStore(max_entries=2, delta_store_size=256)
        config = AttackConfig(
            nsga=NSGAConfig(num_iterations=3, population_size=8, seed=3),
            region=HalfImageRegion("right"),
            use_delta_reuse=True,
        )
        attack = ButterflyAttack(yolo_detector, config, activation_store=store)
        attack.attack(small_dataset[0].image)
        stats = store.stats
        assert stats["delta_hits"] + stats["delta_misses"] > 0

    def test_reuse_off_disables_the_delta_store(self, yolo_detector, small_dataset):
        store = ActivationCacheStore(max_entries=2, delta_store_size=0)
        config = AttackConfig(
            nsga=NSGAConfig(num_iterations=2, population_size=6, seed=3),
            region=HalfImageRegion("right"),
            use_delta_reuse=False,
        )
        attack = ButterflyAttack(yolo_detector, config, activation_store=store)
        attack.attack(small_dataset[0].image)
        assert "delta_hits" not in store.stats


class TestEngineLevelParity:
    def test_serial_reuse_on_matches_reuse_off(
        self, plan_reuse_on, reference_report
    ):
        report = execute_plan(plan_reuse_on, SerialBackend())
        assert _report_fingerprints(report) == _report_fingerprints(reference_report)
        # The delta path actually engaged — parity was not vacuous.
        assert report.cache_stats.delta_requests > 0
        assert reference_report.cache_stats.delta_requests == 0

    @pytest.mark.parametrize("n_jobs", [1, 2, 4])
    def test_persistent_reuse_on_matches_reference(
        self, plan_reuse_on, reference_report, n_jobs
    ):
        backend = PersistentPoolBackend(n_jobs=n_jobs, submission_seed=17)
        try:
            report = execute_plan(plan_reuse_on, backend)
        finally:
            backend.close()
        assert _report_fingerprints(report) == _report_fingerprints(reference_report)
        assert report.cache_stats.delta_requests > 0

    def test_plan_results_identical_under_scene_shuffle(self, plan_reuse_on):
        """Reuse state is per-bundle: job order cannot change any result."""
        forward = execute_plan(plan_reuse_on, SerialBackend())
        order = list(reversed(range(len(plan_reuse_on.jobs))))
        shuffled = execute_plan(plan_reuse_on, SerialBackend(order=order))
        assert _report_fingerprints(forward) == _report_fingerprints(shuffled)


class TestIncrementalReporting:
    def test_result_carries_per_generation_incremental_stats(
        self, yolo_detector, small_dataset
    ):
        config = AttackConfig(
            nsga=NSGAConfig(num_iterations=3, population_size=8, seed=11),
            region=HalfImageRegion("right"),
            use_delta_reuse=True,
        )
        result = ButterflyAttack(yolo_detector, config).attack(
            small_dataset[0].image
        )
        entries = [
            entry["incremental"]
            for entry in result.history
            if entry.get("incremental") is not None
        ]
        assert entries, "generations should report incremental stats"
        for entry in entries:
            assert 0.0 <= entry["dirty_area_ratio"] <= 1.0
            assert entry["masks_evaluated"] >= 0
            assert entry["delta_hits"] >= 0 and entry["delta_misses"] >= 0
        run_level = result.incremental
        assert run_level is not None
        assert run_level["masks_evaluated"] >= sum(
            entry["masks_evaluated"] for entry in entries
        )

    def test_dense_path_reports_no_incremental_stats(
        self, yolo_detector, small_dataset
    ):
        config = AttackConfig(
            nsga=NSGAConfig(num_iterations=2, population_size=6, seed=11),
            region=HalfImageRegion("right"),
            use_activation_cache=False,
        )
        result = ButterflyAttack(yolo_detector, config).attack(
            small_dataset[0].image
        )
        assert result.incremental is None
        assert all(
            entry.get("incremental") is None for entry in result.history
        )
