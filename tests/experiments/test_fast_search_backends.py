"""Two-phase fast search across execution backends.

The fast-search guarantee — the final population carries *exact* objective
vectors — must hold wherever attacks run: in process, in a process pool,
and in the persistent shared-memory pool (whose workers re-wrap clean
activations from shared memory, dropping any architecture-private
``fidelity_state``; the approximate path must rebuild it transparently).
A fast-search plan must also produce byte-identical results on every
backend and worker count, like every other plan.
"""

import numpy as np
import pytest

from repro.core.attack import ButterflyAttack
from repro.core.config import AttackConfig
from repro.core.objectives import ButterflyObjectives
from repro.core.regions import HalfImageRegion
from repro.data.dataset import generate_dataset
from repro.detectors.training import TrainingConfig
from repro.experiments.engine import (
    ProcessPoolBackend,
    SerialBackend,
    execute_plan,
)
from repro.experiments.jobs import build_attack_plan
from repro.experiments.persistent import PersistentPoolBackend
from repro.experiments.shm import list_segments
from repro.nsga.algorithm import NSGAConfig
from repro.nsga.mutation import MutationConfig

LENGTH, WIDTH = 48, 96


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
        num_images=1, seed=5, image_length=LENGTH, image_width=WIDTH, half="left"
    )


def _fast_config():
    return AttackConfig(
        nsga=NSGAConfig(
            num_iterations=3,
            population_size=8,
            mutation=MutationConfig(probability=0.45, window_fraction=0.01),
            seed=0,
        ),
        region=HalfImageRegion("right"),
        fast_search=True,
    )


@pytest.fixture(scope="module")
def fast_plan(dataset, training):
    return build_attack_plan(
        architectures=("detr",),
        seeds=(1,),
        dataset=dataset,
        attack_config=_fast_config(),
        training=training,
    )


@pytest.fixture(scope="module")
def serial_report(fast_plan):
    return execute_plan(fast_plan, SerialBackend())


def _result_fingerprint(result) -> tuple:
    solutions = tuple(
        (s.mask.values.tobytes(), s.intensity, s.degradation, s.distance, s.rank)
        for s in result.solutions
    )
    return (result.detector_name, result.num_evaluations, solutions)


def _report_fingerprints(report) -> list:
    return [_result_fingerprint(outcome.result) for outcome in report.outcomes]


def _assert_solutions_exactly_scored(result, detector, image):
    """Every reported solution's objectives equal a fresh exact evaluation."""
    reference = ButterflyObjectives(detector, image, use_activation_cache=False)
    for solution in result.solutions:
        exact = reference(solution.mask.values)
        assert solution.intensity == float(exact[0])
        assert solution.degradation == float(exact[1])
        assert solution.distance == float(-exact[2])


class TestAttackLevel:
    @pytest.mark.parametrize("architecture", ["yolo", "detr"])
    def test_fast_attack_front_is_exactly_scored(
        self, request, small_dataset, architecture
    ):
        detector = request.getfixturevalue(f"{architecture}_detector")
        image = small_dataset[0].image
        result = ButterflyAttack(detector, _fast_config()).attack(image)
        _assert_solutions_exactly_scored(result, detector, image)
        assert all("fidelity" in entry for entry in result.history)

    def test_fast_attack_is_deterministic(self, detr_detector, small_dataset):
        image = small_dataset[0].image
        first = ButterflyAttack(detr_detector, _fast_config()).attack(image)
        second = ButterflyAttack(detr_detector, _fast_config()).attack(image)
        assert _result_fingerprint(first) == _result_fingerprint(second)


class TestBackends:
    def test_serial_front_is_exactly_scored(
        self, fast_plan, serial_report, dataset, detr_small_48x96
    ):
        for outcome in serial_report.outcomes:
            _assert_solutions_exactly_scored(
                outcome.result, detr_small_48x96, dataset[0].image
            )

    @pytest.mark.parametrize("n_jobs", [2])
    def test_process_pool_matches_serial(self, fast_plan, serial_report, n_jobs):
        backend = ProcessPoolBackend(n_jobs=n_jobs, submission_seed=11)
        report = execute_plan(fast_plan, backend)
        assert _report_fingerprints(report) == _report_fingerprints(serial_report)

    def test_persistent_pool_matches_serial_and_leaks_nothing(
        self, fast_plan, serial_report
    ):
        backend = PersistentPoolBackend(n_jobs=2, submission_seed=13)
        try:
            report = execute_plan(fast_plan, backend)
            prefix = backend.runtime.segment_prefix
        finally:
            backend.close()
        assert _report_fingerprints(report) == _report_fingerprints(serial_report)
        assert list_segments(prefix) == []


@pytest.fixture(scope="module")
def detr_small_48x96(training):
    from repro.detectors.zoo import build_detector

    return build_detector("detr", seed=1, training=training)
