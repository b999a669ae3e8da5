"""End-to-end parity: batched vs sequential attack runs must be identical.

The batched evaluation pipeline (population stacking, vectorised detector
pass, evaluation cache) is a pure fast path: under a fixed seed the final
population, its objective vectors and the Pareto front must match the
sequential per-genome path bit for bit.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.core.attack import ButterflyAttack
from repro.core.config import AttackConfig
from repro.core.ensemble import EnsembleAttack
from repro.core.masks import apply_mask
from repro.core.objectives import ButterflyObjectives
from repro.core.regions import HalfImageRegion
from repro.core.temporal import SequenceAttack
from repro.data.sequences import generate_sequence
from repro.detection.errors import classify_transitions
from repro.detectors import decode as cell_decode
from repro.nsga.algorithm import NSGAConfig
from repro.nsga.mutation import MutationConfig

from tests.conftest import SMALL_LENGTH, SMALL_WIDTH


def _nsga(batch_evaluation, evaluation_cache, iterations=4, population=8):
    return NSGAConfig(
        num_iterations=iterations,
        population_size=population,
        crossover_probability=0.5,
        mutation=MutationConfig(probability=0.45, window_fraction=0.01),
        seed=0,
        batch_evaluation=batch_evaluation,
        evaluation_cache=evaluation_cache,
    )


def _attack_config(batch_evaluation, evaluation_cache):
    return AttackConfig(
        nsga=_nsga(batch_evaluation, evaluation_cache),
        region=HalfImageRegion("right"),
    )


def _population_digest(result):
    digest = hashlib.sha256()
    for solution in result.solutions:
        digest.update(solution.mask.values.tobytes())
    return digest.hexdigest()


def _assert_results_identical(batched, sequential):
    assert np.array_equal(
        batched.objectives_array(front_only=False),
        sequential.objectives_array(front_only=False),
    )
    assert np.array_equal(
        batched.objectives_array(front_only=True),
        sequential.objectives_array(front_only=True),
    )
    assert [s.rank for s in batched.solutions] == [s.rank for s in sequential.solutions]
    assert _population_digest(batched) == _population_digest(sequential)
    assert batched.num_evaluations == sequential.num_evaluations


class TestButterflyAttackParity:
    @pytest.fixture(params=["yolo", "detr"])
    def detector(self, request, yolo_detector, detr_detector):
        return yolo_detector if request.param == "yolo" else detr_detector

    def test_batched_path_matches_sequential_path(self, detector, small_dataset):
        image = small_dataset[0].image
        batched = ButterflyAttack(detector, _attack_config(True, True)).attack(image)
        sequential = ButterflyAttack(detector, _attack_config(False, False)).attack(
            image
        )
        _assert_results_identical(batched, sequential)
        assert sequential.cache_hits == 0

    def test_cache_alone_does_not_change_results(self, detector, small_dataset):
        image = small_dataset[0].image
        cached = ButterflyAttack(detector, _attack_config(False, True)).attack(image)
        uncached = ButterflyAttack(detector, _attack_config(False, False)).attack(image)
        _assert_results_identical(cached, uncached)


class TestDecodeParity:
    """Whole attacks are bit-identical under the reference decode loop.

    Every decode in the attack stack resolves through the
    :mod:`repro.detectors.decode` module attributes, so monkeypatching the
    two entry points onto :func:`decode_cell_probabilities_loop` reruns the
    complete seeded attack — forward passes, incremental splicing, NSGA-II
    search — with the original per-seed decoder.  The vectorised decode is
    a pure fast path, so the results must match bit for bit, with the
    activation cache on (windowed decodes) and off (dense batched decodes).
    """

    @pytest.fixture(params=["yolo", "detr"])
    def detector(self, request, yolo_detector, detr_detector):
        return yolo_detector if request.param == "yolo" else detr_detector

    @staticmethod
    def _patch_reference_decode(monkeypatch):
        loop = cell_decode.decode_cell_probabilities_loop

        def batch_via_loop(probabilities, config, image_shape):
            probabilities = np.asarray(probabilities, dtype=np.float64)
            if probabilities.ndim != 4:
                raise ValueError(
                    "probabilities must have shape (N, rows, cols, classes + 1)"
                )
            return [loop(grid, config, image_shape) for grid in probabilities]

        monkeypatch.setattr(cell_decode, "decode_cell_probabilities", loop)
        monkeypatch.setattr(
            cell_decode, "decode_cell_probabilities_batch", batch_via_loop
        )

    @pytest.mark.parametrize("use_activation_cache", [False, True])
    def test_attack_identical_under_reference_decode(
        self, detector, small_dataset, monkeypatch, use_activation_cache
    ):
        image = small_dataset[0].image
        config = replace(
            _attack_config(True, True), use_activation_cache=use_activation_cache
        )
        vectorised = ButterflyAttack(detector, config).attack(image)
        with monkeypatch.context() as patcher:
            self._patch_reference_decode(patcher)
            reference = ButterflyAttack(detector, config).attack(image)
        _assert_results_identical(vectorised, reference)


class TestEnsembleAttackParity:
    def test_batched_path_matches_sequential_path(
        self, yolo_detector, detr_detector, small_dataset
    ):
        image = small_dataset[0].image
        detectors = [yolo_detector, detr_detector]
        batched = EnsembleAttack(detectors, _attack_config(True, True)).attack(image)
        sequential = EnsembleAttack(detectors, _attack_config(False, False)).attack(
            image
        )
        _assert_results_identical(batched, sequential)


def _assert_front_matches_dense(result, detector, image):
    """Every front member's prediction equals a dense forward of its image."""
    front = result.pareto_front
    assert front
    for solution in front:
        dense = detector.predict(apply_mask(image, solution.mask.values))
        assert solution.perturbed_prediction == dense
        assert solution.transitions == classify_transitions(
            result.clean_prediction, dense
        )


class TestFrontPredictionParity:
    """Front predictions come from evaluations already made (the delta store
    or a clean-bundle splice); they must equal a dense forward bit for bit."""

    @pytest.fixture(params=["yolo", "detr"])
    def detector(self, request, yolo_detector, detr_detector):
        return yolo_detector if request.param == "yolo" else detr_detector

    @pytest.mark.parametrize(
        "route",
        [
            {},
            {"use_delta_reuse": False},
            {"use_activation_cache": False},
        ],
        ids=["default", "delta-reuse-off", "activation-cache-off"],
    )
    def test_butterfly_front_matches_dense_forward(
        self, detector, small_dataset, route
    ):
        image = small_dataset[0].image
        config = replace(_attack_config(True, True), **route)
        result = ButterflyAttack(detector, config).attack(image)
        _assert_front_matches_dense(result, detector, image)

    @pytest.mark.parametrize(
        "route",
        [
            {},
            {"use_delta_reuse": False},
            {"use_activation_cache": False},
        ],
        ids=["default", "delta-reuse-off", "activation-cache-off"],
    )
    def test_every_solution_scored_like_a_dense_evaluation(
        self, detector, small_dataset, route
    ):
        """Each reported objective triple, front or not, equals a fresh
        evaluation of its mask on the dense forward pass."""
        image = small_dataset[0].image
        config = replace(_attack_config(True, True), **route)
        result = ButterflyAttack(detector, config).attack(image)
        reference = ButterflyObjectives(detector, image, use_activation_cache=False)
        for solution in result.solutions:
            exact = reference(solution.mask.values)
            assert solution.intensity == float(exact[0])
            assert solution.degradation == float(exact[1])
            assert solution.distance == float(-exact[2])

    def test_default_route_answers_front_from_delta_store(
        self, yolo_detector, small_dataset, monkeypatch
    ):
        hits = []
        package = ButterflyAttack._package

        def counting_package(self, image, objectives, nsga_result):
            store = objectives.clean_activations.delta
            before = store.hits
            result = package(self, image, objectives, nsga_result)
            hits.append(store.hits - before)
            return result

        monkeypatch.setattr(ButterflyAttack, "_package", counting_package)
        image = small_dataset[0].image
        result = ButterflyAttack(yolo_detector, _attack_config(True, True)).attack(
            image
        )
        assert hits and hits[0] > 0
        _assert_front_matches_dense(result, yolo_detector, image)

    def test_sequence_front_matches_first_frame_dense_forward(self, yolo_detector):
        sequence = generate_sequence(
            num_frames=3,
            seed=9,
            image_length=SMALL_LENGTH,
            image_width=SMALL_WIDTH,
            half="left",
        )
        config = AttackConfig(
            nsga=_nsga(True, True, iterations=2, population=8),
            region=HalfImageRegion("right"),
        )
        result = SequenceAttack(yolo_detector, config).attack(sequence)
        _assert_front_matches_dense(result, yolo_detector, sequence.frame(0))

    def test_ensemble_front_matches_reference_member_dense_forward(
        self, yolo_detector, detr_detector, small_dataset
    ):
        image = small_dataset[0].image
        result = EnsembleAttack(
            [yolo_detector, detr_detector], _attack_config(True, True)
        ).attack(image)
        _assert_front_matches_dense(result, yolo_detector, image)
