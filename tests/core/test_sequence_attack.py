"""Tests for the streaming-sequence attack workload.

The central guarantee: the temporal evaluation route — frame bundles
derived frame-to-frame, population predictions through the incremental
path — is bit-identical to evaluating every frame densely from scratch.
The parity tests here enforce it per objective vector on both
architectures; everything else (track scoring, packaging, validation) is
semantics.
"""

import numpy as np
import pytest

from repro.core.config import AttackConfig
from repro.core.temporal import SequenceAttack, SequenceObjectives
from repro.data.sequences import generate_sequence
from repro.detection.boxes import BoundingBox
from repro.detection.prediction import Prediction
from repro.nsga.algorithm import NSGAConfig

from tests.conftest import SMALL_LENGTH, SMALL_WIDTH


@pytest.fixture(scope="module")
def sequence():
    return generate_sequence(
        num_frames=3,
        seed=9,
        image_length=SMALL_LENGTH,
        image_width=SMALL_WIDTH,
        half="left",
    )


def _small_config(iterations=2, population=8):
    return AttackConfig(
        nsga=NSGAConfig(
            num_iterations=iterations, population_size=population, seed=0
        )
    )


def _masks(shape, count, seed=0):
    rng = np.random.default_rng(seed)
    masks = np.round(rng.uniform(-6.0, 6.0, size=(count,) + shape))
    masks[0] = 0.0  # always include the zero mask
    return masks


class TestSequenceObjectivesParity:
    @pytest.mark.parametrize("detector_fixture", ["yolo_detector", "detr_detector"])
    def test_temporal_route_bit_identical_to_dense(
        self, detector_fixture, sequence, request
    ):
        detector = request.getfixturevalue(detector_fixture)
        cached = SequenceObjectives(detector=detector, sequence=sequence)
        dense = SequenceObjectives(
            detector=detector, sequence=sequence, use_activation_cache=False
        )
        masks = _masks(sequence.frame(0).shape, 4)
        assert np.array_equal(
            cached.evaluate_population(masks), dense.evaluate_population(masks)
        )
        stats = cached.frame_cache_snapshot()
        assert stats.frame_hits == len(sequence) - 1
        assert dense.frame_cache_snapshot().frame_requests == 0

    def test_call_matches_batched_path(self, yolo_detector, sequence):
        objectives = SequenceObjectives(detector=yolo_detector, sequence=sequence)
        masks = _masks(sequence.frame(0).shape, 3, seed=1)
        batched = objectives.evaluate_population(masks)
        for index in range(masks.shape[0]):
            assert np.array_equal(objectives(masks[index]), batched[index])

    def test_zero_mask_objectives(self, yolo_detector, sequence):
        objectives = SequenceObjectives(detector=yolo_detector, sequence=sequence)
        vector = objectives(np.zeros(sequence.frame(0).shape))
        assert vector[0] == 0.0
        assert vector[1] == pytest.approx(1.0)  # nothing degraded
        assert vector[3] == 1.0  # every track survives a no-op mask

    def test_raw_objectives_orientation(self, yolo_detector, sequence, rng):
        objectives = SequenceObjectives(detector=yolo_detector, sequence=sequence)
        mask = np.round(rng.uniform(-4, 4, size=sequence.frame(0).shape))
        raw = objectives.raw_objectives(mask)
        vector = objectives(mask)
        assert raw["intensity"] == vector[0]
        assert raw["degradation"] == vector[1]
        assert raw["distance"] == -vector[2]
        assert raw["track_survival"] == vector[3]

    def test_incremental_snapshot_sums_frames(self, yolo_detector, sequence):
        objectives = SequenceObjectives(detector=yolo_detector, sequence=sequence)
        masks = _masks(sequence.frame(0).shape, 2, seed=2)
        objectives.evaluate_population(masks)
        snapshot = objectives.incremental_snapshot()
        assert snapshot is not None
        assert snapshot["masks_evaluated"] == 2 * len(sequence)
        dense = SequenceObjectives(
            detector=yolo_detector, sequence=sequence, use_activation_cache=False
        )
        assert dense.incremental_snapshot() is None


class TestSequenceObjectivesValidation:
    def test_plain_frame_list_rejected(self, yolo_detector, sequence):
        with pytest.raises(TypeError):
            SequenceObjectives(detector=yolo_detector, sequence=list(sequence))

    def test_empty_sequence_rejected(self, yolo_detector):
        from repro.data.sequences import SceneSequence

        with pytest.raises(ValueError):
            SequenceObjectives(detector=yolo_detector, sequence=SceneSequence())

    def test_bad_track_k_rejected(self, yolo_detector, sequence):
        with pytest.raises(ValueError):
            SequenceObjectives(detector=yolo_detector, sequence=sequence, track_k=0)

    def test_bad_frame_cache_size_rejected(self, yolo_detector, sequence):
        with pytest.raises(ValueError):
            SequenceObjectives(
                detector=yolo_detector, sequence=sequence, frame_cache_size=0
            )


class TestTrackSurvival:
    def _objectives(self, yolo_detector, sequence, track_k=2):
        return SequenceObjectives(
            detector=yolo_detector, sequence=sequence, track_k=track_k
        )

    def _detect_all(self, objectives, frame_index):
        """A prediction that redetects every ground-truth box of a frame."""
        return Prediction(
            [
                BoundingBox(cl=box.cl, x=box.x, y=box.y, l=box.l, w=box.w, score=1.0)
                for box in objectives._track_boxes[frame_index]
            ]
        )

    def test_all_frames_detected_means_full_survival(self, yolo_detector, sequence):
        objectives = self._objectives(yolo_detector, sequence)
        predictions = [
            self._detect_all(objectives, index) for index in range(len(sequence))
        ]
        assert objectives.track_survival(predictions) == 1.0

    def test_all_frames_missed_means_zero_survival(self, yolo_detector, sequence):
        objectives = self._objectives(yolo_detector, sequence)
        predictions = [Prediction([]) for _ in range(len(sequence))]
        assert objectives.track_survival(predictions) == 0.0

    def test_run_shorter_than_k_does_not_count(self, yolo_detector, sequence):
        # Miss only the middle frame: longest undetected run is 1 < k=2.
        objectives = self._objectives(yolo_detector, sequence, track_k=2)
        predictions = [
            self._detect_all(objectives, 0),
            Prediction([]),
            self._detect_all(objectives, 2),
        ]
        assert objectives.track_survival(predictions) == 1.0
        # With k=1 the same pattern suppresses every track.
        relaxed = self._objectives(yolo_detector, sequence, track_k=1)
        assert relaxed.track_survival(predictions) == 0.0

    def test_consecutive_misses_suppress(self, yolo_detector, sequence):
        objectives = self._objectives(yolo_detector, sequence, track_k=2)
        predictions = [
            self._detect_all(objectives, 0),
            Prediction([]),
            Prediction([]),
        ]
        assert objectives.track_survival(predictions) == 0.0

    def test_wrong_class_is_a_miss(self, yolo_detector, sequence):
        objectives = self._objectives(yolo_detector, sequence, track_k=1)
        mislabeled = [
            Prediction(
                [
                    BoundingBox(
                        cl=box.cl + 1, x=box.x, y=box.y, l=box.l, w=box.w, score=1.0
                    )
                    for box in objectives._track_boxes[index]
                ]
            )
            for index in range(len(sequence))
        ]
        assert objectives.track_survival(mislabeled) == 0.0

    def test_prediction_count_mismatch_rejected(self, yolo_detector, sequence):
        objectives = self._objectives(yolo_detector, sequence)
        with pytest.raises(ValueError):
            objectives.track_survival([Prediction([])])


class TestSequenceAttack:
    def test_attack_packaging(self, yolo_detector, sequence):
        attack = SequenceAttack(yolo_detector, _small_config(), track_k=2)
        result = attack.attack(sequence)
        assert result.detector_name == f"{yolo_detector.name}@{len(sequence)}frames"
        assert result.num_evaluations > 0
        front = result.pareto_front
        assert front
        for solution in front:
            assert "track_survival" in solution.extras
            assert 0.0 <= solution.extras["track_survival"] <= 1.0
            assert solution.perturbed_prediction is not None
        frame_stats = result.incremental["frame_cache"]
        assert frame_stats["frame_hits"] == len(sequence) - 1
        assert frame_stats["frame_hit_rate"] > 0.0

    def test_attack_deterministic_and_cache_invariant(self, detr_detector, sequence):
        config = _small_config()
        cached = SequenceAttack(detr_detector, config).attack(sequence)
        dense_config = AttackConfig(
            nsga=config.nsga, use_activation_cache=False, use_delta_reuse=False
        )
        dense = SequenceAttack(detr_detector, dense_config).attack(sequence)
        assert cached.fingerprint() == dense.fingerprint()
