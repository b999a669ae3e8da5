"""Tests for the simulated single-stage and transformer detectors.

These tests exercise the two properties the whole reproduction rests on:

1. both detectors predict the synthetic scenes correctly on clean images
   (the paper's starting assumption), and
2. their *connectivity* differs: the single-stage detector's cells respond
   only to local evidence (plus a weak global term), while the transformer
   mixes features globally through attention.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.data.dataset import generate_dataset
from repro.detection.metrics import precision_recall, prediction_agreement
from repro.detectors.single_stage import SingleStageDetector
from repro.detectors.transformer import TransformerDetector

from tests.conftest import SMALL_LENGTH, SMALL_WIDTH


@pytest.fixture(scope="module")
def evaluation_dataset():
    return generate_dataset(
        num_images=3,
        seed=17,
        image_length=SMALL_LENGTH,
        image_width=SMALL_WIDTH,
        num_objects=(2, 3),
    )


class TestCleanDetectionQuality:
    def test_single_stage_detects_objects(self, yolo_detector, evaluation_dataset):
        recalls = []
        for sample in evaluation_dataset:
            _, recall = precision_recall(
                yolo_detector.predict(sample.image), sample.ground_truth, iou_threshold=0.3
            )
            recalls.append(recall)
        assert np.mean(recalls) >= 0.6

    def test_transformer_detects_objects(self, detr_detector, evaluation_dataset):
        recalls = []
        for sample in evaluation_dataset:
            _, recall = precision_recall(
                detr_detector.predict(sample.image), sample.ground_truth, iou_threshold=0.3
            )
            recalls.append(recall)
        assert np.mean(recalls) >= 0.6

    def test_predictions_are_deterministic(self, yolo_detector, evaluation_dataset):
        image = evaluation_dataset[0].image
        first = yolo_detector.predict(image)
        second = yolo_detector.predict(image)
        assert prediction_agreement(first, second) == 1.0
        assert first.num_valid == second.num_valid

    def test_empty_scene_produces_few_boxes(self, yolo_detector, detr_detector):
        from repro.data.renderer import render_scene
        from repro.data.scene import SceneSpec

        empty = render_scene(
            SceneSpec(image_length=SMALL_LENGTH, image_width=SMALL_WIDTH, background_seed=3)
        )
        assert yolo_detector.predict(empty).num_valid <= 1
        assert detr_detector.predict(empty).num_valid <= 1


class TestDetectorInterface:
    def test_name_contains_architecture_and_seed(self, yolo_detector, detr_detector):
        assert yolo_detector.name == "single_stage-seed1"
        assert detr_detector.name == "transformer-seed1"

    def test_call_is_predict(self, yolo_detector, evaluation_dataset):
        image = evaluation_dataset[0].image
        assert yolo_detector(image).num_valid == yolo_detector.predict(image).num_valid

    def test_rejects_non_rgb_image(self, yolo_detector):
        with pytest.raises(ValueError):
            yolo_detector.predict(np.zeros((32, 32)))

    def test_backbone_feature_shape(self, yolo_detector, detr_detector, evaluation_dataset):
        image = evaluation_dataset[0].image
        rows, cols = SMALL_LENGTH // 8, SMALL_WIDTH // 8
        assert yolo_detector.backbone_features(image).shape == (rows, cols, 7)
        assert detr_detector.backbone_features(image).shape == (rows, cols, 7)

    def test_cell_probabilities_are_distributions(self, detr_detector, evaluation_dataset):
        probabilities = detr_detector.cell_probabilities(evaluation_dataset[0].image)
        assert np.allclose(probabilities.sum(axis=-1), 1.0)
        assert probabilities.min() >= 0.0

    def test_constructor_validation(self, yolo_detector, detr_detector):
        with pytest.raises(ValueError):
            SingleStageDetector(yolo_detector.prototypes, local_smoothing=0)
        with pytest.raises(ValueError):
            SingleStageDetector(yolo_detector.prototypes, global_context_weight=-1.0)
        with pytest.raises(ValueError):
            TransformerDetector(detr_detector.prototypes, attention_mix=1.5)
        with pytest.raises(ValueError):
            TransformerDetector(detr_detector.prototypes, attention_sharpness=0.0)

    @pytest.mark.parametrize("embed_dim, num_heads", [(9, 3), (0, 2)])
    def test_embed_dim_must_be_positive_and_even(
        self, detr_detector, embed_dim, num_heads
    ):
        # An odd width used to construct and fail at the first predict, in
        # the 2-D positional encoding.
        with pytest.raises(ValueError, match="embed_dim"):
            TransformerDetector(
                detr_detector.prototypes, embed_dim=embed_dim, num_heads=num_heads
            )


class TestConnectivity:
    """The architectural asymmetry the paper studies."""

    def test_single_stage_locality(self, yolo_detector, evaluation_dataset):
        # Perturbing a far-away corner barely changes the features of a cell
        # on the opposite side of the image.
        image = evaluation_dataset[0].image
        perturbed = image.copy()
        perturbed[:, -24:, :] = np.clip(perturbed[:, -24:, :] + 120.0, 0, 255)
        clean_features = yolo_detector.backbone_features(image)
        perturbed_features = yolo_detector.backbone_features(perturbed)
        left_change = np.abs(
            perturbed_features[:, :5, :] - clean_features[:, :5, :]
        ).mean()
        right_change = np.abs(
            perturbed_features[:, -3:, :] - clean_features[:, -3:, :]
        ).mean()
        assert right_change > 10 * max(left_change, 1e-12)

    def test_transformer_global_coupling_exceeds_single_stage(
        self, yolo_detector, detr_detector, evaluation_dataset
    ):
        # The same far-away perturbation changes the transformer's features
        # on the untouched side much more than the single-stage detector's.
        image = evaluation_dataset[0].image
        perturbed = image.copy()
        perturbed[:, -24:, :] = np.clip(perturbed[:, -24:, :] + 120.0, 0, 255)

        def left_feature_change(detector):
            clean = detector.backbone_features(image)
            after = detector.backbone_features(perturbed)
            return np.abs(after[:, :5, :] - clean[:, :5, :]).mean()

        assert left_feature_change(detr_detector) > 3 * left_feature_change(
            yolo_detector
        )

    def test_transformer_attention_matrix_is_stochastic(
        self, detr_detector, evaluation_dataset
    ):
        weights = detr_detector.attention_matrix(evaluation_dataset[0].image)
        assert weights.shape[0] == weights.shape[1]
        assert np.allclose(weights.sum(axis=-1), 1.0)
        assert weights.min() >= 0.0


def _channel_first(grid):
    """Equal values, channel-first memory layout (not C-ordered)."""
    copy = np.moveaxis(np.ascontiguousarray(np.moveaxis(grid, -1, 0)), 0, -1)
    assert np.array_equal(copy, grid) and not copy.flags.c_contiguous
    return copy


class TestGlobalContextLayout:
    """The global-context mean is a pairwise reduction whose order follows
    memory layout; the single-stage head pins it to C order, so a grid
    producer's layout can never change a bit of the output."""

    def test_single_path(self, yolo_detector, evaluation_dataset):
        grid = yolo_detector.extractor(evaluation_dataset[0].image)
        smoothed = yolo_detector._smooth(grid)
        expected = yolo_detector._finalize_features(grid, smoothed)
        actual = yolo_detector._finalize_features(
            _channel_first(grid), _channel_first(smoothed)
        )
        assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))

    def test_batched_path(self, yolo_detector, evaluation_dataset, monkeypatch):
        images = np.stack([scene.image for scene in evaluation_dataset])
        expected = yolo_detector.backbone_features_batch(images)
        extractor = yolo_detector.extractor
        monkeypatch.setattr(
            yolo_detector,
            "extractor",
            SimpleNamespace(batch=lambda x: _channel_first(extractor.batch(x))),
        )
        actual = yolo_detector.backbone_features_batch(images)
        assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))
