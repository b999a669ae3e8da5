"""Tests for prototype fitting (detector training)."""

import numpy as np
import pytest

from repro.data.scene import ObjectSpec, SceneSpec
from repro.data.templates import KittiClass
from repro.detectors.training import (
    TrainingConfig,
    _cell_coverage,
    kmeans,
    label_cells,
)


class TestTrainingConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("background_clusters", 0),
            ("background_clusters", -3),
            ("scenes_per_class", 0),
            ("scenes_per_class", -1),
        ],
    )
    def test_non_positive_counts_rejected_with_the_field_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainingConfig(**{field: value})

    def test_defaults_and_minimum_counts_accepted(self):
        TrainingConfig()
        TrainingConfig(scenes_per_class=1, background_clusters=1)


class TestCellCoverage:
    def test_fully_covered_cell(self):
        box = ObjectSpec(KittiClass.CAR, x=12.0, y=12.0, scale=2.0).to_box()
        assert _cell_coverage(box, 1, 1, 8) == pytest.approx(1.0)

    def test_uncovered_cell(self):
        box = ObjectSpec(KittiClass.CAR, x=12.0, y=12.0, scale=1.0).to_box()
        assert _cell_coverage(box, 10, 10, 8) == 0.0

    def test_partial_coverage(self):
        from repro.detection.boxes import BoundingBox

        box = BoundingBox.from_corners(0, 0.0, 0.0, 4.0, 8.0)
        assert _cell_coverage(box, 0, 0, 8) == pytest.approx(0.5)


class TestLabelCells:
    def test_labels_match_object_location(self):
        scene = SceneSpec(
            image_length=64,
            image_width=160,
            objects=[ObjectSpec(KittiClass.CAR, x=40.0, y=80.0, scale=1.5)],
        )
        labels = label_cells(scene, (8, 20), cell=8, coverage_threshold=0.5)
        assert labels.shape == (8, 20)
        # The cell containing the object centre must carry the class label.
        assert labels[40 // 8, 80 // 8] == int(KittiClass.CAR)
        # A far-away cell stays background.
        assert labels[0, 0] == -1

    def test_empty_scene_is_all_background(self):
        scene = SceneSpec(image_length=64, image_width=160)
        labels = label_cells(scene, (8, 20), cell=8, coverage_threshold=0.5)
        assert np.all(labels == -1)

    def test_high_threshold_reduces_labelled_cells(self):
        scene = SceneSpec(
            image_length=64,
            image_width=160,
            objects=[ObjectSpec(KittiClass.TRUCK, x=40.0, y=80.0, scale=1.2)],
        )
        loose = label_cells(scene, (8, 20), 8, coverage_threshold=0.1)
        strict = label_cells(scene, (8, 20), 8, coverage_threshold=0.95)
        assert (strict >= 0).sum() <= (loose >= 0).sum()


class TestKMeans:
    def test_recovers_well_separated_clusters(self):
        rng = np.random.default_rng(0)
        cluster_a = rng.normal(0.0, 0.05, size=(50, 2))
        cluster_b = rng.normal(5.0, 0.05, size=(50, 2))
        centroids = kmeans(np.vstack([cluster_a, cluster_b]), 2, rng)
        centers = sorted(centroids[:, 0])
        assert centers[0] == pytest.approx(0.0, abs=0.2)
        assert centers[1] == pytest.approx(5.0, abs=0.2)

    def test_more_clusters_than_points(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(3, 4))
        centroids = kmeans(points, 10, rng)
        assert centroids.shape[0] == 3

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((0, 3)), 2, np.random.default_rng(0))

    def test_non_2d_input_rejected(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros(5), 2, np.random.default_rng(0))


class TestFittedPrototypes:
    def test_prototype_bank_dimensions(self, yolo_detector, small_training_config):
        bank = yolo_detector.prototypes
        assert bank.num_classes == len(small_training_config.classes)
        assert bank.feature_dim == 7
        assert bank.background_prototypes.shape[0] <= small_training_config.background_clusters
        assert bank.temperature > 0

    def test_same_seed_gives_same_prototypes(self, small_training_config):
        from repro.detectors.zoo import build_detector

        first = build_detector("yolo", seed=3, training=small_training_config)
        second = build_detector("yolo", seed=3, training=small_training_config)
        assert np.allclose(
            first.prototypes.class_prototypes, second.prototypes.class_prototypes
        )

    def test_different_seeds_give_different_prototypes(
        self, yolo_detector, small_training_config
    ):
        from repro.detectors.zoo import build_detector

        other = build_detector("yolo", seed=2, training=small_training_config)
        assert not np.allclose(
            yolo_detector.prototypes.class_prototypes,
            other.prototypes.class_prototypes,
        )

    def test_training_config_validation(self):
        config = TrainingConfig()
        assert config.scenes_per_class > 0
        assert 0 < config.coverage_threshold <= 1
