"""The streaming distance kernel and k-means against broadcast references.

``squared_distances`` replaced the broadcast expression
``np.sum((points[:, None, :] - centers[None]) ** 2, axis=-1)`` in the
prototype head and in k-means; that expression lives on here only, as the
reference.  Every comparison is exact on ``uint64`` views: the kernel, the
head's logits and probabilities, k-means and the banks the detector
fixtures were trained with must not move by one bit.
"""

import numpy as np
import pytest

from repro.detectors import training
from repro.detectors.prototypes import PrototypeBank, squared_distances
from repro.detectors.training import fit_prototypes, kmeans
from repro.nn.ops import softmax


def _bits(array):
    return np.ascontiguousarray(array).view(np.uint64)


def reference_squared_distances(points, centers):
    """The broadcast ``(n, k, d)`` form the kernel replaced."""
    return np.sum((points[:, None, :] - centers[None]) ** 2, axis=-1)


def reference_logits(bank, features):
    """The prototype head's logits built on the broadcast form."""
    flat = features.reshape(-1, bank.feature_dim)
    class_dist = reference_squared_distances(flat, bank.class_prototypes)
    bg_dist = reference_squared_distances(flat, bank.background_prototypes)
    bg_min = np.min(bg_dist, axis=-1, keepdims=True)
    logits = np.concatenate([-class_dist, -bg_min], axis=-1) / bank.temperature
    logits[:, -1] += bank.background_bias
    return logits.reshape(*features.shape[:-1], bank.num_classes + 1)


def reference_kmeans(points, num_clusters, rng, iterations=25):
    """Lloyd's loop on the broadcast distances, draws as in ``kmeans``."""
    points = np.asarray(points, dtype=np.float64)
    num_clusters = min(num_clusters, points.shape[0])
    initial = rng.choice(points.shape[0], size=num_clusters, replace=False)
    centroids = points[initial].copy()
    for _ in range(iterations):
        distances = reference_squared_distances(points, centroids)
        assignment = np.argmin(distances, axis=1)
        for cluster in range(num_clusters):
            members = assignment == cluster
            if members.any():
                centroids[cluster] = points[members].mean(axis=0)
            else:
                farthest = int(np.argmax(np.min(distances, axis=1)))
                centroids[cluster] = points[farthest]
    return centroids


class TestSquaredDistances:
    @pytest.mark.parametrize("dim", [1, 3, 7])
    @pytest.mark.parametrize("num_points", [0, 1, 48_480])
    @pytest.mark.parametrize("num_centers", [1, 5, 40])
    def test_matches_broadcast_form(self, dim, num_points, num_centers):
        rng = np.random.default_rng(dim * 1000 + num_centers)
        points = rng.normal(size=(num_points, dim))
        centers = rng.normal(size=(num_centers, dim))
        distances = squared_distances(points, centers)
        assert distances.shape == (num_points, num_centers)
        assert np.array_equal(
            _bits(distances), _bits(reference_squared_distances(points, centers))
        )

    @pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e-5, 1e5, 1e150, 1e160])
    def test_matches_broadcast_form_at_extreme_magnitudes(self, scale):
        # Subnormal squares at the small end, overflow to inf at the large.
        rng = np.random.default_rng(7)
        points = rng.normal(size=(500, 7)) * scale
        centers = rng.normal(size=(9, 7)) * scale
        with np.errstate(over="ignore"):
            assert np.array_equal(
                _bits(squared_distances(points, centers)),
                _bits(reference_squared_distances(points, centers)),
            )

    def test_mixed_magnitudes_within_one_point(self):
        rng = np.random.default_rng(8)
        scales = np.array([1e-150, 1e-8, 1.0, 1e8, 1e150, 3.0, 1e-300])
        points = rng.normal(size=(300, 7)) * scales
        centers = rng.normal(size=(12, 7)) * scales
        with np.errstate(over="ignore"):
            assert np.array_equal(
                _bits(squared_distances(points, centers)),
                _bits(reference_squared_distances(points, centers)),
            )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            squared_distances(np.zeros((4, 3)), np.zeros((2, 4)))
        with pytest.raises(ValueError):
            squared_distances(np.zeros(3), np.zeros((2, 3)))


class TestPrototypeHead:
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_logits_and_probabilities_match_reference_head(self, scale):
        rng = np.random.default_rng(11)
        bank = PrototypeBank(
            class_prototypes=rng.normal(size=(5, 7)) * scale,
            background_prototypes=rng.normal(size=(40, 7)) * scale,
            temperature=0.37 * scale**2,
            background_bias=0.8,
        )
        features = rng.normal(size=(6, 12, 40, 7)) * scale
        expected = reference_logits(bank, features)
        logits = bank.logits(features)
        assert logits.flags.c_contiguous
        assert np.array_equal(_bits(logits), _bits(expected))
        assert np.array_equal(
            _bits(bank.probabilities(features)), _bits(softmax(expected, axis=-1))
        )

    def test_trained_bank_on_real_features(self, yolo_detector, small_dataset):
        bank = yolo_detector.prototypes
        features = yolo_detector.backbone_features(small_dataset[0].image)
        expected = reference_logits(bank, features)
        assert np.array_equal(_bits(bank.logits(features)), _bits(expected))
        assert np.array_equal(
            _bits(bank.probabilities(features)), _bits(softmax(expected, axis=-1))
        )

    def test_single_feature_vector(self):
        bank = PrototypeBank(np.eye(3)[:2], np.zeros((1, 3)), temperature=0.5)
        feature = np.array([0.2, 0.9, 0.1])
        assert bank.logits(feature).shape == (3,)
        assert np.array_equal(
            _bits(bank.logits(feature)), _bits(reference_logits(bank, feature))
        )


class TestKMeans:
    def test_matches_reference_lloyd_loop(self):
        rng = np.random.default_rng(21)
        points = np.concatenate(
            [rng.normal(loc, 0.3, size=(400, 7)) for loc in (-2.0, 0.0, 3.0)]
        )
        centroids = kmeans(points, 40, np.random.default_rng(5))
        expected = reference_kmeans(points, 40, np.random.default_rng(5))
        assert np.array_equal(_bits(centroids), _bits(expected))

    def test_matches_reference_when_clusters_empty(self):
        # Duplicated points make duplicated initial centroids, whose
        # clusters go empty and are re-seeded from the farthest point.
        rng = np.random.default_rng(22)
        points = np.concatenate([np.ones((50, 7)), rng.normal(size=(10, 7))])
        centroids = kmeans(points, 12, np.random.default_rng(3))
        expected = reference_kmeans(points, 12, np.random.default_rng(3))
        assert np.array_equal(_bits(centroids), _bits(expected))


class TestTrainedBanks:
    @pytest.mark.parametrize("fixture", ["yolo_detector", "detr_detector"])
    def test_fixture_bank_equals_reference_fit(
        self, fixture, small_training_config, monkeypatch, request
    ):
        detector = request.getfixturevalue(fixture)
        monkeypatch.setattr(training, "kmeans", reference_kmeans)
        expected = fit_prototypes(detector, small_training_config, seed=detector.seed)
        bank = detector.prototypes
        for name in ("class_prototypes", "background_prototypes"):
            assert np.array_equal(_bits(getattr(bank, name)), _bits(getattr(expected, name)))
        assert bank.temperature == expected.temperature
        assert bank.background_bias == expected.background_bias
