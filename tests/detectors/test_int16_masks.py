"""int16 genomes through the evaluation path.

The attack's genomes are ``int16`` (``constrain_mask`` casts them), and the
evaluators, ``predict_delta_batch``, the windowed feature extraction and
the delta store keep that dtype; float64 appears only where pixels are
added or objectives are computed.  An ``int16`` mask and the same values
in float64 must therefore take the same routes to the same predictions and
objective values — also when the float64 copy carries ``-0.0`` entries,
which ``int16`` cannot represent.  Float outputs are compared as ``uint64``
views, so a difference in the last bit (or in the sign of a zero) fails.
"""

import numpy as np
import pytest

from repro.core.objectives import objective_distance, objective_intensity
from repro.detectors.activation_cache import (
    ActivationCacheStore,
    DeltaActivations,
    DeltaActivationStore,
)
from repro.detection.prediction import Prediction
from repro.nn.features import GridFeatureExtractor
from repro.nn.incremental import EMPTY_BBOX, mask_nonzero_bbox


def _bits(value):
    return np.asarray(value, dtype=np.float64).view(np.uint64)


def _negative_zeros(masks):
    """float64 copy of int16 masks with every other zero entry ``-0.0``."""
    values = masks.astype(np.float64)
    checker = np.indices(values.shape).sum(axis=0) % 2 == 0
    values[(values == 0) & checker] = -0.0
    return values


def _patch(shape, window, seed):
    mask = np.zeros(shape, dtype=np.int16)
    r0, r1, c0, c1 = window
    mask[r0:r1, c0:c1] = np.random.default_rng(seed).integers(
        -255, 256, size=(r1 - r0, c1 - c0, shape[2])
    )
    return mask


def _every_route(image_shape):
    """An int16 parent mask, then one int16 batch that takes every route:
    empty, clean splice, ancestor splice, stored hit and dense."""
    parent = _patch(image_shape, (10, 20, 30, 60), 41)
    child = parent.copy()
    child[12:14, 40:44] += 17
    fresh = _patch(image_shape, (40, 46, 150, 170), 42)
    dense = (
        np.random.default_rng(43)
        .integers(-30, 31, size=image_shape)
        .astype(np.int16)
    )
    batch = np.stack(
        [np.zeros(image_shape, dtype=np.int16), fresh, child, parent.copy(), dense]
    )
    ancestry = [
        None,
        {"fingerprint": b"fresh", "ancestor": None},
        {"fingerprint": b"child", "ancestor": b"parent"},
        {"fingerprint": b"twin", "ancestor": b"parent"},
        {"fingerprint": b"dense", "ancestor": None},
    ]
    return parent, batch, ancestry


def _run(detector, image, clean, parent, batch, ancestry):
    """Store the parent, then evaluate the batch; returns the predictions."""
    stored_parent = detector.predict_delta_batch(
        image,
        parent[None],
        clean=clean,
        ancestry=[{"fingerprint": b"parent", "ancestor": None}],
    )[0]
    predictions = detector.predict_delta_batch(
        image, batch, clean=clean, ancestry=ancestry
    )
    return stored_parent, predictions


def _fresh_bundle(detector, image):
    clean = detector.clean_activations(image)
    clean.delta = DeltaActivationStore(max_entries=8)
    return clean


@pytest.fixture(params=["yolo", "detr"])
def detector(request, yolo_detector, detr_detector):
    return yolo_detector if request.param == "yolo" else detr_detector


class TestSameRoutesSamePredictions:
    def test_int16_and_float64_batches_agree(self, detector, small_dataset):
        image = small_dataset[0].image
        parent, batch, ancestry = _every_route(image.shape)
        int_clean = _fresh_bundle(detector, image)
        int_parent, int_predictions = _run(
            detector, image, int_clean, parent, batch, ancestry
        )
        float_clean = _fresh_bundle(detector, image)
        float_parent, float_predictions = _run(
            detector,
            image,
            float_clean,
            _negative_zeros(parent),
            _negative_zeros(batch),
            ancestry,
        )
        assert repr(int_predictions) == repr(float_predictions)
        assert repr(int_parent) == repr(float_parent)
        dense = detector.predict_batch(
            np.clip(image[None] + batch.astype(np.float64), 0.0, 255.0)
        )
        assert repr(int_predictions) == repr(dense)
        # Same routes: empty, stored hit, and the same delta counters.
        assert int_predictions[0] is int_clean.prediction
        assert float_predictions[0] is float_clean.prediction
        assert int_predictions[3] is int_parent
        assert float_predictions[3] is float_parent
        assert (int_clean.delta.hits, int_clean.delta.misses) == (
            float_clean.delta.hits,
            float_clean.delta.misses,
        )
        assert int_clean.delta.hits == 2  # the child and the twin

    def test_stored_windows_are_int16_quarter_bytes(self, detector, small_dataset):
        image = small_dataset[0].image
        parent, batch, ancestry = _every_route(image.shape)
        int_clean = _fresh_bundle(detector, image)
        _run(detector, image, int_clean, parent, batch, ancestry)
        float_clean = _fresh_bundle(detector, image)
        _run(
            detector,
            image,
            float_clean,
            _negative_zeros(parent),
            _negative_zeros(batch),
            ancestry,
        )
        assert len(int_clean.delta) == len(float_clean.delta) == 3
        for key in (b"parent", b"fresh", b"child"):
            stored = int_clean.delta.get(key)
            twin = float_clean.delta.get(key)
            assert stored.mask_window.dtype == np.int16
            assert twin.mask_window.dtype == np.float64
            assert 4 * stored.mask_window.nbytes == twin.mask_window.nbytes
            assert stored.pixel_bbox == twin.pixel_bbox
            assert np.array_equal(stored.mask_window, twin.mask_window)
        assert int_clean.delta.bytes_admitted < float_clean.delta.bytes_admitted

    def test_store_entries_are_int16_and_read_only(self, yolo_detector, small_dataset):
        image = small_dataset[0].image
        parent, batch, ancestry = _every_route(image.shape)
        store = ActivationCacheStore(max_entries=1, delta_store_size=8)
        clean = store.get(yolo_detector, image)
        _, predictions = _run(yolo_detector, image, clean, parent, batch, ancestry)
        reference = _fresh_bundle(yolo_detector, image)
        _, expected = _run(yolo_detector, image, reference, parent, batch, ancestry)
        assert repr(predictions) == repr(expected)
        for key in (b"parent", b"fresh", b"child"):
            stored = clean.delta.get(key)
            assert stored.mask_window.dtype == np.int16
            assert not stored.mask_window.flags.writeable


class TestScansAcrossDtypes:
    @staticmethod
    def _sparse(shape=(12, 16, 3)):
        mask = np.zeros(shape, dtype=np.int16)
        mask[3, 5, 1] = -7
        mask[8, 11, 2] = 255
        mask[4:6, 9, 0] = 1
        return mask

    def test_mask_nonzero_bbox(self):
        mask = self._sparse()
        twin = _negative_zeros(mask)
        assert mask_nonzero_bbox(mask) == mask_nonzero_bbox(twin) == (3, 9, 5, 12)
        window = (2, 10, 4, 14)
        assert mask_nonzero_bbox(mask, window) == mask_nonzero_bbox(twin, window)
        assert mask_nonzero_bbox(mask, window) == (3, 9, 5, 12)
        zeros = np.zeros_like(mask)
        assert mask_nonzero_bbox(zeros) == EMPTY_BBOX
        assert mask_nonzero_bbox(_negative_zeros(zeros)) == EMPTY_BBOX
        nan = np.zeros(mask.shape)
        nan[7, 2, 0] = np.nan
        assert mask_nonzero_bbox(nan) == (7, 8, 2, 3)

    @staticmethod
    def _entry(mask, bbox):
        r0, r1, c0, c1 = bbox
        return DeltaActivations(
            mask_window=mask[r0:r1, c0:c1].copy(),
            pixel_bbox=bbox,
            prediction=Prediction(),
        )

    def test_diff_bbox_int16_crop_against_float64_mask(self):
        ancestor = self._sparse()
        entry = self._entry(ancestor, mask_nonzero_bbox(ancestor))
        child = _negative_zeros(ancestor)
        assert entry.diff_bbox(child, None) == EMPTY_BBOX
        child[10, 1, 0] = 0.5  # a fraction an int16 cast would drop
        child[3, 5, 1] = 7.0  # sign flip of a stored value
        expected = (3, 11, 1, 6)
        assert entry.diff_bbox(child, None) == expected
        float_entry = self._entry(
            ancestor.astype(np.float64), mask_nonzero_bbox(ancestor)
        )
        assert float_entry.diff_bbox(child, None) == expected

    def test_diff_bbox_float64_crop_against_int16_mask(self):
        ancestor = _negative_zeros(self._sparse())
        ancestor[5, 6, 0] = 0.5
        entry = self._entry(ancestor, mask_nonzero_bbox(ancestor))
        child = self._sparse()
        # Only the fractional ancestor value differs from the int16 child.
        assert entry.diff_bbox(child, None) == (5, 6, 6, 7)
        child[5, 6, 0] = 0
        child[0, 0, 2] = -3
        within = (0, 12, 0, 16)
        assert entry.diff_bbox(child, within) == (0, 6, 0, 7)
        assert entry.diff_bbox(child.astype(np.float64), within) == (0, 6, 0, 7)


class TestObjectivesAcrossDtypes:
    @staticmethod
    def _genome(seed, shape=(24, 40, 3)):
        mask = np.zeros(shape, dtype=np.int16)
        mask[5:17, 12:33] = np.random.default_rng(seed).integers(
            -255, 256, size=(12, 21, 3)
        )
        mask[9, 20] = 0  # a pixel of zeros inside the box
        return mask

    def test_objective_distance(self):
        genome = self._genome(1)
        twin = _negative_zeros(genome)
        weights = np.random.default_rng(2).normal(size=genome.shape[:2])
        assert _bits(objective_distance(genome, weights)) == _bits(
            objective_distance(twin, weights)
        )
        bbox = mask_nonzero_bbox(genome)
        assert _bits(objective_distance(genome, weights, bbox)) == _bits(
            objective_distance(twin, weights, bbox)
        )
        zeros = np.zeros_like(genome)
        assert objective_distance(zeros, weights) == 0.0

    def test_objective_intensity(self):
        genome = self._genome(3)
        assert _bits(objective_intensity(genome)) == _bits(
            objective_intensity(_negative_zeros(genome))
        )

    @pytest.mark.parametrize(
        "cell_bbox", [(0, 3, 0, 5), (1, 3, 2, 4), (2, 3, 4, 5)], ids=str
    )
    def test_window_features(self, cell_bbox):
        extractor = GridFeatureExtractor(cell=8)
        image = np.random.default_rng(4).uniform(0, 255, size=(24, 40, 3)).round()
        genome = self._genome(5)
        int_features = extractor.window_features(image, genome, cell_bbox)
        float_features = extractor.window_features(
            image, _negative_zeros(genome), cell_bbox
        )
        assert np.array_equal(_bits(int_features), _bits(float_features))
        cr0, cr1, cc0, cc1 = cell_bbox
        full = extractor(np.clip(image + genome, 0.0, 255.0))
        assert np.array_equal(
            _bits(int_features), _bits(full[cr0:cr1, cc0:cc1])
        )
