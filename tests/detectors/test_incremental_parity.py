"""Property-based parity suite for incremental (dirty-region) inference.

``predict_delta`` / ``predict_delta_batch`` recompute only a mask's dirty
region against cached clean activations, so they must be **bit-identical**
to the full forward pass on the perturbed image — asserted with exact
equality on the decoded boxes and on the intermediate probability grids,
across both detector architectures, odd and even smoothing kernel sizes,
and random sparse masks (single pixels, patches, border-touching patches,
channel-sparse perturbations, dense masks that route through the fallback).
"""

import numpy as np
import pytest

from repro.detectors.base import Detector
from repro.detectors.single_stage import SingleStageDetector
from repro.nn.incremental import EMPTY_BBOX, mask_nonzero_bbox


def _assert_same_prediction(expected, actual):
    assert len(expected) == len(actual)
    for left, right in zip(expected, actual):
        assert (left.cl, left.x, left.y, left.l, left.w, left.score) == (
            right.cl,
            right.x,
            right.y,
            right.l,
            right.w,
            right.score,
        )


def _sparse_masks(image_shape, seed=0):
    """A zoo of sparse masks: pixels, patches, borders, channel-sparse."""
    length, width = image_shape[0], image_shape[1]
    rng = np.random.default_rng(seed)
    masks = []

    single = np.zeros(image_shape)
    single[length // 2, width // 2, 1] = 120.0
    masks.append(single)

    patch = np.zeros(image_shape)
    patch[5:11, 30:41] = rng.integers(-255, 256, size=(6, 11, 3))
    masks.append(patch)

    corner = np.zeros(image_shape)
    corner[0:3, width - 4 : width] = rng.integers(-255, 256, size=(3, 4, 3))
    masks.append(corner)

    bottom_edge = np.zeros(image_shape)
    bottom_edge[length - 2 : length, 0:6] = rng.integers(-255, 256, size=(2, 6, 3))
    masks.append(bottom_edge)

    scattered = np.zeros(image_shape)
    for _ in range(12):
        r, c = rng.integers(0, length), rng.integers(0, width)
        scattered[r, c, rng.integers(0, 3)] = float(rng.integers(-255, 256))
    masks.append(scattered)

    # Values that cancel against clipping (negative on dark pixels).
    clip_heavy = np.zeros(image_shape)
    clip_heavy[8:12, 8:12] = -255.0
    masks.append(clip_heavy)

    return masks


@pytest.fixture(params=["yolo", "detr"])
def detector(request, yolo_detector, detr_detector):
    return yolo_detector if request.param == "yolo" else detr_detector


class TestPredictDeltaParity:
    def test_sparse_masks_bit_identical(self, detector, small_dataset):
        image = small_dataset[0].image
        clean = detector.clean_activations(image)
        for mask in _sparse_masks(image.shape, seed=1):
            expected = detector.predict(np.clip(image + mask, 0.0, 255.0))
            actual = detector.predict_delta(image, mask, clean=clean)
            _assert_same_prediction(expected, actual)

    def test_zero_mask_returns_clean_prediction(self, detector, small_dataset):
        image = small_dataset[0].image
        clean = detector.clean_activations(image)
        actual = detector.predict_delta(image, np.zeros_like(image), clean=clean)
        assert actual is clean.prediction
        _assert_same_prediction(detector.predict(image), actual)

    def test_dense_mask_routes_through_fallback(self, detector, small_dataset):
        image = small_dataset[0].image
        clean = detector.clean_activations(image)
        mask = np.random.default_rng(2).integers(
            -40, 41, size=image.shape
        ).astype(np.float64)
        expected = detector.predict(np.clip(image + mask, 0.0, 255.0))
        _assert_same_prediction(
            expected, detector.predict_delta(image, mask, clean=clean)
        )

    def test_without_clean_activations_full_recompute(self, detector, small_dataset):
        image = small_dataset[0].image
        mask = _sparse_masks(image.shape, seed=3)[1]
        expected = detector.predict(np.clip(image + mask, 0.0, 255.0))
        _assert_same_prediction(expected, detector.predict_delta(image, mask))

    def test_loose_dirty_bound_never_changes_result(self, detector, small_dataset):
        image = small_dataset[0].image
        clean = detector.clean_activations(image)
        mask = _sparse_masks(image.shape, seed=4)[0]
        exact = mask_nonzero_bbox(mask)
        loose = (
            max(0, exact[0] - 7),
            min(image.shape[0], exact[1] + 9),
            max(0, exact[2] - 5),
            min(image.shape[1], exact[3] + 11),
        )
        reference = detector.predict_delta(image, mask, clean=clean)
        for bound in (exact, loose, (0, image.shape[0], 0, image.shape[1]), None):
            _assert_same_prediction(
                reference,
                detector.predict_delta(image, mask, dirty_bound=bound, clean=clean),
            )

    def test_batch_bit_identical_to_predict_batch(self, detector, small_dataset):
        image = small_dataset[0].image
        clean = detector.clean_activations(image)
        masks = np.stack(
            [np.zeros_like(image)] + _sparse_masks(image.shape, seed=5), axis=0
        )
        expected = detector.predict_batch(np.clip(image[None] + masks, 0.0, 255.0))
        actual = detector.predict_delta_batch(image, masks, clean=clean)
        assert len(actual) == masks.shape[0]
        for left, right in zip(expected, actual):
            _assert_same_prediction(left, right)

    def test_batch_mixes_sparse_and_dense_members(self, detector, small_dataset):
        image = small_dataset[0].image
        clean = detector.clean_activations(image)
        rng = np.random.default_rng(6)
        dense = rng.integers(-30, 31, size=image.shape).astype(np.float64)
        sparse = _sparse_masks(image.shape, seed=7)[0]
        masks = np.stack([dense, sparse, np.zeros_like(image)], axis=0)
        expected = detector.predict_batch(np.clip(image[None] + masks, 0.0, 255.0))
        for left, right in zip(
            expected, detector.predict_delta_batch(image, masks, clean=clean)
        ):
            _assert_same_prediction(left, right)

    def test_batch_empty_bound_short_circuits(self, detector, small_dataset):
        image = small_dataset[0].image
        clean = detector.clean_activations(image)
        masks = np.zeros((2,) + image.shape)
        predictions = detector.predict_delta_batch(
            image, masks, dirty_bounds=[EMPTY_BBOX, None], clean=clean
        )
        assert predictions[0] is clean.prediction
        assert predictions[1] is clean.prediction


class TestKernelSizeCoverage:
    """Odd and even smoothing kernels, plus no smoothing at all.

    Even box sizes use scipy's 'same'-mode alignment, which the windowed
    kernels do not reproduce — the delta path must transparently recompute
    that stage whole-grid and stay bit-identical.
    """

    @pytest.mark.parametrize("local_smoothing", [1, 2, 3, 4, 5])
    def test_single_stage_smoothing_sizes(
        self, yolo_detector, small_dataset, local_smoothing
    ):
        detector = SingleStageDetector(
            yolo_detector.prototypes,
            config=yolo_detector.config,
            local_smoothing=local_smoothing,
        )
        image = small_dataset[0].image
        clean = detector.clean_activations(image)
        for mask in _sparse_masks(image.shape, seed=8)[:3]:
            expected = detector.predict(np.clip(image + mask, 0.0, 255.0))
            _assert_same_prediction(
                expected, detector.predict_delta(image, mask, clean=clean)
            )

    def test_probability_grids_bit_identical(self, yolo_detector, small_dataset):
        image = small_dataset[0].image
        clean = yolo_detector.clean_activations(image)
        mask = _sparse_masks(image.shape, seed=9)[1]
        perturbed = np.clip(image + mask, 0.0, 255.0)
        _, states = yolo_detector._splice_batch(
            image,
            mask[None, ...],
            [(0, mask_nonzero_bbox(mask), clean.tensors, clean.prediction)],
        )
        grid = yolo_detector._finalize_features(
            states[0]["features"], states[0].get("smoothed")
        )
        assert np.array_equal(grid, yolo_detector.backbone_features(perturbed))


class TestEnsembleFanOut:
    def test_predict_delta_batch_all(self, yolo_detector, detr_detector, small_dataset):
        from repro.detectors.ensemble import DetectorEnsemble

        ensemble = DetectorEnsemble([yolo_detector, detr_detector])
        image = small_dataset[0].image
        masks = np.stack(_sparse_masks(image.shape, seed=10)[:3], axis=0)
        clean_all = ensemble.clean_activations_all(image)
        assert len(clean_all) == 2 and all(c is not None for c in clean_all)
        expected = ensemble.predict_batch_all(np.clip(image[None] + masks, 0.0, 255.0))
        actual = ensemble.predict_delta_batch_all(image, masks, clean_all=clean_all)
        for member_expected, member_actual in zip(expected, actual):
            for left, right in zip(member_expected, member_actual):
                _assert_same_prediction(left, right)


class TestGenericFallback:
    def test_non_incremental_detector_uses_full_pass(self, small_dataset):
        class LoopDetector(Detector):
            architecture = "loop"

            def __init__(self, inner):
                super().__init__(inner.config, inner.seed)
                self.inner = inner

            def backbone_features(self, image):
                return self.inner.backbone_features(image)

            def predict(self, image):
                return self.inner.predict(image)

        inner_source = small_dataset
        # Build on the session yolo fixture indirectly: a plain Detector
        # subclass without incremental support must fall back cleanly.
        import repro.detectors.zoo as zoo
        from repro.detectors.training import TrainingConfig

        inner = zoo.build_detector(
            "yolo",
            seed=2,
            training=TrainingConfig(
                scenes_per_class=2,
                image_length=inner_source[0].image.shape[0],
                image_width=inner_source[0].image.shape[1],
                background_clusters=16,
            ),
        )
        wrapper = LoopDetector(inner)
        assert wrapper.clean_activations(inner_source[0].image) is None
        image = inner_source[0].image
        mask = _sparse_masks(image.shape, seed=11)[0]
        expected = wrapper.predict(np.clip(image + mask, 0.0, 255.0))
        _assert_same_prediction(expected, wrapper.predict_delta(image, mask))

        # A population evaluated with the activation cache requested takes
        # the same dense route as one evaluated without it.
        from repro.core.objectives import ButterflyObjectives

        masks = np.stack(_sparse_masks(image.shape, seed=12), axis=0)
        cached = ButterflyObjectives(wrapper, image, use_activation_cache=True)
        assert cached.clean_activations is None
        plain = ButterflyObjectives(wrapper, image, use_activation_cache=False)
        assert np.array_equal(
            cached.evaluate_population(masks), plain.evaluate_population(masks)
        )
