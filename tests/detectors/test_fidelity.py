"""Evaluation-fidelity layer: config semantics, routing and error bounds.

A :class:`~repro.detectors.fidelity.FidelityConfig` is a *permission to
approximate*: exact requests (``None`` or ``EXACT_FIDELITY``) must route
through the literal exact code path bit-identically, approximate requests
must stay within small error bounds of the exact forward, and detectors
without an approximate mode must silently answer exactly.  The bounds
here are tolerances, not bit-equality — BLAS blocking makes row-subset
matmuls legitimately differ in the last ulps from sliced full products.
"""

import numpy as np
import pytest

from repro.detectors import (
    EXACT_FIDELITY,
    FIDELITY_PRESETS,
    FidelityConfig,
    fidelity_names,
    resolve_fidelity,
)


def _assert_same_predictions(expected, actual):
    """Bit-identical box lists across two lists of predictions."""
    assert len(expected) == len(actual)
    for prediction_left, prediction_right in zip(expected, actual):
        assert len(prediction_left) == len(prediction_right)
        for left, right in zip(prediction_left, prediction_right):
            assert (left.cl, left.x, left.y, left.l, left.w, left.score) == (
                right.cl,
                right.x,
                right.y,
                right.l,
                right.w,
                right.score,
            )


def _close_boxes(expected, actual, atol):
    """Same box counts and classes; centre coordinates within a budget."""
    assert len(expected) == len(actual)
    for prediction_left, prediction_right in zip(expected, actual):
        assert len(prediction_left) == len(prediction_right)
        for left, right in zip(prediction_left, prediction_right):
            assert left.cl == right.cl
            assert abs(left.x - right.x) <= atol
            assert abs(left.y - right.y) <= atol


def _patch_masks(image_shape, seed=0, count=6, patch=(3, 5)):
    rng = np.random.default_rng(seed)
    length, width = image_shape[0], image_shape[1]
    masks = np.zeros((count,) + tuple(image_shape), dtype=np.float64)
    for index in range(count):
        r = int(rng.integers(0, length - patch[0]))
        c = int(rng.integers(0, width - patch[1]))
        masks[index, r : r + patch[0], c : c + patch[1]] = rng.integers(
            -255, 256, size=patch + (image_shape[2],)
        )
    return masks


@pytest.fixture(params=["yolo", "detr"])
def detector(request, yolo_detector, detr_detector):
    return yolo_detector if request.param == "yolo" else detr_detector


class TestFidelityConfig:
    def test_exact_tag_and_flags(self):
        assert EXACT_FIDELITY.is_exact
        assert EXACT_FIDELITY.tag == "exact"
        assert EXACT_FIDELITY.numpy_dtype == np.float64

    def test_presets_are_resolvable_by_name(self):
        for name in fidelity_names():
            config = resolve_fidelity(name)
            assert isinstance(config, FidelityConfig)
            assert FIDELITY_PRESETS[name] == config

    def test_resolve_accepts_none_and_instances(self):
        assert resolve_fidelity(None) == EXACT_FIDELITY
        windowed = FIDELITY_PRESETS["windowed"]
        assert resolve_fidelity(windowed) is windowed

    def test_resolve_unknown_name_lists_presets(self):
        with pytest.raises(ValueError, match="exact"):
            resolve_fidelity("warp-speed")

    def test_validation(self):
        with pytest.raises(ValueError):
            FidelityConfig(name="bad", dtype="float16")
        with pytest.raises(ValueError):
            FidelityConfig(name="bad", attention_window=-1)
        with pytest.raises(ValueError):
            FidelityConfig(name="bad", scene_scale=0)

    def test_tags_distinguish_presets(self):
        tags = {FIDELITY_PRESETS[name].tag for name in fidelity_names()}
        assert len(tags) == len(fidelity_names())


class TestExactRouting:
    """Exact fidelity must be a bit-identical alias of the exact path."""

    def test_predict_batch_at_exact_is_bit_identical(self, detector, small_dataset):
        image = small_dataset[0].image
        masks = _patch_masks(image.shape, seed=1)
        perturbed = np.clip(image[None] + masks, 0.0, 255.0)
        for fidelity in (None, EXACT_FIDELITY):
            _assert_same_predictions(
                detector.predict_batch(perturbed),
                detector.predict_batch_at(perturbed, fidelity),
            )

    def test_predict_delta_batch_exact_fidelity_bit_identical(
        self, detector, small_dataset
    ):
        image = small_dataset[0].image
        clean = detector.clean_activations(image)
        masks = _patch_masks(image.shape, seed=2)
        expected = detector.predict_delta_batch(image, masks, clean=clean)
        actual = detector.predict_delta_batch(
            image, masks, clean=clean, fidelity=EXACT_FIDELITY
        )
        _assert_same_predictions(expected, actual)


class TestApproximateBounds:
    """Approximate fidelities stay close to the exact forward."""

    @pytest.mark.parametrize("name", ["windowed", "float32", "turbo"])
    def test_delta_batch_boxes_close_to_exact(self, detector, small_dataset, name):
        image = small_dataset[0].image
        clean = detector.clean_activations(image)
        masks = _patch_masks(image.shape, seed=3, count=8)
        exact = detector.predict_delta_batch(image, masks, clean=clean)
        approx = detector.predict_delta_batch(
            image, masks, clean=clean, fidelity=FIDELITY_PRESETS[name]
        )
        _close_boxes(exact, approx, atol=1.5)

    def test_float32_dense_batch_close_to_exact(self, detector, small_dataset):
        image = small_dataset[0].image
        masks = _patch_masks(image.shape, seed=4, count=4)
        perturbed = np.clip(image[None] + masks, 0.0, 255.0)
        exact = detector.predict_batch(perturbed)
        approx = detector.predict_batch_at(perturbed, FIDELITY_PRESETS["float32"])
        _close_boxes(exact, approx, atol=1.5)

    def test_zero_mask_answers_clean_prediction(self, detector, small_dataset):
        image = small_dataset[0].image
        clean = detector.clean_activations(image)
        masks = np.zeros((2,) + image.shape, dtype=np.float64)
        masks[1] = _patch_masks(image.shape, seed=5, count=1)[0]
        approx = detector.predict_delta_batch(
            image, masks, clean=clean, fidelity=FIDELITY_PRESETS["turbo"]
        )
        assert approx[0] is clean.prediction


class TestTransformerWindowedInternals:
    def test_grouped_batch_matches_per_mask_route(self, detr_detector, small_dataset):
        """One mask per call and the grouped batch agree bit-for-bat.

        Grouping by (dirty, window) shape only batches the linear algebra;
        both routes share the same windowed approximation, so for a batch
        of identically-shaped patches the results must agree to float
        round-off of the batched BLAS calls (here: exact box agreement).
        """
        image = small_dataset[0].image
        clean = detr_detector.clean_activations(image)
        masks = _patch_masks(image.shape, seed=6, count=6)
        fidelity = FIDELITY_PRESETS["windowed"]
        batched = detr_detector.predict_delta_batch(
            image, masks, clean=clean, fidelity=fidelity
        )
        for index in range(masks.shape[0]):
            single = detr_detector.predict_delta_batch(
                image, masks[index : index + 1], clean=clean, fidelity=fidelity
            )
            _close_boxes([batched[index]], single, atol=1e-6)

    def test_fidelity_state_is_cached_per_dtype(self, detr_detector, small_dataset):
        image = small_dataset[0].image
        clean = detr_detector.clean_activations(image)
        masks = _patch_masks(image.shape, seed=7, count=2)
        detr_detector.predict_delta_batch(
            image, masks, clean=clean, fidelity=FIDELITY_PRESETS["windowed"]
        )
        assert "attn:float64" in clean.fidelity_state
        detr_detector.predict_delta_batch(
            image, masks, clean=clean, fidelity=FIDELITY_PRESETS["turbo"]
        )
        assert "attn:float32" in clean.fidelity_state

    def test_windowed_features_close_to_exact_blend(self, detr_detector, small_dataset):
        """The approximate blended feature grid tracks the exact one."""
        image = small_dataset[0].image
        clean = detr_detector.clean_activations(image)
        mask = _patch_masks(image.shape, seed=8, count=1)[0]
        perturbed = np.clip(image + mask, 0.0, 255.0)
        exact_grid = detr_detector.backbone_features(perturbed)
        from repro.nn.incremental import mask_nonzero_bbox

        fidelity = FIDELITY_PRESETS["windowed"]
        member = detr_detector._approx_window(image, mask_nonzero_bbox(mask), fidelity)
        blended = detr_detector._approx_windowed_group(
            image,
            mask[None, ...],
            [(0, 0, *member)],
            detr_detector._fidelity_state(clean, fidelity.numpy_dtype),
            fidelity,
        )
        approx_grid = blended[0].reshape(exact_grid.shape)
        assert approx_grid is not None
        assert np.max(np.abs(approx_grid - exact_grid)) < 1e-2


class TestDeltaStoreBypass:
    def test_approximate_fidelity_never_touches_delta_store(
        self, detr_detector, small_dataset
    ):
        """Approximate evaluations must not read or write stored exact
        activations — stored predictions are exact-only."""
        from repro.detectors.activation_cache import DeltaActivationStore

        image = small_dataset[0].image
        clean = detr_detector.clean_activations(image)
        clean.delta = DeltaActivationStore(max_entries=8)
        masks = _patch_masks(image.shape, seed=9, count=3)
        ancestry = [
            {"fingerprint": bytes([index]), "ancestor": None, "diff_bound": None}
            for index in range(masks.shape[0])
        ]
        detr_detector.predict_delta_batch(
            image,
            masks,
            clean=clean,
            ancestry=ancestry,
            fidelity=FIDELITY_PRESETS["windowed"],
        )
        assert len(clean.delta) == 0
        assert clean.delta.hits == 0 and clean.delta.misses == 0
