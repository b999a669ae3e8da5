"""Evaluation-fidelity layer: config semantics, routing and error bounds.

A :class:`~repro.detectors.fidelity.FidelityConfig` is a *permission to
approximate*: exact requests (``None`` or ``EXACT_FIDELITY``) must route
through the literal exact code path bit-identically, the windowed transformer
recompute must stay within small error bounds of the exact forward, and
detectors without an approximate mode (the single-stage one) must answer
bit-exactly.  The transformer bounds are tolerances, not bit-equality — BLAS
blocking makes row-subset matmuls legitimately differ in the last ulps from
sliced full products.
"""

import numpy as np
import pytest

from repro.detectors import (
    EXACT_FIDELITY,
    FIDELITY_PRESETS,
    FidelityConfig,
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

    def test_presets_are_resolvable_by_name(self):
        for name in FIDELITY_PRESETS:
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
            FidelityConfig(name="bad", attention_window=-1)

    def test_windowed_tag_is_value_derived(self):
        windowed = FIDELITY_PRESETS["windowed"]
        assert not windowed.is_exact
        assert windowed.tag == "w2"
        assert FidelityConfig(name="alias", attention_window=2).tag == windowed.tag
        assert FidelityConfig(name="dirty-only", attention_window=0).tag == "w0"

    def test_tags_distinguish_presets(self):
        tags = {config.tag for config in FIDELITY_PRESETS.values()}
        assert len(tags) == len(FIDELITY_PRESETS)


class TestExactRouting:
    """Exact fidelity must be a bit-identical alias of the exact path."""

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


#: The windowed preset plus custom refresh radii around it (``0`` refreshes
#: only the dirty cells, the tightest approximation the knob allows).
WINDOWED_FIDELITIES = {
    "windowed": FIDELITY_PRESETS["windowed"],
    "w0": FidelityConfig(name="w0", attention_window=0),
    "w1": FidelityConfig(name="w1", attention_window=1),
    "w4": FidelityConfig(name="w4", attention_window=4),
}


class TestApproximateBounds:
    """The windowed fidelity stays close to the exact forward."""

    @pytest.mark.parametrize("name", sorted(WINDOWED_FIDELITIES))
    def test_delta_batch_boxes_close_to_exact(self, detector, small_dataset, name):
        image = small_dataset[0].image
        clean = detector.clean_activations(image)
        masks = _patch_masks(image.shape, seed=3, count=8)
        exact = detector.predict_delta_batch(image, masks, clean=clean)
        approx = detector.predict_delta_batch(
            image, masks, clean=clean, fidelity=WINDOWED_FIDELITIES[name]
        )
        if detector.architecture == "single_stage":
            # No attention to window: the single-stage path stays exact.
            _assert_same_predictions(exact, approx)
        else:
            _close_boxes(exact, approx, atol=1.5)

    def test_zero_mask_answers_clean_prediction(self, detector, small_dataset):
        image = small_dataset[0].image
        clean = detector.clean_activations(image)
        masks = np.zeros((2,) + image.shape, dtype=np.float64)
        masks[1] = _patch_masks(image.shape, seed=5, count=1)[0]
        approx = detector.predict_delta_batch(
            image, masks, clean=clean, fidelity=FIDELITY_PRESETS["windowed"]
        )
        assert approx[0] is clean.prediction

    def test_grid_covering_window_matches_exact(self, detr_detector, small_dataset):
        """A window that spans the token grid refreshes every attention row,
        so the windowed recompute is the exact forward up to BLAS round-off."""
        image = small_dataset[0].image
        clean = detr_detector.clean_activations(image)
        masks = _patch_masks(image.shape, seed=9, count=4)
        radius = max(detr_detector.extractor.grid_shape(image))
        exact = detr_detector.predict_delta_batch(image, masks, clean=clean)
        approx = detr_detector.predict_delta_batch(
            image,
            masks,
            clean=clean,
            fidelity=FidelityConfig(name="full", attention_window=radius),
        )
        _close_boxes(exact, approx, atol=1e-6)
        for prediction_left, prediction_right in zip(exact, approx):
            scores_left = [box.score for box in prediction_left]
            scores_right = [box.score for box in prediction_right]
            assert np.allclose(scores_left, scores_right, rtol=0.0, atol=1e-9)


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

    def test_fidelity_state_is_built_once(self, detr_detector, small_dataset):
        """The bundle's attention state is built once and then reused."""
        image = small_dataset[0].image
        clean = detr_detector.clean_activations(image)
        assert clean.fidelity_state is None
        masks = _patch_masks(image.shape, seed=7, count=2)
        detr_detector.predict_delta_batch(
            image, masks, clean=clean, fidelity=FIDELITY_PRESETS["windowed"]
        )
        state = clean.fidelity_state
        assert state is not None
        detr_detector.predict_delta_batch(
            image, masks, clean=clean, fidelity=FIDELITY_PRESETS["windowed"]
        )
        assert clean.fidelity_state is state

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
            detr_detector._fidelity_state(clean),
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
