"""The one evaluation route of ``predict_delta_batch`` and its speed knobs.

Every mask takes the exact route: an empty dirty region answers from the
clean prediction, a sparse one is spliced against the clean bundle or a
stored ancestor, a dense one runs the stacked forward pass.  The routing
thresholds and chunk sizes only change speed, so every setting must give
predictions bit-identical to :meth:`predict` on the perturbed image.  The
splice hook is an explicit three-argument protocol, and the evaluation
fidelity layer that used to sit beside it is gone.
"""

import importlib

import numpy as np
import pytest

from repro.detectors.activation_cache import DeltaActivationStore
from repro.detectors.base import Detector
from repro.nn.incremental import masks_differ_bbox


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


def _assert_same_predictions(expected, actual):
    assert len(expected) == len(actual)
    for left, right in zip(expected, actual):
        _assert_same_prediction(left, right)


def _patch(shape, window, seed):
    mask = np.zeros(shape, dtype=np.float64)
    r0, r1, c0, c1 = window
    mask[r0:r1, c0:c1] = np.random.default_rng(seed).integers(
        -255, 256, size=(r1 - r0, c1 - c0, shape[2])
    )
    return mask


def _sparse_stack(shape):
    """A zero mask plus sparse patches of assorted sizes and positions."""
    length, width = shape[0], shape[1]
    windows = [
        (0, 3, 0, 4),
        (5, 11, 30, 41),
        (20, 21, 100, 101),
        (length - 6, length, width - 9, width),
        (30, 44, 60, 90),
        (0, length, 150, 153),
        (40, 42, 0, width),
    ]
    masks = [np.zeros(shape)]
    masks += [_patch(shape, window, seed) for seed, window in enumerate(windows)]
    return np.stack(masks, axis=0)


def _dense_reference(detector, image, masks):
    return detector.predict_batch(np.clip(image[None] + masks, 0.0, 255.0))


@pytest.fixture(params=["yolo", "detr"])
def detector(request, yolo_detector, detr_detector):
    return yolo_detector if request.param == "yolo" else detr_detector


class TestSpeedKnobsNeverChangeResults:
    @pytest.mark.parametrize("chunk", [1, 2, 3, 16])
    def test_transformer_delta_batch_chunk(
        self, detr_detector, small_dataset, monkeypatch, chunk
    ):
        """The spliced grids' attention and head run in chunks of
        ``delta_batch_chunk``; every chunk size gives the same predictions."""
        image = small_dataset[0].image
        clean = detr_detector.clean_activations(image)
        masks = _sparse_stack(image.shape)
        expected = _dense_reference(detr_detector, image, masks)
        monkeypatch.setattr(detr_detector, "delta_batch_chunk", chunk)
        actual = detr_detector.predict_delta_batch(image, masks, clean=clean)
        _assert_same_predictions(expected, actual)

    @pytest.mark.parametrize("fraction", [0.0, 0.02, 1.0])
    def test_dense_fraction_threshold(
        self, detector, small_dataset, monkeypatch, fraction
    ):
        """``0.0`` sends every nonzero mask through the dense forward pass,
        ``1.0`` splices every one (the full-image mask included); the
        threshold only moves masks between two bit-identical routes."""
        image = small_dataset[0].image
        clean = detector.clean_activations(image)
        dense = np.random.default_rng(9).integers(-30, 31, size=image.shape)
        masks = np.concatenate(
            [_sparse_stack(image.shape), dense[None].astype(np.float64)], axis=0
        )
        expected = _dense_reference(detector, image, masks)
        monkeypatch.setattr(detector, "incremental_dense_fraction", fraction)
        actual = detector.predict_delta_batch(image, masks, clean=clean)
        _assert_same_predictions(expected, actual)
        assert actual[0] is clean.prediction


def _every_route(image_shape):
    """A parent mask, then one batch that takes every route of the exact
    path: empty, clean splice, ancestor splice, stored hit and dense."""
    parent = _patch(image_shape, (10, 20, 30, 60), 41)
    child = parent.copy()
    child[12:14, 40:44] += 17.0
    fresh = _patch(image_shape, (40, 46, 150, 170), 42)
    dense = (
        np.random.default_rng(43).integers(-30, 31, size=image_shape).astype(float)
    )
    batch = np.stack([np.zeros(image_shape), fresh, child, parent.copy(), dense])
    ancestry = [
        None,
        {"fingerprint": b"fresh", "ancestor": None, "diff_bound": None},
        {
            "fingerprint": b"child",
            "ancestor": b"parent",
            "diff_bound": masks_differ_bbox(child, parent),
        },
        {
            "fingerprint": b"twin",
            "ancestor": b"parent",
            "diff_bound": masks_differ_bbox(parent, parent),
        },
        {"fingerprint": b"dense", "ancestor": None, "diff_bound": None},
    ]
    return parent, batch, ancestry


class TestOneBatchEveryRoute:
    @staticmethod
    def _run(detector, image):
        parent, batch, ancestry = _every_route(image.shape)
        clean = detector.clean_activations(image)
        clean.delta = DeltaActivationStore(max_entries=8)
        stored_parent = detector.predict_delta_batch(
            image,
            parent[None],
            clean=clean,
            ancestry=[{"fingerprint": b"parent", "ancestor": None, "diff_bound": None}],
        )[0]
        predictions = detector.predict_delta_batch(
            image, batch, clean=clean, ancestry=ancestry
        )
        return clean, batch, stored_parent, predictions

    def test_every_member_bit_identical_to_predict(self, detector, small_dataset):
        image = small_dataset[0].image
        clean, batch, stored_parent, predictions = self._run(detector, image)
        _assert_same_predictions(_dense_reference(detector, image, batch), predictions)
        assert predictions[0] is clean.prediction
        # The twin of the stored parent answers from the stored prediction.
        assert predictions[3] is stored_parent
        assert clean.delta.hits == 2  # the child and the twin

    def test_only_spliced_members_are_stored(self, detector, small_dataset):
        """Spliced grids are memoised under their fingerprint; the empty,
        stored-hit and dense members have no spliced grids to store."""
        image = small_dataset[0].image
        clean, _, _, _ = self._run(detector, image)
        assert len(clean.delta) == 3
        for key in (b"parent", b"fresh", b"child"):
            assert clean.delta.get(key) is not None
        for key in (b"twin", b"dense"):
            assert clean.delta.get(key) is None


class _Wrapper(Detector):
    """Delegates the forward passes and clean bundle to a real detector."""

    architecture = "wrapper"

    def __init__(self, inner):
        super().__init__(inner.config, inner.seed)
        self.inner = inner

    def backbone_features(self, image):
        return self.inner.backbone_features(image)

    def predict(self, image):
        return self.inner.predict(image)

    def predict_batch(self, images):
        return self.inner.predict_batch(images)

    def clean_activations(self, image):
        return self.inner.clean_activations(image)


class _RecordingWrapper(_Wrapper):
    def __init__(self, inner):
        super().__init__(inner)
        self.calls = []

    def _splice_batch(self, image, masks, items):
        self.calls.append([index for index, *_ in items])
        return self.inner._splice_batch(image, masks, items)


class TestSpliceHook:
    def test_three_argument_hook_gets_every_sparse_member_in_one_call(
        self, detector, small_dataset
    ):
        image = small_dataset[0].image
        wrapper = _RecordingWrapper(detector)
        dense = np.random.default_rng(5).integers(-30, 31, size=image.shape)
        masks = np.concatenate(
            [_sparse_stack(image.shape), dense[None].astype(np.float64)], axis=0
        )
        actual = wrapper.predict_delta_batch(
            image, masks, clean=wrapper.clean_activations(image)
        )
        _assert_same_predictions(_dense_reference(detector, image, masks), actual)
        # The zero mask (0) and the dense mask (last) never reach the hook.
        assert wrapper.calls == [list(range(1, masks.shape[0] - 1))]

    def test_bundle_without_hook_raises(self, yolo_detector, small_dataset):
        image = small_dataset[0].image
        wrapper = _Wrapper(yolo_detector)
        mask = _patch(image.shape, (10, 14, 30, 40), 6)
        with pytest.raises(NotImplementedError, match="_splice_batch"):
            wrapper.predict_delta_batch(
                image, mask[None], clean=wrapper.clean_activations(image)
            )


class TestFidelityLayerIsGone:
    def test_predict_delta_batch_takes_no_fidelity(self, detector, small_dataset):
        image = small_dataset[0].image
        with pytest.raises(TypeError, match="fidelity"):
            detector.predict_delta_batch(
                image, np.zeros((1,) + image.shape), fidelity=None
            )

    def test_no_fidelity_module_or_exports(self):
        import repro.detectors as detectors

        for name in (
            "FidelityConfig",
            "EXACT_FIDELITY",
            "FIDELITY_PRESETS",
            "resolve_fidelity",
        ):
            assert not hasattr(detectors, name)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.detectors.fidelity")
