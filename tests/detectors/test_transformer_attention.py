"""The transformer's attention at a size where a full score matrix is large.

At 192x640 the grid has 1920 tokens, so one (tokens, tokens) float64 score
matrix is 28 MiB and the blocked kernel runs 29 row blocks per image.  The
forward pass must never hold such a matrix (the peak allocation stays far
below one stack of them), and the full matrix that
:meth:`TransformerDetector.attention_matrix` builds for analysis must be the
one the forward pass applies.
"""

import tracemalloc

import numpy as np
import pytest

from repro.data.dataset import generate_dataset

#: Peak traced allocation allowed for one call.  A (2, 1920, 1920) score
#: stack alone is 56 MiB; the route built on it peaked at 171 MiB
#: (``predict_batch``, 2 scenes) and 343 MiB (``predict_delta_batch``,
#: 4 masks).
PEAK_BYTES = 64 * 2**20


@pytest.fixture(scope="module")
def scenes():
    dataset = generate_dataset(num_images=2, seed=11, image_length=192, image_width=640)
    return np.stack([dataset[i].image for i in range(2)], axis=0)


def _peak_bytes(call):
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def _boxes(prediction):
    return [(b.cl, b.x, b.y, b.l, b.w, b.score) for b in prediction]


def _sparse_masks(shape, count):
    masks = np.zeros((count,) + shape)
    rng = np.random.default_rng(3)
    for index in range(count):
        r0, c0 = 20 + 30 * index, 340 + 60 * index
        masks[index, r0 : r0 + 12, c0 : c0 + 20] = rng.integers(
            -255, 256, size=(12, 20, shape[2])
        )
    return masks


def test_predict_batch_peak_allocation(detr_detector, scenes):
    detr_detector.predict(scenes[0])  # caches the positional encoding first
    peak, predictions = _peak_bytes(lambda: detr_detector.predict_batch(scenes))
    assert len(predictions) == 2
    assert peak <= PEAK_BYTES, f"peak {peak / 2**20:.0f} MiB"


def test_predict_delta_batch_peak_allocation(detr_detector, scenes):
    image = scenes[0]
    clean = detr_detector.clean_activations(image)
    masks = _sparse_masks(image.shape, 4)
    peak, predictions = _peak_bytes(
        lambda: detr_detector.predict_delta_batch(image, masks, clean=clean)
    )
    expected = detr_detector.predict_batch(np.clip(image[None] + masks, 0.0, 255.0))
    assert [_boxes(p) for p in predictions] == [_boxes(p) for p in expected]
    assert peak <= PEAK_BYTES, f"peak {peak / 2**20:.0f} MiB"


def test_attention_matrix_is_the_mixing_the_detector_applies(detr_detector, scenes):
    image = scenes[1]
    raw = detr_detector.extractor(image)
    flat = raw.reshape(-1, raw.shape[-1])
    weights = detr_detector.attention_matrix(image)
    alpha = detr_detector.attention_mix
    expected = (1.0 - alpha) * flat + alpha * (weights @ flat)
    actual = detr_detector.backbone_features(image).reshape(flat.shape)
    np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-14)
