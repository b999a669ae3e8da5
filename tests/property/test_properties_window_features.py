"""Property suite: the windowed feature path equals the full extraction.

The incremental route recomputes only a cell window of the perturbed image
and splices it into cached grids, so
``GridFeatureExtractor.window_features(image, mask, window)`` must equal
``extractor(clip(image + mask, 0, 255))[window]`` bit for bit — compared
here as ``uint64`` views, so ``-0.0`` against ``+0.0`` counts as a
difference.  The draws cover image sizes that leave trailing rows and
columns outside the cell grid, 1x1 grids, cell sizes 1, 2, 3 and 8,
normalisation on and off, ``int16`` masks and float64 masks holding
``-0.0``, values that clip at 0 and at 255, and windows at every position
of the grid, the four borders included.  The two kernels the window path
is built from — the reflected gather and the Sobel magnitude of a window
with its halo — are checked against their full-image references too.

No test sets ``max_examples``: the active Hypothesis profile sets the
count (``--hypothesis-profile=ci`` runs ten times the default, see
``tests/conftest.py``).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.conv import gradient_magnitude
from repro.nn.features import GridFeatureExtractor
from repro.nn.incremental import gather_window, gradient_magnitude_window


def _bits(array):
    return np.ascontiguousarray(array).view(np.uint64)


@st.composite
def perturbed_scenes(draw):
    """An image, a mask, an extractor and a cell window of its grid."""
    cell = draw(st.sampled_from([1, 2, 3, 8]))
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 8))
    length = rows * cell + draw(st.integers(0, cell - 1))
    width = cols * cell + draw(st.integers(0, cell - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    image = rng.integers(0, 256, size=(length, width, 3)).astype(np.float64)
    image += rng.choice([0.0, 0.25, 0.5], size=image.shape)
    np.clip(image, 0.0, 255.0, out=image)
    # Masks reach past both clip limits from anywhere in the image.
    mask = rng.integers(-300, 301, size=image.shape)
    if draw(st.booleans()):
        mask = mask.astype(np.int16)
    else:
        mask = mask.astype(np.float64)
        mask[rng.random(mask.shape) < 0.4] = -0.0
        image[rng.random(image.shape) < 0.2] = 0.0
    r0 = draw(st.integers(0, rows - 1))
    r1 = draw(st.integers(r0 + 1, rows))
    c0 = draw(st.integers(0, cols - 1))
    c1 = draw(st.integers(c0 + 1, cols))
    extractor = GridFeatureExtractor(cell=cell, normalize=draw(st.booleans()))
    return extractor, image, mask, (r0, r1, c0, c1)


@st.composite
def arrays_and_windows(draw):
    """A small array and a window that may overshoot it on any side."""
    length = draw(st.integers(1, 9))
    width = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    array = rng.normal(size=(length, width, 3))
    r0 = draw(st.integers(-length - 3, length + 2))
    r1 = draw(st.integers(r0 + 1, r0 + 3 * length + 4))
    c0 = draw(st.integers(-width - 3, width + 2))
    c1 = draw(st.integers(c0 + 1, c0 + 3 * width + 4))
    return array, (r0, r1), (c0, c1)


class TestWindowFeatures:
    @given(perturbed_scenes())
    @settings(deadline=None)
    def test_window_equals_slice_of_full_extraction(self, scene):
        extractor, image, mask, (r0, r1, c0, c1) = scene
        window = extractor.window_features(image, mask, (r0, r1, c0, c1))
        full = extractor(np.clip(image + mask, 0.0, 255.0))
        assert window.shape == (r1 - r0, c1 - c0, 7)
        assert np.array_equal(_bits(window), _bits(full[r0:r1, c0:c1]))

    @given(perturbed_scenes())
    @settings(deadline=None)
    def test_grids_are_c_ordered(self, scene):
        # Downstream reductions (the single-stage detector's global-context
        # mean) sum in memory order, so every route must hand over grids
        # laid out like the full extraction's.
        extractor, image, mask, bbox = scene
        perturbed = np.clip(image + mask, 0.0, 255.0)
        assert extractor.window_features(image, mask, bbox).flags.c_contiguous
        assert extractor(perturbed).flags.c_contiguous
        assert extractor.batch(perturbed[None]).flags.c_contiguous


class TestWindowKernels:
    @given(arrays_and_windows())
    @settings(deadline=None)
    def test_gather_equals_slice_of_padded_array(self, drawn):
        array, (r0, r1), (c0, c1) = drawn
        pad_r = max(0, -r0, r1 - array.shape[0])
        pad_c = max(0, -c0, c1 - array.shape[1])
        padded = np.pad(array, ((pad_r, pad_r), (pad_c, pad_c), (0, 0)), mode="symmetric")
        expected = padded[r0 + pad_r : r1 + pad_r, c0 + pad_c : c1 + pad_c]
        assert np.array_equal(_bits(gather_window(array, (r0, r1), (c0, c1))), _bits(expected))

    @given(perturbed_scenes())
    @settings(deadline=None)
    def test_gradient_window_equals_slice_of_full_gradient(self, scene):
        extractor, image, _, (r0, r1, c0, c1) = scene
        cell = extractor.cell
        p0, p1, q0, q1 = r0 * cell, r1 * cell, c0 * cell, c1 * cell
        window = gather_window(image, (p0 - 1, p1 + 1), (q0 - 1, q1 + 1))
        expected = gradient_magnitude(image)[p0:p1, q0:q1]
        assert np.array_equal(_bits(gradient_magnitude_window(window)), _bits(expected))
