"""Unit tests for the dirty-region geometry and windowed filter kernels.

The incremental inference path splices windowed recomputations into cached
clean activations, so every windowed kernel must match the corresponding
window of the full-image filter **bit for bit** — asserted here with exact
array equality on random inputs, interior windows and windows touching the
image borders (where the symmetric-reflection halo kicks in).
"""

import numpy as np
import pytest

from repro.nn.conv import avg_pool, box_filter, gradient_magnitude, std_pool
from repro.nn.incremental import (
    EMPTY_BBOX,
    bbox_area,
    bbox_area_fraction,
    bbox_intersection,
    bbox_is_empty,
    bbox_union,
    box_filter_window,
    box_filter_window_channels,
    dilate_bbox,
    gather_window,
    gradient_magnitude_window,
    mask_nonzero_bbox,
    pixel_bbox_to_cell_bbox,
    reflected_span,
)


def reflect_indices(start: int, stop: int, size: int) -> np.ndarray:
    """Indices ``start..stop`` mapped into ``[0, size)`` by symmetric reflection.

    The fancy-index reference for :func:`gather_window`: gathering
    ``a[reflect_indices(...)]`` equals slicing ``np.pad(a, pad,
    mode="symmetric")`` for arbitrary overshoot, including windows wider
    than the array.
    """
    indices = np.mod(np.arange(start, stop), 2 * size)
    return np.where(indices >= size, 2 * size - 1 - indices, indices)


def reference_gather(array, row_range, col_range):
    """``gather_window`` by fancy indexing with reflected indices."""
    rows = reflect_indices(*row_range, array.shape[0])
    cols = reflect_indices(*col_range, array.shape[1])
    return array[np.ix_(rows, cols)]


class TestBBoxGeometry:
    def test_empty_detection(self):
        assert bbox_is_empty(EMPTY_BBOX)
        assert bbox_is_empty((3, 3, 0, 5))
        assert not bbox_is_empty((0, 1, 0, 1))
        assert not bbox_is_empty(None)  # None means unknown, not empty

    def test_area(self):
        assert bbox_area((2, 5, 1, 4)) == 9
        assert bbox_area(EMPTY_BBOX) == 0
        assert bbox_area(None) == 0

    def test_union(self):
        assert bbox_union((0, 2, 0, 2), (1, 4, 3, 5)) == (0, 4, 0, 5)
        assert bbox_union(EMPTY_BBOX, (1, 2, 1, 2)) == (1, 2, 1, 2)
        assert bbox_union((1, 2, 1, 2), EMPTY_BBOX) == (1, 2, 1, 2)
        assert bbox_union(None, (1, 2, 1, 2)) is None  # unknown is absorbing
        assert bbox_union((1, 2, 1, 2), None) is None

    def test_intersection(self):
        assert bbox_intersection((0, 4, 0, 4), (2, 6, 1, 3)) == (2, 4, 1, 3)
        assert bbox_intersection((0, 2, 0, 2), (3, 5, 3, 5)) == EMPTY_BBOX
        # None (unknown = whole plane) is neutral for intersection.
        assert bbox_intersection(None, (1, 2, 1, 2)) == (1, 2, 1, 2)
        assert bbox_intersection((1, 2, 1, 2), None) == (1, 2, 1, 2)

    def test_dilate_clips_to_shape(self):
        assert dilate_bbox((2, 4, 3, 5), 2, (6, 6)) == (0, 6, 1, 6)
        assert dilate_bbox(EMPTY_BBOX, 3, (6, 6)) == EMPTY_BBOX

    def test_area_fraction(self):
        assert bbox_area_fraction((0, 2, 0, 2), (4, 4)) == pytest.approx(0.25)
        assert bbox_area_fraction(None, (4, 4)) == 1.0

    def test_pixel_to_cell_bbox(self):
        # Pixels 3..9 with cell 4 touch cells 0..2 (half-open 0..3).
        assert pixel_bbox_to_cell_bbox((3, 10, 0, 4), 4, (4, 4)) == (0, 3, 0, 1)
        # A box entirely in the trailing trimmed margin maps to no cell.
        assert pixel_bbox_to_cell_bbox((17, 18, 0, 1), 4, (4, 4)) == EMPTY_BBOX
        assert pixel_bbox_to_cell_bbox(EMPTY_BBOX, 4, (4, 4)) == EMPTY_BBOX


class TestMaskNonzeroBBox:
    def test_zero_mask(self):
        assert mask_nonzero_bbox(np.zeros((5, 7, 3))) == EMPTY_BBOX

    def test_exact_box(self):
        mask = np.zeros((6, 8, 3))
        mask[2, 3, 1] = 1.0
        mask[4, 6, 0] = -2.0
        assert mask_nonzero_bbox(mask) == (2, 5, 3, 7)

    def test_within_bound_matches_full_scan(self, rng):
        for _ in range(20):
            mask = np.zeros((10, 12, 3))
            r = rng.integers(0, 10)
            c = rng.integers(0, 12)
            mask[r, c] = rng.normal(size=3)
            exact = mask_nonzero_bbox(mask)
            loose = (max(0, r - 2), min(10, r + 3), max(0, c - 3), min(12, c + 4))
            assert mask_nonzero_bbox(mask, within=loose) == exact
            assert mask_nonzero_bbox(mask, within=(0, 10, 0, 12)) == exact

    def test_empty_within_short_circuits(self):
        mask = np.zeros((4, 4, 3))
        assert mask_nonzero_bbox(mask, within=EMPTY_BBOX) == EMPTY_BBOX

    def test_2d_mask(self):
        mask = np.zeros((5, 5))
        mask[1, 2] = 3.0
        assert mask_nonzero_bbox(mask) == (1, 2, 2, 3)


class TestGatherWindow:
    def test_reflect_indices_match_numpy_pad(self):
        for size in (1, 2, 3, 7):
            array = np.arange(size, dtype=np.float64)
            for pad in (1, 2, 3, size, 2 * size + 1):
                padded = np.pad(array, pad, mode="symmetric")
                gathered = array[reflect_indices(-pad, size + pad, size)]
                assert np.array_equal(gathered, padded)

    def test_in_bounds_is_plain_slice(self, rng):
        array = rng.normal(size=(6, 7))
        window = gather_window(array, (1, 4), (2, 6))
        assert np.array_equal(window, array[1:4, 2:6])

    def test_out_of_bounds_matches_padded_slice(self, rng):
        array = rng.normal(size=(5, 6, 3))
        pad = 2
        padded = np.pad(array, ((pad, pad), (pad, pad), (0, 0)), mode="symmetric")
        window = gather_window(array, (-2, 3), (4, 8))
        assert np.array_equal(window, padded[0 : pad + 3, 4 + pad : 8 + pad])

    def test_matches_reflected_index_gather_for_any_window(self, rng):
        # Windows that overshoot by more than the array, that lie wholly
        # outside it or that span it several times all reflect like the
        # fancy-index reference.
        array = rng.normal(size=(4, 5, 3))
        for start, stop in [(-9, -2), (-1, 1), (-6, 11), (2, 3), (3, 14), (7, 9)]:
            for col_range in [(-11, 0), (0, 5), (4, 6), (-3, 17)]:
                assert np.array_equal(
                    gather_window(array, (start, stop), col_range),
                    reference_gather(array, (start, stop), col_range),
                )

    def test_reflected_span_of_in_range_span_is_the_span(self):
        assert reflected_span(2, 5, 7) == (slice(2, 5), (0, 0), slice(0, 3))


def _random_bboxes(shape, rng, count=8):
    """Random half-open boxes inside ``shape``, including border-touching ones."""
    boxes = [(0, shape[0], 0, shape[1]), (0, 2, 0, 2)]
    for _ in range(count):
        r0 = int(rng.integers(0, shape[0]))
        r1 = int(rng.integers(r0 + 1, shape[0] + 1))
        c0 = int(rng.integers(0, shape[1]))
        c1 = int(rng.integers(c0 + 1, shape[1] + 1))
        boxes.append((r0, r1, c0, c1))
    return boxes


class TestWindowedKernels:
    @pytest.mark.parametrize("size", [1, 3, 5])
    def test_box_filter_window_matches_full(self, size, rng):
        array = rng.normal(size=(12, 17))
        full = box_filter(array, size)
        for bbox in _random_bboxes(array.shape, rng):
            r0, r1, c0, c1 = bbox
            assert np.array_equal(
                box_filter_window(array, size, bbox), full[r0:r1, c0:c1]
            )

    def test_box_filter_window_rejects_even_sizes(self, rng):
        with pytest.raises(ValueError):
            box_filter_window(rng.normal(size=(8, 8)), 2, (0, 4, 0, 4))

    @pytest.mark.parametrize("size", [3, 5])
    def test_box_filter_window_channels_matches_full(self, size, rng):
        grid = rng.normal(size=(9, 11, 7))
        full = np.stack(
            [box_filter(grid[:, :, d], size) for d in range(grid.shape[2])], axis=-1
        )
        for bbox in _random_bboxes(grid.shape[:2], rng):
            r0, r1, c0, c1 = bbox
            assert np.array_equal(
                box_filter_window_channels(grid, size, bbox),
                full[r0:r1, c0:c1],
            )

    def test_gradient_magnitude_window_matches_full(self, rng):
        image = rng.uniform(0.0, 1.0, size=(14, 19, 3))
        full = gradient_magnitude(image)
        for bbox in _random_bboxes(image.shape[:2], rng):
            r0, r1, c0, c1 = bbox
            window = gather_window(image, (r0 - 1, r1 + 1), (c0 - 1, c1 + 1))
            assert np.array_equal(
                gradient_magnitude_window(window), full[r0:r1, c0:c1]
            )


class TestPoolingWindowProperty:
    """Pooling a cell-aligned window equals slicing the pooled full image.

    This is the fixed-accumulation-order property the dirty-region splice
    relies on (``_block_sum`` accumulates per block independently of the
    array extent).
    """

    @pytest.mark.parametrize("cell", [2, 4, 8])
    def test_avg_pool_window(self, cell, rng):
        image = rng.uniform(0.0, 255.0, size=(4 * cell, 6 * cell, 3))
        full = avg_pool(image, cell)
        window = image[cell : 3 * cell, 2 * cell : 5 * cell]
        assert np.array_equal(avg_pool(window, cell), full[1:3, 2:5])

    @pytest.mark.parametrize("cell", [2, 4, 8])
    def test_std_pool_window(self, cell, rng):
        image = rng.uniform(0.0, 255.0, size=(4 * cell, 6 * cell, 3))
        full = std_pool(image, cell)
        window = image[cell : 3 * cell, 2 * cell : 5 * cell]
        assert np.array_equal(std_pool(window, cell), full[1:3, 2:5])
