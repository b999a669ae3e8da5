"""Property-based tests for the dirty-region bbox algebra.

The incremental paths splice dilated boxes into cached activations, so
unions must contain their operands, intersections must be exact, dilation
must stay in frame, and the exact diff scan must match a reference scan.
The cross-generation delta-reuse path leans on one more property: a child
genome's diff against its ancestor always lands inside the union of both
exact supports, so scanning only that window gives the full-frame answer.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detectors.activation_cache import DeltaActivations
from repro.nn.incremental import (
    EMPTY_BBOX,
    bbox_area,
    bbox_intersection,
    bbox_is_empty,
    bbox_union,
    dilate_bbox,
    mask_nonzero_bbox,
    masks_differ_bbox,
    support_bbox,
)
from repro.nsga.crossover import one_point_crossover
from repro.nsga.mutation import MutationConfig, mutate

FRAME = (12, 16)


@st.composite
def bboxes(draw, allow_empty=True):
    """Half-open boxes inside FRAME (possibly empty when allowed)."""
    if allow_empty:
        r0 = draw(st.integers(0, FRAME[0]))
        r1 = draw(st.integers(0, FRAME[0]))
        c0 = draw(st.integers(0, FRAME[1]))
        c1 = draw(st.integers(0, FRAME[1]))
        return (r0, r1, c0, c1)
    r0 = draw(st.integers(0, FRAME[0] - 1))
    r1 = draw(st.integers(r0 + 1, FRAME[0]))
    c0 = draw(st.integers(0, FRAME[1] - 1))
    c1 = draw(st.integers(c0 + 1, FRAME[1]))
    return (r0, r1, c0, c1)


def rasterize(bbox):
    """Boolean FRAME plane covered by a box (all-False for empty/None-free)."""
    plane = np.zeros(FRAME, dtype=bool)
    if bbox is None:
        return np.ones(FRAME, dtype=bool)
    if not bbox_is_empty(bbox):
        r0, r1, c0, c1 = bbox
        plane[max(0, r0) : r1, max(0, c0) : c1] = True
    return plane


sparse_masks = st.builds(
    lambda seed, fill: _sparse_mask(seed, fill),
    st.integers(0, 10_000),
    st.floats(0.0, 0.3),
)


def _sparse_mask(seed, fill):
    rng = np.random.default_rng(seed)
    mask = np.zeros(FRAME + (3,), dtype=np.float64)
    select = rng.random(FRAME) < fill
    mask[select] = rng.integers(-255, 256, size=(int(select.sum()), 3))
    return mask


def _entry(mask):
    """A delta-store entry holding ``mask`` as its exact support crop."""
    support = mask_nonzero_bbox(mask)
    r0, r1, c0, c1 = support
    return DeltaActivations(
        mask_window=mask[r0:r1, c0:c1].copy(), pixel_bbox=support, prediction=None
    )


def plane(bbox):
    """A one-channel FRAME mask that is 1 inside ``bbox`` and 0 elsewhere."""
    return rasterize(bbox).astype(np.float64)[..., None]


class TestSymmetricDifference:
    """The exact diff scan of two box masks is their symmetric difference."""

    @given(bboxes(), bboxes())
    @settings(max_examples=200)
    def test_superset_of_rasterized_xor(self, first, second):
        """The scan covers every pixel belonging to exactly one box, tightly."""
        result = masks_differ_bbox(plane(first), plane(second))
        xor = rasterize(first) ^ rasterize(second)
        assert np.all(~xor | rasterize(result))
        assert result == support_bbox(xor)

    @given(bboxes(), bboxes())
    @settings(max_examples=100)
    def test_commutative(self, first, second):
        forward = masks_differ_bbox(plane(first), plane(second))
        backward = masks_differ_bbox(plane(second), plane(first))
        assert forward == backward

    @given(bboxes())
    @settings(max_examples=50)
    def test_self_difference_is_empty(self, box):
        assert masks_differ_bbox(plane(box), plane(box)) == EMPTY_BBOX

    @given(bboxes())
    @settings(max_examples=50)
    def test_empty_is_neutral(self, box):
        result = masks_differ_bbox(plane(EMPTY_BBOX), plane(box))
        assert result == mask_nonzero_bbox(plane(box))
        assert rasterize(result).tobytes() == rasterize(box).tobytes()

    @given(bboxes(), sparse_masks)
    @settings(max_examples=20)
    def test_none_is_absorbing(self, box, mask):
        """An unknown operand makes the scan window unknown, and an unknown
        window scans the whole frame, which still gives the exact diff."""
        assert bbox_union(None, box) is None
        assert bbox_union(box, None) is None
        stored = np.repeat(plane(box), mask.shape[2], axis=2)
        assert _entry(stored).diff_bbox(mask, None) == masks_differ_bbox(
            mask, stored
        )

    @given(bboxes(), bboxes())
    @settings(max_examples=100)
    def test_bounded_by_union(self, first, second):
        """The diff never leaves the union hull of the two supports."""
        result = masks_differ_bbox(plane(first), plane(second))
        hull = bbox_union(first, second)
        assert np.all(~rasterize(result) | rasterize(hull))


class TestUnionIntersectionRoundTrips:
    @given(bboxes(allow_empty=False), bboxes())
    @settings(max_examples=100)
    def test_intersection_with_union_recovers_operand(self, first, second):
        hull = bbox_union(first, second)
        assert bbox_intersection(hull, first) == first

    @given(bboxes(), bboxes())
    @settings(max_examples=100)
    def test_intersection_rasterizes_exactly(self, first, second):
        """Rectangle intersection is exact (unlike the XOR hull)."""
        result = bbox_intersection(first, second)
        assert np.array_equal(
            rasterize(result), rasterize(first) & rasterize(second)
        )

    @given(bboxes(), bboxes())
    @settings(max_examples=100)
    def test_union_contains_both(self, first, second):
        hull = rasterize(bbox_union(first, second))
        assert np.all(~rasterize(first) | hull)
        assert np.all(~rasterize(second) | hull)

    @given(bboxes(allow_empty=False), st.integers(0, 5))
    @settings(max_examples=100)
    def test_dilation_contains_and_stays_in_frame(self, box, radius):
        grown = dilate_bbox(box, radius, FRAME)
        assert np.all(~rasterize(box) | rasterize(grown))
        r0, r1, c0, c1 = grown
        assert 0 <= r0 <= r1 <= FRAME[0]
        assert 0 <= c0 <= c1 <= FRAME[1]
        # Growth is bounded by the radius on every side.
        assert bbox_area(grown) <= (box[1] - box[0] + 2 * radius) * (
            box[3] - box[2] + 2 * radius
        )

    @given(bboxes(allow_empty=False))
    @settings(max_examples=50)
    def test_zero_dilation_is_identity(self, box):
        assert dilate_bbox(box, 0, FRAME) == box


class TestMasksDifferBBox:
    @given(sparse_masks, sparse_masks)
    @settings(max_examples=100)
    def test_matches_reference_scan(self, first, second):
        differ = (first != second).any(axis=2)
        expected = mask_nonzero_bbox(differ.astype(np.float64)[..., None])
        assert masks_differ_bbox(first, second) == expected

    @given(sparse_masks)
    @settings(max_examples=50)
    def test_identical_masks_are_empty(self, mask):
        assert masks_differ_bbox(mask, mask.copy()) == EMPTY_BBOX

    @given(sparse_masks, sparse_masks, bboxes())
    @settings(max_examples=100)
    def test_window_containing_diff_equals_full_scan(self, first, second, box):
        """Any window covering every differing pixel gives the full answer
        (the delta store's windowed scan against a stored crop)."""
        full = masks_differ_bbox(first, second)
        window = bbox_union(full, box)
        assert _entry(second).diff_bbox(first, window) == full

    @given(sparse_masks, sparse_masks)
    @settings(max_examples=50)
    def test_full_frame_window_equals_no_window(self, first, second):
        full_frame = (0, FRAME[0], 0, FRAME[1])
        entry = _entry(second)
        assert entry.diff_bbox(first, full_frame) == entry.diff_bbox(first, None)
        assert entry.diff_bbox(first, None) == masks_differ_bbox(first, second)

    @given(sparse_masks, sparse_masks)
    @settings(max_examples=50)
    def test_empty_window_is_empty(self, first, second):
        assert _entry(second).diff_bbox(first, EMPTY_BBOX) == EMPTY_BBOX


def _assert_inside_splice_window(child, head):
    """The child's diff lies in the union of both exact supports, and the
    windowed scan the ancestor splice runs equals the full-frame scan."""
    diff = masks_differ_bbox(child, head)
    window = bbox_union(mask_nonzero_bbox(child), mask_nonzero_bbox(head))
    assert np.all(~rasterize(diff) | rasterize(window))
    assert _entry(head).diff_bbox(child, window) == diff


class TestLineageContainment:
    """The genetic operators' children stay inside the splice window.

    This is the delta-reuse correctness contract: the detector scans the
    child-vs-ancestor diff only inside the union of both exact supports,
    so a child pixel differing from its head parent *outside* that window
    would be spliced stale.
    """

    @given(st.integers(0, 10_000), st.floats(0.1, 1.0))
    @settings(max_examples=100)
    def test_crossover_diff_inside_lineage_bound(self, seed, probability):
        rng = np.random.default_rng(seed)
        first = _sparse_mask(seed + 1, 0.2)
        second = _sparse_mask(seed + 2, 0.2)
        child_a, child_b = one_point_crossover(
            first, second, rng, probability=probability
        )
        for child, head in ((child_a, first), (child_b, second)):
            _assert_inside_splice_window(child, head)

    @given(st.integers(0, 10_000))
    @settings(max_examples=100)
    def test_mutation_diff_inside_touched_bound(self, seed):
        rng = np.random.default_rng(seed)
        genome = _sparse_mask(seed + 3, 0.2)
        child = mutate(genome, rng, MutationConfig(probability=0.7))
        _assert_inside_splice_window(child, genome)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_unknown_parent_bounds_degrade_to_tail_band(self, seed):
        """Half-dense parents leave a frame-wide window; each child still
        differs from its head only in the swapped flattened tail."""
        rng = np.random.default_rng(seed)
        first = _sparse_mask(seed + 4, 0.5)
        second = _sparse_mask(seed + 5, 0.5)
        child_a, child_b = one_point_crossover(first, second, rng, probability=1.0)
        row_size = FRAME[1] * first.shape[2]
        for child, head, other in ((child_a, first, second), (child_b, second, first)):
            flat, flat_head = child.reshape(-1), head.reshape(-1)
            changed = np.flatnonzero(flat != flat_head)
            point = int(changed[0]) if changed.size else flat.size
            assert np.array_equal(flat[point:], other.reshape(-1)[point:])
            band = (point // row_size, FRAME[0], 0, FRAME[1])
            assert np.all(~rasterize(masks_differ_bbox(child, head)) | rasterize(band))
            _assert_inside_splice_window(child, head)
