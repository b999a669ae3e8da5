"""Reference parity tests for the vectorised NSGA-II / IoU / mask kernels.

The production implementations of ``fast_non_dominated_sort``,
``crowding_distance``, ``iou_matrix`` and ``objective_degradation`` are
NumPy-vectorised; the original nested-loop versions are preserved here as
``_reference_*`` helpers and the vectorised results are required to match
them **exactly** (not approximately) on randomly generated populations —
the batched evaluation pipeline's bit-for-bit parity guarantee starts at
these kernels.

The per-genome mask kernels follow the same pattern: the channel-fused
``mask_nonzero_bbox``, ``DeltaActivations.diff_bbox`` and
``objective_distance`` and the slice-based ``Region.project`` are pinned
against their former trailing-axis / boolean-mask bodies on masks carrying
``-0.0``, NaN, subnormals and ``x``/``-x`` pairs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.core.objectives import objective_degradation, objective_distance
from repro.core.regions import FullImageRegion, HalfImageRegion, RectangleRegion
from repro.detection.boxes import BACKGROUND_CLASS, BoundingBox, iou, iou_matrix
from repro.detection.prediction import Prediction
from repro.detectors.activation_cache import DeltaActivations
from repro.nn.incremental import EMPTY_BBOX, bbox_is_empty, mask_nonzero_bbox
from repro.nsga.crowding import crowding_distance
from repro.nsga.individual import Individual
from repro.nsga.sorting import dominates, domination_matrix, fast_non_dominated_sort


# ---------------------------------------------------------------------------
# Reference implementations (the seed's original nested-loop versions).
# ---------------------------------------------------------------------------


def _reference_fast_non_dominated_sort(population):
    """Deb (2002) non-dominated sorting with explicit pairwise loops."""
    size = len(population)
    objectives = np.stack([ind.objectives for ind in population], axis=0)
    dominated_by = [[] for _ in range(size)]
    domination_count = np.zeros(size, dtype=np.int64)
    for p in range(size):
        for q in range(p + 1, size):
            if dominates(objectives[p], objectives[q]):
                dominated_by[p].append(q)
                domination_count[q] += 1
            elif dominates(objectives[q], objectives[p]):
                dominated_by[q].append(p)
                domination_count[p] += 1
    fronts = []
    current = [p for p in range(size) if domination_count[p] == 0]
    while current:
        fronts.append(current)
        next_front = []
        for p in current:
            for q in dominated_by[p]:
                domination_count[q] -= 1
                if domination_count[q] == 0:
                    next_front.append(q)
        current = next_front
    return fronts


def _reference_crowding_distance(population, front):
    """Crowding distance with the original per-position Python loop."""
    front = list(front)
    size = len(front)
    if size == 0:
        return np.array([])
    distances = np.zeros(size, dtype=np.float64)
    if size <= 2:
        distances[:] = np.inf
        return distances
    objectives = np.stack([population[i].objectives for i in front], axis=0)
    for objective in range(objectives.shape[1]):
        order = np.argsort(objectives[:, objective], kind="stable")
        sorted_values = objectives[order, objective]
        span = sorted_values[-1] - sorted_values[0]
        distances[order[0]] = np.inf
        distances[order[-1]] = np.inf
        if span <= 0:
            continue
        for position in range(1, size - 1):
            gap = sorted_values[position + 1] - sorted_values[position - 1]
            distances[order[position]] += gap / span
    return distances


def _reference_iou_matrix(first, second):
    """Pairwise IoU via the scalar :func:`iou` on every pair."""
    matrix = np.zeros((len(first), len(second)), dtype=np.float64)
    for i, a in enumerate(first):
        for j, b in enumerate(second):
            matrix[i, j] = iou(a, b)
    return matrix


def _reference_objective_degradation(clean_prediction, perturbed_prediction):
    """Algorithm 1 with the original nested box loops."""
    clean_boxes = clean_prediction.valid_boxes
    if not clean_boxes:
        return 1.0
    perturbed_boxes = perturbed_prediction.valid_boxes
    accumulated = 0.0
    for clean_box in clean_boxes:
        best_overlap = 0.0
        for perturbed_box in perturbed_boxes:
            if perturbed_box.cl == clean_box.cl:
                best_overlap = max(best_overlap, iou(clean_box, perturbed_box))
        accumulated += best_overlap
    return accumulated / len(clean_boxes)


def _reference_mask_nonzero_bbox(mask, within=None):
    """Nonzero box via ``mask != 0`` and a trailing-axis ``any``."""
    mask = np.asarray(mask)
    off_r = off_c = 0
    if within is not None and not bbox_is_empty(within):
        r0, r1, c0, c1 = within
        mask = mask[r0:r1, c0:c1]
        off_r, off_c = r0, c0
    elif within is not None:
        return EMPTY_BBOX
    nonzero = mask != 0
    if nonzero.ndim == 3:
        nonzero = nonzero.any(axis=2)
    rows = np.flatnonzero(nonzero.any(axis=1))
    if rows.size == 0:
        return EMPTY_BBOX
    cols = np.flatnonzero(nonzero.any(axis=0))
    return (
        off_r + int(rows[0]),
        off_r + int(rows[-1]) + 1,
        off_c + int(cols[0]),
        off_c + int(cols[-1]) + 1,
    )


def _reference_diff_bbox(entry, mask, within):
    """``DeltaActivations.diff_bbox`` with a trailing-axis ``any`` over ``!=``."""
    if within is None:
        within = (0, mask.shape[0], 0, mask.shape[1])
    if bbox_is_empty(within):
        return EMPTY_BBOX
    r0, r1, c0, c1 = within
    window = mask[r0:r1, c0:c1]
    ancestor = np.zeros_like(window)
    p_r0, p_r1, p_c0, p_c1 = entry.pixel_bbox
    o_r0, o_r1 = max(r0, p_r0), min(r1, p_r1)
    o_c0, o_c1 = max(c0, p_c0), min(c1, p_c1)
    if o_r1 > o_r0 and o_c1 > o_c0:
        ancestor[o_r0 - r0 : o_r1 - r0, o_c0 - c0 : o_c1 - c0] = entry.mask_window[
            o_r0 - p_r0 : o_r1 - p_r0, o_c0 - p_c0 : o_c1 - p_c0
        ]
    differ = window != ancestor
    if differ.ndim == 3:
        differ = differ.any(axis=2)
    rows = np.flatnonzero(differ.any(axis=1))
    if rows.size == 0:
        return EMPTY_BBOX
    cols = np.flatnonzero(differ.any(axis=0))
    return (
        r0 + int(rows[0]),
        r0 + int(rows[-1]) + 1,
        c0 + int(cols[0]),
        c0 + int(cols[-1]) + 1,
    )


def _reference_objective_distance(mask, weight_matrix, bbox=None):
    """Algorithm 2's tail with ``np.max(np.abs(window), axis=2)``."""
    mask = np.asarray(mask, dtype=np.float64)
    if bbox is None:
        bbox = _reference_mask_nonzero_bbox(mask)
    if bbox_is_empty(bbox):
        return 0.0
    r0, r1, c0, c1 = bbox
    per_pixel_max = np.max(np.abs(mask[r0:r1, c0:c1]), axis=2)
    perturbed_count = int(np.count_nonzero(per_pixel_max))
    if perturbed_count == 0:
        return 0.0
    weighted = per_pixel_max * weight_matrix[r0:r1, c0:c1]
    return float(weighted.sum() / perturbed_count)


def _reference_pixel_mask(region, image_length, image_width):
    """The per-class boolean pixel masks regions were defined by."""
    mask = np.zeros((image_length, image_width), dtype=bool)
    if isinstance(region, FullImageRegion):
        mask[:] = True
    elif isinstance(region, HalfImageRegion):
        middle = image_width // 2
        if region.half == "right":
            mask[:, middle:] = True
        else:
            mask[:, :middle] = True
    else:
        x_lo, x_hi = max(0, region.x_min), min(image_length, region.x_max)
        y_lo, y_hi = max(0, region.y_min), min(image_width, region.y_max)
        if x_hi > x_lo and y_hi > y_lo:
            mask[x_lo:x_hi, y_lo:y_hi] = True
    return mask


def _reference_project(region, mask):
    """``Region.project`` through a boolean-mask assignment."""
    mask = np.asarray(mask, dtype=np.float64)
    allowed = _reference_pixel_mask(region, mask.shape[0], mask.shape[1])
    projected = mask.copy()
    projected[~allowed] = 0.0
    return projected


# ---------------------------------------------------------------------------
# Generators.
# ---------------------------------------------------------------------------

objective_matrices = npst.arrays(
    dtype=np.float64,
    shape=st.tuples(
        st.integers(min_value=1, max_value=24), st.integers(min_value=2, max_value=4)
    ),
    elements=st.floats(min_value=0.0, max_value=10.0, allow_nan=False, width=16),
)


def _population(matrix):
    return [
        Individual(genome=np.zeros(1), objectives=np.asarray(row, dtype=np.float64))
        for row in matrix
    ]


def _random_boxes(rng, count, num_classes=4, background_fraction=0.2, degenerate=False):
    boxes = []
    for _ in range(count):
        cl = (
            BACKGROUND_CLASS
            if rng.random() < background_fraction
            else int(rng.integers(0, num_classes))
        )
        extent_l = 0.0 if degenerate and rng.random() < 0.3 else float(rng.uniform(1, 30))
        extent_w = 0.0 if degenerate and rng.random() < 0.3 else float(rng.uniform(1, 30))
        boxes.append(
            BoundingBox(
                cl=cl,
                x=float(rng.uniform(0, 64)),
                y=float(rng.uniform(0, 200)),
                l=extent_l,
                w=extent_w,
                score=float(rng.uniform(0, 1)),
            )
        )
    return boxes


class TestSortingParity:
    @given(objective_matrices)
    @settings(max_examples=150, deadline=None)
    def test_fronts_match_reference_exactly(self, matrix):
        population = _population(matrix)
        reference = _reference_fast_non_dominated_sort(_population(matrix))
        fronts = fast_non_dominated_sort(population)
        assert fronts == reference  # same fronts in the same order

    @given(objective_matrices)
    @settings(max_examples=100, deadline=None)
    def test_domination_matrix_matches_pairwise_dominates(self, matrix):
        dominance = domination_matrix(matrix)
        for p in range(matrix.shape[0]):
            for q in range(matrix.shape[0]):
                assert dominance[p, q] == dominates(matrix[p], matrix[q])

    def test_duplicate_heavy_population(self):
        rng = np.random.default_rng(7)
        matrix = rng.integers(0, 3, size=(30, 3)).astype(np.float64)
        population = _population(matrix)
        assert fast_non_dominated_sort(population) == _reference_fast_non_dominated_sort(
            _population(matrix)
        )


class TestCrowdingParity:
    @given(objective_matrices)
    @settings(max_examples=150, deadline=None)
    def test_distances_match_reference_exactly(self, matrix):
        population = _population(matrix)
        front = list(range(len(population)))
        reference = _reference_crowding_distance(population, front)
        distances = crowding_distance(population, front)
        assert np.array_equal(distances, reference)

    def test_subset_front_matches_reference(self):
        rng = np.random.default_rng(3)
        matrix = rng.uniform(0, 5, size=(12, 3))
        population = _population(matrix)
        front = [0, 2, 5, 7, 11]
        reference = _reference_crowding_distance(population, front)
        assert np.array_equal(crowding_distance(population, front), reference)

    def test_constant_objective_matches_reference(self):
        matrix = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
        population = _population(matrix)
        front = [0, 1, 2, 3]
        reference = _reference_crowding_distance(population, front)
        assert np.array_equal(crowding_distance(population, front), reference)


class TestIoUParity:
    def test_matrix_matches_scalar_iou_exactly(self):
        rng = np.random.default_rng(11)
        for trial in range(25):
            first = _random_boxes(rng, int(rng.integers(0, 8)), degenerate=True)
            second = _random_boxes(rng, int(rng.integers(0, 8)), degenerate=True)
            assert np.array_equal(
                iou_matrix(first, second), _reference_iou_matrix(first, second)
            )

    def test_empty_inputs(self):
        boxes = _random_boxes(np.random.default_rng(0), 3)
        assert iou_matrix([], boxes).shape == (0, 3)
        assert iou_matrix(boxes, []).shape == (3, 0)
        assert iou_matrix([], []).shape == (0, 0)

    def test_values_stay_in_unit_interval(self):
        rng = np.random.default_rng(5)
        first = _random_boxes(rng, 10, degenerate=True)
        second = _random_boxes(rng, 10, degenerate=True)
        matrix = iou_matrix(first, second)
        assert np.all(matrix >= 0.0) and np.all(matrix <= 1.0)


class TestDegradationParity:
    def test_matches_reference_on_random_predictions(self):
        rng = np.random.default_rng(23)
        for trial in range(40):
            clean = Prediction.from_boxes(_random_boxes(rng, int(rng.integers(0, 6))))
            perturbed = Prediction.from_boxes(
                _random_boxes(rng, int(rng.integers(0, 6)))
            )
            assert objective_degradation(clean, perturbed) == (
                _reference_objective_degradation(clean, perturbed)
            )

    def test_empty_clean_prediction(self):
        perturbed = Prediction.from_boxes(_random_boxes(np.random.default_rng(1), 3))
        assert objective_degradation(Prediction.empty(), perturbed) == 1.0

    def test_empty_perturbed_prediction(self):
        clean = Prediction.from_boxes(
            [BoundingBox(cl=0, x=10, y=10, l=5, w=5, score=0.9)]
        )
        assert objective_degradation(clean, Prediction.empty()) == 0.0


# ---------------------------------------------------------------------------
# Per-genome mask kernels.
# ---------------------------------------------------------------------------

#: Element values that separate the float, bit and sign semantics: signed
#: zeros, ``x``/``-x`` pairs, subnormals (only mantissa bits set) and NaN.
_MASK_VALUES = [
    0.0, -0.0, 1.0, -1.0, 3.0, -3.0, 255.0, -255.0, 5e-324, -5e-324, math.nan,
]


@st.composite
def _masks(draw, min_side=1):
    """A sparse 2-D or ``(L, W, C)`` float64 mask over :data:`_MASK_VALUES`."""
    length = draw(st.integers(min_side, 9))
    width = draw(st.integers(min_side, 11))
    channels = draw(st.sampled_from([None, 1, 3, 4]))
    shape = (length, width) if channels is None else (length, width, channels)
    return draw(
        npst.arrays(
            np.float64,
            shape,
            elements=st.sampled_from(_MASK_VALUES),
            fill=st.sampled_from([0.0, -0.0]),
        )
    )


@st.composite
def _windows(draw, shape):
    """A half-open box inside ``shape`` (possibly empty), or ``None``."""
    if draw(st.booleans()):
        return None
    r0 = draw(st.integers(0, shape[0]))
    r1 = draw(st.integers(r0, shape[0]))
    c0 = draw(st.integers(0, shape[1]))
    c1 = draw(st.integers(c0, shape[1]))
    return (r0, r1, c0, c1)


def _same_float(first, second):
    """Bitwise float equality, any NaN matching any NaN."""
    if math.isnan(first) or math.isnan(second):
        return math.isnan(first) and math.isnan(second)
    return first == second and math.copysign(1.0, first) == math.copysign(1.0, second)


def _flip_signs(mask, rng):
    """``mask`` with some elements negated (``x`` -> ``-x``, ``0.0`` -> ``-0.0``)."""
    flipped = mask.copy()
    chosen = rng.random(mask.shape) < 0.3
    flipped[chosen] = -flipped[chosen]
    return flipped


class TestMaskNonzeroBboxParity:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_exactly(self, data):
        mask = data.draw(_masks())
        within = data.draw(_windows(mask.shape))
        assert mask_nonzero_bbox(mask, within) == _reference_mask_nonzero_bbox(
            mask, within
        )

    def test_negative_zero_is_zero(self):
        # A kernel that keeps the sign bit would report the whole frame.
        mask = np.full((5, 7, 3), -0.0)
        mask[2, 3, 1] = 4.0
        assert mask_nonzero_bbox(mask) == (2, 3, 3, 4)
        assert _reference_mask_nonzero_bbox(mask) == (2, 3, 3, 4)
        assert mask_nonzero_bbox(np.full((4, 4), -0.0)) == EMPTY_BBOX

    @pytest.mark.parametrize("value", [math.nan, 5e-324, -5e-324])
    def test_nan_and_subnormals_count(self, value):
        mask = np.zeros((6, 8, 3))
        mask[4, 1, 2] = value
        assert mask_nonzero_bbox(mask) == (4, 5, 1, 2)

    def test_other_dtypes_follow_float_semantics(self):
        mask = np.zeros((3, 5, 3), dtype=np.int16)
        mask[1, 2, 0] = -7
        assert mask_nonzero_bbox(mask) == (1, 2, 2, 3)
        assert mask_nonzero_bbox(mask.astype(np.float32)) == (1, 2, 2, 3)


class TestDiffBboxParity:
    @staticmethod
    def _entry(ancestor):
        box = _reference_mask_nonzero_bbox(ancestor)
        r0, r1, c0, c1 = box
        return DeltaActivations(
            mask_window=ancestor[r0:r1, c0:c1].copy(),
            pixel_bbox=box,
            prediction=Prediction.empty(),
        )

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_exactly(self, data):
        ancestor = data.draw(_masks())
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        child = data.draw(
            st.sampled_from(
                [
                    ancestor.copy(),
                    _flip_signs(ancestor, rng),
                    data.draw(
                        npst.arrays(
                            np.float64,
                            ancestor.shape,
                            elements=st.sampled_from(_MASK_VALUES),
                            fill=st.sampled_from([0.0, -0.0]),
                        )
                    ),
                ]
            )
        )
        entry = self._entry(ancestor)
        within = data.draw(_windows(child.shape))
        assert entry.diff_bbox(child, within) == _reference_diff_bbox(
            entry, child, within
        )

    def test_negated_value_differs(self):
        # A bit XOR with the sign bit shifted out would call x and -x equal.
        ancestor = np.zeros((4, 6, 3))
        ancestor[1, 2, 0] = 5.0
        child = ancestor.copy()
        child[1, 2, 0] = -5.0
        entry = self._entry(ancestor)
        assert entry.diff_bbox(child, None) == (1, 2, 2, 3)
        assert _reference_diff_bbox(entry, child, None) == (1, 2, 2, 3)

    def test_signed_zero_does_not_differ(self):
        # A plain bit XOR would call -0.0 and +0.0 different.
        ancestor = np.zeros((4, 6, 3))
        ancestor[1, 2, 0] = 5.0
        child = ancestor.copy()
        child[3, 5, 2] = -0.0
        child[0, 0, 0] = -0.0
        entry = self._entry(ancestor)
        assert entry.diff_bbox(child, None) == EMPTY_BBOX
        assert _reference_diff_bbox(entry, child, None) == EMPTY_BBOX

    def test_nan_differs_from_itself(self):
        ancestor = np.zeros((3, 3))
        ancestor[1, 1] = math.nan
        entry = self._entry(ancestor)
        assert entry.diff_bbox(ancestor.copy(), None) == (1, 2, 1, 2)
        assert _reference_diff_bbox(entry, ancestor.copy(), None) == (1, 2, 1, 2)


class TestObjectiveDistanceParity:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_exactly(self, data):
        mask = data.draw(_masks())
        if mask.ndim == 2:
            mask = mask[..., None]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        weights = rng.normal(0.0, 50.0, size=mask.shape[:2])
        exact_box = _reference_mask_nonzero_bbox(mask)
        for bbox in (None, exact_box):
            assert _same_float(
                objective_distance(mask, weights, bbox),
                _reference_objective_distance(mask, weights, bbox),
            )

    def test_non_contiguous_mask(self):
        rng = np.random.default_rng(4)
        mask = np.round(rng.normal(0.0, 2.0, size=(12, 20, 3)))[::2, 1::2]
        weights = rng.normal(0.0, 50.0, size=mask.shape[:2])
        assert _same_float(
            objective_distance(mask, weights),
            _reference_objective_distance(mask, weights),
        )


_REGIONS = st.one_of(
    st.just(FullImageRegion()),
    st.sampled_from([HalfImageRegion("left"), HalfImageRegion("right")]),
    st.tuples(
        st.integers(-4, 12), st.integers(1, 8), st.integers(-4, 14), st.integers(1, 8)
    ).map(lambda t: RectangleRegion(t[0], t[2], t[0] + t[1], t[2] + t[3])),
)


class TestRegionProjectParity:
    @given(_masks(), _REGIONS)
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_bit_for_bit(self, mask, region):
        projected = region.project(mask)
        reference = _reference_project(region, mask)
        assert projected.dtype == np.float64
        assert projected.tobytes() == reference.tobytes()
        assert np.array_equal(
            region.pixel_mask(mask.shape[0], mask.shape[1]),
            _reference_pixel_mask(region, mask.shape[0], mask.shape[1]),
        )

    def test_projection_is_a_fresh_array(self):
        mask = np.ones((4, 6, 3))
        projected = HalfImageRegion("right").project(mask)
        projected += 1.0
        assert np.all(mask == 1.0)
