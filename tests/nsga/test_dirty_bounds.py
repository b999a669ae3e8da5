"""Dirty windows of the genetic operators' children, scanned from the arrays.

No bounding box travels with a genome: the operators return genomes only
and every splice window comes from an exact scan.  The ancestor splice
scans the union of the child's and the ancestor's exact supports, which
must (a) contain every pixel where the child differs from the parent it
names — outside both supports both genomes are ±0 — and give the same box
as a full-frame scan, and (b) come from operators that consume exactly the
same random draws under the names NSGA-II calls as under the public ones,
so seeded runs are unchanged.  NSGA-II hands only ancestry records to the
batch evaluator, which scans each genome's exact bound itself.
"""

import numpy as np
import pytest

from repro.core.attack import ButterflyAttack
from repro.core.config import AttackConfig
from repro.core.objectives import ButterflyObjectives
from repro.core.regions import HalfImageRegion
from repro.detectors.activation_cache import DeltaActivations
from repro.nn.incremental import (
    EMPTY_BBOX,
    bbox_is_empty,
    bbox_union,
    mask_nonzero_bbox,
    masks_differ_bbox,
)
from repro.nsga import algorithm
from repro.nsga.algorithm import NSGAII, NSGAConfig
from repro.nsga.crossover import one_point_crossover
from repro.nsga.mutation import MutationConfig, mutate

SHAPE = (12, 20, 3)


def _sparse_genome(rng, shape=SHAPE):
    genome = np.zeros(shape)
    r = int(rng.integers(0, shape[0] - 2))
    c = int(rng.integers(0, shape[1] - 3))
    genome[r : r + 2, c : c + 3] = rng.integers(-255, 256, size=(2, 3, 3))
    return genome


def _covers(outer, inner) -> bool:
    """True when half-open box ``outer`` contains ``inner`` (empty always)."""
    if bbox_is_empty(inner):
        return True
    if bbox_is_empty(outer):
        return False
    return (
        outer[0] <= inner[0]
        and outer[1] >= inner[1]
        and outer[2] <= inner[2]
        and outer[3] >= inner[3]
    )


def _assert_window_covers_diff(child, parent):
    """The ancestor splice's scan window holds the child's whole diff.

    The window is the union of both exact supports; scanning only that
    window against the parent's stored crop must give the full-frame diff.
    """
    support = mask_nonzero_bbox(parent)
    r0, r1, c0, c1 = support
    entry = DeltaActivations(
        mask_window=parent[r0:r1, c0:c1].copy(),
        pixel_bbox=support,
        prediction=None,
    )
    window = bbox_union(mask_nonzero_bbox(child), support)
    diff = masks_differ_bbox(child, parent)
    assert _covers(window, diff)
    assert entry.diff_bbox(child, window) == diff


class TestCrossoverBounds:
    def test_same_draws_as_untracked(self):
        """The name NSGA-II calls draws exactly like the public operator."""
        rng_a, rng_b = np.random.default_rng(0), np.random.default_rng(0)
        parents = np.random.default_rng(1)
        for _ in range(20):
            first, second = _sparse_genome(parents), _sparse_genome(parents)
            plain = one_point_crossover(first, second, rng_a, probability=0.7)
            traced = algorithm.one_point_crossover_lineage(
                first, second, rng_b, probability=0.7
            )
            assert len(traced) == 2
            assert np.array_equal(plain[0], traced[0])
            assert np.array_equal(plain[1], traced[1])
        # Generators advanced identically.
        assert rng_a.integers(0, 1 << 30) == rng_b.integers(0, 1 << 30)

    def test_bounds_cover_children(self):
        rng = np.random.default_rng(2)
        for trial in range(50):
            parents = np.random.default_rng(100 + trial)
            first, second = _sparse_genome(parents), _sparse_genome(parents)
            child_a, child_b = one_point_crossover(
                first, second, rng, probability=0.8
            )
            # Each child names the parent whose head it keeps.
            _assert_window_covers_diff(child_a, first)
            _assert_window_covers_diff(child_b, second)
            # Swapping pixels creates no support outside the parents'.
            parents_support = bbox_union(
                mask_nonzero_bbox(first), mask_nonzero_bbox(second)
            )
            assert _covers(parents_support, mask_nonzero_bbox(child_a))
            assert _covers(parents_support, mask_nonzero_bbox(child_b))

    def test_unknown_parent_bounds_still_produce_row_bands(self):
        """Dense parents leave the whole frame as the scan window; the
        exact scan still narrows each child's diff to the swapped tail."""
        rng = np.random.default_rng(3)
        first = np.random.default_rng(4).normal(size=SHAPE)
        second = np.random.default_rng(5).normal(size=SHAPE)
        child_a, child_b = one_point_crossover(first, second, rng, probability=1.0)
        frame = (0, SHAPE[0], 0, SHAPE[1])
        assert bbox_union(mask_nonzero_bbox(child_a), mask_nonzero_bbox(first)) == frame
        diff_a = masks_differ_bbox(child_a, first)
        diff_b = masks_differ_bbox(child_b, second)
        # Both children swap the same flattened tail, which ends at the
        # last pixel: a band of rows reaching the bottom of the frame.
        assert diff_a == diff_b
        assert not bbox_is_empty(diff_a)
        assert diff_a[1] == SHAPE[0] and diff_a[3] == SHAPE[1]
        assert np.array_equal(child_a[: diff_a[0]], first[: diff_a[0]])
        assert np.array_equal(child_b[: diff_b[0]], second[: diff_b[0]])
        _assert_window_covers_diff(child_a, first)
        _assert_window_covers_diff(child_b, second)

    def test_no_crossover_passes_bounds_through(self):
        rng = np.random.default_rng(6)
        first = _sparse_genome(np.random.default_rng(7))
        second = np.ones(SHAPE)
        child_a, child_b = one_point_crossover(first, second, rng, probability=0.0)
        assert child_a is not first and child_b is not second
        assert masks_differ_bbox(child_a, first) == EMPTY_BBOX
        assert masks_differ_bbox(child_b, second) == EMPTY_BBOX
        assert mask_nonzero_bbox(child_a) == mask_nonzero_bbox(first)
        assert mask_nonzero_bbox(child_b) == (0, SHAPE[0], 0, SHAPE[1])


class TestMutationBounds:
    @pytest.mark.parametrize(
        "operator", ["complement", "shuffle", "random", "inversion"]
    )
    def test_bounds_cover_children(self, operator):
        config = MutationConfig(probability=1.0, operators=(operator,))
        rng = np.random.default_rng(7)
        for trial in range(30):
            genome = _sparse_genome(np.random.default_rng(200 + trial))
            child = mutate(genome, rng, config)
            _assert_window_covers_diff(child, genome)

    def test_same_draws_as_untracked(self):
        """The name NSGA-II calls draws exactly like the public operator."""
        config = MutationConfig(probability=0.6)
        rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)
        for trial in range(20):
            genome = _sparse_genome(np.random.default_rng(300 + trial))
            plain = mutate(genome, rng_a, config)
            traced = algorithm.mutate_tracked_lineage(genome, rng_b, config)
            assert isinstance(traced, np.ndarray)
            assert np.array_equal(plain, traced)
        assert rng_a.integers(0, 1 << 30) == rng_b.integers(0, 1 << 30)

    def test_unknown_parent_bound_stays_unknown(self):
        """A dense parent gives no narrower window than the frame; the
        operator still returns a bare genome and the exact scan is tight."""
        config = MutationConfig(probability=1.0, operators=("random",))
        parent = np.ones(SHAPE)
        child = mutate(parent, np.random.default_rng(9), config)
        assert isinstance(child, np.ndarray) and child.shape == SHAPE
        frame = (0, SHAPE[0], 0, SHAPE[1])
        assert bbox_union(mask_nonzero_bbox(child), mask_nonzero_bbox(parent)) == frame
        changed = (child != parent).any(axis=2)
        assert changed.any()
        rows, cols = np.nonzero(changed)
        assert masks_differ_bbox(child, parent) == (
            int(rows.min()),
            int(rows.max()) + 1,
            int(cols.min()),
            int(cols.max()) + 1,
        )
        _assert_window_covers_diff(child, parent)

    def test_unmutated_child_keeps_parent_bound(self):
        config = MutationConfig(probability=0.0)
        parent = np.zeros(SHAPE)
        parent[1:3, 2:5] = 7.0
        child = mutate(parent, np.random.default_rng(10), config)
        assert child is not parent
        assert mask_nonzero_bbox(child) == (1, 3, 2, 5)
        assert masks_differ_bbox(child, parent) == EMPTY_BBOX


class TestAlgorithmPropagation:
    def _objectives(self, genome):
        return np.asarray(
            [float(np.abs(genome).sum()), float((genome**2).sum())]
        )

    def test_offspring_carry_covering_bounds(self):
        """Offspring carry only their head parent's fingerprint, and the
        window scanned against that parent covers the child's diff."""
        optimizer = NSGAII(
            objective_function=self._objectives,
            genome_shape=SHAPE,
            config=NSGAConfig(num_iterations=0, population_size=8, seed=11),
        )
        population = optimizer._initial_population()
        optimizer._evaluate(population)
        optimizer._rank_population(population)
        by_fingerprint = {ind.metadata["fingerprint"]: ind for ind in population}
        offspring = optimizer._make_offspring(population)
        assert len(offspring) == 8
        for child in offspring:
            assert set(child.metadata) == {"ancestor"}
            parent = by_fingerprint[child.metadata["ancestor"]]
            _assert_window_covers_diff(child.genome, parent.genome)

    def test_zero_mask_elite_has_empty_bound(self):
        optimizer = NSGAII(
            objective_function=self._objectives,
            genome_shape=SHAPE,
            config=NSGAConfig(num_iterations=0, population_size=4, seed=12),
        )
        population = optimizer._initial_population()
        zero_members = [ind for ind in population if not np.any(ind.genome)]
        assert zero_members
        assert "dirty_bound" not in zero_members[0].metadata
        assert mask_nonzero_bbox(zero_members[0].genome) == EMPTY_BBOX

    def test_bounds_reach_batch_evaluator(
        self, monkeypatch, yolo_detector, small_dataset
    ):
        """NSGA-II passes no bounds; the evaluator scans each genome's
        exact support and hands it to the detector's batch path."""
        received = []
        forwarded = []
        original_population = ButterflyObjectives.evaluate_population
        detector_class = type(yolo_detector)
        original_batch = detector_class.predict_delta_batch

        def evaluate_population(self, masks, dirty_bounds=None, ancestry=None):
            received.append((len(masks), dirty_bounds, ancestry))
            return original_population(self, masks, dirty_bounds, ancestry)

        def predict_delta_batch(self, image, masks, dirty_bounds=None, *args, **kwargs):
            forwarded.append((np.array(masks, copy=True), list(dirty_bounds)))
            return original_batch(self, image, masks, dirty_bounds, *args, **kwargs)

        monkeypatch.setattr(
            ButterflyObjectives, "evaluate_population", evaluate_population
        )
        monkeypatch.setattr(detector_class, "predict_delta_batch", predict_delta_batch)
        config = AttackConfig(
            nsga=NSGAConfig(num_iterations=1, population_size=6, seed=13),
            region=HalfImageRegion("right"),
        )
        ButterflyAttack(yolo_detector, config).attack(small_dataset[0].image)
        assert received and forwarded
        for count, dirty_bounds, ancestry in received:
            assert dirty_bounds is None
            assert len(ancestry) == count
            for record in ancestry:
                assert set(record) == {"fingerprint", "ancestor"}
        for masks, bounds in forwarded:
            assert len(bounds) == len(masks)
            for mask, bound in zip(masks, bounds):
                assert bound == mask_nonzero_bbox(mask)

    def test_signature_hiding_wrapper_keeps_delta_reuse(
        self, monkeypatch, yolo_detector, small_dataset
    ):
        """A plain ``*args, **kwargs`` wrapper (any decorator written
        without ``functools.wraps``) hides the evaluator's signature;
        ancestry must still arrive, so delta reuse stays on, and NSGA-II
        passes no ``dirty_bounds`` (every dirty region is scanned from the
        genome)."""
        received = []
        original = ButterflyObjectives.evaluate_population

        def wrapper(*args, **kwargs):
            received.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(ButterflyObjectives, "evaluate_population", wrapper)
        config = AttackConfig(
            nsga=NSGAConfig(num_iterations=4, population_size=12, seed=0),
            region=HalfImageRegion("right"),
        )
        result = ButterflyAttack(yolo_detector, config).attack(small_dataset[0].image)
        assert received
        for kwargs in received:
            assert kwargs.get("dirty_bounds") is None
            assert kwargs.get("ancestry") is not None
        assert result.incremental["delta_hits"] > 0
