"""Dirty-region bound propagation through the genetic operators.

The lineage crossover/mutation variants return an O(1) bounding box that
must (a) cover every nonzero pixel of the produced child — the incremental
inference path relies on the bound being a superset — and (b) consume
exactly the same random draws as the plain forms, so seeded runs are
unchanged.  NSGA-II hands the bounds (and ancestry records) to the batch
evaluator through its explicit ``evaluate_population`` protocol.
"""

import numpy as np
import pytest

from repro.core.attack import ButterflyAttack
from repro.core.config import AttackConfig
from repro.core.objectives import ButterflyObjectives
from repro.core.regions import HalfImageRegion
from repro.nn.incremental import bbox_is_empty, mask_nonzero_bbox
from repro.nsga.algorithm import NSGAII, NSGAConfig
from repro.nsga.crossover import one_point_crossover, one_point_crossover_lineage
from repro.nsga.mutation import MutationConfig, mutate, mutate_tracked_lineage

SHAPE = (12, 20, 3)


def _sparse_genome(rng, shape=SHAPE):
    genome = np.zeros(shape)
    r = int(rng.integers(0, shape[0] - 2))
    c = int(rng.integers(0, shape[1] - 3))
    genome[r : r + 2, c : c + 3] = rng.integers(-255, 256, size=(2, 3, 3))
    return genome


def _bound_covers(bound, genome) -> bool:
    """True when the bound is a superset of the genome's nonzero support."""
    if bound is None:
        return True
    actual = mask_nonzero_bbox(genome)
    if bbox_is_empty(actual):
        return True
    return (
        bound[0] <= actual[0]
        and bound[1] >= actual[1]
        and bound[2] <= actual[2]
        and bound[3] >= actual[3]
    )


class TestCrossoverBounds:
    def test_same_draws_as_untracked(self):
        rng_a, rng_b = np.random.default_rng(0), np.random.default_rng(0)
        parents = np.random.default_rng(1)
        first, second = _sparse_genome(parents), _sparse_genome(parents)
        plain = one_point_crossover(first, second, rng_a, probability=0.7)
        tracked = one_point_crossover_lineage(first, second, rng_b, probability=0.7)
        assert np.array_equal(plain[0], tracked[0])
        assert np.array_equal(plain[1], tracked[1])
        # Generators advanced identically.
        assert rng_a.integers(0, 1 << 30) == rng_b.integers(0, 1 << 30)

    def test_bounds_cover_children(self):
        rng = np.random.default_rng(2)
        for trial in range(50):
            parents = np.random.default_rng(100 + trial)
            first, second = _sparse_genome(parents), _sparse_genome(parents)
            first_bound = mask_nonzero_bbox(first)
            second_bound = mask_nonzero_bbox(second)
            child_a, child_b, bound_a, bound_b, _, _ = one_point_crossover_lineage(
                first,
                second,
                rng,
                probability=0.8,
                first_bound=first_bound,
                second_bound=second_bound,
            )
            assert _bound_covers(bound_a, child_a)
            assert _bound_covers(bound_b, child_b)

    def test_unknown_parent_bounds_still_produce_row_bands(self):
        rng = np.random.default_rng(3)
        first = np.random.default_rng(4).normal(size=SHAPE)
        second = np.random.default_rng(5).normal(size=SHAPE)
        child_a, child_b, bound_a, bound_b, _, _ = one_point_crossover_lineage(
            first, second, rng, probability=1.0
        )
        # With unknown parents the bound is the union of the head/tail row
        # bands, i.e. a concrete box that still covers the children.
        assert bound_a is not None and bound_b is not None
        assert _bound_covers(bound_a, child_a)
        assert _bound_covers(bound_b, child_b)

    def test_no_crossover_passes_bounds_through(self):
        rng = np.random.default_rng(6)
        first, second = np.ones(SHAPE), np.ones(SHAPE)
        _, _, bound_a, bound_b, _, _ = one_point_crossover_lineage(
            first, second, rng, probability=0.0,
            first_bound=(0, 1, 0, 1), second_bound=None,
        )
        assert bound_a == (0, 1, 0, 1)
        assert bound_b is None


class TestMutationBounds:
    @pytest.mark.parametrize(
        "operator", ["complement", "shuffle", "random", "inversion"]
    )
    def test_bounds_cover_children(self, operator):
        config = MutationConfig(probability=1.0, operators=(operator,))
        rng = np.random.default_rng(7)
        for trial in range(30):
            genome = _sparse_genome(np.random.default_rng(200 + trial))
            parent_bound = mask_nonzero_bbox(genome)
            child, bound, _ = mutate_tracked_lineage(genome, rng, config, parent_bound)
            assert _bound_covers(bound, child)

    def test_same_draws_as_untracked(self):
        config = MutationConfig(probability=0.6)
        rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)
        for trial in range(20):
            genome = _sparse_genome(np.random.default_rng(300 + trial))
            plain = mutate(genome, rng_a, config)
            tracked, _, _ = mutate_tracked_lineage(genome, rng_b, config)
            assert np.array_equal(plain, tracked)
        assert rng_a.integers(0, 1 << 30) == rng_b.integers(0, 1 << 30)

    def test_unknown_parent_bound_stays_unknown(self):
        config = MutationConfig(probability=1.0, operators=("random",))
        child, bound, _ = mutate_tracked_lineage(
            np.ones(SHAPE), np.random.default_rng(9), config, parent_bound=None
        )
        assert bound is None

    def test_unmutated_child_keeps_parent_bound(self):
        config = MutationConfig(probability=0.0)
        parent_bound = (1, 3, 2, 5)
        child, bound, _ = mutate_tracked_lineage(
            np.ones(SHAPE), np.random.default_rng(10), config, parent_bound
        )
        assert bound == parent_bound


class TestAlgorithmPropagation:
    def _objectives(self, genome):
        return np.asarray(
            [float(np.abs(genome).sum()), float((genome**2).sum())]
        )

    def test_offspring_carry_covering_bounds(self):
        optimizer = NSGAII(
            objective_function=self._objectives,
            genome_shape=SHAPE,
            config=NSGAConfig(num_iterations=0, population_size=8, seed=11),
        )
        population = optimizer._initial_population()
        optimizer._evaluate(population)
        optimizer._rank_population(population)
        offspring = optimizer._make_offspring(population)
        assert len(offspring) == 8
        for child in offspring:
            assert "dirty_bound" in child.metadata
            assert _bound_covers(child.metadata["dirty_bound"], child.genome)

    def test_zero_mask_elite_has_empty_bound(self):
        optimizer = NSGAII(
            objective_function=self._objectives,
            genome_shape=SHAPE,
            config=NSGAConfig(num_iterations=0, population_size=4, seed=12),
        )
        population = optimizer._initial_population()
        zero_members = [
            ind for ind in population if not np.any(ind.genome)
        ]
        assert zero_members
        assert zero_members[0].metadata["dirty_bound"] == (0, 0, 0, 0)

    def test_bounds_reach_batch_evaluator(self):
        captured = {}

        class Evaluator:
            def __call__(self, genome):
                return np.asarray([float(np.abs(genome).sum())])

            def evaluate_population(self, genomes, dirty_bounds=None, ancestry=None):
                captured["bounds"] = dirty_bounds
                return np.abs(genomes).sum(axis=(1, 2, 3))[:, None]

        optimizer = NSGAII(
            objective_function=Evaluator(),
            genome_shape=SHAPE,
            config=NSGAConfig(num_iterations=1, population_size=6, seed=13),
        )
        optimizer.run()
        assert "bounds" in captured
        assert captured["bounds"] is not None
        assert len(captured["bounds"]) > 0

    def test_signature_hiding_wrapper_keeps_delta_reuse(
        self, monkeypatch, yolo_detector, small_dataset
    ):
        """A plain ``*args, **kwargs`` wrapper (any decorator written
        without ``functools.wraps``) hides the evaluator's signature; bounds
        and ancestry must still arrive, so delta reuse stays on."""
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
            assert kwargs.get("dirty_bounds") is not None
            assert kwargs.get("ancestry") is not None
        assert result.incremental["delta_hits"] > 0
