"""Tests for population initialisation."""

import numpy as np
import pytest

from repro.nn.incremental import bbox_area, mask_nonzero_bbox
from repro.nsga.initialization import InitializationConfig, initialize_population


class TestInitializationConfig:
    def test_defaults_match_paper(self):
        config = InitializationConfig()
        assert config.population_size == 101
        assert config.include_zero_mask is True
        assert config.max_value == 255.0

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            InitializationConfig(population_size=0)
        with pytest.raises(ValueError):
            InitializationConfig(gaussian_sigma=-1.0)
        with pytest.raises(ValueError):
            InitializationConfig(salt_and_pepper_fraction=2.0)


class TestInitializePopulation:
    def test_population_size(self):
        rng = np.random.default_rng(0)
        population = initialize_population((8, 16, 3), rng, InitializationConfig(population_size=11))
        assert len(population) == 11

    def test_zero_mask_included(self):
        rng = np.random.default_rng(0)
        population = initialize_population((8, 16, 3), rng, InitializationConfig(population_size=5))
        zero_masks = [ind for ind in population if np.allclose(ind.genome, 0.0)]
        assert len(zero_masks) >= 1

    def test_zero_mask_excluded_when_disabled(self):
        rng = np.random.default_rng(0)
        config = InitializationConfig(population_size=5, include_zero_mask=False, gaussian_sigma=10.0)
        population = initialize_population((8, 16, 3), rng, config)
        zero_masks = [ind for ind in population if np.allclose(ind.genome, 0.0)]
        assert len(zero_masks) == 0

    def test_genome_shape(self):
        rng = np.random.default_rng(0)
        population = initialize_population((8, 16, 3), rng, InitializationConfig(population_size=3))
        assert all(ind.genome.shape == (8, 16, 3) for ind in population)

    def test_values_within_bounds(self):
        rng = np.random.default_rng(0)
        config = InitializationConfig(population_size=20, gaussian_sigma=500.0)
        population = initialize_population((8, 16, 3), rng, config)
        for individual in population:
            assert np.abs(individual.genome).max() <= 255.0

    def test_individuals_unevaluated(self):
        rng = np.random.default_rng(0)
        population = initialize_population((8, 16, 3), rng, InitializationConfig(population_size=3))
        assert all(not ind.is_evaluated for ind in population)

    def test_random_individuals_are_distinct(self):
        rng = np.random.default_rng(0)
        population = initialize_population((8, 16, 3), rng, InitializationConfig(population_size=6))
        genomes = [ind.genome for ind in population[:-1]]
        for i in range(len(genomes)):
            for j in range(i + 1, len(genomes)):
                assert not np.allclose(genomes[i], genomes[j])

    def test_population_of_one_with_zero_mask(self):
        rng = np.random.default_rng(0)
        population = initialize_population((4, 4, 3), rng, InitializationConfig(population_size=1))
        assert len(population) == 1
        assert np.allclose(population[0].genome, 0.0)


class TestSparseBiasedInitialization:
    """The sparse-biased option (PR 4 satellite; ROADMAP sparsity-adaptive
    regime, first step): part of the initial population confined to small
    random patches so short attacks start inside the incremental path's
    sparse-mask sweet spot.  Default off — and bit-exact off."""

    SHAPE = (16, 32, 3)

    def test_default_path_untouched(self):
        """sparse_fraction=0 consumes the identical RNG sequence: the
        population is draw-for-draw equal to one built by a config that
        never heard of the sparse fields."""
        baseline = initialize_population(
            self.SHAPE, np.random.default_rng(42),
            InitializationConfig(population_size=12),
        )
        explicit = initialize_population(
            self.SHAPE, np.random.default_rng(42),
            InitializationConfig(population_size=12, sparse_fraction=0.0),
        )
        assert len(baseline) == len(explicit)
        for left, right in zip(baseline, explicit):
            assert np.array_equal(left.genome, right.genome)

    def test_dense_prefix_identical_when_sparse_enabled(self):
        """Enabling the sparse tail never changes the dense individuals'
        draws: the first num_dense genomes match the all-dense run."""
        dense_run = initialize_population(
            self.SHAPE, np.random.default_rng(7),
            InitializationConfig(population_size=11),
        )
        mixed_run = initialize_population(
            self.SHAPE, np.random.default_rng(7),
            InitializationConfig(population_size=11, sparse_fraction=0.4),
        )
        num_random = 10  # 11 minus the zero mask
        num_sparse = 4  # round(10 * 0.4)
        for left, right in zip(dense_run[: num_random - num_sparse], mixed_run):
            assert np.array_equal(left.genome, right.genome)

    def test_sparse_individuals_are_patch_confined(self):
        config = InitializationConfig(
            population_size=9, sparse_fraction=1.0, sparse_patch_fraction=0.05
        )
        population = initialize_population(self.SHAPE, np.random.default_rng(3), config)
        total = self.SHAPE[0] * self.SHAPE[1]
        patch_shapes = set()
        for individual in population[:-1]:  # all random individuals are sparse
            r0, r1, c0, c1 = mask_nonzero_bbox(individual.genome)
            assert r1 > r0 and c1 > c0
            patch_shapes.add((r1 - r0, c1 - c0))
            # the patch is actually small
            assert (r1 - r0) * (c1 - c0) <= max(1, int(0.1 * total))
        # every patch has the configured size, wherever it was placed
        assert len(patch_shapes) == 1

    def test_sparse_count_follows_fraction(self):
        config = InitializationConfig(population_size=21, sparse_fraction=0.5)
        population = initialize_population(self.SHAPE, np.random.default_rng(5), config)
        plane = self.SHAPE[0] * self.SHAPE[1]
        sparse = [
            ind
            for ind in population
            if 0 < bbox_area(mask_nonzero_bbox(ind.genome)) < plane
        ]
        assert len(sparse) == 10  # round(20 * 0.5)

    def test_sparse_values_respect_bounds(self):
        config = InitializationConfig(
            population_size=8, sparse_fraction=1.0, gaussian_sigma=500.0
        )
        population = initialize_population(self.SHAPE, np.random.default_rng(9), config)
        for individual in population:
            assert np.abs(individual.genome).max() <= 255.0

    def test_invalid_sparse_values_rejected(self):
        with pytest.raises(ValueError):
            InitializationConfig(sparse_fraction=1.5)
        with pytest.raises(ValueError):
            InitializationConfig(sparse_patch_fraction=0.0)
