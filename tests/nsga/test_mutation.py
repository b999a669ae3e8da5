"""Tests for the paper's four mutation operators."""

import numpy as np
import pytest

from repro.nsga.mutation import (
    MutationConfig,
    complement_mutation,
    inversion_mutation,
    mutate,
    random_value_mutation,
    shuffle_mutation,
)


@pytest.fixture()
def genome(rng):
    return rng.integers(-255, 256, size=(16, 24, 3)).astype(np.float64)


class TestMutationConfig:
    def test_defaults_match_table_ii(self):
        config = MutationConfig()
        assert config.probability == 0.45
        assert config.window_fraction == 0.01
        assert config.max_value == 255.0
        assert len(config.operators) == 4

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            MutationConfig(probability=1.5)
        with pytest.raises(ValueError):
            MutationConfig(window_fraction=0.0)
        with pytest.raises(ValueError):
            MutationConfig(max_value=-1.0)
        with pytest.raises(ValueError):
            MutationConfig(operators=("complement", "teleport"))
        with pytest.raises(ValueError):
            MutationConfig(operators=())


class TestWindowFraction:
    @pytest.mark.parametrize(
        "operator",
        [complement_mutation, shuffle_mutation, random_value_mutation],
    )
    def test_at_most_window_fraction_pixels_change(self, operator, genome, rng):
        mutated = operator(genome, rng, window_fraction=0.01)
        changed_pixels = np.any(mutated != genome, axis=2).sum()
        max_allowed = max(1, int(round(0.01 * genome.shape[0] * genome.shape[1])))
        assert changed_pixels <= max_allowed

    def test_inversion_window_is_bounded(self, genome, rng):
        mutated = inversion_mutation(genome, rng, window_fraction=0.01)
        changed_pixels = np.any(mutated != genome, axis=2).sum()
        # The inversion uses a square window of roughly window_fraction
        # pixels (at least 2x2).
        assert changed_pixels <= 4 * max(4, int(0.01 * genome.shape[0] * genome.shape[1]))


class TestOperators:
    def test_complement_maps_to_signed_complement(self, rng):
        genome = np.full((10, 10, 3), 200.0)
        mutated = complement_mutation(genome, rng, window_fraction=0.05)
        changed = mutated[mutated != genome]
        assert np.allclose(changed, 55.0)

    def test_complement_of_zero_goes_to_max(self, rng):
        genome = np.zeros((10, 10, 3))
        mutated = complement_mutation(genome, rng, window_fraction=0.05, max_value=255.0)
        changed = mutated[mutated != genome]
        assert np.allclose(np.abs(changed), 255.0)

    def test_shuffle_preserves_multiset(self, genome, rng):
        mutated = shuffle_mutation(genome, rng, window_fraction=0.1)
        assert np.allclose(np.sort(mutated.ravel()), np.sort(genome.ravel()))

    def test_random_value_stays_in_range(self, genome, rng):
        mutated = random_value_mutation(genome, rng, window_fraction=0.1, max_value=255.0)
        assert np.abs(mutated).max() <= 255.0

    def test_inversion_preserves_multiset(self, genome, rng):
        mutated = inversion_mutation(genome, rng, window_fraction=0.05)
        assert np.allclose(np.sort(mutated.ravel()), np.sort(genome.ravel()))

    def test_operators_do_not_modify_input(self, genome, rng):
        original = genome.copy()
        complement_mutation(genome, rng)
        shuffle_mutation(genome, rng)
        random_value_mutation(genome, rng)
        inversion_mutation(genome, rng)
        assert np.allclose(genome, original)


class TestMutateDispatch:
    def test_zero_probability_returns_copy(self, genome, rng):
        config = MutationConfig(probability=0.0)
        mutated = mutate(genome, rng, config)
        assert np.allclose(mutated, genome)
        assert mutated is not genome

    def test_probability_one_always_mutates_or_shuffles(self, genome):
        # With probability 1 an operator is always applied; shuffling a
        # window may occasionally leave values identical, so check over
        # several seeds that at least one mutation changed the genome.
        changed = False
        for seed in range(5):
            mutated = mutate(genome, np.random.default_rng(seed), MutationConfig(probability=1.0))
            if not np.allclose(mutated, genome):
                changed = True
                break
        assert changed

    def test_restricted_operator_set(self, genome):
        config = MutationConfig(probability=1.0, operators=("complement",))
        rng = np.random.default_rng(0)
        mutated = mutate(genome, rng, config)
        changed_mask = mutated != genome
        values = mutated[changed_mask]
        originals = genome[changed_mask]
        signs = np.where(originals >= 0, 1.0, -1.0)
        assert np.allclose(values, signs * 255.0 - originals)

    def test_default_config_used_when_none(self, genome, rng):
        mutated = mutate(genome, rng, None)
        assert mutated.shape == genome.shape


class TestInt16Genomes:
    """The operators keep an int16 genome's dtype and draw the same values
    as on its float64 twin: attack genomes are int16, and the search must
    follow the trajectory it followed on rounded float64 genomes."""

    @pytest.mark.parametrize(
        "operator",
        [
            complement_mutation,
            shuffle_mutation,
            random_value_mutation,
            inversion_mutation,
        ],
    )
    def test_same_values_as_float64(self, operator, genome):
        as_int16 = genome.astype(np.int16)
        mutated = operator(as_int16, np.random.default_rng(8), window_fraction=0.05)
        reference = operator(genome, np.random.default_rng(8), window_fraction=0.05)
        assert mutated.dtype == np.int16
        assert np.array_equal(mutated, reference)

    def test_mutate_keeps_int16(self, genome):
        config = MutationConfig(probability=1.0)
        for seed in range(12):
            mutated = mutate(
                genome.astype(np.int16), np.random.default_rng(seed), config
            )
            reference = mutate(genome, np.random.default_rng(seed), config)
            assert mutated.dtype == np.int16
            assert np.array_equal(mutated, reference)
