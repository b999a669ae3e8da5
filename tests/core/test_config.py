"""Tests for attack configuration."""

import dataclasses

import pytest

from repro.core.config import AttackConfig
from repro.core.regions import FullImageRegion, HalfImageRegion
from repro.nsga.algorithm import NSGAConfig
from repro.nsga.mutation import MutationConfig


class TestAttackConfig:
    def test_defaults(self):
        config = AttackConfig()
        assert isinstance(config.region, FullImageRegion)
        assert config.epsilon == 2.0

    def test_paper_defaults_match_table_ii(self):
        config = AttackConfig.paper_defaults(region=HalfImageRegion("right"), seed=5)
        assert config.nsga.num_iterations == 100
        assert config.nsga.population_size == 101
        assert config.nsga.crossover_probability == 0.5
        assert config.nsga.mutation.probability == 0.45
        assert config.nsga.mutation.window_fraction == 0.01
        assert config.nsga.seed == 5
        assert isinstance(config.region, HalfImageRegion)

    def test_fast_config_reduces_budget_only(self):
        fast = AttackConfig.fast(num_iterations=5, population_size=10)
        paper = AttackConfig.paper_defaults()
        assert fast.nsga.num_iterations == 5
        assert fast.nsga.population_size == 10
        # The evolutionary operators stay at the paper's values.
        assert fast.nsga.crossover_probability == paper.nsga.crossover_probability
        assert fast.nsga.mutation.probability == paper.nsga.mutation.probability
        assert fast.nsga.mutation.window_fraction == paper.nsga.mutation.window_fraction

    def test_fast_config_accepts_region(self):
        config = AttackConfig.fast(region=HalfImageRegion("left"))
        assert config.region.half == "left"

    @pytest.mark.parametrize(
        "overrides",
        [
            {"activation_cache_size": 0},
            {"delta_store_size": 0},
            {"anneal_final_window": 0.0},
            {"anneal_final_window": 0.01, "anneal_shape": "cubic"},
        ],
        ids=["cache-size", "delta-store-size", "anneal-window", "anneal-shape"],
    )
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(ValueError):
            AttackConfig(**overrides)

    @pytest.mark.parametrize("max_value", [100.5, 0.5, 256.0, 40000.0])
    def test_mutation_bound_must_fit_int16_genomes(self, max_value):
        """A fractional bound would make complement truncate on assignment
        to an int16 genome; one above 255 leaves the paper's range."""
        nsga = NSGAConfig(mutation=MutationConfig(max_value=max_value))
        with pytest.raises(ValueError, match="nsga.mutation.max_value"):
            AttackConfig(nsga=nsga)

    @pytest.mark.parametrize("max_value", [1, 100.0, 255.0])
    def test_whole_mutation_bounds_accepted(self, max_value):
        nsga = NSGAConfig(mutation=MutationConfig(max_value=max_value))
        assert AttackConfig(nsga=nsga).nsga.mutation.max_value == max_value

    @pytest.mark.parametrize("name", ["fast_search", "rescore_every"])
    def test_no_two_phase_search_options(self, name):
        """Every attack searches exactly; the two-phase options are gone."""
        assert name not in {field.name for field in dataclasses.fields(AttackConfig)}
        with pytest.raises(TypeError, match=name):
            AttackConfig(**{name: 1})
