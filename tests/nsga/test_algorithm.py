"""Tests for the NSGA-II main loop on analytic benchmark problems."""

import dataclasses

import numpy as np
import pytest

from repro.nsga.algorithm import NSGAConfig, NSGAII
from repro.nsga.front import pareto_front_objectives
from repro.nsga.initialization import InitializationConfig
from repro.nsga.mutation import MutationConfig


def _schaffer_objectives(genome: np.ndarray) -> np.ndarray:
    """Schaffer's problem N.1 on the genome mean: f1 = x^2, f2 = (x-2)^2.

    The Pareto-optimal set is x in [0, 2].  Genomes are image-like arrays;
    using their mean keeps the genome representation identical to the
    attack's filter masks.
    """
    x = float(genome.mean()) / 50.0
    return np.array([x**2, (x - 2.0) ** 2])


def _small_config(iterations=10, population=12, seed=0):
    return NSGAConfig(
        num_iterations=iterations,
        population_size=population,
        crossover_probability=0.5,
        mutation=MutationConfig(probability=0.9, window_fraction=0.1),
        initialization=InitializationConfig(
            population_size=population, gaussian_sigma=60.0
        ),
        seed=seed,
    )


class TestNSGAConfig:
    def test_paper_defaults_match_table_ii(self):
        config = NSGAConfig.paper_defaults()
        assert config.num_iterations == 100
        assert config.population_size == 101
        assert config.crossover_probability == 0.5
        assert config.mutation.probability == 0.45
        assert config.mutation.window_fraction == 0.01

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            NSGAConfig(num_iterations=-1)
        with pytest.raises(ValueError):
            NSGAConfig(population_size=1)
        with pytest.raises(ValueError):
            NSGAConfig(crossover_probability=1.5)

    @pytest.mark.parametrize("name", ["fast_search", "rescore_every"])
    def test_no_two_phase_search_options(self, name):
        """The loop has one exact phase; the two-phase options are gone."""
        assert name not in {field.name for field in dataclasses.fields(NSGAConfig)}
        with pytest.raises(TypeError, match=name):
            NSGAConfig(**{name: 1})


class TestNSGAIIRun:
    def test_population_size_maintained(self):
        optimizer = NSGAII(_schaffer_objectives, (4, 4, 3), _small_config())
        result = optimizer.run()
        assert len(result.population) == 12
        assert all(ind.is_evaluated for ind in result.population)

    def test_number_of_evaluations_accounted(self):
        config = _small_config(iterations=5, population=10)
        optimizer = NSGAII(_schaffer_objectives, (4, 4, 3), config)
        result = optimizer.run()
        # Initial population + one offspring population per generation.
        assert result.num_evaluations == 10 + 5 * 10

    def test_history_recorded_per_generation(self):
        config = _small_config(iterations=7)
        result = NSGAII(_schaffer_objectives, (4, 4, 3), config).run()
        assert len(result.history) == 7
        assert {"generation", "best_per_objective", "mean_per_objective", "front_size"} <= set(
            result.history[0].keys()
        )

    def test_front_quality_improves_over_random_init(self):
        config = _small_config(iterations=15, population=16)
        result = NSGAII(_schaffer_objectives, (4, 4, 3), config).run()
        front = pareto_front_objectives(result.population)
        # Pareto-optimal solutions of Schaffer N.1 satisfy f1 + f2 <= 4 (with
        # equality exactly on the front); the search should get close.
        assert np.min(front.sum(axis=1)) < 4.5

    def test_best_objective_is_monotone_non_increasing(self):
        config = _small_config(iterations=12)
        result = NSGAII(_schaffer_objectives, (4, 4, 3), config).run()
        best_f1 = [entry["best_per_objective"][0] for entry in result.history]
        # Elitism guarantees the best value never gets worse.
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(best_f1, best_f1[1:]))

    def test_deterministic_given_seed(self):
        config = _small_config(seed=3)
        first = NSGAII(_schaffer_objectives, (4, 4, 3), config).run()
        second = NSGAII(_schaffer_objectives, (4, 4, 3), config).run()
        assert np.allclose(first.objectives_matrix(), second.objectives_matrix())

    def test_constraint_applied_to_all_genomes(self):
        def zero_first_row(genome):
            constrained = genome.copy()
            constrained[0] = 0.0
            return constrained

        config = _small_config(iterations=4)
        optimizer = NSGAII(
            _schaffer_objectives, (4, 4, 3), config, constraint=zero_first_row
        )
        result = optimizer.run()
        for individual in result.population:
            assert np.allclose(individual.genome[0], 0.0)

    def test_callback_invoked_every_generation(self):
        calls = []
        config = _small_config(iterations=5)
        NSGAII(
            _schaffer_objectives,
            (4, 4, 3),
            config,
            callback=lambda generation, population: calls.append(generation),
        ).run()
        assert calls == list(range(5))

    def test_zero_iterations_returns_initial_population(self):
        config = _small_config(iterations=0, population=8)
        result = NSGAII(_schaffer_objectives, (4, 4, 3), config).run()
        assert len(result.population) == 8
        assert result.history == []

    def test_pareto_front_property(self):
        config = _small_config(iterations=6)
        result = NSGAII(_schaffer_objectives, (4, 4, 3), config).run()
        front = result.pareto_front
        assert front
        assert all(ind.rank == 1 for ind in front)
