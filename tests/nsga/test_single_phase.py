"""NSGA-II runs one search phase against a digest-keyed evaluation cache.

Every objective vector the loop assigns comes from the objective function
itself or from an earlier evaluation of byte-identical genome bytes, so the
final population carries exactly the values a from-scratch evaluation of its
genomes gives.  The objective function needs nothing but ``__call__`` (and
optionally ``evaluate_population``); the cache key is the genome digest
alone, which doubles as the fingerprint the delta-reuse path stores under.
"""

import numpy as np
import pytest

from repro.core.objectives import ButterflyObjectives
from repro.nsga.algorithm import NSGAConfig, NSGAII
from repro.nsga.individual import Individual
from repro.nsga.initialization import InitializationConfig
from repro.nsga.mutation import MutationConfig


class CountingObjective:
    """A plain callable objective that counts the genomes it evaluates."""

    def __init__(self):
        self.calls = 0

    def __call__(self, genome):
        self.calls += 1
        x = float(genome.mean()) / 50.0
        return np.array([x**2, (x - 2.0) ** 2])


class CountingBatchObjective(CountingObjective):
    """The same objective behind the ``evaluate_population`` protocol."""

    def evaluate_population(self, masks, dirty_bounds=None, ancestry=None):
        return np.stack([self(mask) for mask in masks], axis=0)


def _config(**overrides):
    base = dict(
        num_iterations=6,
        population_size=10,
        mutation=MutationConfig(probability=0.45, window_fraction=0.05),
        initialization=InitializationConfig(population_size=10, gaussian_sigma=60.0),
        seed=3,
    )
    base.update(overrides)
    return NSGAConfig(**base)


class TestSinglePhaseRun:
    def test_final_objectives_equal_a_fresh_evaluation(self):
        objective = CountingObjective()
        result = NSGAII(objective, (6, 8), _config(), constraint=np.round).run()
        reference = CountingObjective()
        for individual in result.population:
            assert np.array_equal(
                individual.objectives, reference(individual.genome)
            )
        assert objective.calls == result.num_queries

    def test_history_holds_only_generation_statistics(self):
        result = NSGAII(
            CountingObjective(), (6, 8), _config(), constraint=np.round
        ).run()
        assert [entry["generation"] for entry in result.history] == list(range(6))
        for entry in result.history:
            assert set(entry) == {
                "generation",
                "best_per_objective",
                "mean_per_objective",
                "front_size",
            }


class TestDigestKeyedCache:
    @staticmethod
    def _algorithm(objective, **overrides):
        return NSGAII(objective, (4, 4), _config(**overrides), constraint=np.round)

    def test_equal_genome_in_a_later_batch_is_answered_from_cache(self):
        objective = CountingObjective()
        algorithm = self._algorithm(objective)
        genome = np.full((4, 4), 3.0)
        first = Individual(genome=genome.copy())
        algorithm._evaluate([first])
        second = Individual(genome=genome.copy())
        algorithm._evaluate([second])
        assert objective.calls == 1
        assert algorithm.cache_hits == 1
        assert np.array_equal(second.objectives, first.objectives)
        # Cache answers are copies: editing one in place cannot leak into
        # the next answer for the same genome.
        second.objectives[:] = -1.0
        third = Individual(genome=genome.copy())
        algorithm._evaluate([third])
        assert np.array_equal(third.objectives, first.objectives)
        assert objective.calls == 1

    def test_equal_genomes_inside_one_batch_share_one_evaluation(self):
        objective = CountingBatchObjective()
        algorithm = self._algorithm(objective)
        genome = np.full((4, 4), 5.0)
        batch = [Individual(genome=genome.copy()) for _ in range(3)]
        algorithm._evaluate(batch)
        assert objective.calls == 1
        assert algorithm.cache_hits == 2
        assert algorithm.num_evaluations == 3
        for individual in batch[1:]:
            assert np.array_equal(individual.objectives, batch[0].objectives)

    def test_one_changed_pixel_is_a_cache_miss(self):
        objective = CountingObjective()
        algorithm = self._algorithm(objective)
        genome = np.full((4, 4), 2.0)
        changed = genome.copy()
        changed[3, 1] = 1.0
        algorithm._evaluate([Individual(genome=genome)])
        algorithm._evaluate([Individual(genome=changed)])
        assert objective.calls == 2
        assert algorithm.cache_hits == 0

    def test_cache_key_is_the_genome_digest_and_fingerprint(self):
        algorithm = self._algorithm(CountingBatchObjective())
        genomes = [np.full((4, 4), value) for value in (0.0, 1.0, 7.0)]
        population = [Individual(genome=genome.copy()) for genome in genomes]
        algorithm._evaluate(population)
        keys = [NSGAII._genome_key(genome) for genome in genomes]
        assert set(algorithm._cache) == set(keys)
        for individual, key in zip(population, keys):
            assert individual.metadata["fingerprint"] == key
            assert np.array_equal(algorithm._cache[key], individual.objectives)

    def test_disabled_cache_still_fingerprints_batches(self):
        """Without the cache every genome is evaluated, yet batch members
        keep their fingerprint for the delta-reuse path."""
        objective = CountingBatchObjective()
        algorithm = self._algorithm(objective, evaluation_cache=False)
        genome = np.full((4, 4), 4.0)
        batch = [Individual(genome=genome.copy()) for _ in range(2)]
        algorithm._evaluate(batch)
        assert objective.calls == 2
        assert algorithm.cache_hits == 0
        assert algorithm._cache == {}
        assert all(
            ind.metadata["fingerprint"] == NSGAII._genome_key(genome) for ind in batch
        )


@pytest.mark.parametrize("architecture", ["yolo", "detr"])
def test_population_objectives_equal_a_fresh_dense_evaluation(
    request, small_dataset, architecture
):
    """On a real detector objective with the incremental and delta-reuse
    routes engaged, the final population's vectors equal a from-scratch
    dense evaluation of its genomes."""
    detector = request.getfixturevalue(f"{architecture}_detector")
    image = small_dataset[0].image
    objective = ButterflyObjectives(detector, image, use_activation_cache=True)
    config = NSGAConfig(
        num_iterations=3,
        population_size=8,
        seed=11,
        mutation=MutationConfig(window_fraction=0.002),
        initialization=InitializationConfig(
            sparse_fraction=1.0, sparse_patch_fraction=0.002
        ),
    )
    result = NSGAII(objective, image.shape, config, constraint=np.round).run()
    assert result.incremental["delta_hits"] > 0
    reference = ButterflyObjectives(detector, image, use_activation_cache=False)
    for individual in result.population:
        assert np.array_equal(individual.objectives, reference(individual.genome))
