"""Tests for GA individuals."""

import numpy as np

from repro.nsga.individual import Individual


class TestIndividual:
    def test_unevaluated_by_default(self):
        individual = Individual(genome=np.zeros((4, 4, 3)))
        assert not individual.is_evaluated
        assert individual.num_objectives == 0
        assert individual.rank is None
        assert individual.crowding is None

    def test_set_objectives(self):
        individual = Individual(genome=np.zeros(3))
        individual.set_objectives([1.0, 2.0, 3.0])
        assert individual.is_evaluated
        assert individual.num_objectives == 3
        assert individual.objectives.dtype == np.float64

    def test_copy_is_deep_for_genome(self):
        individual = Individual(genome=np.zeros(3), objectives=np.array([1.0]))
        individual.rank = 1
        clone = individual.copy()
        clone.genome[0] = 5.0
        assert individual.genome[0] == 0.0
        assert clone.rank == 1
        assert clone.objectives is not individual.objectives

    def test_metadata_dict(self):
        individual = Individual(genome=np.zeros(3))
        individual.metadata["origin"] = "mutation"
        assert individual.copy().metadata == {"origin": "mutation"}

    def test_objectives_coerced_to_array(self):
        individual = Individual(genome=np.zeros(3), objectives=[1, 2])
        assert isinstance(individual.objectives, np.ndarray)
