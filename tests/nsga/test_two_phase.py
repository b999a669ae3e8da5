"""Two-phase bounded-error search: driver logic and exactness guarantees.

The contract under test: with ``fast_search`` on, the evolutionary loop may
evaluate at an approximate fidelity, but the returned population always
carries objective vectors produced by the exact evaluation path — bit-equal
to evaluating the same genomes from scratch without fast search.  The
evaluation cache is keyed by ``(fidelity, genome digest)`` so approximate
vectors can never answer exact requests (the stale-fidelity regression that
motivated the key change), and the default configuration stays bit- and
draw-identical to an exact-only run.
"""

import numpy as np
import pytest

from repro.core.objectives import ButterflyObjectives
from repro.nsga.algorithm import NSGAConfig, NSGAII
from repro.nsga.initialization import InitializationConfig
from repro.nsga.mutation import MutationConfig


class FidelityAwareObjective:
    """Toy objective whose approximate values are deliberately wrong.

    Exact fidelity returns the true sphere objectives; any approximate
    fidelity returns values shifted by a large constant.  If approximate
    vectors ever leak into the exact re-score (stale cache, skipped
    re-evaluation), the final objectives are off by the shift and the
    bit-parity assertions fail loudly.
    """

    SHIFT = 1000.0

    def __init__(self):
        self.fidelity = None
        self.calls_by_fidelity = {}

    def set_fidelity(self, value):
        self.fidelity = value

    @property
    def fidelity_tag(self):
        return "exact" if self.fidelity is None else str(self.fidelity)

    def exact(self, genome):
        x = float(genome.mean()) / 50.0
        return np.array([x**2, (x - 2.0) ** 2])

    def __call__(self, genome):
        key = self.fidelity_tag
        self.calls_by_fidelity[key] = self.calls_by_fidelity.get(key, 0) + 1
        values = self.exact(genome)
        if self.fidelity is not None:
            values = values + self.SHIFT
        return values


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


class TestDriver:
    def test_fast_search_requires_set_fidelity(self):
        def plain(genome):
            return np.array([0.0, 0.0])

        with pytest.raises(ValueError, match="set_fidelity"):
            NSGAII(plain, (4, 4), _config(fast_search=True))

    def test_rescore_every_must_be_non_negative(self):
        with pytest.raises(ValueError, match="rescore_every"):
            _config(rescore_every=-1)

    def test_final_objectives_are_exact(self):
        objective = FidelityAwareObjective()
        result = NSGAII(
            objective,
            (6, 8),
            _config(fast_search=True),
            constraint=np.round,
        ).run()
        for individual in result.population:
            assert np.array_equal(
                individual.objectives, objective.exact(individual.genome)
            )
        assert objective.calls_by_fidelity.get("windowed", 0) > 0
        assert objective.calls_by_fidelity.get("exact", 0) > 0
        # The run must exit at exact fidelity so downstream consumers (the
        # attack's front re-prediction) see the exact configuration.
        assert objective.fidelity is None

    def test_periodic_rescore_final_objectives_still_exact(self):
        objective = FidelityAwareObjective()
        result = NSGAII(
            objective,
            (6, 8),
            _config(fast_search=True, rescore_every=2),
            constraint=np.round,
        ).run()
        for individual in result.population:
            assert np.array_equal(
                individual.objectives, objective.exact(individual.genome)
            )

    def test_history_carries_fidelity_only_when_fast(self):
        objective = FidelityAwareObjective()
        fast = NSGAII(
            objective, (6, 8), _config(fast_search=True), constraint=np.round
        ).run()
        assert all(entry["fidelity"] == "windowed" for entry in fast.history)
        exact_only = NSGAII(
            FidelityAwareObjective(), (6, 8), _config(), constraint=np.round
        ).run()
        assert all("fidelity" not in entry for entry in exact_only.history)

    def test_default_run_never_calls_set_fidelity(self):
        objective = FidelityAwareObjective()
        NSGAII(objective, (6, 8), _config(), constraint=np.round).run()
        assert objective.calls_by_fidelity == {
            "exact": objective.calls_by_fidelity["exact"]
        }


class TestCacheFidelityKeys:
    def test_stale_fidelity_vectors_never_answer_exact_requests(self):
        """Regression: a genome evaluated approximately, then exactly, must
        get two evaluations — the digest alone is not a sufficient key."""
        objective = FidelityAwareObjective()
        algorithm = NSGAII(
            objective, (4, 4), _config(fast_search=True), constraint=np.round
        )
        from repro.nsga.individual import Individual

        genome = np.full((4, 4), 6.0)
        approx_individual = Individual(genome=genome.copy())
        algorithm._enter_fidelity("windowed")
        algorithm._evaluate([approx_individual])
        assert np.array_equal(
            approx_individual.objectives,
            objective.exact(genome) + FidelityAwareObjective.SHIFT,
        )

        exact_individual = Individual(genome=genome.copy())
        algorithm._enter_fidelity(None)
        algorithm._evaluate([exact_individual])
        assert np.array_equal(exact_individual.objectives, objective.exact(genome))

        # And the reverse direction: the exact vector is cached under the
        # exact namespace, approximate requests still see approximate values.
        algorithm._enter_fidelity("windowed")
        second_approx = Individual(genome=genome.copy())
        algorithm._evaluate([second_approx])
        assert np.array_equal(
            second_approx.objectives,
            objective.exact(genome) + FidelityAwareObjective.SHIFT,
        )

    def test_cache_hits_within_one_fidelity_still_work(self):
        objective = FidelityAwareObjective()
        algorithm = NSGAII(
            objective, (4, 4), _config(fast_search=True), constraint=np.round
        )
        from repro.nsga.individual import Individual

        genome = np.full((4, 4), 3.0)
        algorithm._enter_fidelity("windowed")
        algorithm._evaluate([Individual(genome=genome.copy())])
        calls_before = dict(objective.calls_by_fidelity)
        algorithm._evaluate([Individual(genome=genome.copy())])
        assert objective.calls_by_fidelity == calls_before
        assert algorithm.cache_hits == 1


@pytest.mark.parametrize("rescore_every", [0, 2])
def test_end_to_end_front_bit_identical_to_exact_scoring(
    detr_detector, small_dataset, rescore_every
):
    """The acceptance property on a real transformer objective: the final
    population's objective vectors equal a from-scratch exact evaluation
    of the same genomes, with or without mid-run exact re-scoring."""
    image = small_dataset[0].image
    objective = ButterflyObjectives(
        detr_detector, image, use_activation_cache=True
    )
    config = NSGAConfig(
        num_iterations=3,
        population_size=8,
        seed=11,
        mutation=MutationConfig(window_fraction=0.002),
        initialization=InitializationConfig(
            sparse_fraction=1.0, sparse_patch_fraction=0.002
        ),
        fast_search=True,
        rescore_every=rescore_every,
    )
    result = NSGAII(objective, image.shape, config, constraint=np.round).run()
    reference = ButterflyObjectives(
        detr_detector, image, use_activation_cache=True
    )
    for individual in result.population:
        assert np.array_equal(
            individual.objectives, reference(individual.genome)
        )
