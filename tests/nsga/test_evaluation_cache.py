"""Regression tests for evaluation accounting and determinism.

``NSGAResult.num_evaluations`` keeps the classic NSGA-II meaning (initial
population + one per offspring); the evaluation cache must only change how
many of those reach the objective function (``cache_hits``), never the
count itself nor any result.  The determinism pins make sure the cache (or
a future change to it) cannot silently alter query counts or the seeded
search trajectory.
"""

import hashlib

import numpy as np
import pytest

from repro.nn.incremental import mask_nonzero_bbox
from repro.nsga.algorithm import NSGAConfig, NSGAII
from repro.nsga.initialization import InitializationConfig
from repro.nsga.mutation import MutationConfig


def _sphere_objectives(genome):
    x = float(genome.mean()) / 50.0
    return np.array([x**2, (x - 2.0) ** 2])


def _config(seed=0, batch_evaluation=True, evaluation_cache=True):
    return NSGAConfig(
        num_iterations=6,
        population_size=10,
        crossover_probability=0.5,
        mutation=MutationConfig(probability=0.45, window_fraction=0.05),
        initialization=InitializationConfig(population_size=10, gaussian_sigma=60.0),
        seed=seed,
        batch_evaluation=batch_evaluation,
        evaluation_cache=evaluation_cache,
    )


def _run(seed=0, evaluation_cache=True):
    optimizer = NSGAII(
        objective_function=_sphere_objectives,
        genome_shape=(6, 8, 3),
        config=_config(seed=seed, evaluation_cache=evaluation_cache),
        constraint=np.round,
    )
    return optimizer.run()


def _population_digest(result):
    digest = hashlib.sha256()
    for individual in result.population:
        digest.update(np.ascontiguousarray(individual.genome).tobytes())
    return digest.hexdigest()


class TestEvaluationAccounting:
    def test_num_evaluations_is_population_plus_offspring(self):
        result = _run()
        assert result.num_evaluations == 10 + 6 * 10

    def test_cache_cannot_change_num_evaluations(self):
        assert _run(evaluation_cache=True).num_evaluations == (
            _run(evaluation_cache=False).num_evaluations
        )

    def test_num_queries_accounts_for_cache_hits(self):
        result = _run()
        assert result.num_queries == result.num_evaluations - result.cache_hits
        assert _run(evaluation_cache=False).cache_hits == 0

    def test_rounded_genomes_produce_cache_hits(self):
        # Integer-rounded genomes (the attack's mask encoding) duplicate
        # often enough that a seeded run must save at least some queries.
        result = _run()
        assert result.cache_hits > 0


class TestDeterminism:
    def test_same_seed_same_population_hash(self):
        first, second = _run(seed=3), _run(seed=3)
        assert _population_digest(first) == _population_digest(second)
        assert first.num_evaluations == second.num_evaluations
        assert first.cache_hits == second.cache_hits
        assert np.array_equal(first.objectives_matrix(), second.objectives_matrix())

    def test_cache_does_not_change_trajectory(self):
        cached, uncached = _run(seed=5), _run(seed=5, evaluation_cache=False)
        assert _population_digest(cached) == _population_digest(uncached)
        assert np.array_equal(cached.objectives_matrix(), uncached.objectives_matrix())

    def test_different_seeds_diverge(self):
        assert _population_digest(_run(seed=0)) != _population_digest(_run(seed=1))


GENOME_SHAPES = [(4, 4), (6, 8), (4, 4, 3), (12, 20, 3)]


def _rounded_genome(shape, seed):
    """A rounded genome: zeros on the left half, ``-0.0`` among the rest."""
    rng = np.random.default_rng(seed)
    genome = np.round(rng.normal(0.0, 0.6, size=shape))
    genome[:, : shape[1] // 2] = 0.0
    return genome


class TestGenomeKey:
    """Keys collide if and only if the full genome bytes are equal."""

    @pytest.mark.parametrize("shape", GENOME_SHAPES)
    def test_signed_zero_outside_value_box_changes_key(self, shape):
        genome = np.zeros(shape)
        genome[1, 1] = 3.0
        signed = genome.copy()
        signed[-1, -1] = -0.0
        # Same float-nonzero box, so a key over that box would collide.
        assert mask_nonzero_bbox(genome) == mask_nonzero_bbox(signed)
        assert NSGAII._genome_key(genome) != NSGAII._genome_key(signed)

    @pytest.mark.parametrize("shape", GENOME_SHAPES)
    def test_byte_equal_genomes_share_key(self, shape):
        genome = _rounded_genome(shape, seed=1)
        padded = np.zeros((2 * shape[0], 3 * shape[1]) + shape[2:])
        padded[::2, 1::3] = genome
        view = padded[::2, 1::3]
        assert not view.flags.c_contiguous
        key = NSGAII._genome_key(genome)
        assert NSGAII._genome_key(genome.copy()) == key
        assert NSGAII._genome_key(view) == key
        assert NSGAII._genome_key(np.asfortranarray(genome)) == key

    @pytest.mark.parametrize("shape", GENOME_SHAPES)
    def test_keys_equal_exactly_when_bytes_equal(self, shape):
        rng = np.random.default_rng(7)
        genomes = [_rounded_genome(shape, seed) for seed in range(6)]
        # Variants that differ from genome 0 only by signs of zeros or of
        # one value, plus an all-zero pair that differs by one sign bit.
        flipped = genomes[0].copy()
        zeros = np.flatnonzero(flipped == 0.0)
        flipped.flat[rng.choice(zeros)] *= -1.0
        negated = genomes[0].copy()
        negated.flat[np.flatnonzero(negated != 0.0)[:1]] *= -1.0
        genomes += [flipped, negated, np.zeros(shape), np.full(shape, -0.0)]
        genomes += [genome.copy() for genome in genomes]
        for first in genomes:
            for second in genomes:
                same_bytes = first.tobytes() == second.tobytes()
                same_key = NSGAII._genome_key(first) == NSGAII._genome_key(second)
                assert same_key == same_bytes

    def test_shape_is_part_of_the_key(self):
        assert NSGAII._genome_key(np.zeros((4, 6))) != NSGAII._genome_key(
            np.zeros((6, 4))
        )

    #: Keys recorded before the byte box moved into
    #: ``repro.nn.incremental.byte_support_bbox``: the key hashes the same
    #: dtype, shape, box and bytes, so evaluation-cache hits do not move.
    RECORDED_KEYS = {
        "right_half_int16": "1bb3753de524ec602862cc1715915f0c",
        "sparse_int16": "b2ff7acf78c48f836eb47255a18aed3a",
        "zero_int16": "88c291236ec82b277f8d5404c18f7677",
        "float64_negative_zero": "852b59e842aa14cde5ee2ebf61d362db",
        "float64_plane": "d7faccf315f3b85276a485d1b0867680",
    }

    @staticmethod
    def _recorded_genomes():
        rng = np.random.default_rng(26)
        right = np.zeros((96, 320, 3), dtype=np.int16)
        right[:, 160:] = rng.integers(-255, 256, size=(96, 160, 3))
        sparse = np.zeros((8, 12, 3), dtype=np.int16)
        sparse[2:5, 7:9, 1] = [[3, -4], [0, 255], [-255, 1]]
        signed = np.zeros((8, 12, 3))
        signed[1, 2, 0] = -0.0
        signed[4, 9, 2] = 7.0
        plane = np.zeros((5, 7))
        plane[3, 1] = 2.5
        plane[0, 6] = -0.0
        return {
            "right_half_int16": right,
            "sparse_int16": sparse,
            "zero_int16": np.zeros((8, 12, 3), dtype=np.int16),
            "float64_negative_zero": signed,
            "float64_plane": plane,
        }

    @pytest.mark.parametrize("name", sorted(RECORDED_KEYS))
    def test_keys_equal_recorded_digests(self, name):
        genome = self._recorded_genomes()[name]
        assert NSGAII._genome_key(genome).hex() == self.RECORDED_KEYS[name]
