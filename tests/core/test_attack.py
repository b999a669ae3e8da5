"""Tests for the ButterflyAttack orchestrator (single detector)."""

import numpy as np
import pytest

from repro.core.attack import ButterflyAttack, constrain_mask, nsga_config
from repro.core.config import AttackConfig
from repro.core.regions import HalfImageRegion
from repro.nsga.algorithm import NSGAConfig


@pytest.fixture(scope="module")
def attack_result(request):
    """One shared (small) attack run against the transformer detector."""
    detector = request.getfixturevalue("detr_detector")
    dataset = request.getfixturevalue("small_dataset")
    config = AttackConfig(
        nsga=NSGAConfig(num_iterations=4, population_size=8, seed=0),
        region=HalfImageRegion("right"),
    )
    attack = ButterflyAttack(detector, config)
    return attack.attack(dataset[0].image), dataset[0].image


class TestConstrainMask:
    def test_zeroes_outside_region_rounds_and_clips(self):
        config = AttackConfig(region=HalfImageRegion("right"))
        mask = np.full((2, 6, 3), 7.6)
        mask[0, 1] = 400.0  # left half: zeroed before clipping
        mask[0, 4] = 300.2
        mask[1, 5] = -1000.0
        mask[1, 3] = -2.5
        expected = np.full((2, 6, 3), 8.0)
        expected[:, :3] = 0.0
        expected[0, 4] = 255.0
        expected[1, 5] = -255.0
        expected[1, 3] = -2.0  # np.round rounds halves to even
        assert np.array_equal(constrain_mask(config, mask), expected)

    def test_returns_a_fresh_array(self):
        config = AttackConfig()
        mask = np.full((3, 4, 3), 1.4)
        constrained = constrain_mask(config, mask)
        assert constrained.dtype == np.float64
        assert not np.shares_memory(constrained, mask)
        assert np.all(mask == 1.4)
        assert np.all(constrained == 1.0)

    def test_rounding_is_not_an_option(self):
        with pytest.raises(TypeError):
            AttackConfig(round_masks=False)


class TestButterflyAttack:
    def test_result_population_size(self, attack_result):
        result, _ = attack_result
        assert len(result.solutions) == 8

    def test_front_is_nonempty_and_rank_one(self, attack_result):
        result, _ = attack_result
        assert result.pareto_front
        assert all(solution.rank == 1 for solution in result.pareto_front)

    def test_masks_respect_region_constraint(self, attack_result):
        result, image = attack_result
        middle = image.shape[1] // 2
        for solution in result.solutions:
            assert np.allclose(solution.mask.values[:, :middle, :], 0.0)

    def test_masks_are_integer_valued_and_bounded(self, attack_result):
        result, _ = attack_result
        for solution in result.solutions:
            values = solution.mask.values
            assert np.allclose(values, np.round(values))
            assert np.abs(values).max() <= 255.0

    def test_objectives_within_expected_ranges(self, attack_result):
        result, _ = attack_result
        for solution in result.solutions:
            assert 0.0 <= solution.intensity <= 1.0
            assert 0.0 <= solution.degradation <= 1.0 + 1e-9

    def test_front_solutions_carry_predictions_and_transitions(self, attack_result):
        result, _ = attack_result
        for solution in result.pareto_front:
            assert solution.perturbed_prediction is not None
            assert isinstance(solution.transitions, list)

    def test_clean_prediction_preserved(self, attack_result, detr_detector):
        result, image = attack_result
        assert result.clean_prediction.num_valid == detr_detector.predict(image).num_valid

    def test_detector_name_recorded(self, attack_result):
        result, _ = attack_result
        assert result.detector_name == "transformer-seed1"

    def test_evaluation_count_matches_budget(self, attack_result):
        result, _ = attack_result
        # initial population + iterations * population
        assert result.num_evaluations == 8 + 4 * 8

    def test_zero_mask_survives_in_population(self, attack_result):
        # The all-zero mask is Pareto-optimal (it has the best possible
        # intensity), so elitism must keep a zero-intensity solution around.
        result, _ = attack_result
        assert any(solution.intensity == 0.0 for solution in result.solutions)


class TestAttackReproducibility:
    def test_same_seed_same_front(self, yolo_detector, small_dataset):
        config = AttackConfig(
            nsga=NSGAConfig(num_iterations=2, population_size=6, seed=3),
            region=HalfImageRegion("right"),
        )
        image = small_dataset[1].image
        first = ButterflyAttack(yolo_detector, config).attack(image)
        second = ButterflyAttack(yolo_detector, config).attack(image)
        assert np.allclose(
            first.objectives_array(front_only=False),
            second.objectives_array(front_only=False),
        )

    def test_callback_receives_generations(self, yolo_detector, small_dataset):
        config = AttackConfig(nsga=NSGAConfig(num_iterations=3, population_size=6, seed=0))
        generations = []
        ButterflyAttack(yolo_detector, config).attack(
            small_dataset[0].image, callback=lambda g, pop: generations.append(g)
        )
        assert generations == [0, 1, 2]

    def test_build_objectives_exposed(self, yolo_detector, small_dataset):
        attack = ButterflyAttack(yolo_detector, AttackConfig())
        objectives = attack.build_objectives(small_dataset[0].image)
        assert objectives.clean_prediction is not None


class TestSparseInitializationFlag:
    def test_default_leaves_nsga_config_untouched(self):
        config = AttackConfig(nsga=NSGAConfig(num_iterations=2, population_size=6))
        assert nsga_config(config) is config.nsga

    def test_flag_rewrites_initialization_only(self):
        config = AttackConfig(
            nsga=NSGAConfig(num_iterations=2, population_size=6, seed=5),
            sparse_init_fraction=0.3,
        )
        nsga = nsga_config(config)
        assert nsga.initialization.sparse_fraction == 0.3
        assert nsga.seed == 5
        assert nsga.num_iterations == config.nsga.num_iterations
        assert config.nsga.initialization.sparse_fraction == 0.0  # original frozen

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            AttackConfig(sparse_init_fraction=-0.1)

    def test_sparse_attack_runs_and_respects_region(self, yolo_detector, small_dataset):
        config = AttackConfig(
            nsga=NSGAConfig(num_iterations=2, population_size=6, seed=0),
            region=HalfImageRegion("right"),
            sparse_init_fraction=0.5,
        )
        image = small_dataset[0].image
        result = ButterflyAttack(yolo_detector, config).attack(image)
        assert len(result.solutions) == 6
        middle = image.shape[1] // 2
        for solution in result.solutions:
            assert np.allclose(solution.mask.values[:, :middle, :], 0.0)
