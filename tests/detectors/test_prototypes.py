"""Tests for the prototype classification head."""

import numpy as np
import pytest

from repro.detectors.prototypes import PrototypeBank


def _bank(temperature=0.5, background_bias=0.0):
    class_prototypes = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
        ]
    )
    background_prototypes = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    return PrototypeBank(
        class_prototypes=class_prototypes,
        background_prototypes=background_prototypes,
        temperature=temperature,
        background_bias=background_bias,
    )


class TestConstruction:
    def test_properties(self):
        bank = _bank()
        assert bank.num_classes == 2
        assert bank.feature_dim == 3

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            PrototypeBank(np.zeros(3), np.zeros((1, 3)))
        with pytest.raises(ValueError):
            PrototypeBank(np.zeros((2, 3)), np.zeros((1, 4)))

    def test_invalid_temperature_rejected(self):
        with pytest.raises(ValueError):
            PrototypeBank(np.zeros((1, 3)), np.zeros((1, 3)), temperature=0.0)

    @pytest.mark.parametrize("temperature", [np.nan, np.inf, -np.inf, -1.0])
    def test_non_finite_or_negative_temperature_rejected(self, temperature):
        # NaN slips past a plain ``<= 0`` check and turns every probability
        # into NaN; the bank must refuse it when it is built.
        with pytest.raises(ValueError, match="temperature"):
            PrototypeBank(np.zeros((1, 3)), np.zeros((1, 3)), temperature=temperature)

    def test_empty_background_model_rejected(self):
        # Without a background prototype the background logit has no
        # minimum to take; the bank must refuse it when it is built, not
        # on its first ``probabilities`` call.
        with pytest.raises(ValueError, match="background_prototypes"):
            PrototypeBank(np.zeros((2, 3)), np.zeros((0, 3)))


class TestScoring:
    def test_logits_shape(self):
        bank = _bank()
        features = np.zeros((4, 5, 3))
        assert bank.logits(features).shape == (4, 5, 3)
        assert bank.probabilities(features).shape == (4, 5, 3)

    def test_feature_on_prototype_wins(self):
        bank = _bank()
        feature = np.array([1.0, 0.0, 0.0])
        assert bank.classify(feature) == 0
        feature = np.array([0.0, 1.0, 0.0])
        assert bank.classify(feature) == 1

    def test_background_feature_classified_as_background(self):
        bank = _bank()
        assert bank.classify(np.array([0.0, 0.0, 0.0])) == bank.num_classes
        assert bank.classify(np.array([0.0, 0.0, 1.0])) == bank.num_classes

    def test_background_uses_nearest_of_multiple_prototypes(self):
        bank = _bank()
        # Close to the second background prototype, far from the first.
        probabilities = bank.probabilities(np.array([0.0, 0.1, 0.9]))
        assert probabilities[-1] > 0.5

    def test_probabilities_sum_to_one(self):
        bank = _bank()
        features = np.random.default_rng(0).normal(size=(10, 3))
        assert np.allclose(bank.probabilities(features).sum(axis=-1), 1.0)

    def test_temperature_sharpens_distribution(self):
        sharp = _bank(temperature=0.01)
        soft = _bank(temperature=10.0)
        feature = np.array([0.9, 0.1, 0.0])
        assert sharp.probabilities(feature)[0] > soft.probabilities(feature)[0]

    def test_background_bias_shifts_towards_background(self):
        neutral = _bank(background_bias=0.0)
        biased = _bank(background_bias=5.0)
        feature = np.array([0.6, 0.0, 0.0])
        assert (
            biased.probabilities(feature)[-1] > neutral.probabilities(feature)[-1]
        )

    def test_wrong_feature_dim_rejected(self):
        with pytest.raises(ValueError):
            _bank().logits(np.zeros(4))
