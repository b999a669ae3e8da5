"""Tests for elementwise ops, normalisation and positional encodings."""

import numpy as np
import pytest

from repro.nn.ops import (
    grid_positional_encoding,
    layer_norm,
    log_softmax,
    positional_encoding,
    relu,
    sigmoid,
    softmax,
)


class TestActivations:
    def test_relu(self):
        x = np.array([-2.0, 0.0, 3.0])
        assert np.allclose(relu(x), [0.0, 0.0, 3.0])

    def test_sigmoid_range_and_symmetry(self):
        x = np.linspace(-10, 10, 21)
        y = sigmoid(x)
        assert np.all(y > 0) and np.all(y < 1)
        assert np.allclose(y + sigmoid(-x), 1.0)

    def test_sigmoid_extreme_values_stable(self):
        assert sigmoid(np.array([-1000.0]))[0] == pytest.approx(0.0)
        assert sigmoid(np.array([1000.0]))[0] == pytest.approx(1.0)


class TestSoftmax:
    def test_sums_to_one(self):
        x = np.random.default_rng(0).normal(size=(4, 5))
        probabilities = softmax(x, axis=-1)
        assert np.allclose(probabilities.sum(axis=-1), 1.0)

    def test_shift_invariance(self):
        x = np.array([1.0, 2.0, 3.0])
        assert np.allclose(softmax(x), softmax(x + 100.0))

    def test_large_values_stable(self):
        x = np.array([1000.0, 1000.0])
        assert np.allclose(softmax(x), [0.5, 0.5])

    def test_temperature_sharpens(self):
        x = np.array([1.0, 2.0])
        sharp = softmax(x, temperature=0.1)
        soft = softmax(x, temperature=10.0)
        assert sharp[1] > soft[1]

    def test_out_receives_the_same_bits(self):
        x = np.random.default_rng(4).normal(size=(4, 9))
        expected = softmax(x, temperature=0.7).view(np.uint64)
        out = np.empty_like(x)
        assert softmax(x, temperature=0.7, out=out) is out
        assert np.array_equal(out.view(np.uint64), expected)
        in_place = x.copy()
        assert softmax(in_place, temperature=0.7, out=in_place) is in_place
        assert np.array_equal(in_place.view(np.uint64), expected)

    def test_invalid_temperature_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.array([1.0]), temperature=0.0)

    def test_log_softmax_consistency(self):
        x = np.random.default_rng(1).normal(size=7)
        assert np.allclose(np.exp(log_softmax(x)), softmax(x))


class TestLayerNorm:
    def test_zero_mean_unit_variance(self):
        x = np.random.default_rng(2).normal(5.0, 3.0, size=(6, 8))
        normalised = layer_norm(x, axis=-1)
        assert np.allclose(normalised.mean(axis=-1), 0.0, atol=1e-8)
        assert np.allclose(normalised.std(axis=-1), 1.0, atol=1e-3)

    def test_constant_input_stays_finite(self):
        x = np.full((4,), 3.0)
        assert np.all(np.isfinite(layer_norm(x)))


class TestPositionalEncoding:
    def test_shape(self):
        encoding = positional_encoding(10, 8)
        assert encoding.shape == (10, 8)

    def test_values_bounded(self):
        encoding = positional_encoding(50, 16)
        assert np.abs(encoding).max() <= 1.0 + 1e-9

    def test_rows_are_distinct(self):
        encoding = positional_encoding(20, 8)
        assert not np.allclose(encoding[0], encoding[1])

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            positional_encoding(0, 8)

    def test_grid_encoding_shape(self):
        encoding = grid_positional_encoding(4, 6, 8)
        assert encoding.shape == (24, 8)

    def test_grid_encoding_requires_even_dim(self):
        with pytest.raises(ValueError):
            grid_positional_encoding(4, 6, 7)

    def test_grid_encoding_distinguishes_rows_and_columns(self):
        encoding = grid_positional_encoding(3, 3, 8).reshape(3, 3, 8)
        # Same row, different column -> only the second half changes.
        assert np.allclose(encoding[0, 0, :4], encoding[0, 1, :4])
        assert not np.allclose(encoding[0, 0, 4:], encoding[0, 1, 4:])


class TestSoftmaxDtype:
    def test_float64_unchanged(self):
        x = np.random.default_rng(2).normal(size=(4, 9))
        out = softmax(x, axis=-1)
        assert out.dtype == np.float64
        reference = np.exp(x - x.max(axis=-1, keepdims=True))
        reference /= reference.sum(axis=-1, keepdims=True)
        assert np.allclose(out, reference, atol=1e-12)

    def test_integer_input_promotes_to_float64(self):
        for dtype in (np.int64, np.float32):
            out = softmax(np.array([[0, 1, 2]], dtype=dtype), axis=-1)
            assert out.dtype == np.float64
