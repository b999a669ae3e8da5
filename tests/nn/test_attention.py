"""Tests for the row-blocked attention kernel and multi-head self-attention.

The kernel is compared against the unblocked ``softmax(QKᵀ / scale) V``
kept below as the reference.  Blocking changes only how many rows BLAS gets
for ``weights @ value`` (and so its summation order), so the tolerance is
set from float64 beforehand: ``rtol=1e-12, atol=1e-14``.
"""

import numpy as np
import pytest

from repro.nn.attention import (
    BLOCK_SCORE_BYTES,
    MultiHeadSelfAttention,
    attention_rows,
    block_rows,
)
from repro.nn.ops import softmax

RTOL, ATOL = 1e-12, 1e-14

#: Key tokens whose block is short (128 rows), so query counts around one
#: and two blocks stay cheap.
KEYS = 1024
ROWS = block_rows(1 << 20, KEYS)


def scaled_dot_product_attention(query, key, value, temperature=None):
    """Unblocked reference: the attended values and the full weight matrix."""
    query = np.asarray(query, dtype=np.float64)
    key = np.asarray(key, dtype=np.float64)
    value = np.asarray(value, dtype=np.float64)
    if query.shape[-1] != key.shape[-1]:
        raise ValueError("query and key feature dimensions differ")
    if key.shape[-2] != value.shape[-2]:
        raise ValueError("key and value token counts differ")
    scale = temperature if temperature is not None else np.sqrt(query.shape[-1])
    weights = softmax(query @ np.swapaxes(key, -1, -2) / scale, axis=-1)
    return weights @ value, weights


def _weights(query, key, scale):
    """The kernel's attention weights: its output against identity values."""
    return attention_rows(query, key, np.eye(key.shape[-2]), scale)


def _bits(array):
    return np.ascontiguousarray(array).view(np.uint64)


class TestBlockRows:
    def test_rows_are_a_byte_budget_of_key_tokens(self):
        assert ROWS == BLOCK_SCORE_BYTES // (8 * KEYS)
        assert 1 < ROWS < 480
        assert block_rows(480, 480) == BLOCK_SCORE_BYTES // (8 * 480)
        assert block_rows(7130, 7130) == BLOCK_SCORE_BYTES // (8 * 7130)

    def test_clamped_to_query_tokens_and_at_least_one(self):
        assert block_rows(5, 7) == 5
        assert block_rows(100, BLOCK_SCORE_BYTES) == 1


class TestKernelMatchesReference:
    @pytest.mark.parametrize(
        "tokens", [1, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 3, 480]
    )
    def test_token_counts_around_block_edges(self, tokens):
        rng = np.random.default_rng(tokens)
        query = rng.normal(size=(tokens, 8))
        key = rng.normal(size=(KEYS, 8))
        value = rng.normal(size=(KEYS, 5))
        expected, _ = scaled_dot_product_attention(query, key, value)
        actual = attention_rows(query, key, value, np.sqrt(8))
        assert actual.shape == (tokens, 5)
        np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=ATOL)

    @pytest.mark.parametrize("tokens", [1, 7, 480])
    def test_self_attention_token_counts(self, tokens):
        rng = np.random.default_rng(tokens + 1)
        query, key, value = (rng.normal(size=(tokens, 8)) for _ in range(3))
        expected, _ = scaled_dot_product_attention(query, key, value, 0.7)
        actual = attention_rows(query, key, value, 0.7)
        np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=ATOL)

    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    def test_leading_axes(self, lead):
        rng = np.random.default_rng(len(lead))
        query = rng.normal(size=lead + (2 * ROWS + 3, 6))
        key = rng.normal(size=lead + (KEYS, 6))
        value = rng.normal(size=lead + (KEYS, 4))
        expected, _ = scaled_dot_product_attention(query, key, value)
        actual = attention_rows(query, key, value, np.sqrt(6))
        assert actual.shape == lead + (2 * ROWS + 3, 4)
        np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=ATOL)

    def test_per_head_views(self):
        # MultiHeadSelfAttention passes (..., tokens, heads, head_dim)[..., h, :]
        # slices: strided, non-contiguous views of one projection.
        rng = np.random.default_rng(5)
        projected = rng.normal(size=(3, 2, 480, 2, 8))
        query, key, value = projected
        for head in range(2):
            q, k, v = query[..., head, :], key[..., head, :], value[..., head, :]
            assert not q.flags.c_contiguous
            expected, _ = scaled_dot_product_attention(q, k, v)
            actual = attention_rows(q, k, v, np.sqrt(8))
            np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=ATOL)
            contiguous = attention_rows(
                np.ascontiguousarray(q), np.ascontiguousarray(k), v.copy(), np.sqrt(8)
            )
            np.testing.assert_allclose(contiguous, actual, rtol=RTOL, atol=ATOL)

    def test_identity_values_give_the_reference_weights(self):
        rng = np.random.default_rng(6)
        query, key = rng.normal(size=(480, 8)), rng.normal(size=(480, 8))
        _, expected = scaled_dot_product_attention(query, key, np.eye(480), 1.3)
        np.testing.assert_allclose(
            _weights(query, key, 1.3), expected, rtol=RTOL, atol=ATOL
        )


class TestBatchIndependence:
    @pytest.mark.parametrize("tokens", [ROWS + 1, 480])
    def test_each_image_bit_identical_to_its_own_call(self, tokens):
        rng = np.random.default_rng(tokens)
        query, key, value = (rng.normal(size=(4, tokens, 8)) for _ in range(3))
        stacked = attention_rows(query, key, value, np.sqrt(8))
        for b in range(4):
            alone = attention_rows(query[b], key[b], value[b], np.sqrt(8))
            assert np.array_equal(_bits(stacked[b]), _bits(alone))
            pair = slice(b, b + 2)
            first = attention_rows(query[pair], key[pair], value[pair], np.sqrt(8))[0]
            assert np.array_equal(_bits(first), _bits(alone))

    def test_normalize_sees_one_block_of_rows_at_a_time(self):
        rng = np.random.default_rng(8)
        tokens = 2 * ROWS + 3
        query = rng.normal(size=(2, tokens, 8))
        key, value = rng.normal(size=(2, KEYS, 8)), rng.normal(size=(2, KEYS, 3))
        seen = []

        def spy(block, **kwargs):
            seen.append(block.shape)
            return softmax(block, **kwargs)

        spied = attention_rows(query, key, value, 2.0, normalize=spy)
        assert seen == [(ROWS, KEYS), (ROWS, KEYS), (3, KEYS)] * 2
        plain = attention_rows(query, key, value, 2.0)
        assert np.array_equal(_bits(spied), _bits(plain))


class TestKernelValidation:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="feature dimensions"):
            attention_rows(np.ones((2, 3)), np.ones((2, 4)), np.ones((2, 4)), 1.0)
        with pytest.raises(ValueError, match="token counts"):
            attention_rows(np.ones((2, 3)), np.ones((2, 3)), np.ones((5, 3)), 1.0)
        with pytest.raises(ValueError, match="leading axes"):
            stacked = np.ones((3, 2, 3))
            attention_rows(np.ones((2, 2, 3)), stacked, stacked, 1.0)

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.nan])
    def test_non_positive_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="scale"):
            attention_rows(np.ones((2, 3)), np.ones((2, 3)), np.ones((2, 3)), scale)


class TestAttentionSemantics:
    def test_weights_are_a_distribution(self):
        rng = np.random.default_rng(0)
        q = rng.normal(size=(5, 8))
        k = rng.normal(size=(7, 8))
        v = rng.normal(size=(7, 8))
        attended = attention_rows(q, k, v, np.sqrt(8))
        weights = _weights(q, k, np.sqrt(8))
        assert attended.shape == (5, 8)
        assert weights.shape == (5, 7)
        assert np.allclose(weights.sum(axis=-1), 1.0)
        assert np.all(weights >= 0)

    def test_identical_keys_give_uniform_weights(self):
        q = np.ones((2, 4))
        k = np.ones((3, 4))
        assert np.allclose(_weights(q, k, 2.0), 1.0 / 3.0)

    def test_dominant_key_attracts_attention(self):
        q = np.array([[1.0, 0.0]])
        k = np.array([[10.0, 0.0], [-10.0, 0.0]])
        v = np.array([[1.0, 0.0], [0.0, 1.0]])
        attended = attention_rows(q, k, v, np.sqrt(2))
        assert _weights(q, k, np.sqrt(2))[0, 0] > 0.99
        assert attended[0, 0] > 0.99

    def test_temperature_controls_sharpness(self):
        q = np.array([[1.0, 0.0]])
        k = np.array([[1.0, 0.0], [0.5, 0.0]])
        sharp = _weights(q, k, 0.05)
        soft = _weights(q, k, 50.0)
        assert sharp[0, 0] > soft[0, 0]


class TestMultiHeadSelfAttention:
    def test_output_shape_preserved(self):
        attention = MultiHeadSelfAttention(dim=16, num_heads=2, rng=0)
        tokens = np.random.default_rng(0).normal(size=(10, 16))
        assert attention(tokens).shape == (10, 16)

    def test_deterministic_given_seed(self):
        tokens = np.random.default_rng(2).normal(size=(5, 8))
        a = MultiHeadSelfAttention(dim=8, num_heads=2, rng=7)(tokens)
        b = MultiHeadSelfAttention(dim=8, num_heads=2, rng=7)(tokens)
        assert np.allclose(a, b)

    def test_global_connectivity(self):
        # Changing a single token changes the output of *other* tokens —
        # the defining property of self-attention exploited by the paper.
        attention = MultiHeadSelfAttention(dim=8, num_heads=2, rng=0)
        tokens = np.random.default_rng(3).normal(size=(6, 8))
        baseline = attention(tokens)
        modified_tokens = tokens.copy()
        modified_tokens[5] += 5.0
        modified = attention(modified_tokens)
        assert not np.allclose(baseline[0], modified[0])

    def test_dim_must_be_divisible_by_heads(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(dim=10, num_heads=3)

    def test_wrong_token_dim_rejected(self):
        attention = MultiHeadSelfAttention(dim=8, num_heads=2, rng=0)
        with pytest.raises(ValueError):
            attention(np.zeros((4, 9)))
