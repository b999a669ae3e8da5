"""Row-subset attention primitives and their bounds.

``MultiHeadSelfAttention.forward_rows`` / ``forward_rows_batch`` are the
windowed fidelity's kernels: full-row calls must mirror ``__call__`` (same
arithmetic, so bit-identical) and row subsets must equal the matching slice
of the full output up to BLAS-blocking round-off, and float32 tokens are
computed in float64.  The hypothesis suite drives random token sets and row
subsets through those bounds; softmax's float64 computation is pinned
alongside since the kernels lean on it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.ops import layer_norm, softmax


def _tokens(seed, count, dim=16, scale=3.0):
    return np.random.default_rng(seed).normal(0.0, scale, size=(count, dim))


@pytest.fixture(scope="module")
def attention():
    return MultiHeadSelfAttention(dim=16, num_heads=2, rng=7)


class TestForwardRowsParity:
    def test_all_rows_float64_bit_identical_to_call(self, attention):
        tokens = _tokens(0, 24)
        assert np.array_equal(attention(tokens), attention.forward_rows(tokens))

    def test_does_not_touch_last_attention(self, attention):
        tokens = _tokens(1, 12)
        attention(tokens)
        recorded = attention.last_attention
        attention.forward_rows(tokens, np.array([0, 3, 5]))
        assert attention.last_attention is recorded

    def test_row_subset_close_to_full_slice(self, attention):
        tokens = _tokens(2, 30)
        full = attention(tokens)
        rows = np.array([1, 4, 17, 29])
        subset = attention.forward_rows(tokens, rows)
        assert np.allclose(subset, full[rows], atol=1e-10)

    def test_float32_close_to_float64(self, attention):
        """float32 tokens are computed in float64: the output is the float64
        forward of the rounded tokens, within input round-off of the exact."""
        tokens = _tokens(3, 20)
        exact = attention.forward_rows(tokens)
        rounded = tokens.astype(np.float32)
        approx = attention.forward_rows(rounded)
        assert approx.dtype == np.float64
        assert np.array_equal(
            approx, attention.forward_rows(rounded.astype(np.float64))
        )
        assert np.max(np.abs(approx - exact)) < 1e-4

    def test_batch_float32_computed_in_float64(self, attention):
        batch = np.stack([_tokens(s, 12) for s in (8, 9)], axis=0)
        rows = np.array([[0, 4, 11], [2, 3, 7]])
        rounded = batch.astype(np.float32)
        out = attention.forward_rows_batch(rounded, rows)
        assert out.dtype == np.float64
        assert np.array_equal(
            out, attention.forward_rows_batch(rounded.astype(np.float64), rows)
        )

    def test_batch_matches_single_elements(self, attention):
        batch = np.stack([_tokens(s, 18) for s in (4, 5, 6)], axis=0)
        rows = np.array([[0, 2, 9], [1, 3, 17], [5, 6, 7]])
        batched = attention.forward_rows_batch(batch, rows)
        assert batched.shape == (3, 3, 16)
        for index in range(3):
            single = attention.forward_rows(batch[index], rows[index])
            assert np.allclose(batched[index], single, atol=1e-10)


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


class TestErrorBoundsProperty:
    """Hypothesis-driven bounds on the approximate attention kernels."""

    @given(
        seed=st.integers(0, 2**16),
        count=st.integers(4, 32),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_row_subset_error_bound(self, attention, seed, count, data):
        tokens = _tokens(seed, count)
        size = data.draw(st.integers(1, count), label="subset size")
        rows = np.asarray(
            data.draw(
                st.lists(
                    st.integers(0, count - 1),
                    min_size=size,
                    max_size=size,
                    unique=True,
                ),
                label="rows",
            )
        )
        full = attention(tokens)
        subset = attention.forward_rows(tokens, rows)
        assert np.max(np.abs(subset - full[rows])) < 1e-9

    @given(seed=st.integers(0, 2**16), count=st.integers(4, 32))
    @settings(max_examples=40, deadline=None)
    def test_float32_error_bound(self, attention, seed, count):
        tokens = _tokens(seed, count)
        exact = attention(tokens)
        approx = attention.forward_rows(tokens.astype(np.float32))
        # Only the inputs are rounded to single precision; layer_norm
        # outputs are O(1), so the propagated error stays well under 1e-3.
        assert approx.dtype == np.float64
        assert np.max(np.abs(approx - exact)) < 1e-3

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_rows_output_is_normalized(self, attention, seed):
        tokens = _tokens(seed, 16)
        rows = np.array([0, 5, 11])
        out = attention.forward_rows(tokens, rows)
        reference = layer_norm(out, axis=-1)
        assert np.allclose(out, reference, atol=1e-4)
