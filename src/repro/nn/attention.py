"""Scaled dot-product and multi-head self-attention (forward pass only)."""

from __future__ import annotations

import numpy as np

from repro.nn.linear import Linear
from repro.nn.ops import layer_norm, softmax


def scaled_dot_product_attention(
    query: np.ndarray,
    key: np.ndarray,
    value: np.ndarray,
    temperature: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Attention(Q, K, V) = softmax(QK^T / sqrt(d)) V.

    Returns the attended values and the attention weight matrix.  The
    attention weights are what connect "two arbitrary regions in an image"
    (the paper's conjectured source of transformer susceptibility), so they
    are exposed for analysis and heatmap generation.

    Inputs may carry arbitrary leading batch axes (``(..., tokens, dim)``);
    the attention is computed per batch element, bit-identical to calling
    the function on each element separately.
    """
    query = np.asarray(query, dtype=np.float64)
    key = np.asarray(key, dtype=np.float64)
    value = np.asarray(value, dtype=np.float64)
    if query.shape[-1] != key.shape[-1]:
        raise ValueError("query and key feature dimensions differ")
    if key.shape[-2] != value.shape[-2]:
        raise ValueError("key and value token counts differ")
    scale = temperature if temperature is not None else np.sqrt(query.shape[-1])
    scores = query @ np.swapaxes(key, -1, -2) / scale
    weights = softmax(scores, axis=-1)
    return weights @ value, weights


class MultiHeadSelfAttention:
    """Multi-head self-attention over a set of tokens.

    Weights are random (seeded) projections; the simulated transformer
    detector does not learn them — the *structure* (global softmax mixing)
    is what matters for the butterfly-effect experiments.
    """

    def __init__(
        self,
        dim: int,
        num_heads: int = 2,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if dim <= 0 or num_heads <= 0:
            raise ValueError("dim and num_heads must be positive")
        if dim % num_heads != 0:
            raise ValueError("dim must be divisible by num_heads")
        if rng is None or isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(rng if rng is not None else 0)
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.query_proj = Linear(dim, dim, rng)
        self.key_proj = Linear(dim, dim, rng)
        self.value_proj = Linear(dim, dim, rng)
        self.out_proj = Linear(dim, dim, rng)
        self._last_attention: np.ndarray | None = None

    @property
    def last_attention(self) -> np.ndarray | None:
        """Attention weights from the most recent *single-image* forward pass.

        Shape (num_heads, tokens, tokens); useful for heatmap analysis.
        Batched passes skip the recording — stacking a (B, heads, tokens,
        tokens) copy per layer would dominate the batch fast path's memory
        traffic for a buffer nothing reads.
        """
        return self._last_attention

    def __call__(self, tokens: np.ndarray) -> np.ndarray:
        """Apply self-attention with a residual connection and layer norm.

        Accepts ``(tokens, dim)`` or batched ``(..., tokens, dim)`` input;
        batched results match the per-element computation bit-for-bit.
        """
        tokens = np.asarray(tokens, dtype=np.float64)
        if tokens.ndim < 2 or tokens.shape[-1] != self.dim:
            raise ValueError(
                f"expected tokens of shape (..., n, {self.dim}), got {tokens.shape}"
            )
        head_shape = tokens.shape[:-1] + (self.num_heads, self.head_dim)
        query = self.query_proj(tokens).reshape(head_shape)
        key = self.key_proj(tokens).reshape(head_shape)
        value = self.value_proj(tokens).reshape(head_shape)

        record_attention = tokens.ndim == 2
        head_outputs = []
        attentions = []
        for head in range(self.num_heads):
            attended, weights = scaled_dot_product_attention(
                query[..., head, :], key[..., head, :], value[..., head, :]
            )
            head_outputs.append(attended)
            if record_attention:
                attentions.append(weights)
        if record_attention:
            self._last_attention = np.stack(attentions, axis=-3)
        concatenated = np.concatenate(head_outputs, axis=-1)
        output = self.out_proj(concatenated)
        return layer_norm(tokens + output, axis=-1)
