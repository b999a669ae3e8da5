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

    def forward_rows(
        self, tokens: np.ndarray, rows: np.ndarray | None = None
    ) -> np.ndarray:
        """Self-attention restricted to a subset of query rows.

        Computes the layer output only for the tokens indexed by ``rows``
        (all tokens when ``rows`` is None), while keys and values still span
        the full token set — the approximation is in *which rows are
        refreshed*, never in what each refreshed row attends to.  This is
        the windowed-attention fidelity primitive: the caller keeps clean
        cached outputs for rows outside the window.

        With ``rows=None`` the arithmetic mirrors :meth:`__call__` (same
        projections, scale, softmax and residual norm); row subsets are
        approximate — BLAS blocking means a row-sliced matmul need not be
        bit-identical to a slice of the full product.  ``_last_attention``
        is never touched.
        """
        tokens = np.asarray(tokens, dtype=np.float64)
        if tokens.ndim != 2 or tokens.shape[-1] != self.dim:
            raise ValueError(
                f"expected tokens of shape (n, {self.dim}), got {tokens.shape}"
            )
        row_tokens = tokens if rows is None else tokens[rows]
        head_shape = (-1, self.num_heads, self.head_dim)
        query = self.query_proj(row_tokens).reshape(head_shape)
        key = self.key_proj(tokens).reshape(head_shape)
        value = self.value_proj(tokens).reshape(head_shape)
        scale = np.sqrt(self.head_dim)
        head_outputs = []
        for head in range(self.num_heads):
            scores = query[:, head, :] @ key[:, head, :].T / scale
            weights = softmax(scores, axis=-1)
            head_outputs.append(weights @ value[:, head, :])
        concatenated = np.concatenate(head_outputs, axis=-1)
        output = self.out_proj(concatenated)
        return layer_norm(row_tokens + output, axis=-1)

    def forward_rows_batch(self, tokens: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Batched :meth:`forward_rows` with per-element query row subsets.

        ``tokens`` is ``(B, n, dim)`` and ``rows`` an integer ``(B, R)``
        array selecting each element's refreshed rows (equal count per
        element — the caller groups by window shape).  Returns ``(B, R,
        dim)``.  Keys/values span each element's full token set; the
        arithmetic mirrors :meth:`forward_rows` with a batch axis carried
        through every operation.
        """
        tokens = np.asarray(tokens, dtype=np.float64)
        if tokens.ndim != 3 or tokens.shape[-1] != self.dim:
            raise ValueError(
                f"expected tokens of shape (B, n, {self.dim}), got {tokens.shape}"
            )
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[0] != tokens.shape[0]:
            raise ValueError(
                f"expected rows of shape ({tokens.shape[0]}, R), got {rows.shape}"
            )
        batch = np.arange(tokens.shape[0])[:, None]
        row_tokens = tokens[batch, rows]
        head_shape_q = row_tokens.shape[:-1] + (self.num_heads, self.head_dim)
        head_shape_kv = tokens.shape[:-1] + (self.num_heads, self.head_dim)
        query = self.query_proj(row_tokens).reshape(head_shape_q)
        key = self.key_proj(tokens).reshape(head_shape_kv)
        value = self.value_proj(tokens).reshape(head_shape_kv)
        scale = np.sqrt(self.head_dim)
        head_outputs = []
        for head in range(self.num_heads):
            scores = (
                query[..., head, :] @ np.swapaxes(key[..., head, :], -1, -2) / scale
            )
            weights = softmax(scores, axis=-1)
            head_outputs.append(weights @ value[..., head, :])
        concatenated = np.concatenate(head_outputs, axis=-1)
        output = self.out_proj(concatenated)
        return layer_norm(row_tokens + output, axis=-1)
