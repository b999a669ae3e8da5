"""Row-blocked exact attention and multi-head self-attention (forward only)."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.nn.linear import Linear
from repro.nn.ops import layer_norm, softmax
from repro.nn.parallel import run_shared

#: Bytes of float64 scores one block of query rows holds.  About 1 MiB
#: measured near the fastest block at both 480 tokens (the 96x320 working
#: size, 273 rows) and 7130 tokens (full KITTI resolution, 18 rows).  Each
#: thread of a call owns one such buffer, so scores peak at threads x 1 MiB.
BLOCK_SCORE_BYTES = 1 << 20


def block_rows(query_tokens: int, key_tokens: int) -> int:
    """Query rows per block: :data:`BLOCK_SCORE_BYTES` of score rows,
    clamped to ``[1, query_tokens]``.

    It depends on the token counts only, never on batch size or route, so
    every route computes each image with the same sequence of calls.
    """
    return max(1, min(query_tokens, BLOCK_SCORE_BYTES // (8 * key_tokens)))


def attention_rows(
    query: np.ndarray,
    key: np.ndarray,
    value: np.ndarray,
    scale: float,
    normalize: Callable[..., np.ndarray] = softmax,
) -> np.ndarray:
    """Exact attention ``softmax(query @ keyᵀ / scale) @ value``.

    Inputs are ``(..., tokens, dim)`` with equal leading axes.  The work is
    split into independent *units*: one block of :func:`block_rows` query
    rows of one leading index (image or head).  A unit scores its rows into
    its thread's one reused buffer, scales and normalises them in place
    (``normalize(block, axis=-1, temperature=scale, out=block)``, the
    signature of :func:`~repro.nn.ops.softmax`) and multiplies them into
    its own output rows, so no (tokens, tokens) score matrix is ever
    allocated (Rabe & Staats 2021; a full score row is small enough that no
    online softmax is needed).

    Units run on the calling thread plus helper threads that live only for
    this call (FlashAttention's parallel grid over batch, head and query
    block; Dao et al. 2022), :func:`~repro.nn.parallel.threads_for` of them:
    at least two units per thread, at most the process's core share.  Every
    participating thread runs BLAS on one thread
    (:func:`~repro.nn.parallel.blas_one_thread`).  Which thread runs a unit
    never changes its three calls or their operands, so the result is bit
    for bit the same at any thread count.  Each image's arithmetic depends
    only on its own token count, so ``attention_rows(stack)[b]`` equals
    ``attention_rows(stack[b])`` bit for bit.

    These attention weights are what connect "two arbitrary regions in an
    image" — the paper's conjectured source of transformer susceptibility.
    """
    query = np.asarray(query, dtype=np.float64)
    key = np.asarray(key, dtype=np.float64)
    value = np.asarray(value, dtype=np.float64)
    if query.shape[-1] != key.shape[-1]:
        raise ValueError("query and key feature dimensions differ")
    if key.shape[-2] != value.shape[-2]:
        raise ValueError("key and value token counts differ")
    lead = query.shape[:-2]
    if key.shape[:-2] != lead or value.shape[:-2] != lead:
        raise ValueError("query, key and value leading axes differ")
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    tokens, keys = query.shape[-2], key.shape[-2]
    if keys == 0:
        raise ValueError("attention over an empty key axis (0 key tokens)")
    rows = block_rows(tokens, keys)
    output = np.empty(lead + (tokens, value.shape[-1]))
    units = [(i, start) for i in np.ndindex(lead) for start in range(0, tokens, rows)]

    def run(stream) -> None:
        scores = np.empty((rows, keys))
        for index, start in stream:
            stop = min(start + rows, tokens)
            block = scores[: stop - start]
            np.matmul(query[index][start:stop], key[index].T, out=block)
            normalize(block, axis=-1, temperature=scale, out=block)
            np.matmul(block, value[index], out=output[index][start:stop])

    run_shared(run, units)
    return output


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
        scale = np.sqrt(self.head_dim)
        concatenated = np.concatenate(
            [
                attention_rows(
                    query[..., head, :], key[..., head, :], value[..., head, :], scale
                )
                for head in range(self.num_heads)
            ],
            axis=-1,
        )
        output = self.out_proj(concatenated)
        return layer_norm(tokens + output, axis=-1)
