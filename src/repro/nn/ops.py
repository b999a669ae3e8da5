"""Elementwise operators, normalisation and positional encodings."""

from __future__ import annotations

import numpy as np


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(x, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid."""
    out = np.empty_like(x, dtype=np.float64)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


def softmax(
    x: np.ndarray,
    axis: int = -1,
    temperature: float = 1.0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Numerically stable softmax along ``axis`` with optional temperature.

    ``out`` (as in numpy) is a float64 array of ``x``'s shape that receives
    the result, and may be ``x`` itself; by default a new array is returned.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    # One buffer mutated in place: the values are identical to the
    # textbook exp(shifted)/sum(exp) form without its three array-sized
    # temporaries.
    scaled = np.divide(np.asarray(x, dtype=np.float64), float(temperature), out=out)
    scaled -= np.max(scaled, axis=axis, keepdims=True)
    np.exp(scaled, out=scaled)
    scaled /= np.sum(scaled, axis=axis, keepdims=True)
    return scaled


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Log of the softmax, computed stably."""
    shifted = np.asarray(x, dtype=np.float64)
    shifted = shifted - np.max(shifted, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def layer_norm(x: np.ndarray, axis: int = -1, eps: float = 1e-6) -> np.ndarray:
    """Zero-mean, unit-variance normalisation along ``axis``."""
    mean = np.mean(x, axis=axis, keepdims=True)
    var = np.var(x, axis=axis, keepdims=True)
    return (x - mean) / np.sqrt(var + eps)


def positional_encoding(num_positions: int, dim: int) -> np.ndarray:
    """Sinusoidal positional encoding matrix of shape (num_positions, dim)."""
    if dim <= 0 or num_positions <= 0:
        raise ValueError("num_positions and dim must be positive")
    positions = np.arange(num_positions, dtype=np.float64)[:, None]
    div_term = np.exp(
        np.arange(0, dim, 2, dtype=np.float64) * (-np.log(10000.0) / dim)
    )
    encoding = np.zeros((num_positions, dim), dtype=np.float64)
    encoding[:, 0::2] = np.sin(positions * div_term)
    encoding[:, 1::2] = np.cos(positions * div_term[: encoding[:, 1::2].shape[1]])
    return encoding


def grid_positional_encoding(rows: int, cols: int, dim: int) -> np.ndarray:
    """2-D positional encoding for a grid of cells, shape (rows*cols, dim).

    Half of the channels encode the row index, half the column index.
    """
    if dim % 2 != 0:
        raise ValueError("dim must be even for a 2-D grid encoding")
    half = dim // 2
    row_enc = positional_encoding(rows, half)
    col_enc = positional_encoding(cols, half)
    encoding = np.zeros((rows, cols, dim), dtype=np.float64)
    encoding[:, :, :half] = row_enc[:, None, :]
    encoding[:, :, half:] = col_enc[None, :, :]
    return encoding.reshape(rows * cols, dim)
