"""A tiny linear layer with seeded random initialisation."""

from __future__ import annotations

import numpy as np


class Linear:
    """Affine map ``y = x @ W + b`` with Xavier-style random init.

    Only the forward pass is implemented; weights are either randomly
    initialised from a seeded generator or set explicitly.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator | int | None = None,
        bias: bool = True,
    ) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature dimensions must be positive")
        if rng is None or isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(rng if rng is not None else 0)
        scale = np.sqrt(2.0 / (in_features + out_features))
        self.weight = rng.normal(0.0, scale, size=(in_features, out_features))
        self.bias = np.zeros(out_features) if bias else None
        self.in_features = in_features
        self.out_features = out_features

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"expected input with last dim {self.in_features}, got {x.shape[-1]}"
            )
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out
