"""Prototype-based classification head shared by the simulated detectors."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.ops import softmax


def squared_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance of every point to every center.

    ``points`` is ``(n, d)`` and ``centers`` is ``(k, d)``; the result is
    ``(n, k)``, a transposed view of a C-ordered ``(k, n)`` array.  The
    points are transposed once into contiguous ``(d, n)`` columns and each
    center fills one output row in place: ``(col_0 - c_0)**2`` first, then
    ``(col_j - c_j)**2`` added for ``j = 1 .. d - 1``.  The only temporaries
    are the columns and one length-``n`` term, instead of the ``(n, k, d)``
    difference array of the broadcast form
    ``np.sum((points[:, None] - centers[None]) ** 2, axis=-1)``.

    Every element sees the same subtraction and squaring as that form and
    the ``d`` terms are summed left to right.  NumPy sums an axis shorter
    than 8 elements left to right too (pairwise summation starts at 8), so
    for ``d < 8`` — every bank the repository trains is
    :data:`~repro.nn.features.CELL_FEATURE_DIM` = 7 wide — the result is
    bit-identical to the broadcast form.  For ``d >= 8`` it can differ from
    the pairwise sum in the last bit.
    """
    points = np.asarray(points, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    if points.ndim != 2 or centers.ndim != 2 or points.shape[1] == 0:
        raise ValueError(
            "points and centers must be 2-D (n, dim) and (k, dim) with dim >= 1"
        )
    if points.shape[1] != centers.shape[1]:
        raise ValueError(
            f"points have dim {points.shape[1]}, centers have dim {centers.shape[1]}"
        )
    columns = np.ascontiguousarray(points.T)
    distances = np.empty((centers.shape[0], points.shape[0]))
    term = np.empty(points.shape[0])
    for row, center in zip(distances, centers):
        np.subtract(columns[0], center[0], out=row)
        row *= row
        for column, value in zip(columns[1:], center[1:]):
            np.subtract(column, value, out=term)
            term *= term
            row += term
    return distances.T


@dataclass
class PrototypeBank:
    """Class prototypes plus background prototypes in backbone-feature space.

    Scoring a cell feature ``f`` produces logits ``-||f - p_c||^2 / T`` for
    every class prototype and ``-min_b ||f - p_b||^2 / T + bias`` for the
    background, followed by a softmax.

    Attributes
    ----------
    class_prototypes:
        Array of shape (num_classes, dim).
    background_prototypes:
        Array of shape (num_background, dim).
    temperature:
        Softmax temperature calibrated during training.
    background_bias:
        Additive bias on the background logit.
    """

    class_prototypes: np.ndarray
    background_prototypes: np.ndarray
    temperature: float = 0.05
    background_bias: float = 0.0

    def __post_init__(self) -> None:
        self.class_prototypes = np.asarray(self.class_prototypes, dtype=np.float64)
        self.background_prototypes = np.asarray(
            self.background_prototypes, dtype=np.float64
        )
        if self.class_prototypes.ndim != 2:
            raise ValueError("class_prototypes must be 2-D (num_classes, dim)")
        if self.background_prototypes.ndim != 2:
            raise ValueError("background_prototypes must be 2-D (num_bg, dim)")
        if self.class_prototypes.shape[1] != self.background_prototypes.shape[1]:
            raise ValueError("prototype feature dimensions differ")
        if self.background_prototypes.shape[0] < 1:
            raise ValueError("background_prototypes must hold at least one prototype")
        if not (np.isfinite(self.temperature) and self.temperature > 0):
            raise ValueError(
                f"temperature must be finite and positive, got {self.temperature}"
            )

    @property
    def num_classes(self) -> int:
        return self.class_prototypes.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.class_prototypes.shape[1]

    def logits(self, features: np.ndarray) -> np.ndarray:
        """Class + background logits for features of shape (..., dim).

        Returns an array of shape (..., num_classes + 1); the last channel
        is the background.  Both distance sets come from the streaming
        :func:`squared_distances` kernel and are negated straight into one
        C-ordered logits array: the largest temporary is one
        ``(num_background, cells)`` distance array (15.5 MB for 101 grids of
        480 cells against 40 background prototypes), and the logits are
        bit-identical to the broadcast ``(cells, prototypes, dim)`` form.
        """
        features = np.asarray(features, dtype=np.float64)
        if features.shape[-1] != self.feature_dim:
            raise ValueError(
                f"feature dim {features.shape[-1]} does not match prototypes "
                f"({self.feature_dim})"
            )
        flat = features.reshape(-1, self.feature_dim)

        logits = np.empty((flat.shape[0], self.num_classes + 1))
        np.negative(squared_distances(flat, self.class_prototypes), out=logits[:, :-1])
        bg_dist = squared_distances(flat, self.background_prototypes)
        np.negative(bg_dist.min(axis=-1), out=logits[:, -1])
        logits /= self.temperature
        logits[:, -1] += self.background_bias
        return logits.reshape(*features.shape[:-1], self.num_classes + 1)

    def probabilities(self, features: np.ndarray) -> np.ndarray:
        """Softmax class probabilities, background in the last channel."""
        return softmax(self.logits(features), axis=-1)

    def classify(self, features: np.ndarray) -> np.ndarray:
        """Hard class assignment; ``num_classes`` denotes background."""
        return np.argmax(self.logits(features), axis=-1)
