"""Crossover operators on pixel-array genomes.

The paper applies one-point crossover with probability ``pc`` on the pixel
array: "Offspring filters are generated by using randomly sampled pixel
indexes.  Those pixel values are swapped and two offspring images are
returned."
"""

from __future__ import annotations

import numpy as np


def one_point_crossover(
    first: np.ndarray,
    second: np.ndarray,
    rng: np.random.Generator,
    probability: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """One-point crossover on the flattened pixel arrays.

    A crossover point is sampled uniformly; all pixel values after it are
    swapped between the two parents.  With probability ``1 - probability``
    the parents are returned unchanged (as copies).
    """
    if first.shape != second.shape:
        raise ValueError("parents must have the same shape")
    if not 0.0 <= probability <= 1.0:
        raise ValueError("probability must be in [0, 1]")
    child_a, child_b = first.copy(), second.copy()
    if rng.random() >= probability or first.size < 2:
        return child_a, child_b
    flat_a, flat_b = child_a.reshape(-1), child_b.reshape(-1)
    point = int(rng.integers(1, flat_a.size))
    tail = flat_a[point:].copy()
    flat_a[point:] = flat_b[point:]
    flat_b[point:] = tail
    return child_a, child_b


def uniform_crossover(
    first: np.ndarray,
    second: np.ndarray,
    rng: np.random.Generator,
    probability: float = 1.0,
    swap_rate: float = 0.5,
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform crossover: every pixel is swapped independently.

    Provided as an alternative operator for ablation studies; the paper's
    default is :func:`one_point_crossover`.
    """
    if first.shape != second.shape:
        raise ValueError("parents must have the same shape")
    if not 0.0 <= swap_rate <= 1.0:
        raise ValueError("swap_rate must be in [0, 1]")
    child_a, child_b = first.copy(), second.copy()
    if rng.random() >= probability:
        return child_a, child_b
    mask = rng.random(first.shape) < swap_rate
    child_a[mask], child_b[mask] = second[mask], first[mask]
    return child_a, child_b
