"""Initial population of filter masks.

The paper's initial population has 101 individuals: 100 filter masks drawn
from a Gaussian distribution (with various digital-image-processing noise
types applied on top) plus one all-zero mask that keeps the original image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.noise import salt_and_pepper_mask
from repro.nsga.individual import Individual


@dataclass(frozen=True)
class InitializationConfig:
    """Configuration of the initial population.

    Attributes
    ----------
    population_size:
        Total number of individuals including the all-zero mask
        (Table II: 101).
    gaussian_sigma:
        Standard deviation of the Gaussian initial masks, in pixel-value
        units.
    include_zero_mask:
        Whether to add the all-zero individual (keeps the original image).
    salt_and_pepper_fraction:
        Fraction of the random individuals that additionally receive a
        sparse salt-and-pepper component ("various noise types of digital
        image processing are applied").
    max_value:
        Bound of the signed perturbation range (paper: 255).
    sparse_fraction:
        Fraction of the random individuals initialised as *sparse* masks —
        Gaussian noise confined to one small random patch instead of the
        whole image — so short attack runs enter the incremental
        (dirty-region) inference sweet spot from generation zero instead of
        converging into it late.  ``0.0`` (the default) reproduces the
        paper's dense initial population draw for draw: the dense
        individuals are always generated first with the identical RNG
        sequence, and the sparse tail only consumes additional draws.
    sparse_patch_fraction:
        Area of each sparse patch as a fraction of the image plane
        (default 2 %; only used when ``sparse_fraction > 0``).
    """

    population_size: int = 101
    gaussian_sigma: float = 12.0
    include_zero_mask: bool = True
    salt_and_pepper_fraction: float = 0.3
    max_value: float = 255.0
    sparse_fraction: float = 0.0
    sparse_patch_fraction: float = 0.02

    def __post_init__(self) -> None:
        if self.population_size < 1:
            raise ValueError("population_size must be at least 1")
        if self.gaussian_sigma < 0:
            raise ValueError("gaussian_sigma must be non-negative")
        if not 0.0 <= self.salt_and_pepper_fraction <= 1.0:
            raise ValueError("salt_and_pepper_fraction must be in [0, 1]")
        if not 0.0 <= self.sparse_fraction <= 1.0:
            raise ValueError("sparse_fraction must be in [0, 1]")
        if not 0.0 < self.sparse_patch_fraction <= 1.0:
            raise ValueError("sparse_patch_fraction must be in (0, 1]")


def _sparse_individual(
    genome_shape: tuple[int, ...],
    rng: np.random.Generator,
    config: InitializationConfig,
) -> Individual:
    """One sparse initial mask: Gaussian noise confined to a random patch.

    The patch covers ``sparse_patch_fraction`` of the image plane (roughly
    square, clipped to the image), placed uniformly at random.
    """
    length, width = int(genome_shape[0]), int(genome_shape[1])
    target = max(1, int(round(length * width * config.sparse_patch_fraction)))
    side = max(1, int(round(np.sqrt(target))))
    patch_length = min(length, side)
    patch_width = min(width, max(1, int(round(target / side))))
    row = int(rng.integers(0, length - patch_length + 1))
    col = int(rng.integers(0, width - patch_width + 1))

    mask = np.zeros(genome_shape, dtype=np.float64)
    patch_shape = (patch_length, patch_width) + tuple(genome_shape[2:])
    patch = rng.normal(0.0, config.gaussian_sigma, size=patch_shape)
    mask[row : row + patch_length, col : col + patch_width] = np.clip(
        patch, -config.max_value, config.max_value
    )
    return Individual(genome=mask)


def initialize_population(
    genome_shape: tuple[int, ...],
    rng: np.random.Generator,
    config: InitializationConfig | None = None,
) -> list[Individual]:
    """Create the initial population of filter-mask individuals."""
    config = config if config is not None else InitializationConfig()
    population: list[Individual] = []

    num_random = config.population_size - (1 if config.include_zero_mask else 0)
    # Sparse-biased option: the *last* num_sparse random individuals become
    # patch-confined masks.  Keeping the dense individuals first — drawn
    # exactly as before — means sparse_fraction=0.0 consumes the identical
    # RNG sequence as the original implementation (parity-tested).
    num_sparse = 0
    if config.sparse_fraction > 0.0 and len(genome_shape) >= 2:
        num_sparse = min(num_random, int(round(num_random * config.sparse_fraction)))
    num_dense = num_random - num_sparse

    for index in range(num_dense):
        mask = rng.normal(0.0, config.gaussian_sigma, size=genome_shape)
        if rng.random() < config.salt_and_pepper_fraction and len(genome_shape) == 3:
            mask += salt_and_pepper_mask(
                genome_shape, amount=0.002, rng=rng, max_value=config.max_value
            )
        mask = np.clip(mask, -config.max_value, config.max_value)
        population.append(Individual(genome=mask))

    for index in range(num_sparse):
        population.append(_sparse_individual(genome_shape, rng, config))

    if config.include_zero_mask:
        population.append(Individual(genome=np.zeros(genome_shape, dtype=np.float64)))
    return population
