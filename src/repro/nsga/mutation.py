"""The paper's four mutation operators on filter-mask genomes.

Section IV-A lists four mutation operations on pixels ("genes"):

1. *complement* — replace randomly chosen pixel values by their complement
   in ``[-255, 255]`` (similar to a bit flip),
2. *shuffle* — shuffle randomly selected pixels (a swap operation),
3. *random value* — assign fresh random values in ``[-255, 255]`` to
   randomly sampled pixels,
4. *inversion* — horizontal and/or vertical inversion of pixels.

Every operator only touches at most ``window_fraction`` of the pixels (the
paper's "mutation window size", Table II: w = 1 %).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MutationConfig:
    """Configuration of the mutation stage.

    Attributes
    ----------
    probability:
        Probability that a child is mutated at all (Table II: pm = 0.45).
    window_fraction:
        Maximum fraction of pixels affected by one mutation (Table II: 1 %).
    max_value:
        Bound of the signed perturbation range (paper: 255).
    operators:
        Names of the enabled operators; a uniformly random enabled operator
        is applied to each mutated child.
    """

    probability: float = 0.45
    window_fraction: float = 0.01
    max_value: float = 255.0
    operators: tuple[str, ...] = ("complement", "shuffle", "random", "inversion")

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if not 0.0 < self.window_fraction <= 1.0:
            raise ValueError("window_fraction must be in (0, 1]")
        if self.max_value <= 0:
            raise ValueError("max_value must be positive")
        unknown = set(self.operators) - {"complement", "shuffle", "random", "inversion"}
        if unknown:
            raise ValueError(f"unknown mutation operators: {sorted(unknown)}")
        if not self.operators:
            raise ValueError("at least one mutation operator must be enabled")


@dataclass(frozen=True)
class IntensityAnnealing:
    """Dense-exploration → sparse-exploitation mutation-intensity schedule.

    Anneals the mutation ``window_fraction`` from the configured base value
    at generation 0 towards ``final_window_fraction`` at the last
    generation: early generations explore with broad, dense mutations,
    late generations exploit with small sparse refinements (the log-spaced
    intensity-schedule shape of the degradation literature).

    Annealing changes the *number* of pixels an operator samples, and
    therefore the RNG draw count — which is why it is strictly opt-in: the
    default (no annealing) leaves the draw stream untouched, and a
    constant schedule (``final == base``) is draw-for-draw identical to no
    annealing (the parity suite pins both properties).

    Attributes
    ----------
    final_window_fraction:
        The window fraction reached at the last generation.
    shape:
        ``"log"`` (geometric interpolation, default) or ``"linear"``.
    """

    final_window_fraction: float
    shape: str = "log"

    def __post_init__(self) -> None:
        if not 0.0 < self.final_window_fraction <= 1.0:
            raise ValueError("final_window_fraction must be in (0, 1]")
        if self.shape not in ("log", "linear"):
            raise ValueError(f"shape must be 'log' or 'linear', got {self.shape!r}")

    def window_fraction(self, base: float, generation: int, total: int) -> float:
        """The annealed window fraction for one generation.

        ``generation`` counts the offspring round (0-based) out of
        ``total``; generation 0 returns exactly ``base``, the last
        generation exactly ``final_window_fraction``.
        """
        if total <= 1:
            return base
        t = min(max(generation, 0), total - 1) / (total - 1)
        if self.shape == "linear":
            return base + (self.final_window_fraction - base) * t
        return float(base * (self.final_window_fraction / base) ** t)


def _sample_pixels(
    genome: np.ndarray, window_fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Sample the (row, col) indices of at most ``window_fraction`` pixels."""
    length, width = genome.shape[0], genome.shape[1]
    count = max(1, int(round(window_fraction * length * width)))
    flat = rng.choice(length * width, size=min(count, length * width), replace=False)
    return np.unravel_index(flat, (length, width))


def complement_mutation(
    genome: np.ndarray,
    rng: np.random.Generator,
    window_fraction: float = 0.01,
    max_value: float = 255.0,
) -> np.ndarray:
    """Replace sampled pixel values by their complement in ``[-max, max]``.

    The complement of value ``v`` is ``sign(v) * max_value - v``, which maps
    0 to ±max and ±max to 0 — the signed-range analogue of a bit flip.
    """
    mutated = genome.copy()
    rows, cols = _sample_pixels(mutated, window_fraction, rng)
    values = mutated[rows, cols]
    signs = np.where(values >= 0, 1.0, -1.0)
    mutated[rows, cols] = signs * max_value - values
    return mutated


def shuffle_mutation(
    genome: np.ndarray,
    rng: np.random.Generator,
    window_fraction: float = 0.01,
    max_value: float = 255.0,
) -> np.ndarray:
    """Shuffle the values of the sampled pixels among themselves."""
    mutated = genome.copy()
    rows, cols = _sample_pixels(mutated, window_fraction, rng)
    permutation = rng.permutation(len(rows))
    mutated[rows, cols] = mutated[rows[permutation], cols[permutation]]
    return mutated


def random_value_mutation(
    genome: np.ndarray,
    rng: np.random.Generator,
    window_fraction: float = 0.01,
    max_value: float = 255.0,
) -> np.ndarray:
    """Assign fresh uniform random values in ``[-max, max]`` to sampled pixels."""
    mutated = genome.copy()
    rows, cols = _sample_pixels(mutated, window_fraction, rng)
    shape = (len(rows),) + mutated.shape[2:]
    mutated[rows, cols] = rng.integers(
        -int(max_value), int(max_value) + 1, size=shape
    ).astype(mutated.dtype)
    return mutated


def inversion_mutation(
    genome: np.ndarray,
    rng: np.random.Generator,
    window_fraction: float = 0.01,
    max_value: float = 255.0,
) -> np.ndarray:
    """Horizontally and/or vertically invert a window of pixels.

    A square window containing roughly ``window_fraction`` of the pixels is
    selected at a random location and flipped along one or both axes.
    """
    mutated = genome.copy()
    length, width = mutated.shape[0], mutated.shape[1]
    count = max(1, int(round(window_fraction * length * width)))
    side = max(2, int(np.sqrt(count)))
    side = min(side, length, width)
    row = int(rng.integers(0, max(1, length - side + 1)))
    col = int(rng.integers(0, max(1, width - side + 1)))
    window = mutated[row : row + side, col : col + side]
    flip_horizontal = bool(rng.random() < 0.5)
    flip_vertical = bool(rng.random() < 0.5)
    if not flip_horizontal and not flip_vertical:
        flip_horizontal = True
    if flip_horizontal:
        window = window[:, ::-1]
    if flip_vertical:
        window = window[::-1, :]
    mutated[row : row + side, col : col + side] = window
    return mutated


_OPERATORS = {
    "complement": complement_mutation,
    "shuffle": shuffle_mutation,
    "random": random_value_mutation,
    "inversion": inversion_mutation,
}


def mutate(
    genome: np.ndarray,
    rng: np.random.Generator,
    config: MutationConfig | None = None,
) -> np.ndarray:
    """Apply the configured mutation stage to a genome.

    With probability ``config.probability`` one of the enabled operators is
    drawn uniformly at random and applied; otherwise the genome is returned
    unchanged (as a copy).
    """
    config = config if config is not None else MutationConfig()
    if rng.random() >= config.probability:
        return genome.copy()
    operator_name = config.operators[int(rng.integers(0, len(config.operators)))]
    return _OPERATORS[operator_name](
        genome, rng, config.window_fraction, config.max_value
    )
