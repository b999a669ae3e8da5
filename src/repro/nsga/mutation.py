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

Each operator also knows the bounding box of the pixels it touched, which
:func:`mutate_tracked_lineage` combines with the parent's *dirty-region
bound* (a box covering the parent's nonzero support) into an O(1) bound for
the child: the child's support is contained in the parent's support plus
the touched pixels.  The incremental-inference path uses these bounds to
cap its exact nonzero scans; they never change results, only scan cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.incremental import BBox, EMPTY_BBOX, bbox_union


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


def _indices_bbox(rows: np.ndarray, cols: np.ndarray) -> BBox:
    """Half-open bounding box of a set of sampled (row, col) indices."""
    return (
        int(rows.min()),
        int(rows.max()) + 1,
        int(cols.min()),
        int(cols.max()) + 1,
    )


def _complement_tracked(
    genome: np.ndarray,
    rng: np.random.Generator,
    window_fraction: float,
    max_value: float,
) -> tuple[np.ndarray, BBox]:
    mutated = genome.copy()
    rows, cols = _sample_pixels(mutated, window_fraction, rng)
    values = mutated[rows, cols]
    signs = np.where(values >= 0, 1.0, -1.0)
    mutated[rows, cols] = signs * max_value - values
    return mutated, _indices_bbox(rows, cols)


def _shuffle_tracked(
    genome: np.ndarray,
    rng: np.random.Generator,
    window_fraction: float,
    max_value: float,
) -> tuple[np.ndarray, BBox]:
    mutated = genome.copy()
    rows, cols = _sample_pixels(mutated, window_fraction, rng)
    permutation = rng.permutation(len(rows))
    mutated[rows, cols] = mutated[rows[permutation], cols[permutation]]
    return mutated, _indices_bbox(rows, cols)


def _random_value_tracked(
    genome: np.ndarray,
    rng: np.random.Generator,
    window_fraction: float,
    max_value: float,
) -> tuple[np.ndarray, BBox]:
    mutated = genome.copy()
    rows, cols = _sample_pixels(mutated, window_fraction, rng)
    shape = (len(rows),) + mutated.shape[2:]
    mutated[rows, cols] = rng.integers(
        -int(max_value), int(max_value) + 1, size=shape
    ).astype(mutated.dtype)
    return mutated, _indices_bbox(rows, cols)


def _inversion_tracked(
    genome: np.ndarray,
    rng: np.random.Generator,
    window_fraction: float,
    max_value: float,
) -> tuple[np.ndarray, BBox]:
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
    return mutated, (row, row + side, col, col + side)


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
    return _complement_tracked(genome, rng, window_fraction, max_value)[0]


def shuffle_mutation(
    genome: np.ndarray,
    rng: np.random.Generator,
    window_fraction: float = 0.01,
    max_value: float = 255.0,
) -> np.ndarray:
    """Shuffle the values of the sampled pixels among themselves."""
    return _shuffle_tracked(genome, rng, window_fraction, max_value)[0]


def random_value_mutation(
    genome: np.ndarray,
    rng: np.random.Generator,
    window_fraction: float = 0.01,
    max_value: float = 255.0,
) -> np.ndarray:
    """Assign fresh uniform random values in ``[-max, max]`` to sampled pixels."""
    return _random_value_tracked(genome, rng, window_fraction, max_value)[0]


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
    return _inversion_tracked(genome, rng, window_fraction, max_value)[0]


_TRACKED_OPERATORS = {
    "complement": _complement_tracked,
    "shuffle": _shuffle_tracked,
    "random": _random_value_tracked,
    "inversion": _inversion_tracked,
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
    return mutate_tracked_lineage(genome, rng, config)[0]


def mutate_tracked_lineage(
    genome: np.ndarray,
    rng: np.random.Generator,
    config: MutationConfig | None = None,
    parent_bound: BBox | None = None,
) -> tuple[np.ndarray, BBox | None, BBox]:
    """:func:`mutate` plus dirty-bound and *lineage* diff-bound tracking.

    ``parent_bound`` is a box covering the parent genome's nonzero support
    (``None`` = unknown).  Returns ``(child, bound, touched)``:

    * ``bound`` covers the child's support: the union of the parent bound
      and the box of the pixels the operator touched (an unknown parent
      bound stays unknown — :func:`~repro.nn.incremental.bbox_union` is
      absorbing in ``None``);
    * ``touched`` bounds the pixels where the child can differ from the
      input genome: the box the operator touched, or ``EMPTY_BBOX`` when no
      mutation happened (the child is a pixel-identical copy).

    The incremental-inference path caps its exact nonzero scans with
    ``bound``, the cross-generation delta-reuse path its exact
    child-vs-ancestor diff scan with ``touched``; a loose bound never
    changes results, only scan cost.  :func:`mutate` is the projection onto
    the child, so both consume exactly the same random draws.
    """
    config = config if config is not None else MutationConfig()
    if rng.random() >= config.probability:
        return genome.copy(), parent_bound, EMPTY_BBOX
    operator_name = config.operators[int(rng.integers(0, len(config.operators)))]
    mutated, touched = _TRACKED_OPERATORS[operator_name](
        genome, rng, config.window_fraction, config.max_value
    )
    return mutated, bbox_union(parent_bound, touched), touched
