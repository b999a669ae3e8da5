"""Crossover operators on pixel-array genomes.

The paper applies one-point crossover with probability ``pc`` on the pixel
array: "Offspring filters are generated by using randomly sampled pixel
indexes.  Those pixel values are swapped and two offspring images are
returned."

The ``*_lineage`` variant additionally propagates *dirty-region bounds*:
given bounding boxes known to contain every nonzero pixel of each parent,
it derives O(1) bounds for the children (child A is parent A's head rows
plus parent B's tail rows, so its support is covered by the union of the
parents' bounds clipped to those row bands), plus bounds on where each
child differs from its head parent.  The bounds feed the
incremental-inference path, which uses them to cap its exact scans; a
loose bound never changes results, only the scan cost.
"""

from __future__ import annotations

import numpy as np

from repro.nn.incremental import BBox, EMPTY_BBOX, bbox_intersection, bbox_union


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
    child_a, child_b, *_ = one_point_crossover_lineage(
        first, second, rng, probability=probability
    )
    return child_a, child_b


def one_point_crossover_lineage(
    first: np.ndarray,
    second: np.ndarray,
    rng: np.random.Generator,
    probability: float = 1.0,
    first_bound: BBox | None = None,
    second_bound: BBox | None = None,
) -> tuple[np.ndarray, np.ndarray, BBox | None, BBox | None, BBox | None, BBox | None]:
    """:func:`one_point_crossover` plus dirty-bound and *lineage* diff bounds.

    ``first_bound``/``second_bound`` are boxes known to contain every
    nonzero pixel of the respective parent (``None`` = unknown).  Returns
    ``(child_a, child_b, bound_a, bound_b, rel_a, rel_b)`` where each
    ``bound_*`` covers that child's nonzero support.  The ``rel_*`` boxes
    bound the pixels where each child can differ from its *head parent*
    (child A's head parent is ``first``, child B's is ``second``): a
    child only differs from its head parent inside the
    swapped tail band, and only where either parent has nonzero support.
    ``EMPTY_BBOX`` means the child is pixel-identical to its head parent
    (no crossover happened); ``None`` means unknown (1-D genomes carry no
    spatial layout).  The cross-generation delta-reuse path uses these
    bounds to cap the exact child-vs-ancestor diff scan; a loose bound
    never changes results, only scan cost.  :func:`one_point_crossover`
    is the projection onto the children, so both consume exactly the same
    random draws.
    """
    if first.shape != second.shape:
        raise ValueError("parents must have the same shape")
    if not 0.0 <= probability <= 1.0:
        raise ValueError("probability must be in [0, 1]")
    child_a, child_b = first.copy(), second.copy()
    if rng.random() >= probability or first.size < 2:
        return child_a, child_b, first_bound, second_bound, EMPTY_BBOX, EMPTY_BBOX
    flat_a, flat_b = child_a.reshape(-1), child_b.reshape(-1)
    point = int(rng.integers(1, flat_a.size))
    tail = flat_a[point:].copy()
    flat_a[point:] = flat_b[point:]
    flat_b[point:] = tail
    if first.ndim < 2:
        return child_a, child_b, None, None, None, None
    # Flat index f lives in pixel row f // per_row; the head [0, point)
    # covers rows up to (point - 1) // per_row inclusive, the tail starts
    # in row point // per_row (the cut row belongs to both bands).
    length, width = first.shape[0], first.shape[1]
    per_row = int(np.prod(first.shape[1:]))
    head_box: BBox = (0, (point - 1) // per_row + 1, 0, width)
    tail_box: BBox = (point // per_row, length, 0, width)
    bound_a = bbox_union(
        bbox_intersection(first_bound, head_box),
        bbox_intersection(second_bound, tail_box),
    )
    bound_b = bbox_union(
        bbox_intersection(second_bound, head_box),
        bbox_intersection(first_bound, tail_box),
    )
    # Within the tail band a child differs from its head parent only where
    # one of the parents is nonzero; intersection with ``None`` (unknown
    # parent support) degrades to the tail band itself.
    rel = bbox_intersection(tail_box, bbox_union(first_bound, second_bound))
    return child_a, child_b, bound_a, bound_b, rel, rel


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
