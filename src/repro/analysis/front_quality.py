"""Pareto-front quality metrics.

Search options such as sparse initialisation or intensity annealing change
*which genomes the evolution explores*, not how a genome is scored.  How
much front quality such an option gains or costs against a baseline run is
what this module quantifies:

* :func:`front_quality` condenses one front into scalar metrics
  (hypervolume against a fixed reference, best degradation, best distance,
  front size),
* :func:`compare_front_quality` relates a candidate front to a reference
  front under a *shared* reference point, yielding the hypervolume ratio
  and damage deltas the anneal sweep reports.

All objectives follow the repository's minimisation convention: the raw
NSGA objective vectors are ``(obj_intensity, obj_degrad, -obj_dist)``.
``damage`` reports the paper-oriented maximisation views (``1 - best
obj_degrad`` is the strongest confidence collapse, ``max obj_dist`` the
largest box displacement).
"""

from __future__ import annotations

import numpy as np

from repro.nsga.front import hypervolume, nadir_reference


def damage(objectives: np.ndarray) -> dict[str, float]:
    """Paper-oriented damage summary of a set of objective vectors.

    ``objectives`` is an (n, 3+) array of minimised NSGA vectors.  Returns
    the best (lowest) ``obj_degrad``, the best (highest) ``obj_dist`` and
    the lowest intensity — the per-objective champions of Figure 2.
    """
    objectives = np.asarray(objectives, dtype=np.float64)
    if objectives.ndim != 2 or objectives.shape[1] < 3:
        raise ValueError(
            f"expected (n, >=3) objective vectors, got {objectives.shape}"
        )
    if objectives.shape[0] == 0:
        return {"best_degradation": 1.0, "best_distance": 0.0, "best_intensity": 0.0}
    return {
        "best_degradation": float(objectives[:, 1].min()),
        "best_distance": float(-objectives[:, 2].min()),
        "best_intensity": float(objectives[:, 0].min()),
    }


def front_reference(*fronts: np.ndarray, margin: float = 1e-9) -> np.ndarray:
    """A shared hypervolume reference dominating every given front.

    The componentwise worst point across all fronts plus a small margin so
    boundary points still contribute volume; comparing hypervolumes is
    only meaningful under one common reference.
    """
    stacked = [np.asarray(front, dtype=np.float64) for front in fronts if len(front)]
    if not stacked:
        raise ValueError("front_reference needs at least one non-empty front")
    return nadir_reference(np.concatenate(stacked, axis=0), margin=margin)


def front_quality(
    objectives: np.ndarray, reference: np.ndarray | None = None
) -> dict[str, float]:
    """Scalar quality metrics of one Pareto front."""
    objectives = np.asarray(objectives, dtype=np.float64)
    metrics = damage(objectives)
    metrics["front_size"] = int(objectives.shape[0])
    metrics["hypervolume"] = hypervolume(objectives, reference)
    return metrics


def compare_front_quality(
    approx_front: np.ndarray, exact_front: np.ndarray
) -> dict[str, object]:
    """Candidate vs reference front quality under a shared reference point.

    ``approx_front`` is the candidate front and ``exact_front`` the
    reference front it is judged against; both are (n, d) arrays of
    objective vectors scored by the same evaluator, so the comparison
    measures search quality, not scoring error.  Returns the per-front
    metrics (under ``"approx"`` and ``"exact"``) plus
    ``hypervolume_ratio`` (candidate / reference, 1.0 when both are empty
    or the reference has zero volume while the candidate matches) and the
    damage deltas (candidate minus reference; negative
    ``degradation_delta`` means the candidate found a *stronger* attack).
    """
    approx_front = np.asarray(approx_front, dtype=np.float64)
    exact_front = np.asarray(exact_front, dtype=np.float64)
    reference = front_reference(approx_front, exact_front)
    approx = front_quality(approx_front, reference)
    exact = front_quality(exact_front, reference)
    if exact["hypervolume"] > 0.0:
        ratio = approx["hypervolume"] / exact["hypervolume"]
    else:
        ratio = 1.0 if approx["hypervolume"] == 0.0 else float("inf")
    return {
        "reference": [float(value) for value in reference],
        "approx": approx,
        "exact": exact,
        "hypervolume_ratio": float(ratio),
        "degradation_delta": approx["best_degradation"] - exact["best_degradation"],
        "distance_delta": approx["best_distance"] - exact["best_distance"],
    }
