"""Attack results: Pareto solutions, champions and summaries."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.core.masks import FilterMask
from repro.detection.errors import PredictionTransition
from repro.detection.prediction import Prediction


@dataclass
class ParetoSolution:
    """One solution of the final population with its paper-oriented objectives.

    Attributes
    ----------
    mask:
        The perturbation filter mask.
    intensity:
        obj_intensity (minimised).
    degradation:
        obj_degrad (minimised; 1 = unchanged prediction).
    distance:
        obj_dist (maximised; larger = further from the objects).
    rank:
        Pareto rank within the final population (1 = non-dominated).
    perturbed_prediction:
        The detector output on the perturbed image (filled in lazily by the
        attack for front solutions).
    transitions:
        Error-type transitions between the clean and perturbed predictions.
    """

    mask: FilterMask
    intensity: float
    degradation: float
    distance: float
    rank: int = 1
    perturbed_prediction: Optional[Prediction] = None
    transitions: list[PredictionTransition] = field(default_factory=list)
    extras: dict[str, float] = field(default_factory=dict)

    @property
    def objectives(self) -> tuple[float, float, float]:
        """(intensity, degradation, distance) in the paper's orientation."""
        return (self.intensity, self.degradation, self.distance)

    @property
    def is_successful(self) -> bool:
        """A solution that changed the prediction at all (obj_degrad < 1)."""
        return self.degradation < 1.0 - 1e-9


@dataclass
class AttackResult:
    """Full outcome of one butterfly-effect attack run.

    The provenance fields (``architecture``, ``model_seed``,
    ``scene_index``, ``job_id``) are filled in by the experiment execution
    engine: results produced inside process-pool workers travel back to the
    parent as plain pickles, so each one must carry enough context to be
    re-attached to its position in the sweep's work plan regardless of the
    order in which workers complete.
    """

    image: np.ndarray
    clean_prediction: Prediction
    solutions: list[ParetoSolution]
    detector_name: str = ""
    num_evaluations: int = 0
    cache_hits: int = 0
    history: list[dict] = field(default_factory=list)
    #: Run-level incremental-inference stats (dirty-area ratio inputs,
    #: delta hits/misses) when the attack used activation caching;
    #: ``None`` on the dense path.  Per-generation entries live in
    #: ``history[gen]["incremental"]``.
    incremental: Optional[dict] = None
    architecture: str = ""
    model_seed: Optional[int] = None
    scene_index: Optional[int] = None
    job_id: Optional[int] = None

    @property
    def num_queries(self) -> int:
        """Objective evaluations that actually queried the detector.

        ``num_evaluations`` counts requested objective vectors; the NSGA-II
        evaluation cache answered ``cache_hits`` of them without running the
        detector.
        """
        return self.num_evaluations - self.cache_hits

    @property
    def pareto_front(self) -> list[ParetoSolution]:
        """The rank-1 solutions."""
        return [s for s in self.solutions if s.rank == 1]

    @property
    def successful_solutions(self) -> list[ParetoSolution]:
        """Solutions that changed the prediction (obj_degrad < 1)."""
        return [s for s in self.solutions if s.is_successful]

    def best_by(self, objective: str) -> ParetoSolution:
        """The champion solution for one objective.

        ``objective`` is ``"intensity"`` (smallest perturbation),
        ``"degradation"`` (strongest performance drop) or ``"distance"``
        (most unrelated perturbation).  This mirrors the paper's Figure 2,
        which shows the best solution per objective.
        """
        if not self.solutions:
            raise ValueError("the attack produced no solutions")
        if objective == "intensity":
            return min(self.solutions, key=lambda s: s.intensity)
        if objective == "degradation":
            return min(self.solutions, key=lambda s: s.degradation)
        if objective == "distance":
            return max(self.solutions, key=lambda s: s.distance)
        raise ValueError(
            "objective must be 'intensity', 'degradation' or 'distance', "
            f"got {objective!r}"
        )

    def objectives_array(self, front_only: bool = True) -> np.ndarray:
        """Objective triples as an array of shape (n, 3)."""
        source = self.pareto_front if front_only else self.solutions
        if not source:
            return np.zeros((0, 3))
        return np.array([s.objectives for s in source], dtype=np.float64)

    def fingerprint(self) -> tuple:
        """Exact content digest of everything the attack asserts.

        Two results are the same attack outcome iff their fingerprints are
        equal: detector, evaluation bookkeeping and every solution's mask
        and float objectives, compared bit for bit (no tolerance).  The
        engine/backend parity suites and the A/B benchmarks compare sweeps
        through this single canonical digest.

        Masks are hashed as the bytes of their values in float64, whatever
        dtype stores them: an ``int16`` mask and its float64 copy give the
        same fingerprint (the conversion is exact), so the digest does not
        depend on how a result was stored, moved or reloaded.
        """
        return (
            self.detector_name,
            self.num_evaluations,
            self.cache_hits,
            tuple(
                (
                    np.asarray(s.mask.values, dtype=np.float64).tobytes(),
                    s.intensity,
                    s.degradation,
                    s.distance,
                    s.rank,
                )
                for s in self.solutions
            ),
        )

    def summary(self) -> str:
        """A short human-readable summary of the attack outcome."""
        front = self.pareto_front
        if not front:
            return f"AttackResult({self.detector_name}): empty front"
        best_degradation = min(s.degradation for s in front)
        best_intensity = min(s.intensity for s in front)
        best_distance = max(s.distance for s in front)
        return (
            f"AttackResult({self.detector_name}): front={len(front)} "
            f"best obj_degrad={best_degradation:.3f} "
            f"best obj_intensity={best_intensity:.4f} "
            f"best obj_dist={best_distance:.4f} "
            f"evaluations={self.num_evaluations} "
            f"(cache hits {self.cache_hits}, detector queries {self.num_queries})"
        )
