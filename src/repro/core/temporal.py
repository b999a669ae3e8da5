"""Temporally stable attacks (Section IV-B, last paragraph).

A single filter mask ``δ`` is optimised to stay effective across a sequence
of frames: the degradation and distance objectives are averaged over the
frames of the sequence, while the intensity objective is the norm of the
(shared) mask.  The paper omits the formal definition for space reasons;
this is the natural analogue of the ensemble aggregation with frames taking
the place of detectors.

Two evaluator/attack pairs live here:

* :class:`TemporalObjectives` / :class:`TemporalAttack` — the original
  scalar formulation: every frame is a fully independent
  :class:`~repro.core.objectives.ButterflyObjectives` and every mask is
  evaluated frame by frame through the dense path.  Kept as the slow
  reference implementation.
* :class:`SequenceObjectives` / :class:`SequenceAttack` — the streaming
  workload: frame t's clean activations are *derived* from frame t−1's
  cached bundle through :meth:`~repro.detectors.base.Detector.
  clean_activations_delta` (recomputing only the inter-frame dirty region,
  found by an exact scan of both frames' pixels), population evaluation
  rides the batched incremental path per frame, and a fourth
  *track-survival* objective scores track-level damage — the fraction of
  ground-truth objects the attack fails to suppress for ``track_k``
  consecutive frames.
  Every temporal route is bit-identical to the dense per-frame forward;
  the sequence parity suite enforces it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.config import AttackConfig
from repro.core.attack import (
    ButterflyAttack,
    constrain_mask,
    nsga_config,
    predict_front,
)
from repro.core.masks import FilterMask
from repro.core.objectives import ButterflyObjectives, objective_degradation
from repro.core.results import AttackResult, ParetoSolution
from repro.data.sequences import SceneSequence
from repro.detection.boxes import iou_matrix
from repro.detection.prediction import Prediction
from repro.detectors.activation_cache import (
    DEFAULT_DELTA_STORE_ENTRIES,
    ActivationCacheStore,
    CacheStats,
    SequenceActivationCache,
)
from repro.detectors.base import Detector
from repro.nn.incremental import BBox
from repro.nsga.algorithm import NSGAII, NSGAResult


@dataclass
class TemporalObjectives:
    """Objectives for a mask shared across all frames of a sequence."""

    detector: Detector
    frames: Sequence[np.ndarray]
    epsilon: float = 2.0
    per_frame: list[ButterflyObjectives] = field(init=False)

    def __post_init__(self) -> None:
        frames = [np.asarray(frame, dtype=np.float64) for frame in self.frames]
        if not frames:
            raise ValueError("the sequence must contain at least one frame")
        shapes = {frame.shape for frame in frames}
        if len(shapes) != 1:
            raise ValueError("all frames must have the same shape")
        self.frames = frames
        self.per_frame = [
            ButterflyObjectives(detector=self.detector, image=frame, epsilon=self.epsilon)
            for frame in frames
        ]

    @property
    def num_frames(self) -> int:
        return len(self.per_frame)

    def intensity(self, mask: np.ndarray) -> float:
        """Intensity of the single shared mask."""
        return self.per_frame[0].intensity(mask)

    def degradation(self, mask: np.ndarray) -> float:
        """Average obj_degrad over the frames."""
        return float(np.mean([obj.degradation(mask) for obj in self.per_frame]))

    def distance(self, mask: np.ndarray) -> float:
        """Average obj_dist over the frames."""
        return float(np.mean([obj.distance(mask) for obj in self.per_frame]))

    def raw_objectives(self, mask: np.ndarray) -> dict[str, float]:
        """Paper-oriented objective values for reporting."""
        return {
            "intensity": self.intensity(mask),
            "degradation": self.degradation(mask),
            "distance": self.distance(mask),
        }

    def __call__(self, mask: np.ndarray) -> np.ndarray:
        return np.asarray(
            [self.intensity(mask), self.degradation(mask), -self.distance(mask)],
            dtype=np.float64,
        )


class TemporalAttack:
    """Butterfly-effect attack with one mask shared across a frame sequence."""

    def __init__(
        self,
        detector: Detector,
        config: AttackConfig | None = None,
    ) -> None:
        self.detector = detector
        self.config = config if config is not None else AttackConfig()

    def attack(
        self, sequence: SceneSequence | Sequence[np.ndarray]
    ) -> AttackResult:
        """Run NSGA-II over a frame sequence; one shared mask for all frames."""
        frames = list(sequence.images if isinstance(sequence, SceneSequence) else sequence)
        objectives = TemporalObjectives(
            detector=self.detector, frames=frames, epsilon=self.config.epsilon
        )
        optimizer = NSGAII(
            objective_function=objectives,
            genome_shape=frames[0].shape,
            config=nsga_config(self.config),
            constraint=partial(constrain_mask, self.config),
        )
        nsga_result = optimizer.run()

        solutions: list[ParetoSolution] = []
        for individual in nsga_result.population:
            intensity, degradation, negated_distance = individual.objectives[:3]
            solutions.append(
                ParetoSolution(
                    mask=FilterMask(individual.genome),
                    intensity=float(intensity),
                    degradation=float(degradation),
                    distance=float(-negated_distance),
                    rank=int(individual.rank if individual.rank is not None else 0),
                )
            )
        result = AttackResult(
            image=frames[0],
            clean_prediction=objectives.per_frame[0].clean_prediction,
            solutions=solutions,
            detector_name=f"{getattr(self.detector, 'name', 'detector')}@{len(frames)}frames",
            num_evaluations=nsga_result.num_evaluations,
            cache_hits=nsga_result.cache_hits,
            history=nsga_result.history,
        )
        return result


@dataclass
class SequenceObjectives:
    """Track-aware objectives over a streaming scene sequence.

    The minimisation vector is ``(obj_intensity, mean obj_degrad,
    -mean obj_dist, track_survival)``: the three butterfly objectives with
    degradation/distance averaged over the frames, plus the fraction of
    ground-truth tracks that *survive* the attack.  A track is the
    ground-truth box of one scene object followed through the sequence
    (:func:`~repro.data.scene.SceneSpec.ground_truth` emits one box per
    object in placement order, so the object index is the track identity);
    it counts as *suppressed* when the perturbed detector misses it — no
    same-class detection with IoU ≥ ``iou_threshold`` — for at least
    ``track_k`` consecutive frames.  Minimising survival therefore rewards
    masks that blind the detector to an object persistently rather than on
    scattered frames.

    Clean activations are built *temporally*: each frame's bundle is
    derived from the previous frame's through a rolling
    :class:`~repro.detectors.activation_cache.SequenceActivationCache`,
    recomputing only the inter-frame dirty region (the exact pixel diff of
    the two frames, so any frame content is safe) and splicing the rest.
    The derivation is bit-identical to a dense per-frame
    ``clean_activations`` build — the sequence parity suite enforces it —
    so the temporal path only changes speed.  Each frame's bundle is
    injected into a per-frame
    :class:`~repro.core.objectives.ButterflyObjectives`, whose batched
    incremental path then serves population evaluation.
    """

    detector: Detector
    sequence: SceneSequence
    epsilon: float = 2.0
    track_k: int = 2
    iou_threshold: float = 0.5
    frame_cache_size: int = 2
    use_activation_cache: bool = True
    activation_store: Optional[ActivationCacheStore] = None
    use_delta_reuse: bool = True
    delta_store_size: int = DEFAULT_DELTA_STORE_ENTRIES
    frame_cache: Optional[SequenceActivationCache] = field(init=False, default=None)
    per_frame: list[ButterflyObjectives] = field(init=False)

    def __post_init__(self) -> None:
        if not isinstance(self.sequence, SceneSequence):
            raise TypeError(
                "SequenceObjectives needs a SceneSequence (its scene specs "
                "give the ground-truth tracks); for plain frame lists use "
                "TemporalObjectives"
            )
        if len(self.sequence) == 0:
            raise ValueError("the sequence must contain at least one frame")
        if self.track_k < 1:
            raise ValueError("track_k must be at least 1")
        if self.frame_cache_size < 1:
            raise ValueError("frame_cache_size must be at least 1")
        frames = [np.asarray(frame, dtype=np.float64) for frame in self.sequence.images]
        shapes = {frame.shape for frame in frames}
        if len(shapes) != 1:
            raise ValueError("all frames must have the same shape")
        counts = {len(scene.objects) for scene in self.sequence.scenes}
        if len(counts) != 1:
            raise ValueError(
                "track correspondence requires a constant object count "
                f"across the sequence, got counts {sorted(counts)}"
            )
        if self.use_activation_cache:
            self.frame_cache = SequenceActivationCache(
                self.detector,
                max_frames=self.frame_cache_size,
                store=self.activation_store,
            )
        self.per_frame = []
        for frame in frames:
            bundle = (
                self.frame_cache.advance(frame)
                if self.frame_cache is not None
                else None
            )
            self.per_frame.append(
                ButterflyObjectives(
                    detector=self.detector,
                    image=frame,
                    epsilon=self.epsilon,
                    use_activation_cache=self.use_activation_cache,
                    activation_bundle=bundle,
                    use_delta_reuse=self.use_delta_reuse,
                    delta_store_size=self.delta_store_size,
                )
            )
        # Track scaffolding: per frame, the ground-truth boxes in object
        # order (one per track) — computed once, reused for every mask.
        self._track_boxes = [
            ground_truth.valid_boxes for ground_truth in self.sequence.ground_truths
        ]

    @property
    def num_frames(self) -> int:
        return len(self.per_frame)

    @property
    def num_tracks(self) -> int:
        return len(self._track_boxes[0])

    @property
    def num_objectives(self) -> int:
        """(intensity, mean degradation, -mean distance, track survival)."""
        return 4

    def intensity(self, mask: np.ndarray) -> float:
        """Intensity of the single shared mask."""
        return self.per_frame[0].intensity(mask)

    def _frame_detected(
        self, frame_index: int, perturbed: Prediction
    ) -> list[bool]:
        """Per-track detection flags for one frame's perturbed prediction."""
        ground_truth = self._track_boxes[frame_index]
        if not ground_truth:
            return []
        predicted = perturbed.valid_boxes
        if not predicted:
            return [False] * len(ground_truth)
        overlaps = iou_matrix(ground_truth, predicted)
        same_class = np.equal(
            np.array([box.cl for box in ground_truth])[:, None],
            np.array([box.cl for box in predicted])[None, :],
        )
        best = np.where(same_class, overlaps, 0.0).max(axis=1)
        return [bool(value >= self.iou_threshold) for value in best]

    def track_survival(self, per_frame_predictions: Sequence[Prediction]) -> float:
        """Fraction of tracks the attack fails to suppress (minimised).

        A track is suppressed when its object goes undetected for at least
        ``track_k`` consecutive frames; the objective is
        ``1 - suppressed / num_tracks`` (1.0 when there are no tracks —
        nothing to suppress).
        """
        if len(per_frame_predictions) != self.num_frames:
            raise ValueError(
                f"expected {self.num_frames} per-frame predictions, "
                f"got {len(per_frame_predictions)}"
            )
        num_tracks = self.num_tracks
        if num_tracks == 0:
            return 1.0
        detected = [
            self._frame_detected(index, prediction)
            for index, prediction in enumerate(per_frame_predictions)
        ]
        suppressed = 0
        for track in range(num_tracks):
            run = longest = 0
            for frame_index in range(self.num_frames):
                if detected[frame_index][track]:
                    run = 0
                else:
                    run += 1
                    longest = max(longest, run)
            if longest >= self.track_k:
                suppressed += 1
        return 1.0 - suppressed / num_tracks

    def evaluate_population(
        self,
        masks: np.ndarray,
        dirty_bounds: Sequence[BBox | None] | None = None,
        ancestry: Sequence[dict | None] | None = None,
    ) -> np.ndarray:
        """Evaluate a population of shared masks; shape ``(B, 4)``.

        Each frame evaluator's :meth:`~repro.core.objectives.
        ButterflyObjectives.predict_population` supplies the per-frame
        perturbed predictions (through the incremental path when the
        temporal bundles are cached), which feed both the averaged
        degradation/distance objectives and the track-survival term.
        ``dirty_bounds``/``ancestry`` follow the single-scene contract:
        optional per-mask hints that never change objective values.
        """
        masks = np.asarray(masks, dtype=np.float64)
        per_frame_predictions: list[list[Prediction]] = []
        bboxes: list[BBox] = []
        for evaluator in self.per_frame:
            predictions, bboxes = evaluator.predict_population(
                masks, dirty_bounds, ancestry
            )
            per_frame_predictions.append(predictions)
        vectors = np.empty((masks.shape[0], self.num_objectives), dtype=np.float64)
        for index in range(masks.shape[0]):
            mask, bbox = masks[index], bboxes[index]
            degradations = [
                objective_degradation(
                    evaluator.clean_prediction, predictions[index]
                )
                for evaluator, predictions in zip(
                    self.per_frame, per_frame_predictions
                )
            ]
            distances = [
                evaluator.distance(mask, bbox) for evaluator in self.per_frame
            ]
            vectors[index] = (
                self.intensity(mask),
                float(np.mean(degradations)),
                -float(np.mean(distances)),
                self.track_survival(
                    [predictions[index] for predictions in per_frame_predictions]
                ),
            )
        return vectors

    def __call__(
        self, mask: np.ndarray, dirty_bound: BBox | None = None
    ) -> np.ndarray:
        mask = np.asarray(mask, dtype=np.float64)
        return self.evaluate_population(mask[None, ...], [dirty_bound])[0]

    def raw_objectives(self, mask: np.ndarray) -> dict[str, float]:
        """Paper-oriented objective values for reporting."""
        vector = self(mask)
        return {
            "intensity": float(vector[0]),
            "degradation": float(vector[1]),
            "distance": float(-vector[2]),
            "track_survival": float(vector[3]),
        }

    def incremental_snapshot(self) -> dict | None:
        """Summed per-frame incremental counters, ``None`` off the path.

        Same monotonic contract as the single-scene snapshot: NSGA-II
        diffs consecutive values into per-generation stats.
        """
        snapshots = [
            snapshot
            for snapshot in (
                evaluator.incremental_snapshot() for evaluator in self.per_frame
            )
            if snapshot is not None
        ]
        if not snapshots:
            return None
        totals: dict[str, int] = {}
        for snapshot in snapshots:
            for key, value in snapshot.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def frame_cache_snapshot(self) -> CacheStats:
        """The temporal frame cache's counters (empty when caching is off)."""
        if self.frame_cache is None:
            return CacheStats()
        return self.frame_cache.snapshot()


class SequenceAttack(ButterflyAttack):
    """Butterfly-effect attack on the streaming-sequence workload.

    Reuses :class:`~repro.core.attack.ButterflyAttack`'s constraint and
    NSGA-II configuration (sparse initialisation, annealing) but evaluates
    through :class:`SequenceObjectives`: temporally derived clean bundles,
    averaged per-frame objectives and the track-survival term.  The
    packaged result reports each front solution's ``track_survival`` in
    :attr:`~repro.core.results.ParetoSolution.extras` and the frame-cache
    counters under ``result.incremental["frame_cache"]``.
    """

    def __init__(
        self,
        detector: Detector,
        config: AttackConfig | None = None,
        activation_store: "ActivationCacheStore | None" = None,
        track_k: int = 2,
        iou_threshold: float = 0.5,
        frame_cache_size: int = 2,
    ) -> None:
        super().__init__(detector, config, (), activation_store)
        self.track_k = track_k
        self.iou_threshold = iou_threshold
        self.frame_cache_size = frame_cache_size

    def build_sequence_objectives(self, sequence: SceneSequence) -> SequenceObjectives:
        """Create the track-aware evaluator for one sequence."""
        return SequenceObjectives(
            detector=self.detector,
            sequence=sequence,
            epsilon=self.config.epsilon,
            track_k=self.track_k,
            iou_threshold=self.iou_threshold,
            frame_cache_size=self.frame_cache_size,
            use_activation_cache=self.config.use_activation_cache,
            activation_store=self.activation_store,
            use_delta_reuse=self.config.use_delta_reuse,
            delta_store_size=self.config.delta_store_size,
        )

    def attack(
        self,
        sequence: SceneSequence,
        callback: Optional[Callable[[int, list], None]] = None,
    ) -> AttackResult:
        """Run the full NSGA-II search against one scene sequence."""
        objectives = self.build_sequence_objectives(sequence)
        optimizer = NSGAII(
            objective_function=objectives,
            genome_shape=objectives.per_frame[0].image.shape,
            config=nsga_config(self.config),
            constraint=partial(constrain_mask, self.config),
            callback=callback,
        )
        nsga_result = optimizer.run()
        return self._package_sequence(objectives, nsga_result)

    def _package_sequence(
        self, objectives: SequenceObjectives, nsga_result: "NSGAResult"
    ) -> AttackResult:
        solutions: list[ParetoSolution] = []
        for individual in nsga_result.population:
            intensity, degradation, negated_distance, survival = (
                individual.objectives[:4]
            )
            solutions.append(
                ParetoSolution(
                    mask=FilterMask(individual.genome),
                    intensity=float(intensity),
                    degradation=float(degradation),
                    distance=float(-negated_distance),
                    rank=int(individual.rank if individual.rank is not None else 0),
                    extras={"track_survival": float(survival)},
                )
            )

        first_frame = objectives.per_frame[0]
        incremental = dict(nsga_result.incremental or {})
        frame_stats = objectives.frame_cache_snapshot()
        incremental["frame_cache"] = frame_stats.as_dict()
        result = AttackResult(
            image=first_frame.image,
            clean_prediction=first_frame.clean_prediction,
            solutions=solutions,
            detector_name=(
                f"{getattr(self.detector, 'name', 'detector')}"
                f"@{objectives.num_frames}frames"
            ),
            num_evaluations=nsga_result.num_evaluations,
            cache_hits=nsga_result.cache_hits,
            history=nsga_result.history,
            incremental=incremental,
        )

        # First-frame perturbed predictions and error transitions for the
        # front only, mirroring the single-scene packaging.
        predict_front(result, nsga_result.population, first_frame)
        return result
