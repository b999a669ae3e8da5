"""The three butterfly-effect objectives of Section III-B.

* ``obj_intensity(δ) = ||δ||_2`` — the amount of perturbation (minimised),
* ``obj_degrad(img, δ, f)`` — Algorithm 1: the average best same-class IoU
  between the clean and the perturbed prediction (minimised; 1 means the
  prediction did not change, 0 means every object was lost or changed
  class),
* ``obj_dist(img, δ, f)`` — Algorithm 2: the perturbation-weighted distance
  between perturbed pixels and the detected objects, normalised by the
  number of perturbed pixels (maximised; the further from the objects the
  perturbation sits, the larger the value).

:class:`ButterflyObjectives` bundles the three into the minimisation vector
``(obj_intensity, obj_degrad, -obj_dist)`` consumed by NSGA-II, caching
everything that only depends on the clean image (the clean prediction and
the distance matrix ``D`` of Algorithm 2).

Two evaluation paths are offered: the sequential ``__call__`` (one mask,
one detector query) and the batched :meth:`ButterflyObjectives.
evaluate_population` (all masks applied in one broadcast, one vectorised
``predict_batch`` pass, degradation via a pairwise-IoU matrix).  The two
are bit-identical per mask — the parity test suite enforces it — so
NSGA-II picks the batched path purely for speed.

On top of the batched path sits the *incremental* path: when the detector
supports dirty-region inference, the evaluator caches the clean scene's
activations once (:class:`~repro.detectors.activation_cache.
CleanActivations`, optionally through a shared
:class:`~repro.detectors.activation_cache.ActivationCacheStore`) and routes
every mask through ``predict_delta`` / ``predict_delta_batch``, which
recompute only each mask's nonzero bounding box.  That path is again
bit-identical per mask, so ``use_activation_cache`` only changes speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.masks import FilterMask, apply_mask
from repro.detection.boxes import iou_matrix
from repro.detection.prediction import Prediction
from repro.detectors.activation_cache import (
    DEFAULT_DELTA_STORE_ENTRIES,
    ActivationCacheStore,
    CleanActivations,
    DeltaActivationStore,
)
from repro.detectors.base import Detector
from repro.nn.incremental import (
    BBox,
    bbox_area,
    bbox_is_empty,
    channel_planes,
    mask_nonzero_bbox,
)


def objective_intensity(mask: np.ndarray) -> float:
    """``obj_intensity(δ) := ||δ||_2`` (Section III-B(a))."""
    return float(np.linalg.norm(np.asarray(mask, dtype=np.float64).ravel(), ord=2))


def objective_degradation(
    clean_prediction: Prediction, perturbed_prediction: Prediction
) -> float:
    """Algorithm 1: average best same-class IoU against the clean prediction.

    For every valid box of the clean prediction, the best IoU over
    same-class boxes of the perturbed prediction is accumulated; the sum is
    divided by the number of valid clean boxes.  A value of 1 means no
    change, 0 means every clean box lost its class or disappeared.  When the
    clean prediction has no valid boxes the objective is defined as 1 (there
    is nothing to degrade).
    """
    clean_boxes = clean_prediction.valid_boxes
    if not clean_boxes:
        return 1.0
    perturbed_boxes = perturbed_prediction.valid_boxes
    if not perturbed_boxes:
        return 0.0
    # Vectorised form of the paper's double loop: a pairwise-IoU matrix
    # masked to same-class pairs, then the best overlap per clean box.  The
    # final accumulation stays a left-to-right Python sum so the result is
    # bit-identical to the original nested-loop implementation (kept as a
    # reference in the property test suite).
    overlaps = iou_matrix(clean_boxes, perturbed_boxes)
    same_class = np.equal(
        np.array([box.cl for box in clean_boxes])[:, None],
        np.array([box.cl for box in perturbed_boxes])[None, :],
    )
    best = np.where(same_class, overlaps, 0.0).max(axis=1)
    accumulated = 0.0
    for value in best:
        accumulated += float(value)
    return accumulated / len(clean_boxes)


def distance_weight_matrix(
    clean_prediction: Prediction,
    image_length: int,
    image_width: int,
    epsilon: float = 0.0,
) -> np.ndarray:
    """The matrix ``D`` of Algorithm 2 (lines 1–16), precomputed per image.

    ``D[i, j]`` is the distance from pixel ``(i, j)`` to the nearest valid
    bounding-box *centre*; pixels inside any valid box (grown by the buffer
    ``ϵ``) are set to the negative average distance, so that perturbing them
    is penalised.  When there are no valid boxes every entry is the image
    diagonal (any perturbation is maximally "unrelated").
    """
    diagonal = float(np.sqrt(image_length**2 + image_width**2))
    rows = np.arange(image_length, dtype=np.float64)[:, None]
    cols = np.arange(image_width, dtype=np.float64)[None, :]

    distance = np.full((image_length, image_width), diagonal, dtype=np.float64)
    valid_boxes = clean_prediction.valid_boxes
    for box in valid_boxes:
        box_distance = np.sqrt((box.x - rows) ** 2 + (box.y - cols) ** 2)
        np.minimum(distance, box_distance, out=distance)

    if not valid_boxes:
        return distance

    negative_average = -float(distance.mean())
    inside = np.zeros((image_length, image_width), dtype=bool)
    for box in valid_boxes:
        x_lo = box.x - box.l / 2.0 - epsilon
        x_hi = box.x + box.l / 2.0 + epsilon
        y_lo = box.y - box.w / 2.0 - epsilon
        y_hi = box.y + box.w / 2.0 + epsilon
        inside |= (rows >= x_lo) & (rows <= x_hi) & (cols >= y_lo) & (cols <= y_hi)
    # Inside-the-box pixels get the (negative) average distance so that
    # perturbing them pulls the objective down (Algorithm 2, line 13).
    distance[inside] = negative_average
    return distance


def objective_distance(
    mask: np.ndarray,
    weight_matrix: np.ndarray,
    bbox: BBox | None = None,
) -> float:
    """Algorithm 2 (lines 17–24) given the precomputed matrix ``D``.

    The per-pixel maximum absolute perturbation over the RGB channels
    weighs the distance matrix; the weighted sum is divided by the number
    of perturbed pixels.  A zero mask has no perturbed pixels; its
    "unrelatedness" is defined as 0.

    All work happens on the mask's nonzero bounding box (every pixel
    outside contributes an exact zero to the weighted sum anyway), which is
    what makes sparse masks cheap.  ``bbox`` must be the *exact* box — pass
    :meth:`FilterMask.nonzero_bbox` or :func:`~repro.nn.incremental.
    mask_nonzero_bbox` output, never a loose bound — so that the summation
    grouping, and therefore the value, is a deterministic function of the
    mask alone; it is computed from the mask when omitted.
    """
    mask = np.asarray(mask, dtype=np.float64)
    if bbox is None:
        bbox = mask_nonzero_bbox(mask)
    if bbox_is_empty(bbox):
        return 0.0
    r0, r1, c0, c1 = bbox
    # Elementwise maxima over the channel planes: max is exact in any
    # order, and the result is a fresh C-ordered (h, w) plane, so the sum
    # below always groups its terms the same way.
    planes = channel_planes(mask[r0:r1, c0:c1])
    per_pixel_max = np.abs(planes[0])
    for plane in planes[1:]:
        np.maximum(per_pixel_max, np.abs(plane), out=per_pixel_max)
    perturbed_count = int(np.count_nonzero(per_pixel_max))
    if perturbed_count == 0:
        return 0.0
    weighted = per_pixel_max * weight_matrix[r0:r1, c0:c1]
    return float(weighted.sum() / perturbed_count)


@dataclass
class ButterflyObjectives:
    """Evaluates the three objectives for one detector and one image.

    The returned minimisation vector is ``(obj_intensity, obj_degrad,
    -obj_dist)``; :meth:`raw_objectives` returns the paper's original
    orientation (``obj_dist`` to be maximised).

    Parameters
    ----------
    detector:
        The attacked (black-box) detector.
    image:
        The clean image.
    epsilon:
        Buffer ``ϵ`` around the bounding boxes used by Algorithm 2.
    extra_objectives:
        Optional additional minimised objectives, each a callable
        ``(image, mask, perturbed_prediction) -> float``.  Used for the
        grey-box feature-distance extension.
    normalize_intensity:
        When True (default) the L2 intensity is divided by the norm of a
        worst-case mask (every pixel at the maximum perturbation), giving a
        value in [0, 1] that is comparable across image sizes.
    normalize_distance:
        When True (default) obj_dist is divided by (image diagonal × 255),
        the value a single maximally strong perturbation at the largest
        possible distance would reach, giving a value in roughly [-1, 1]
        comparable across image sizes (the paper's Figure 2 reports
        obj_dist values around 0.5 on a comparable scale).
    use_activation_cache:
        Precompute the clean scene's activations and evaluate masks through
        the detector's incremental (dirty-region) path when it supports
        one.  Bit-identical to the dense path — the parity suite enforces
        it — so this switch only changes speed.  Defaults to on.
    activation_store:
        Optional shared :class:`ActivationCacheStore` (e.g. one per
        experiment sweep) supplying the clean activations; without it the
        evaluator builds its own private bundle.
    activation_bundle:
        Optional pre-derived :class:`CleanActivations` of ``image`` to use
        directly instead of consulting the store or rebuilding (the
        streaming-sequence workload derives each frame's bundle from the
        previous frame's and injects it here).  The bundle must belong to
        this image — it is trusted to be bit-identical to what
        ``detector.clean_activations(image)`` would build, which the
        temporal derivation guarantees.
    use_delta_reuse:
        Memoise each evaluated mask's spliced activations (keyed by the
        genome fingerprint NSGA-II propagates) and re-splice only the
        child-vs-parent diff for offspring whose ancestor is still cached.
        Requires the activation cache; bit-identical to the clean-splice
        path — the parity suite enforces it — so this switch only changes
        speed.  Defaults to on.
    delta_store_size:
        LRU capacity (entries) of the per-scene delta-activation store.
    """

    detector: Detector
    image: np.ndarray
    epsilon: float = 2.0
    extra_objectives: Sequence[
        Callable[[np.ndarray, np.ndarray, Prediction], float]
    ] = field(default_factory=tuple)
    normalize_intensity: bool = True
    normalize_distance: bool = True
    use_activation_cache: bool = True
    activation_store: Optional[ActivationCacheStore] = None
    activation_bundle: Optional[CleanActivations] = None
    use_delta_reuse: bool = True
    delta_store_size: int = DEFAULT_DELTA_STORE_ENTRIES

    def __post_init__(self) -> None:
        self.image = np.asarray(self.image, dtype=np.float64)
        if self.image.ndim != 3 or self.image.shape[2] != 3:
            raise ValueError("image must have shape (L, W, 3)")
        if self.delta_store_size < 1:
            raise ValueError("delta_store_size must be at least 1")
        self._scratch: Optional[np.ndarray] = None
        self._inc_masks = 0
        self._inc_dirty_area = 0
        self._inc_total_area = 0
        self.clean_activations: Optional[CleanActivations] = None
        if self.use_activation_cache:
            if self.activation_bundle is not None:
                if self.activation_bundle.clean_image.shape != self.image.shape:
                    raise ValueError(
                        "injected activation bundle does not match the image: "
                        f"{self.activation_bundle.clean_image.shape} vs "
                        f"{self.image.shape}"
                    )
                self.clean_activations = self.activation_bundle
            elif self.activation_store is not None:
                self.clean_activations = self.activation_store.get(
                    self.detector, self.image
                )
            else:
                self.clean_activations = self.detector.clean_activations(self.image)
        # Delta reuse rides on the clean bundle: attach a per-scene store
        # when the owning cache did not already provide one (a store-managed
        # bundle shares its store's lifecycle — dropping the bundle drops
        # the memoised deltas too).
        self._delta_reuse_active = (
            self.use_delta_reuse and self.clean_activations is not None
        )
        if self._delta_reuse_active and self.clean_activations.delta is None:
            self.clean_activations.delta = DeltaActivationStore(
                max_entries=self.delta_store_size
            )
        if self.clean_activations is not None:
            # The cached clean prediction is decoded from the same forward
            # pass predict() would run, so downstream numbers are unchanged.
            self.clean_prediction: Prediction = self.clean_activations.prediction
        else:
            self.clean_prediction = self.detector.predict(self.image)
        self.weight_matrix: np.ndarray = distance_weight_matrix(
            self.clean_prediction,
            self.image.shape[0],
            self.image.shape[1],
            epsilon=self.epsilon,
        )
        self._intensity_scale = float(
            np.linalg.norm(np.full(self.image.shape, 255.0).ravel(), ord=2)
        )
        self._distance_scale = float(
            np.hypot(self.image.shape[0], self.image.shape[1]) * 255.0
        )

    @property
    def num_objectives(self) -> int:
        """Number of minimised objectives returned by :meth:`__call__`."""
        return 3 + len(self.extra_objectives)

    @property
    def intensity_scale(self) -> float:
        """L2 norm of the worst-case mask, used to normalise obj_intensity."""
        return self._intensity_scale

    @property
    def distance_scale(self) -> float:
        """Normalisation constant of obj_dist (image diagonal × 255)."""
        return self._distance_scale

    def intensity(self, mask: np.ndarray) -> float:
        """obj_intensity, optionally normalised to [0, 1]."""
        value = objective_intensity(mask)
        if self.normalize_intensity:
            return value / self._intensity_scale
        return value

    def degradation(self, mask: np.ndarray, perturbed: Prediction | None = None) -> float:
        """obj_degrad for a mask (running the detector unless given)."""
        if perturbed is None:
            perturbed = self._predict_perturbed(np.asarray(mask, dtype=np.float64))
        return objective_degradation(self.clean_prediction, perturbed)

    def distance(
        self, mask: np.ndarray | FilterMask, bbox: BBox | None = None
    ) -> float:
        """obj_dist for a mask, using the cached weight matrix.

        ``bbox`` must be the mask's exact nonzero bounding box when given
        (see :func:`objective_distance`); a :class:`FilterMask` supplies its
        cached :meth:`~repro.core.masks.FilterMask.nonzero_bbox`
        automatically.
        """
        if isinstance(mask, FilterMask):
            if bbox is None:
                bbox = mask.nonzero_bbox()
            mask = mask.values
        value = objective_distance(mask, self.weight_matrix, bbox=bbox)
        if self.normalize_distance:
            return value / self._distance_scale
        return value

    def _predict_perturbed(
        self, mask: np.ndarray, bbox: BBox | None = None
    ) -> Prediction:
        """Detector prediction on the perturbed image, via the incremental
        path when clean activations are cached (bit-identical either way)."""
        if self.clean_activations is not None:
            return self.detector.predict_delta_batch(
                self.image, mask[None, ...], [bbox], self.clean_activations
            )[0]
        return self.detector.predict(apply_mask(self.image, mask))

    def raw_objectives(self, mask: np.ndarray) -> dict[str, float]:
        """The paper-oriented objective values for reporting.

        ``intensity`` and ``degradation`` are minimised, ``distance`` is
        maximised, exactly as the paper presents them.
        """
        mask = np.asarray(mask, dtype=np.float64)
        bbox = mask_nonzero_bbox(mask)
        perturbed = self._predict_perturbed(mask, bbox)
        values = {
            "intensity": self.intensity(mask),
            "degradation": self.degradation(mask, perturbed),
            "distance": self.distance(mask, bbox),
        }
        for index, extra in enumerate(self.extra_objectives):
            values[f"extra_{index}"] = float(extra(self.image, mask, perturbed))
        return values

    def __call__(
        self, mask: np.ndarray, dirty_bound: BBox | None = None
    ) -> np.ndarray:
        """Minimisation vector for NSGA-II.

        ``dirty_bound`` optionally restricts the nonzero scan to a window
        known to contain every nonzero pixel (e.g. the mask's exact box,
        when the caller already holds it); it never changes the result.
        """
        mask = np.asarray(mask, dtype=np.float64)
        bbox = mask_nonzero_bbox(mask, within=dirty_bound)
        if self.clean_activations is not None:
            self._record_incremental([bbox])
        perturbed = self._predict_perturbed(mask, bbox)
        return self._vector(mask, perturbed, bbox)

    def _record_incremental(self, bboxes: Sequence[BBox | None]) -> None:
        """Accumulate the dirty-area counters behind the per-generation stats."""
        frame = int(self.image.shape[0] * self.image.shape[1])
        self._inc_masks += len(bboxes)
        self._inc_total_area += frame * len(bboxes)
        self._inc_dirty_area += sum(
            bbox_area(bbox) if bbox is not None else frame for bbox in bboxes
        )

    def incremental_snapshot(self) -> dict | None:
        """Monotonic incremental-inference counters, ``None`` off the path.

        NSGA-II diffs consecutive snapshots into per-generation stats
        (dirty-area ratio, delta hits/misses); the counters never feed back
        into objective values.
        """
        if self.clean_activations is None:
            return None
        delta = self.clean_activations.delta
        counters = delta.counters() if delta is not None else None
        return {
            "masks_evaluated": self._inc_masks,
            "dirty_area": self._inc_dirty_area,
            "total_area": self._inc_total_area,
            "delta_hits": counters.delta_hits if counters is not None else 0,
            "delta_misses": counters.delta_misses if counters is not None else 0,
        }

    def _vector(
        self, mask: np.ndarray, perturbed: Prediction, bbox: BBox | None = None
    ) -> np.ndarray:
        """Assemble the minimisation vector from a perturbed prediction."""
        vector = [
            self.intensity(mask),
            self.degradation(mask, perturbed),
            -self.distance(mask, bbox),
        ]
        for extra in self.extra_objectives:
            vector.append(float(extra(self.image, mask, perturbed)))
        return np.asarray(vector, dtype=np.float64)

    def apply_masks(
        self, masks: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Apply a stack of masks at once; ``(B, L, W, 3)`` perturbed images.

        The broadcast add/clip performs the same per-element operations as
        :func:`~repro.core.masks.apply_mask` per mask, so the stacked images
        are bit-identical to the sequential path.  ``out`` optionally
        receives the stack in place (float64, shape ``masks.shape``) so a
        population of N masks can reuse one scratch buffer.
        """
        masks = np.asarray(masks, dtype=np.float64)
        if masks.ndim != 4 or masks.shape[1:] != self.image.shape:
            raise ValueError(
                f"expected masks of shape (B, *{self.image.shape}), got {masks.shape}"
            )
        if out is None:
            return np.clip(self.image[None, ...] + masks, 0.0, 255.0)
        if out.shape != masks.shape or out.dtype != np.float64:
            raise ValueError(
                f"out buffer must be float64 of shape {masks.shape}, "
                f"got {out.dtype} {out.shape}"
            )
        np.add(self.image[None, ...], masks, out=out)
        return np.clip(out, 0.0, 255.0, out=out)

    def _population_scratch(self, shape: tuple[int, ...]) -> np.ndarray:
        """One reusable (B, L, W, 3) buffer for dense population batches."""
        if self._scratch is None or self._scratch.shape != shape:
            self._scratch = np.empty(shape, dtype=np.float64)
        return self._scratch

    def evaluate_population(
        self,
        masks: np.ndarray,
        dirty_bounds: Sequence[BBox | None] | None = None,
        ancestry: Sequence[dict | None] | None = None,
    ) -> np.ndarray:
        """Evaluate a whole population of masks; shape (B, num_objectives).

        With cached clean activations every mask routes through the
        detector's incremental ``predict_delta_batch`` path (recomputing
        only its nonzero bounding box); otherwise all masks are applied in
        one broadcast pass into a reused scratch buffer and the detector
        runs once over the stacked batch.  ``dirty_bounds`` optionally caps
        the per-mask nonzero scans (one bound per mask, ``None`` entries
        meaning unknown; NSGA-II passes none, so every mask is scanned in
        full).  ``ancestry`` optionally carries one lineage record per mask
        (own fingerprint, parent fingerprint) for the cross-generation
        delta-reuse path; records are forwarded only when reuse is active
        and never change objective values.
        Per-mask objective vectors are identical to calling the evaluator
        mask by mask on every route, which is what lets NSGA-II switch
        freely between the evaluation paths.
        """
        masks = np.asarray(masks, dtype=np.float64)
        if masks.ndim != 4 or masks.shape[1:] != self.image.shape:
            raise ValueError(
                f"expected masks of shape (B, *{self.image.shape}), got {masks.shape}"
            )
        predictions, bboxes = self.predict_population(masks, dirty_bounds, ancestry)
        return np.stack(
            [
                self._vector(mask, prediction, bbox)
                for mask, prediction, bbox in zip(masks, predictions, bboxes)
            ],
            axis=0,
        )

    def predict_population(
        self,
        masks: np.ndarray,
        dirty_bounds: Sequence[BBox | None] | None = None,
        ancestry: Sequence[dict | None] | None = None,
    ) -> tuple[list[Prediction], list[BBox]]:
        """Per-mask perturbed predictions plus exact nonzero bboxes.

        The prediction stage of :meth:`evaluate_population`, exposed so
        composite evaluators (the sequence workload's track-level scoring)
        can see each mask's prediction per frame instead of only the folded
        objective vector, and so the attack front-ends can answer their
        Pareto front from evaluations already made
        (:func:`~repro.core.attack.predict_front`).  Same routing, same
        bit-parity guarantees.
        """
        masks = np.asarray(masks, dtype=np.float64)
        if masks.ndim != 4 or masks.shape[1:] != self.image.shape:
            raise ValueError(
                f"expected masks of shape (B, *{self.image.shape}), got {masks.shape}"
            )
        bounds: list[BBox | None]
        if dirty_bounds is None:
            bounds = [None] * masks.shape[0]
        else:
            bounds = list(dirty_bounds)
            if len(bounds) != masks.shape[0]:
                raise ValueError(
                    f"expected {masks.shape[0]} dirty bounds, got {len(bounds)}"
                )
        bboxes = [
            mask_nonzero_bbox(mask, within=bound)
            for mask, bound in zip(masks, bounds)
        ]
        if self.clean_activations is not None:
            self._record_incremental(bboxes)
            delta = self.clean_activations.delta
            if delta is not None:
                # Population boundary: shared-memory mappings of entries
                # evicted during the previous batch are safe to close now.
                delta.release_evicted()
            # Ancestry only while reuse is active: without a delta store
            # there is nothing to splice against or store into.
            predictions = self.detector.predict_delta_batch(
                self.image,
                masks,
                bboxes,
                self.clean_activations,
                ancestry=(
                    list(ancestry)
                    if ancestry is not None and self._delta_reuse_active
                    else None
                ),
            )
        else:
            perturbed = self.apply_masks(
                masks, out=self._population_scratch(masks.shape)
            )
            predictions = self.detector.predict_batch(perturbed)
        return predictions, bboxes
