"""Ensemble objectives (Section IV-B, Equations 1–3).

The same filter mask is applied to all ``K`` detectors of an ensemble:

* the intensity objective is identical for every member (Eq. 1),
* the degradation objective is the average of the members' obj_degrad
  (Eq. 2),
* the distance objective is the average of the members' obj_dist (Eq. 3).

:class:`EnsembleObjectives` is a drop-in replacement for
:class:`~repro.core.objectives.ButterflyObjectives`: the
:class:`~repro.core.attack.ButterflyAttack` orchestrator can attack an
ensemble by constructing an :class:`EnsembleAttack` instead.  Like the
single-detector evaluator it exposes a batched ``evaluate_population``
fast path (one stacked ``predict_batch`` pass per member) that is
bit-identical to evaluating mask by mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

from repro.core.attack import constrain_mask, nsga_config, predict_front
from repro.core.config import AttackConfig
from repro.core.masks import FilterMask, apply_mask
from repro.core.objectives import ButterflyObjectives
from repro.core.results import AttackResult, ParetoSolution
from repro.detectors.activation_cache import ActivationCacheStore
from repro.detectors.base import Detector
from repro.detectors.ensemble import DetectorEnsemble
from repro.nn.incremental import BBox, mask_nonzero_bbox
from repro.nsga.algorithm import NSGAII


@dataclass
class EnsembleObjectives:
    """The three ensemble objectives of Equations 1–3.

    One :class:`ButterflyObjectives` evaluator is built per member so that
    each member's clean prediction and distance matrix are cached; the
    ensemble objective vector averages the members' degradation and
    distance terms.
    """

    ensemble: DetectorEnsemble | Sequence[Detector]
    image: np.ndarray
    epsilon: float = 2.0
    use_activation_cache: bool = True
    activation_store: ActivationCacheStore | None = None
    members: list[ButterflyObjectives] = field(init=False)

    def __post_init__(self) -> None:
        detectors = (
            list(self.ensemble)
            if isinstance(self.ensemble, DetectorEnsemble)
            else list(self.ensemble)
        )
        if not detectors:
            raise ValueError("the ensemble must contain at least one detector")
        self.image = np.asarray(self.image, dtype=np.float64)
        # The activation cache fans out per member: each member evaluator
        # caches its own detector's clean activations (optionally through
        # one shared store, keyed by detector identity + image digest).
        self.members = [
            ButterflyObjectives(
                detector=d,
                image=self.image,
                epsilon=self.epsilon,
                use_activation_cache=self.use_activation_cache,
                activation_store=self.activation_store,
            )
            for d in detectors
        ]

    @property
    def num_members(self) -> int:
        return len(self.members)

    @property
    def clean_predictions(self):
        """Clean predictions of every ensemble member."""
        return [member.clean_prediction for member in self.members]

    def intensity(self, mask: np.ndarray) -> float:
        """Eq. 1: identical to every member's intensity objective."""
        return self.members[0].intensity(mask)

    def degradation(self, mask: np.ndarray) -> float:
        """Eq. 2: average of the members' obj_degrad."""
        perturbed_image = apply_mask(self.image, mask)
        values = [
            member.degradation(mask, member.detector.predict(perturbed_image))
            for member in self.members
        ]
        return float(np.mean(values))

    def distance(self, mask: np.ndarray, bbox: BBox | None = None) -> float:
        """Eq. 3: average of the members' obj_dist.

        ``bbox`` must be the mask's exact nonzero bounding box when given
        (see :func:`~repro.core.objectives.objective_distance`).
        """
        return float(
            np.mean([member.distance(mask, bbox) for member in self.members])
        )

    def raw_objectives(self, mask: np.ndarray) -> dict[str, float]:
        """Paper-oriented objective values for reporting."""
        return {
            "intensity": self.intensity(mask),
            "degradation": self.degradation(mask),
            "distance": self.distance(mask),
        }

    def __call__(
        self, mask: np.ndarray, dirty_bound: BBox | None = None
    ) -> np.ndarray:
        """Minimisation vector (intensity, mean degradation, -mean distance)."""
        mask = np.asarray(mask)
        bbox = mask_nonzero_bbox(mask, within=dirty_bound)
        perturbed_image: np.ndarray | None = None
        degradations = []
        for member in self.members:
            if member.clean_activations is not None:
                prediction = member.detector.predict_delta(
                    self.image, mask, bbox, member.clean_activations
                )
            else:
                # One shared perturbed image serves every dense member.
                if perturbed_image is None:
                    perturbed_image = apply_mask(self.image, mask)
                prediction = member.detector.predict(perturbed_image)
            degradations.append(member.degradation(mask, prediction))
        distances = [member.distance(mask, bbox) for member in self.members]
        return self._vector(mask, degradations, distances)

    def _vector(
        self,
        mask: np.ndarray,
        degradations: Sequence[float],
        distances: Sequence[float],
    ) -> np.ndarray:
        return np.asarray(
            [
                self.intensity(mask),
                float(np.mean(degradations)),
                -float(np.mean(distances)),
            ],
            dtype=np.float64,
        )

    def evaluate_population(
        self,
        masks: np.ndarray,
        dirty_bounds: Sequence[BBox | None] | None = None,
        ancestry: Sequence[dict | None] | None = None,
    ) -> np.ndarray:
        """Evaluate a whole population of masks; shape (B, 3).

        Members with cached clean activations answer through their
        incremental ``predict_delta_batch`` path (recomputing only each
        mask's nonzero bounding box); the rest share one stacked
        ``predict_batch`` pass (Equations 1–3 applied per mask), producing
        vectors identical to calling the evaluator mask by mask.
        ``ancestry`` completes NSGA-II's evaluator protocol and is not
        used: members splice against their clean bundles only.  The stack
        keeps its dtype (``int16`` genomes from NSGA-II).
        """
        masks = np.asarray(masks)
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
        perturbed: np.ndarray | None = None
        member_predictions = []
        for member in self.members:
            if member.clean_activations is not None:
                member_predictions.append(
                    member.detector.predict_delta_batch(
                        self.image, masks, bboxes, member.clean_activations
                    )
                )
            else:
                if perturbed is None:
                    # One shared dense stack (reusing the first member's
                    # scratch buffer) serves every non-incremental member.
                    perturbed = self.members[0].apply_masks(
                        masks, out=self.members[0]._population_scratch(masks.shape)
                    )
                member_predictions.append(member.detector.predict_batch(perturbed))
        rows = []
        for index, mask in enumerate(masks):
            degradations = [
                member.degradation(mask, predictions[index])
                for member, predictions in zip(self.members, member_predictions)
            ]
            distances = [
                member.distance(mask, bboxes[index]) for member in self.members
            ]
            rows.append(self._vector(mask, degradations, distances))
        return np.stack(rows, axis=0)


class EnsembleAttack:
    """Butterfly-effect attack against an ensemble of detectors."""

    def __init__(
        self,
        ensemble: DetectorEnsemble | Sequence[Detector],
        config: AttackConfig | None = None,
        activation_store: ActivationCacheStore | None = None,
    ) -> None:
        self.ensemble = (
            ensemble
            if isinstance(ensemble, DetectorEnsemble)
            else DetectorEnsemble(list(ensemble))
        )
        self.config = config if config is not None else AttackConfig()
        self.activation_store = activation_store

    def attack(self, image: np.ndarray) -> AttackResult:
        """Run NSGA-II against the whole ensemble and package the result."""
        image = np.asarray(image, dtype=np.float64)
        objectives = EnsembleObjectives(
            ensemble=self.ensemble,
            image=image,
            epsilon=self.config.epsilon,
            use_activation_cache=self.config.use_activation_cache,
            activation_store=self.activation_store,
        )
        optimizer = NSGAII(
            objective_function=objectives,
            genome_shape=image.shape,
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

        # The reference prediction of the result is the first member's; the
        # per-member analysis can be recomputed from the masks if needed.
        reference = objectives.members[0]
        result = AttackResult(
            image=image,
            clean_prediction=reference.clean_prediction,
            solutions=solutions,
            detector_name=self.ensemble.name,
            num_evaluations=nsga_result.num_evaluations,
            cache_hits=nsga_result.cache_hits,
            history=nsga_result.history,
        )
        predict_front(result, nsga_result.population, reference)
        return result
