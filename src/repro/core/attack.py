"""The butterfly-effect attack orchestrator.

:class:`ButterflyAttack` wires everything together: it builds the
three-objective evaluator for a detector/image pair, applies the spatial
region constraint (e.g. "perturb only the right half"), runs NSGA-II and
packages the final population into an :class:`~repro.core.results.AttackResult`
with paper-oriented objective values and error-type transitions.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.config import AttackConfig
from repro.core.masks import FilterMask
from repro.core.objectives import ButterflyObjectives
from repro.core.results import AttackResult, ParetoSolution
from repro.detection.errors import classify_transitions
from repro.detection.prediction import Prediction
from repro.detectors.activation_cache import ActivationCacheStore
from repro.detectors.base import Detector
from repro.nsga.algorithm import NSGAII, NSGAConfig, NSGAResult
from repro.nsga.individual import Individual
from repro.nsga.mutation import IntensityAnnealing


def constrain_mask(config: AttackConfig, mask: np.ndarray) -> np.ndarray:
    """The genome constraint of every attack front-end.

    Projects the mask onto ``config.region``, then rounds to integers (the
    paper encodes masks as signed integers in ``[-255, 255]``) and clips to
    that range, in place on the projection's fresh array.
    """
    projected = config.region.project(mask)
    np.round(projected, out=projected)
    return np.clip(projected, -255.0, 255.0, out=projected)


def nsga_config(config: AttackConfig) -> NSGAConfig:
    """The NSGA-II configuration of every attack front-end.

    ``config.nsga`` with the attack-level options applied:
    ``sparse_init_fraction > 0`` rewrites the initialisation config so
    part of the initial population is drawn as patch-confined sparse
    masks; ``anneal_final_window`` installs the mutation-intensity
    schedule.  At the defaults ``config.nsga`` is returned unchanged, so
    default attacks are bit-exact with the original path.
    """
    nsga = config.nsga
    if config.sparse_init_fraction > 0.0:
        nsga = replace(
            nsga,
            initialization=replace(
                nsga.initialization, sparse_fraction=config.sparse_init_fraction
            ),
        )
    if config.anneal_final_window is not None:
        nsga = replace(
            nsga,
            annealing=IntensityAnnealing(
                final_window_fraction=config.anneal_final_window,
                shape=config.anneal_shape,
            ),
        )
    return nsga


def predict_front(
    result: AttackResult,
    population: Sequence[Individual],
    evaluator: ButterflyObjectives,
) -> None:
    """Fill the front's perturbed predictions and error transitions.

    ``result.solutions`` must be ``population`` in order.  The front goes
    through ``evaluator.predict_population`` with each member's ancestry
    pointing at its own fingerprint: a member whose spliced grids are still
    in the delta store scans as identical to them and answers from the
    stored prediction with no compute, the others splice against the clean
    bundle (or run densely), and nothing is stored.  Every route is
    bit-identical to ``detector.predict`` on the perturbed image.
    """
    members = [
        (solution, individual)
        for solution, individual in zip(result.solutions, population)
        if solution.rank == 1
    ]
    if not members:
        return
    ancestry: list[dict | None] = []
    for _, individual in members:
        key = individual.metadata.get("fingerprint")
        record = {"fingerprint": None, "ancestor": key}
        ancestry.append(None if key is None else record)
    predictions, _ = evaluator.predict_population(
        np.stack([solution.mask.values for solution, _ in members], axis=0),
        ancestry=ancestry,
    )
    for (solution, _), prediction in zip(members, predictions):
        solution.perturbed_prediction = prediction
        solution.transitions = classify_transitions(
            evaluator.clean_prediction, prediction
        )


class ButterflyAttack:
    """Multi-objective black-box attack against one object detector.

    Parameters
    ----------
    detector:
        The attacked detector (any object with a ``predict(image)`` method
        following the :class:`~repro.detectors.base.Detector` interface).
    config:
        Attack configuration (NSGA-II parametrisation, perturbable region,
        Algorithm 2 buffer).  Defaults to the paper's Table II values with
        no region restriction.
    extra_objectives:
        Optional additional minimised objectives forwarded to
        :class:`~repro.core.objectives.ButterflyObjectives` (grey-box
        extension).
    activation_store:
        Optional shared clean-activation store (e.g. one per experiment
        sweep) so repeated attacks on the same ``(detector, scene)`` pair
        reuse one cached bundle; without it each attack builds a private
        one when ``config.use_activation_cache`` is on.
    """

    def __init__(
        self,
        detector: Detector,
        config: AttackConfig | None = None,
        extra_objectives: Sequence[
            Callable[[np.ndarray, np.ndarray, Prediction], float]
        ] = (),
        activation_store: "ActivationCacheStore | None" = None,
    ) -> None:
        self.detector = detector
        self.config = config if config is not None else AttackConfig()
        self.extra_objectives = tuple(extra_objectives)
        self.activation_store = activation_store

    def build_objectives(self, image: np.ndarray) -> ButterflyObjectives:
        """Create the cached objective evaluator for one image."""
        return ButterflyObjectives(
            detector=self.detector,
            image=image,
            epsilon=self.config.epsilon,
            extra_objectives=self.extra_objectives,
            use_activation_cache=self.config.use_activation_cache,
            activation_store=self.activation_store,
            use_delta_reuse=self.config.use_delta_reuse,
            delta_store_size=self.config.delta_store_size,
        )

    def _package(
        self,
        image: np.ndarray,
        objectives: ButterflyObjectives,
        nsga_result: NSGAResult,
    ) -> AttackResult:
        solutions: list[ParetoSolution] = []
        for individual in nsga_result.population:
            intensity, degradation, negated_distance = individual.objectives[:3]
            extras = {
                f"extra_{i}": float(value)
                for i, value in enumerate(individual.objectives[3:])
            }
            solution = ParetoSolution(
                mask=FilterMask(individual.genome),
                intensity=float(intensity),
                degradation=float(degradation),
                distance=float(-negated_distance),
                rank=int(individual.rank if individual.rank is not None else 0),
                extras=extras,
            )
            solutions.append(solution)

        result = AttackResult(
            image=image,
            clean_prediction=objectives.clean_prediction,
            solutions=solutions,
            detector_name=getattr(self.detector, "name", repr(self.detector)),
            num_evaluations=nsga_result.num_evaluations,
            cache_hits=nsga_result.cache_hits,
            history=nsga_result.history,
            incremental=nsga_result.incremental,
        )

        # Perturbed predictions and error transitions for the front only
        # (re-running the detector for all 101+ solutions would double the
        # attack cost for no benefit).
        predict_front(result, nsga_result.population, objectives)
        return result

    def attack(
        self,
        image: np.ndarray,
        callback: Optional[Callable[[int, list], None]] = None,
    ) -> AttackResult:
        """Run the full NSGA-II search against one image."""
        image = np.asarray(image, dtype=np.float64)
        objectives = self.build_objectives(image)
        optimizer = NSGAII(
            objective_function=objectives,
            genome_shape=image.shape,
            config=nsga_config(self.config),
            constraint=partial(constrain_mask, self.config),
            callback=callback,
        )
        nsga_result = optimizer.run()
        return self._package(image, objectives, nsga_result)
