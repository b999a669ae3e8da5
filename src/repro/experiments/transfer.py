"""Transferability of butterfly masks across seed-varied models.

The related-work section cites transfer-based black-box attacks (reusing a
perturbation found against one model on another).  Since the paper trains 25
seed-varied models per architecture (Table I), the natural follow-up
question is: does a mask optimised against seed ``i`` also degrade seed
``j``?  This module measures exactly that and produces a transfer matrix.

The experiment is expressed as two declarative stages over the generic
plan/engine substrate (:mod:`repro.experiments.jobs` /
:mod:`repro.experiments.engine`):

1. **Mask optimisation** — one :class:`~repro.experiments.jobs.AttackJob`
   per model (the plain models × images job with a single shared scene).
2. **Cross evaluation** — one :class:`TransferEvalJob` per *target* model,
   which computes one column of the N×N matrix: the clean prediction is
   taken once from the cached clean activations (or one ``predict`` call)
   and every best mask is evaluated through
   :meth:`~repro.detectors.base.Detector.predict_delta_batch` with its
   exact dirty bounds — never one dense ``predict`` per matrix cell.

Serial and pooled executions are bit-identical to each other and to
:func:`run_transferability_reference`, the preserved pre-engine loop
(enforced by ``tests/experiments/test_transfer.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import time
from typing import Sequence

import numpy as np

from repro.core.attack import ButterflyAttack
from repro.core.config import AttackConfig
from repro.core.masks import apply_mask, mask_array
from repro.core.objectives import objective_degradation
from repro.detectors.base import Detector
from repro.experiments.engine import (
    ExecutionBackend,
    RetryPolicy,
    execute_plan,
    merge_execution_summaries,
    resolve_backend,
)
from repro.experiments.jobs import (
    AttackJob,
    ExperimentPlan,
    JobOutcome,
    WorkerContext,
    apply_experiment_seed,
    as_model_spec,
    build_cached,
    release_plan_models,
)
from repro.nn.incremental import BBox, bbox_area_fraction, bbox_is_empty


@dataclass
class TransferabilityResult:
    """Transfer matrix of attack degradation across models.

    ``matrix[i, j]`` is the obj_degrad that the mask optimised against model
    ``i`` achieves on model ``j`` (diagonal = white-box effectiveness,
    off-diagonal = transfer).  Lower values mean stronger degradation.

    ``best_masks`` (one per source model, when available), the
    ``experiment_seed`` and the ``execution`` provenance summary are
    carried for persistence via
    :func:`repro.io.serialization.save_transfer_result`.
    """

    model_names: list[str]
    matrix: np.ndarray
    masks_intensity: list[float] = field(default_factory=list)
    best_masks: list[np.ndarray] = field(default_factory=list)
    experiment_seed: int | None = None
    execution: dict | None = None

    @property
    def num_models(self) -> int:
        return len(self.model_names)

    def self_degradation(self) -> float:
        """Mean obj_degrad of each mask on the model it was optimised for."""
        if self.matrix.size == 0:
            return 1.0
        return float(np.mean(np.diag(self.matrix)))

    def transfer_degradation(self) -> float:
        """Mean obj_degrad of masks on models they were *not* optimised for."""
        if self.num_models < 2:
            return 1.0
        off_diagonal = self.matrix[~np.eye(self.num_models, dtype=bool)]
        return float(np.mean(off_diagonal))

    def transfer_gap(self) -> float:
        """How much effectiveness is lost when transferring (>= 0 usually)."""
        return self.transfer_degradation() - self.self_degradation()

    def as_rows(self) -> list[dict[str, object]]:
        """Rows (source model, target model, degradation) for reporting."""
        rows: list[dict[str, object]] = []
        for i, source in enumerate(self.model_names):
            for j, target in enumerate(self.model_names):
                rows.append(
                    {
                        "source": source,
                        "target": target,
                        "degradation": float(self.matrix[i, j]),
                        "is_transfer": i != j,
                    }
                )
        return rows


@dataclass
class TransferColumn:
    """One cross-evaluation job's payload: a column of the transfer matrix.

    ``degradations[i]`` is the obj_degrad of source model ``i``'s best mask
    on this job's target model.
    """

    target_index: int
    target_name: str
    degradations: np.ndarray


@dataclass
class TransferEvalJob:
    """Evaluate every optimised mask against one target model.

    One instance of the generic job protocol (see
    :mod:`repro.experiments.jobs`): ``model`` is the *target* spec, and
    ``masks`` stacks the N best masks of the optimisation stage (shipped by
    value, like scenes) in a mask's storage dtype
    (:func:`~repro.core.masks.mask_array`): the attack's ``int16`` masks
    stay ``int16``, other inputs become float64.  The clean prediction is
    computed **once** — from the cached clean activations when the context
    has a store, else one ``predict`` call — and the masks are evaluated
    through the batched delta path with their exact ``dirty_bounds``, so
    no matrix cell ever pays a dense per-cell ``predict``.  The job runs no NSGA search and
    therefore takes no ``nsga_seed``.
    """

    job_id: int
    model: object
    image: np.ndarray
    masks: np.ndarray
    dirty_bounds: list[BBox] | None = None
    config: AttackConfig = field(default_factory=AttackConfig)
    target_index: int = 0

    def __post_init__(self) -> None:
        self.image = np.asarray(self.image, dtype=np.float64)
        self.masks = mask_array(self.masks)

    def _any_mask_sparse(self, detector) -> bool:
        """Whether any mask's exact dirty bound can use the windowed path.

        The activation bundle only pays for itself when at least one mask
        routes through the empty/windowed delta path; a column of dense
        masks (dirty region above the detector's dense-fallback fraction)
        goes straight to the batched forward pass, where building and
        splicing clean activations would be pure overhead.  With unknown
        bounds we optimistically build the bundle (the batch call computes
        the exact boxes itself).
        """
        if self.dirty_bounds is None:
            return True
        plane = (self.image.shape[0], self.image.shape[1])
        return any(
            bbox_is_empty(bound)
            or bbox_area_fraction(bound, plane)
            <= detector.incremental_dense_fraction
            for bound in self.dirty_bounds
        )

    def execute(self, context: WorkerContext) -> JobOutcome:
        start = time.perf_counter()
        detector = build_cached(self.model)
        use_store = context.job_store(self.config)
        before = use_store.snapshot() if use_store is not None else None

        clean = (
            use_store.get(detector, self.image)
            if use_store is not None and self._any_mask_sparse(detector)
            else None
        )
        clean_prediction = (
            clean.prediction if clean is not None else detector.predict(self.image)
        )
        bounds = (
            list(self.dirty_bounds) if self.dirty_bounds is not None else None
        )
        perturbed = detector.predict_delta_batch(
            self.image, self.masks, bounds, clean
        )
        degradations = np.array(
            [
                objective_degradation(clean_prediction, prediction)
                for prediction in perturbed
            ],
            dtype=np.float64,
        )

        stats = use_store.snapshot() - before if use_store is not None else None
        return JobOutcome(
            job_id=self.job_id,
            result=TransferColumn(
                target_index=self.target_index,
                target_name=self.model.name,
                degradations=degradations,
            ),
            cache_stats=stats,
            duration_seconds=time.perf_counter() - start,
        )


def build_transfer_attack_plan(
    specs: Sequence,
    image: np.ndarray,
    attack_config: AttackConfig,
    experiment_seed: int | None = None,
) -> ExperimentPlan:
    """Stage 1: one mask-optimisation job per model on the shared scene."""
    jobs = [
        AttackJob(
            job_id=index,
            model=spec,
            image=image,
            config=attack_config,
            scene_index=0,
        )
        for index, spec in enumerate(specs)
    ]
    apply_experiment_seed(jobs, experiment_seed)
    return ExperimentPlan(
        jobs=jobs,
        attack_config=attack_config,
        experiment_seed=experiment_seed,
        name="transfer-optimise",
    )


def build_transfer_eval_plan(
    specs: Sequence,
    image: np.ndarray,
    best_masks: Sequence[np.ndarray],
    dirty_bounds: Sequence[BBox],
    attack_config: AttackConfig,
) -> ExperimentPlan:
    """Stage 2: one cross-evaluation job per target model (a matrix column).

    The masks are stacked in their storage dtype (:func:`mask_array`):
    ``int16`` best masks ship to the workers as ``int16``.
    """
    masks = np.stack([mask_array(mask) for mask in best_masks])
    jobs = [
        TransferEvalJob(
            job_id=index,
            model=spec,
            image=image,
            masks=masks,
            dirty_bounds=list(dirty_bounds),
            config=attack_config,
            target_index=index,
        )
        for index, spec in enumerate(specs)
    ]
    return ExperimentPlan(
        jobs=jobs,
        attack_config=attack_config,
        name="transfer-evaluate",
    )


def run_transferability_experiment(
    models: Sequence,
    image: np.ndarray,
    attack_config: AttackConfig | None = None,
    *,
    n_jobs: int = 1,
    backend: "str | ExecutionBackend | None" = None,
    experiment_seed: int | None = None,
    release_models: bool = True,
    checkpoint_dir: "str | None" = None,
    resume: bool = False,
    retry: RetryPolicy | None = None,
) -> TransferabilityResult:
    """Optimise one mask per model and evaluate every mask on every model.

    ``models`` is a sequence of live detectors (the historical interface)
    or picklable model specs (anything with ``build()``/``name``, e.g.
    :class:`~repro.experiments.jobs.ModelSpec`); both run on the generic
    experiment engine.  ``n_jobs``/``backend`` select the execution backend
    exactly as in :func:`~repro.experiments.runner.run_architecture_comparison`;
    results are bit-identical for every backend and worker count.
    ``experiment_seed`` derives one NSGA-II seed per optimisation job by
    plan position (spawn-safe, scheduling-independent); ``None`` keeps the
    shared configured seed.  ``release_models=False`` keeps the built
    detectors in the process-local memo after the sweep (repeated sweeps
    over the same zoo skip the rebuild; the default bounds memory like the
    architecture-comparison runner).  ``checkpoint_dir`` journals completed
    jobs of *both* stages (one journal per stage name under the directory)
    so an interrupted sweep resumes with ``resume=True``; ``retry`` governs
    in-run requeue of crashed/raising jobs.
    """
    if not len(models):
        raise ValueError("at least one model is required")
    attack_config = attack_config if attack_config is not None else AttackConfig.fast()
    image = np.asarray(image, dtype=np.float64)
    specs = [as_model_spec(model) for model in models]
    owns_backend = not isinstance(backend, ExecutionBackend)
    engine_backend = resolve_backend(backend, n_jobs=n_jobs)
    checkpoint = None
    if checkpoint_dir is not None:
        # Function-level import: repro.experiments.checkpoint imports this
        # module for the TransferColumn codec.
        from repro.experiments.checkpoint import PlanCheckpoint

        checkpoint = PlanCheckpoint(checkpoint_dir, resume=resume)

    optimise_plan = build_transfer_attack_plan(
        specs, image, attack_config, experiment_seed=experiment_seed
    )
    # Every model bridges both stages (its bundle built by the optimise
    # stage is exactly what the eval stage's clean prediction hits), so pin
    # them: a stateful backend defers its end-of-model invalidation until
    # after the matrix stage instead of discarding the state in between.
    engine_backend.pin_models(specs)
    try:
        optimise = execute_plan(
            optimise_plan, engine_backend, checkpoint=checkpoint, retry=retry
        )

        best_masks: list[np.ndarray] = []
        dirty_bounds: list[BBox] = []
        intensities: list[float] = []
        for outcome in optimise.outcomes:
            best = outcome.result.best_by("degradation")
            best_masks.append(best.mask.values)
            dirty_bounds.append(best.mask.nonzero_bbox())
            intensities.append(best.intensity)

        eval_plan = build_transfer_eval_plan(
            specs, image, best_masks, dirty_bounds, attack_config
        )
        # The same checkpoint instance serves stage 2: load() rebinds it to
        # the eval plan's own journal file.
        evaluate = execute_plan(
            eval_plan, engine_backend, checkpoint=checkpoint, retry=retry
        )
    finally:
        if checkpoint is not None:
            checkpoint.close()
        engine_backend.unpin_models(specs)
        if release_models:
            release_plan_models(optimise_plan)
        if owns_backend:
            # Resolved from a name: this sweep owns the backend (and any
            # worker processes / shared memory it spawned).  A caller-
            # provided instance stays alive for the caller to reuse.
            engine_backend.close()

    matrix = np.ones((len(specs), len(specs)))
    for outcome in evaluate.outcomes:
        column = outcome.result
        matrix[:, column.target_index] = column.degradations

    return TransferabilityResult(
        model_names=[spec.name for spec in specs],
        matrix=matrix,
        masks_intensity=intensities,
        best_masks=best_masks,
        experiment_seed=experiment_seed,
        execution=merge_execution_summaries(
            [optimise.summary(), evaluate.summary()]
        ),
    )


def run_transferability_reference(
    models: Sequence[Detector],
    image: np.ndarray,
    attack_config: AttackConfig | None = None,
) -> TransferabilityResult:
    """The preserved pre-engine transferability loop (parity reference).

    Serial, cache-free and O(N²) dense: one ``predict`` per matrix cell
    plus one clean ``predict`` per model.  The engine-based
    :func:`run_transferability_experiment` must stay bit-identical to this
    — the parity suite compares the two directly.
    """
    if not models:
        raise ValueError("at least one model is required")
    attack_config = attack_config if attack_config is not None else AttackConfig.fast()
    image = np.asarray(image, dtype=np.float64)

    best_masks = []
    intensities = []
    for model in models:
        result = ButterflyAttack(model, attack_config).attack(image)
        best = result.best_by("degradation")
        best_masks.append(best.mask.values)
        intensities.append(best.intensity)

    matrix = np.ones((len(models), len(models)))
    clean_predictions = [model.predict(image) for model in models]
    for i, mask in enumerate(best_masks):
        perturbed_image = apply_mask(image, mask)
        for j, model in enumerate(models):
            matrix[i, j] = objective_degradation(
                clean_predictions[j], model.predict(perturbed_image)
            )

    return TransferabilityResult(
        model_names=[model.name for model in models],
        matrix=matrix,
        masks_intensity=intensities,
        best_masks=best_masks,
    )
