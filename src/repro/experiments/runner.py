"""The paper's sweeps: one session lifecycle, and the Figure 2 sweep.

The paper applies NSGA-II to 25 YOLOv5 and 25 DETR models on 16 KITTI images
each (Table I) with perturbations restricted to the right half, then plots
the resulting Pareto objectives (Figure 2).  :func:`run_architecture_comparison`
reproduces that sweep at a configurable scale and returns the per-run
results plus a :class:`~repro.analysis.reporting.ComparisonReport`;
:func:`run_sequence_sweep` runs the streaming-video workload on the same
grid.

Every sweep — these two, the transferability experiment
(:mod:`repro.experiments.transfer`) and both defense evaluations
(:mod:`repro.defenses.evaluation`) — builds declarative plans
(:mod:`repro.experiments.jobs`) and runs them in one
:class:`SweepSession`.  The session picks the backend
(:mod:`repro.experiments.engine`: the serial reference, or the persistent
worker pool) from the sweep's ``n_jobs``/``backend`` arguments, journals
outcomes when asked to, and on exit closes what it opened and releases
the models.  All backends are bit-identical; only wall-clock changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.analysis.reporting import ComparisonReport
from repro.core.config import AttackConfig
from repro.core.regions import HalfImageRegion
from repro.core.results import AttackResult
from repro.data.dataset import SyntheticDataset, generate_dataset
from repro.detectors.training import TrainingConfig
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import (
    ExecutionBackend,
    ExecutionReport,
    RetryPolicy,
    execute_plan,
    resolve_backend,
)
from repro.experiments.jobs import (
    ExperimentPlan,
    SequenceSpec,
    build_attack_plan,
    build_sequence_plan,
    release_plan_models,
)
from repro.nsga.algorithm import NSGAConfig


class SweepSession:
    """One sweep's backend, journal and models, from start to exit.

    Built from the arguments every sweep takes: ``n_jobs`` and ``backend``
    pick the backend through :func:`~repro.experiments.engine.resolve_backend`
    (a name, ``None`` for serial at ``n_jobs == 1`` and the persistent pool
    otherwise, or a ready :class:`~repro.experiments.engine.ExecutionBackend`
    instance); ``checkpoint_dir``/``resume`` open one
    :class:`~repro.experiments.checkpoint.PlanCheckpoint` that journals every
    plan the session runs (one journal per plan name); ``retry`` is the
    :class:`~repro.experiments.engine.RetryPolicy` of every plan.

    :meth:`run` executes a plan through this module's :func:`execute_plan`.
    A multi-stage sweep calls it once per stage, building the next plan from
    the last one's outcomes, and :meth:`pin` keeps models that bridge its
    stages warm on a stateful backend.  On exit, also after an error, the
    session closes the journal, lifts its pins, releases the models of every
    plan it ran from the process-local memo (unless
    ``release_models=False``), and closes the backend if it resolved it from
    a name.  A caller's backend instance stays open for the caller to reuse.
    """

    def __init__(
        self,
        n_jobs: int = 1,
        backend: "str | ExecutionBackend | None" = None,
        checkpoint_dir: "str | None" = None,
        resume: bool = False,
        retry: RetryPolicy | None = None,
        release_models: bool = True,
    ) -> None:
        self.owns_backend = not isinstance(backend, ExecutionBackend)
        self.backend = resolve_backend(backend, n_jobs=n_jobs)
        self.checkpoint = None
        if checkpoint_dir is not None:
            # Function-level import: repro.experiments.checkpoint imports the
            # transfer and defense modules for their payload codecs, and both
            # import this module for the session.
            from repro.experiments.checkpoint import PlanCheckpoint

            self.checkpoint = PlanCheckpoint(checkpoint_dir, resume=resume)
        self.retry = retry
        self.release_models = release_models
        self._plans: list[ExperimentPlan] = []
        self._pinned: list = []

    def __enter__(self) -> "SweepSession":
        return self

    def pin(self, specs: Sequence) -> None:
        """Defer the backend's cache invalidation for ``specs`` until exit."""
        specs = list(specs)
        self.backend.pin_models(specs)
        self._pinned.extend(specs)

    def run(self, plan: ExperimentPlan) -> ExecutionReport:
        """Execute one plan on the session's backend and journal."""
        self._plans.append(plan)
        return execute_plan(
            plan, self.backend, checkpoint=self.checkpoint, retry=self.retry
        )

    def __exit__(self, *exc_info) -> None:
        if self.checkpoint is not None:
            self.checkpoint.close()
        if self._pinned:
            self.backend.unpin_models(self._pinned)
        if self.release_models:
            # Keep the process-local detector memo bounded to the live sweep:
            # repeated sweeps in one process would otherwise accumulate every
            # zoo ever trained.
            for plan in self._plans:
                release_plan_models(plan)
        if self.owns_backend:
            self.backend.close()


@dataclass
class ArchitectureComparison:
    """Results of the architecture-comparison sweep (Figure 2 data)."""

    report: ComparisonReport
    results: dict[str, list[AttackResult]] = field(default_factory=dict)
    experiment: ExperimentConfig | None = None
    execution: ExecutionReport | None = None

    def provenance(self) -> dict | None:
        """The shared execution-provenance summary (see
        :meth:`~repro.experiments.engine.ExecutionReport.summary`) — the
        same structure the transferability and defense reports persist."""
        return self.execution.summary() if self.execution is not None else None

    def front_points(self, label: str) -> np.ndarray:
        """All front objective triples of one architecture, shape (n, 3)."""
        points = [
            result.objectives_array(front_only=True)
            for result in self.results.get(label, [])
        ]
        if not points:
            return np.zeros((0, 3))
        return np.concatenate(points, axis=0)

    def best_degradation(self, label: str) -> float:
        """Lowest obj_degrad reached by an architecture (lower = stronger attack)."""
        points = self.front_points(label)
        return float(points[:, 1].min()) if points.size else 1.0

    def mean_intensity_of_successful(self, label: str) -> float:
        """Mean intensity of front solutions that changed the prediction."""
        points = self.front_points(label)
        if points.size == 0:
            return 0.0
        successful = points[points[:, 1] < 1.0 - 1e-9]
        if successful.size == 0:
            return 0.0
        return float(successful[:, 0].mean())

    def susceptibility_summary(self) -> dict[str, dict[str, float]]:
        """Per-architecture summary of the Figure 2 comparison."""
        summary: dict[str, dict[str, float]] = {}
        for label in self.results:
            points = self.front_points(label)
            if points.size == 0:
                summary[label] = {
                    "best_degradation": 1.0,
                    "mean_degradation": 1.0,
                    "mean_intensity": 0.0,
                    "mean_distance": 0.0,
                }
                continue
            summary[label] = {
                "best_degradation": float(points[:, 1].min()),
                "mean_degradation": float(points[:, 1].mean()),
                "mean_intensity": float(points[:, 0].mean()),
                "mean_distance": float(points[:, 2].mean()),
            }
        return summary


def run_architecture_comparison(
    experiment: ExperimentConfig | None = None,
    nsga: NSGAConfig | None = None,
    architectures: Sequence[str] = ("yolo", "detr"),
    dataset: SyntheticDataset | None = None,
    perturbation_half: str = "right",
    object_half: str | None = "left",
    dataset_seed: int = 11,
    training: TrainingConfig | None = None,
    n_jobs: int = 1,
    backend: "str | ExecutionBackend | None" = None,
    experiment_seed: int | None = None,
    checkpoint_dir: "str | None" = None,
    resume: bool = False,
    retry: RetryPolicy | None = None,
) -> ArchitectureComparison:
    """Run the paper's architecture-comparison protocol.

    Parameters
    ----------
    experiment:
        Table I-style protocol; defaults to a reduced laptop-scale variant.
        Pass :meth:`ExperimentConfig.paper` for the full 25x16 sweep.
    nsga:
        NSGA-II configuration; defaults to a reduced budget.  Pass
        :data:`repro.experiments.config.NSGA_TABLE_II` for the paper's.
    architectures:
        Architecture names understood by
        :func:`repro.detectors.zoo.build_model_zoo`.
    dataset:
        Evaluation images; generated from ``dataset_seed`` when omitted.
    perturbation_half / object_half:
        The spatial protocol: perturbations restricted to one half,
        objects placed in the other so that any observed degradation is a
        butterfly effect.
    n_jobs / backend:
        Worker count and backend: ``"serial"``, ``"persistent"``, a ready
        :class:`~repro.experiments.engine.ExecutionBackend` instance (left
        open for the caller), or ``None`` for serial at ``n_jobs == 1`` and
        the persistent worker pool otherwise (see :class:`SweepSession`).
        All backends are bit-identical; only wall-clock changes.
    experiment_seed:
        When set, every job gets its own NSGA-II seed derived via
        ``np.random.SeedSequence(experiment_seed).spawn`` by plan position
        (scheduling-independent); ``None`` keeps the historical behaviour
        where every attack runs ``nsga.seed``.
    checkpoint_dir:
        When set, completed jobs are journaled there as they stream in
        (:class:`~repro.experiments.checkpoint.PlanCheckpoint`).  With
        ``resume=True`` an interrupted sweep picks up from the journal,
        skipping journaled jobs — the final report is bit-identical to an
        uninterrupted run.
    retry:
        :class:`~repro.experiments.engine.RetryPolicy` governing in-run
        requeue of jobs whose worker crashed or raised; ``None`` keeps
        fail-fast.
    """
    experiment = experiment if experiment is not None else ExperimentConfig.reduced()
    nsga = nsga if nsga is not None else NSGAConfig(num_iterations=8, population_size=16)
    if training is None:
        training = TrainingConfig(
            image_length=experiment.image_length, image_width=experiment.image_width
        )
    if dataset is None:
        dataset = generate_dataset(
            num_images=experiment.images_per_model,
            seed=dataset_seed,
            image_length=experiment.image_length,
            image_width=experiment.image_width,
            half=object_half,
        )

    attack_config = AttackConfig(
        nsga=nsga, region=HalfImageRegion(perturbation_half)
    )

    plan = build_attack_plan(
        architectures=architectures,
        seeds=experiment.model_seeds[: experiment.models_per_architecture],
        dataset=dataset,
        attack_config=attack_config,
        training=training,
        experiment_seed=experiment_seed,
    )
    with SweepSession(n_jobs, backend, checkpoint_dir, resume, retry) as session:
        execution = session.run(plan)

    # Plan order is the historical nested-loop order, so assembling the
    # report from plan-ordered outcomes reproduces the original row order
    # regardless of how the backend scheduled the jobs.
    report = ComparisonReport()
    all_results: dict[str, list[AttackResult]] = {
        label: [] for label in plan.labels
    }
    for job, outcome in zip(plan.jobs, execution.outcomes):
        label = job.model.label
        all_results[label].append(outcome.result)
        report.add_result(label, outcome.result)

    return ArchitectureComparison(
        report=report,
        results=all_results,
        experiment=experiment,
        execution=execution,
    )


@dataclass
class SequenceSweep:
    """Results of the streaming-sequence sweep.

    ``results`` holds one :class:`~repro.core.results.AttackResult` per
    plan job (plan order); ``execution`` carries backend provenance and
    the merged cache counters, including the temporal frame-cache traffic
    (``frame_hits``/``frame_misses``) the sequence jobs fold into their
    deltas.
    """

    results: list[AttackResult] = field(default_factory=list)
    execution: ExecutionReport | None = None

    def provenance(self) -> dict | None:
        """The shared execution-provenance summary."""
        return self.execution.summary() if self.execution is not None else None

    def mean_track_survival(self) -> float:
        """Mean best (lowest) front track survival across the sweep's runs."""
        values = []
        for result in self.results:
            front = result.pareto_front
            if front:
                values.append(
                    min(
                        solution.extras.get("track_survival", 1.0)
                        for solution in front
                    )
                )
        return float(np.mean(values)) if values else 1.0


def run_sequence_sweep(
    architectures: Sequence[str] = ("yolo",),
    seeds: Sequence[int] = (1,),
    sequences: Sequence[SequenceSpec] = (SequenceSpec(),),
    attack_config: AttackConfig | None = None,
    training: TrainingConfig | None = None,
    track_k: int = 2,
    iou_threshold: float = 0.5,
    frame_cache_size: int = 2,
    n_jobs: int = 1,
    backend: "str | ExecutionBackend | None" = None,
    experiment_seed: int | None = None,
    checkpoint_dir: "str | None" = None,
    resume: bool = False,
    retry: RetryPolicy | None = None,
) -> SequenceSweep:
    """Run the streaming-video attack workload on the experiment engine.

    The models × sequences grid runs in a :class:`SweepSession`, with the
    same backends, journal and retry as the single-scene sweeps; sequence
    frame bundles are derived temporally inside each job (see
    :class:`~repro.core.temporal.SequenceObjectives`) and share the
    worker's activation store.  Results are bit-identical across backends
    and worker counts.
    """
    if attack_config is None:
        attack_config = AttackConfig(
            nsga=NSGAConfig(num_iterations=6, population_size=12),
            region=HalfImageRegion("right"),
        )
    if training is None:
        first = sequences[0]
        training = TrainingConfig(
            image_length=first.image_length, image_width=first.image_width
        )
    plan = build_sequence_plan(
        architectures=architectures,
        seeds=seeds,
        sequences=sequences,
        attack_config=attack_config,
        training=training,
        experiment_seed=experiment_seed,
        track_k=track_k,
        iou_threshold=iou_threshold,
        frame_cache_size=frame_cache_size,
    )
    with SweepSession(n_jobs, backend, checkpoint_dir, resume, retry) as session:
        execution = session.run(plan)
    return SequenceSweep(
        results=[outcome.result for outcome in execution.outcomes],
        execution=execution,
    )
