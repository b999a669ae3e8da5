"""The Figure 2 sweep: attacking seed-varied models of both architectures.

The paper applies NSGA-II to 25 YOLOv5 and 25 DETR models on 16 KITTI images
each (Table I) with perturbations restricted to the right half, then plots
the resulting Pareto objectives (Figure 2).  :func:`run_architecture_comparison`
reproduces that sweep at a configurable scale and returns the per-run
results plus a :class:`~repro.analysis.reporting.ComparisonReport`.

The sweep is expressed as a declarative models × images work plan
(:mod:`repro.experiments.jobs`) executed by a pluggable backend
(:mod:`repro.experiments.engine`): the serial backend reproduces the
historical nested loop bit-exactly, and the persistent backend fans the
same jobs out over long-lived worker processes — bit-identical results,
less wall-clock on multi-core machines.
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
    SequenceSpec,
    build_attack_plan,
    build_sequence_plan,
    release_plan_models,
)
from repro.nsga.algorithm import NSGAConfig


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
    n_jobs: int | None = None,
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
    n_jobs:
        Worker-process count; overrides ``experiment.n_jobs``.  ``1`` runs
        the in-process serial backend.
    backend:
        ``"serial"``, ``"persistent"``, a ready
        :class:`~repro.experiments.engine.ExecutionBackend` instance, or
        ``None`` to follow ``experiment.execution_backend`` (whose
        ``"auto"`` default picks serial for ``n_jobs == 1`` and the
        persistent worker pool otherwise; an explicit ``"serial"`` there is
        honoured even with ``n_jobs > 1``).  All backends are bit-identical; only
        wall-clock changes.
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

    n_jobs = n_jobs if n_jobs is not None else experiment.n_jobs
    if backend is None and experiment.execution_backend != "auto":
        # An explicit config choice is honoured verbatim — in particular
        # execution_backend="serial" pins the in-process executor even
        # with n_jobs > 1 (resolve_backend only auto-selects on None).
        backend = experiment.execution_backend
    owns_backend = not isinstance(backend, ExecutionBackend)
    engine_backend = resolve_backend(backend, n_jobs=n_jobs)

    plan = build_attack_plan(
        architectures=architectures,
        seeds=experiment.model_seeds[: experiment.models_per_architecture],
        dataset=dataset,
        attack_config=attack_config,
        training=training,
        experiment_seed=experiment_seed,
    )
    checkpoint = None
    if checkpoint_dir is not None:
        # Function-level import: this module is re-exported by the package
        # __init__, which runs before repro.experiments.checkpoint (and its
        # payload-codec imports) can finish initialising.
        from repro.experiments.checkpoint import PlanCheckpoint

        checkpoint = PlanCheckpoint(checkpoint_dir, resume=resume)
    try:
        execution = execute_plan(
            plan, engine_backend, checkpoint=checkpoint, retry=retry
        )
    finally:
        if checkpoint is not None:
            checkpoint.close()
        # Keep the process-local detector memo bounded to the live sweep:
        # repeated sweeps in one process would otherwise accumulate every
        # zoo ever trained.
        release_plan_models(plan)
        if owns_backend:
            # Resolved from a name: this sweep owns the backend and its
            # resources (worker processes and their pipes).  A caller-
            # provided instance stays alive for the caller to reuse.
            engine_backend.close()

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

    The models × sequences grid rides the same backends, checkpointing and
    retry machinery as the single-scene sweeps; sequence frame bundles are
    derived temporally inside each job (see :class:`~repro.core.temporal.
    SequenceObjectives`) and share the worker's activation store.  Results
    are bit-identical across backends and worker counts.
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
    owns_backend = not isinstance(backend, ExecutionBackend)
    engine_backend = resolve_backend(backend, n_jobs=n_jobs)
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
    checkpoint = None
    if checkpoint_dir is not None:
        from repro.experiments.checkpoint import PlanCheckpoint

        checkpoint = PlanCheckpoint(checkpoint_dir, resume=resume)
    try:
        execution = execute_plan(
            plan, engine_backend, checkpoint=checkpoint, retry=retry
        )
    finally:
        if checkpoint is not None:
            checkpoint.close()
        release_plan_models(plan)
        if owns_backend:
            engine_backend.close()

    return SequenceSweep(
        results=[outcome.result for outcome in execution.outcomes],
        execution=execution,
    )
