"""Experiment harness reproducing the paper's tables and figures.

* :mod:`repro.experiments.config` — Table I (experiment parametrisation)
  and Table II (NSGA-II configuration) as configuration objects, plus
  reduced variants for laptop-scale runs,
* :mod:`repro.experiments.jobs` — the declarative models × images work
  plan (model specs, attack jobs, deterministic per-job seed derivation),
* :mod:`repro.experiments.engine` — interchangeable execution backends
  (in-process serial, and the persistent worker pool of
  :mod:`repro.experiments.persistent`) that run a plan with bit-identical
  results,
* :mod:`repro.experiments.runner` — the Figure 2 sweep comparing the
  single-stage and transformer architectures over seeded models and images,
* :mod:`repro.experiments.figures` — the qualitative scenarios of
  Figures 1, 3, 4 and 5.
"""

from repro.experiments.config import (
    ExperimentConfig,
    NSGA_TABLE_II,
    experiment_table_rows,
    nsga_table_rows,
)
from repro.experiments.engine import (
    ExecutionBackend,
    ExecutionReport,
    SerialBackend,
    execute_plan,
    merge_execution_summaries,
    resolve_backend,
)
from repro.experiments.jobs import (
    AttackJob,
    AttackPlan,
    DetectorInstanceSpec,
    ExperimentPlan,
    JobOutcome,
    ModelSpec,
    WorkerContext,
    apply_experiment_seed,
    as_model_spec,
    build_attack_plan,
    derive_job_seeds,
    seed_from_sequence,
)
from repro.experiments.runner import ArchitectureComparison, run_architecture_comparison
from repro.experiments.figures import (
    FigureOutcome,
    figure1_disappearing_objects,
    figure3_figure4_contrast,
    figure5_ghost_objects,
)
from repro.experiments.transfer import (
    TransferabilityResult,
    TransferColumn,
    TransferEvalJob,
    build_transfer_attack_plan,
    build_transfer_eval_plan,
    run_transferability_experiment,
    run_transferability_reference,
)

__all__ = [
    "ExperimentConfig",
    "NSGA_TABLE_II",
    "experiment_table_rows",
    "nsga_table_rows",
    "AttackJob",
    "AttackPlan",
    "DetectorInstanceSpec",
    "ExperimentPlan",
    "JobOutcome",
    "ModelSpec",
    "WorkerContext",
    "apply_experiment_seed",
    "as_model_spec",
    "build_attack_plan",
    "derive_job_seeds",
    "seed_from_sequence",
    "ExecutionBackend",
    "ExecutionReport",
    "SerialBackend",
    "execute_plan",
    "merge_execution_summaries",
    "resolve_backend",
    "ArchitectureComparison",
    "run_architecture_comparison",
    "FigureOutcome",
    "figure1_disappearing_objects",
    "figure3_figure4_contrast",
    "figure5_ghost_objects",
    "TransferabilityResult",
    "TransferColumn",
    "TransferEvalJob",
    "build_transfer_attack_plan",
    "build_transfer_eval_plan",
    "run_transferability_experiment",
    "run_transferability_reference",
]
