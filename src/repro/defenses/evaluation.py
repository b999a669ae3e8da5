"""Evaluating defences against the butterfly-effect attack.

Both evaluations — noise-augmentation (undefended vs defended under the
same budget) and ensemble fusion — are declarative plans over the generic
experiment engine (:mod:`repro.defenses.jobs` +
:mod:`repro.experiments.engine`), each run in a
:class:`~repro.experiments.runner.SweepSession` like every other sweep:
:func:`evaluate_defense` compiles a two-job plan (one
:class:`~repro.defenses.jobs.DefenseAttackJob` per variant),
:func:`ensemble_defense_evaluation` a one-job plan, and
:func:`build_defense_plan` combines undefended/defended/ensemble variants
into a single plan so a pooled backend attacks all of them concurrently.
Serial and pooled executions are bit-identical to each other and to the
preserved pre-engine loops (:func:`evaluate_defense_reference`,
:func:`ensemble_defense_evaluation_reference`), enforced by
``tests/defenses/test_evaluation.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dataclasses_replace
from typing import Sequence

import numpy as np

from repro.core.attack import ButterflyAttack
from repro.core.config import AttackConfig
from repro.core.ensemble import EnsembleAttack
from repro.core.masks import apply_mask
from repro.core.objectives import objective_degradation
from repro.core.results import AttackResult
from repro.defenses.jobs import (
    DefendedModelSpec,
    DefenseAttackJob,
    EnsembleDefenseJob,
    derive_defense_seed,
)
from repro.detection.metrics import precision_recall
from repro.detection.prediction import Prediction
from repro.detectors.base import Detector
from repro.detectors.ensemble import DetectorEnsemble
from repro.experiments.engine import ExecutionBackend, RetryPolicy
from repro.experiments.jobs import (
    ExperimentPlan,
    apply_experiment_seed,
    as_model_spec,
)
from repro.experiments.runner import SweepSession


@dataclass
class DefenseEvaluation:
    """Outcome of attacking an undefended and a defended detector.

    Attributes
    ----------
    undefended_result, defended_result:
        The attack results on the two detectors.
    undefended_best_degradation, defended_best_degradation:
        Strongest obj_degrad reached on the respective fronts.
    clean_recall_undefended, clean_recall_defended:
        Clean-image recall of both detectors (a defence that destroys clean
        accuracy is not a usable defence).
    execution:
        Provenance summary of the engine run that produced this report
        (backend, worker count, cache traffic); ``None`` for the reference
        loop.
    """

    undefended_result: AttackResult
    defended_result: AttackResult
    undefended_best_degradation: float
    defended_best_degradation: float
    clean_recall_undefended: float
    clean_recall_defended: float
    execution: dict | None = None

    @property
    def attack_still_succeeds(self) -> bool:
        """True when the defended detector is still measurably degraded."""
        return self.defended_best_degradation < 1.0 - 1e-9

    @property
    def robustness_gain(self) -> float:
        """How much harder the attack became (positive = defence helped)."""
        return self.defended_best_degradation - self.undefended_best_degradation

    def summary_rows(self) -> list[dict[str, object]]:
        """Rows for tabular reporting."""
        return [
            {
                "detector": "undefended",
                "best_degradation": self.undefended_best_degradation,
                "clean_recall": self.clean_recall_undefended,
            },
            {
                "detector": "defended",
                "best_degradation": self.defended_best_degradation,
                "clean_recall": self.clean_recall_defended,
            },
        ]


@dataclass
class EnsembleDefenseEvaluation:
    """Outcome of attacking an ensemble's fused prediction."""

    attack_result: AttackResult
    member_degradations: list[float] = field(default_factory=list)
    fused_degradation: float = 1.0
    execution: dict | None = None

    @property
    def fusion_helps(self) -> bool:
        """True when the fused prediction is less degraded than the mean member."""
        if not self.member_degradations:
            return False
        return self.fused_degradation > float(np.mean(self.member_degradations))


def build_defense_plan(
    undefended,
    defended,
    image: np.ndarray,
    ground_truth: Prediction,
    attack_config: AttackConfig,
    ensemble_members: Sequence = (),
    vote_fraction: float = 0.5,
    experiment_seed: int | None = None,
) -> ExperimentPlan:
    """Compile the defense sweep: undefended, defended and ensemble jobs.

    All variants share one attack budget (``attack_config``); the optional
    ``ensemble_members`` add an :class:`~repro.defenses.jobs.EnsembleDefenseJob`
    as the plan's final job.  With ``experiment_seed`` every job receives a
    plan-position-derived NSGA seed (spawn-safe, scheduling-independent),
    and a :class:`~repro.defenses.jobs.DefendedModelSpec` without a pinned
    ``defense_seed`` additionally gets its retraining entropy derived from
    the same experiment seed (:func:`~repro.defenses.jobs.derive_defense_seed`,
    a reserved ``SeedSequence`` branch) — so sweeping experiment seeds
    yields independently refit defended variants, not just different
    searches against one refit.
    """
    image = np.asarray(image, dtype=np.float64)
    defended_spec = as_model_spec(defended)
    if (
        experiment_seed is not None
        and isinstance(defended_spec, DefendedModelSpec)
        and defended_spec.defense_seed is None
    ):
        defended_spec = dataclasses_replace(
            defended_spec, defense_seed=derive_defense_seed(experiment_seed)
        )
    jobs: list = [
        DefenseAttackJob(
            job_id=0,
            model=as_model_spec(undefended),
            image=image,
            ground_truth=ground_truth,
            config=attack_config,
            role="undefended",
        ),
        DefenseAttackJob(
            job_id=1,
            model=defended_spec,
            image=image,
            ground_truth=ground_truth,
            config=attack_config,
            role="defended",
        ),
    ]
    if len(ensemble_members):
        jobs.append(
            EnsembleDefenseJob(
                job_id=2,
                members=tuple(as_model_spec(member) for member in ensemble_members),
                image=image,
                config=attack_config,
                vote_fraction=vote_fraction,
            )
        )
    apply_experiment_seed(jobs, experiment_seed)
    return ExperimentPlan(
        jobs=jobs,
        attack_config=attack_config,
        experiment_seed=experiment_seed,
        name="defense-evaluation",
    )


def _assemble_defense_evaluation(outcomes, execution_summary) -> DefenseEvaluation:
    by_role = {outcome.result.role: outcome.result for outcome in outcomes[:2]}
    undefended, defended = by_role["undefended"], by_role["defended"]
    return DefenseEvaluation(
        undefended_result=undefended.attack_result,
        defended_result=defended.attack_result,
        undefended_best_degradation=undefended.best_degradation,
        defended_best_degradation=defended.best_degradation,
        clean_recall_undefended=undefended.clean_recall,
        clean_recall_defended=defended.clean_recall,
        execution=execution_summary,
    )


def evaluate_defense(
    undefended,
    defended,
    image: np.ndarray,
    ground_truth: Prediction,
    attack_config: AttackConfig | None = None,
    *,
    n_jobs: int = 1,
    backend: "str | ExecutionBackend | None" = None,
    experiment_seed: int | None = None,
    release_models: bool = True,
    checkpoint_dir: "str | None" = None,
    resume: bool = False,
    retry: RetryPolicy | None = None,
) -> DefenseEvaluation:
    """Attack both detectors with the same budget and compare the outcomes.

    ``undefended``/``defended`` are live detectors (the historical
    interface) or picklable model specs; either way the two attacks run as
    a declarative plan on the experiment engine, so ``n_jobs``/``backend``
    fan them out over worker processes with bit-identical results.
    The plan runs in a :class:`~repro.experiments.runner.SweepSession`, so
    ``checkpoint_dir`` (journal for ``resume=True``), ``retry`` (in-run
    requeue of crashed/raising jobs) and ``release_models`` behave as in
    every other sweep.
    """
    attack_config = attack_config if attack_config is not None else AttackConfig.fast()
    plan = build_defense_plan(
        undefended,
        defended,
        image,
        ground_truth,
        attack_config,
        experiment_seed=experiment_seed,
    )
    with SweepSession(
        n_jobs, backend, checkpoint_dir, resume, retry, release_models
    ) as session:
        execution = session.run(plan)
    return _assemble_defense_evaluation(execution.outcomes, execution.summary())


def ensemble_defense_evaluation(
    ensemble: "DetectorEnsemble | Sequence",
    image: np.ndarray,
    attack_config: AttackConfig | None = None,
    vote_fraction: float = 0.5,
    *,
    n_jobs: int = 1,
    backend: "str | ExecutionBackend | None" = None,
    experiment_seed: int | None = None,
    release_models: bool = True,
    checkpoint_dir: "str | None" = None,
    resume: bool = False,
    retry: RetryPolicy | None = None,
) -> EnsembleDefenseEvaluation:
    """Attack the ensemble jointly, then measure the fused-prediction damage.

    The attack optimises the Eq. 1-3 aggregate objectives; the evaluation
    then asks whether majority-vote fusion (the standard ensemble defence)
    still suppresses the induced errors.  ``ensemble`` is a
    :class:`~repro.detectors.ensemble.DetectorEnsemble`, a sequence of live
    detectors, or a sequence of picklable model specs.
    """
    attack_config = attack_config if attack_config is not None else AttackConfig.fast()
    members = list(ensemble) if not isinstance(ensemble, DetectorEnsemble) else list(
        ensemble.detectors
    )
    job = EnsembleDefenseJob(
        job_id=0,
        members=tuple(as_model_spec(member) for member in members),
        image=np.asarray(image, dtype=np.float64),
        config=attack_config,
        vote_fraction=vote_fraction,
    )
    apply_experiment_seed([job], experiment_seed)
    plan = ExperimentPlan(
        jobs=[job],
        attack_config=attack_config,
        experiment_seed=experiment_seed,
        name="ensemble-defense",
    )
    with SweepSession(
        n_jobs, backend, checkpoint_dir, resume, retry, release_models
    ) as session:
        execution = session.run(plan)
    payload = execution.outcomes[0].result
    return EnsembleDefenseEvaluation(
        attack_result=payload.attack_result,
        member_degradations=payload.member_degradations,
        fused_degradation=payload.fused_degradation,
        execution=execution.summary(),
    )


def evaluate_defense_reference(
    undefended: Detector,
    defended: Detector,
    image: np.ndarray,
    ground_truth: Prediction,
    attack_config: AttackConfig | None = None,
) -> DefenseEvaluation:
    """The preserved pre-engine defense loop (parity reference).

    Two serial in-process attacks plus dense clean ``predict`` calls; the
    engine-based :func:`evaluate_defense` must stay bit-identical to this.
    """
    attack_config = attack_config if attack_config is not None else AttackConfig.fast()

    undefended_result = ButterflyAttack(undefended, attack_config).attack(image)
    defended_result = ButterflyAttack(defended, attack_config).attack(image)

    _, recall_undefended = precision_recall(
        undefended.predict(image), ground_truth, iou_threshold=0.3
    )
    _, recall_defended = precision_recall(
        defended.predict(image), ground_truth, iou_threshold=0.3
    )

    return DefenseEvaluation(
        undefended_result=undefended_result,
        defended_result=defended_result,
        undefended_best_degradation=undefended_result.best_by("degradation").degradation,
        defended_best_degradation=defended_result.best_by("degradation").degradation,
        clean_recall_undefended=recall_undefended,
        clean_recall_defended=recall_defended,
    )


def ensemble_defense_evaluation_reference(
    ensemble: DetectorEnsemble,
    image: np.ndarray,
    attack_config: AttackConfig | None = None,
    vote_fraction: float = 0.5,
) -> EnsembleDefenseEvaluation:
    """The preserved pre-engine ensemble-defense loop (parity reference).

    One dense ``predict`` per member per scene variant; the engine-based
    :func:`ensemble_defense_evaluation` must stay bit-identical to this.
    """
    attack_config = attack_config if attack_config is not None else AttackConfig.fast()
    result = EnsembleAttack(ensemble, attack_config).attack(image)
    best = result.best_by("degradation")
    perturbed_image = apply_mask(image, best.mask.values)

    member_degradations = []
    for member in ensemble:
        clean = member.predict(image)
        member_degradations.append(
            objective_degradation(clean, member.predict(perturbed_image))
        )

    fused_clean = ensemble.predict_fused(image, vote_fraction=vote_fraction)
    fused_perturbed = ensemble.predict_fused(perturbed_image, vote_fraction=vote_fraction)
    fused_degradation = objective_degradation(fused_clean, fused_perturbed)

    return EnsembleDefenseEvaluation(
        attack_result=result,
        member_degradations=member_degradations,
        fused_degradation=fused_degradation,
    )
