"""Defense sweep jobs for the generic experiment plan/engine.

The defense evaluation asks three questions under the *same* attack budget
— how hard is the undefended detector to attack, how hard is the
noise-augmented (defended) variant, and does ensemble fusion suppress the
induced errors?  Each question is one picklable job following the generic
protocol of :mod:`repro.experiments.jobs`, so the whole evaluation runs on
any execution backend with bit-identical results:

* :class:`DefendedModelSpec` — a picklable recipe for a defended detector:
  a base :class:`~repro.experiments.jobs.ModelSpec` plus the
  noise-augmentation refit (config, training protocol, defense seed).
  Like every spec it memoises per process, so pool workers retrain a
  defended variant at most once.
* :class:`DefenseAttackJob` — attack one variant (undefended or defended)
  and measure its clean recall against the scene's ground truth.
* :class:`EnsembleDefenseJob` — attack an ensemble's aggregate objective,
  then measure per-member and fused-prediction damage, reusing each
  member's cached clean activations for the mask evaluations instead of
  dense re-predicts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.attack import ButterflyAttack
from repro.core.config import AttackConfig
from repro.core.ensemble import EnsembleAttack
from repro.core.objectives import objective_degradation
from repro.core.results import AttackResult
from repro.defenses.augmentation import (
    NoiseAugmentationConfig,
    noise_augmented_detector,
)
from repro.detection.metrics import precision_recall
from repro.detection.prediction import Prediction
from repro.detectors.base import Detector
from repro.detectors.ensemble import DetectorEnsemble
from repro.detectors.training import TrainingConfig
from repro.experiments.jobs import (
    JobOutcome,
    ModelSpec,
    WorkerContext,
    build_cached,
    resolved_config,
    seed_from_sequence,
)

#: Reserved ``spawn_key`` branch of the experiment ``SeedSequence`` used for
#: defense-retraining entropy.  Plan-position job seeds occupy the spawned
#: children ``spawn_key=(0,) .. (n-1,)``; defense plans have at most a
#: handful of jobs, so branching at 1000 can never collide with a job seed.
DEFENSE_SEED_SPAWN_KEY = 1000


def derive_defense_seed(experiment_seed: int) -> int:
    """Spawn-safe defense-retraining seed derived from the experiment seed.

    Same two-word collapse as the engine's per-job NSGA seeds
    (:func:`repro.experiments.jobs.seed_from_sequence`), taken from a
    reserved branch of the experiment's ``SeedSequence`` tree so it is
    independent of the plan's job seeds, worker scheduling and completion
    order.
    """
    if experiment_seed < 0:
        raise ValueError(
            f"experiment_seed must be non-negative, got {experiment_seed}"
        )
    return seed_from_sequence(
        np.random.SeedSequence(experiment_seed, spawn_key=(DEFENSE_SEED_SPAWN_KEY,))
    )


@dataclass(frozen=True)
class DefendedModelSpec:
    """Recipe for a noise-augmentation-defended detector, picklable.

    ``build()`` constructs a fresh base detector from ``base`` and refits
    its prototype head on noise-augmented scenes — the base is never a
    shared instance, so the refit's in-place mutation is contained.
    ``defense_seed`` pins the augmentation entropy (``None`` keeps the
    historical default, the detector's own seed); spawn-safe derived seeds
    from an experiment ``SeedSequence`` are collapsed integers, see
    :func:`repro.experiments.jobs.seed_from_sequence`.
    """

    base: ModelSpec
    augmentation: NoiseAugmentationConfig = field(
        default_factory=NoiseAugmentationConfig
    )
    training: TrainingConfig | None = None
    defense_seed: int | None = None

    @property
    def label(self) -> str:
        return self.base.label

    @property
    def seed(self) -> int:
        return self.base.seed

    @property
    def name(self) -> str:
        return f"{self.base.name}-noise_defended"

    def build(self) -> Detector:
        detector = self.base.build()
        return noise_augmented_detector(
            detector,
            training=self.training if self.training is not None else self.base.training,
            augmentation=self.augmentation,
            seed=self.defense_seed,
        )


@dataclass
class DefenseJobResult:
    """One defense job's payload: the attack outcome plus clean recall."""

    role: str
    attack_result: AttackResult
    best_degradation: float
    clean_recall: float


@dataclass
class DefenseAttackJob:
    """Attack one detector variant and measure its clean recall.

    ``role`` tags the variant (``"undefended"`` / ``"defended"``) so the
    orchestrator can reassemble the comparison from plan-ordered outcomes.
    The clean prediction for the recall measurement is taken from the
    cached clean activations when available (bit-identical to a dense
    ``predict`` by the activation-cache contract).
    """

    job_id: int
    model: object
    image: np.ndarray
    ground_truth: Prediction
    config: AttackConfig = field(default_factory=AttackConfig)
    role: str = "undefended"
    recall_iou_threshold: float = 0.3
    nsga_seed: int | None = None

    def __post_init__(self) -> None:
        self.image = np.asarray(self.image, dtype=np.float64)

    def execute(self, context: WorkerContext) -> JobOutcome:
        start = time.perf_counter()
        detector = build_cached(self.model)
        config = resolved_config(self)
        use_store = context.job_store(config)
        before = use_store.snapshot() if use_store is not None else None

        attack = ButterflyAttack(detector, config, activation_store=use_store)
        result = attack.attack(self.image)
        result.architecture = getattr(self.model, "label", "")
        result.model_seed = getattr(self.model, "seed", None)
        result.job_id = self.job_id

        clean = (
            use_store.get(detector, self.image) if use_store is not None else None
        )
        clean_prediction = (
            clean.prediction if clean is not None else detector.predict(self.image)
        )
        _, clean_recall = precision_recall(
            clean_prediction, self.ground_truth, iou_threshold=self.recall_iou_threshold
        )

        stats = use_store.snapshot() - before if use_store is not None else None
        return JobOutcome(
            job_id=self.job_id,
            result=DefenseJobResult(
                role=self.role,
                attack_result=result,
                best_degradation=result.best_by("degradation").degradation,
                clean_recall=clean_recall,
            ),
            cache_stats=stats,
            duration_seconds=time.perf_counter() - start,
        )


@dataclass
class EnsembleDefenseJobResult:
    """The ensemble job's payload: attack outcome plus fusion damage."""

    attack_result: AttackResult
    member_degradations: list[float]
    fused_degradation: float


@dataclass
class EnsembleDefenseJob:
    """Attack an ensemble jointly, then measure fused-prediction damage.

    The attack optimises the Eq. 1-3 aggregate objectives; the evaluation
    then asks whether majority-vote fusion (the standard ensemble defence)
    still suppresses the induced errors.  Per-member damage is measured by
    routing the best mask through each member's cached clean activations
    (:meth:`~repro.detectors.base.Detector.predict_delta` with the exact
    dirty bound) and fusion reuses those same per-member predictions —
    no member re-predicts the clean or perturbed scene densely.
    """

    job_id: int
    members: tuple
    image: np.ndarray
    config: AttackConfig = field(default_factory=AttackConfig)
    vote_fraction: float = 0.5
    nsga_seed: int | None = None

    def __post_init__(self) -> None:
        self.image = np.asarray(self.image, dtype=np.float64)
        self.members = tuple(self.members)

    @property
    def stats_label(self) -> str:
        return "ensemble[" + "+".join(spec.name for spec in self.members) + "]"

    def execute(self, context: WorkerContext) -> JobOutcome:
        start = time.perf_counter()
        detectors = [build_cached(spec) for spec in self.members]
        ensemble = DetectorEnsemble(detectors)
        config = resolved_config(self)
        use_store = context.job_store(config)
        before = use_store.snapshot() if use_store is not None else None

        attack = EnsembleAttack(ensemble, config, activation_store=use_store)
        result = attack.attack(self.image)
        result.job_id = self.job_id
        best = result.best_by("degradation")
        mask = best.mask.values
        dirty_bound = best.mask.nonzero_bbox()

        clean_all = [
            use_store.get(member, self.image) if use_store is not None else None
            for member in detectors
        ]
        member_clean = [
            clean.prediction if clean is not None else member.predict(self.image)
            for member, clean in zip(detectors, clean_all)
        ]
        member_perturbed = [
            member.predict_delta(self.image, mask, dirty_bound, clean)
            for member, clean in zip(detectors, clean_all)
        ]
        member_degradations = [
            objective_degradation(clean, perturbed)
            for clean, perturbed in zip(member_clean, member_perturbed)
        ]

        fused_clean = ensemble.predict_fused(
            self.image, vote_fraction=self.vote_fraction, predictions=member_clean
        )
        fused_perturbed = ensemble.predict_fused(
            self.image, vote_fraction=self.vote_fraction, predictions=member_perturbed
        )
        fused_degradation = objective_degradation(fused_clean, fused_perturbed)

        stats = use_store.snapshot() - before if use_store is not None else None
        return JobOutcome(
            job_id=self.job_id,
            result=EnsembleDefenseJobResult(
                attack_result=result,
                member_degradations=member_degradations,
                fused_degradation=fused_degradation,
            ),
            cache_stats=stats,
            duration_seconds=time.perf_counter() - start,
        )
