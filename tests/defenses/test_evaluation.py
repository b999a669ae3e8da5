"""Tests for defence evaluation against the butterfly attack.

``TestDefenseEngineParity`` is the engine-parity suite: the engine-based
evaluations (serial and pooled at n_jobs ∈ {1, 2, 4}, shuffled submission)
must be bit-identical to the preserved pre-engine loops
(`evaluate_defense_reference` / `ensemble_defense_evaluation_reference`)
for both live-detector and model-spec inputs.
"""

import numpy as np
import pytest

from repro.core.config import AttackConfig
from repro.core.regions import HalfImageRegion
from repro.defenses.augmentation import NoiseAugmentationConfig, noise_augmented_detector
from repro.defenses.evaluation import (
    DefenseEvaluation,
    EnsembleDefenseEvaluation,
    build_defense_plan,
    ensemble_defense_evaluation,
    ensemble_defense_evaluation_reference,
    evaluate_defense,
    evaluate_defense_reference,
)
from repro.defenses.jobs import DefendedModelSpec, DefenseAttackJob, EnsembleDefenseJob
from repro.detectors.ensemble import DetectorEnsemble
from repro.detectors.training import TrainingConfig
from repro.detectors.zoo import build_detector
from repro.experiments.persistent import PersistentPoolBackend
from repro.experiments.jobs import ModelSpec
from repro.nsga.algorithm import NSGAConfig


@pytest.fixture()
def tiny_config():
    return AttackConfig(
        nsga=NSGAConfig(num_iterations=3, population_size=6, seed=0),
        region=HalfImageRegion("right"),
    )


class TestEvaluateDefense:
    def test_noise_augmentation_defense_evaluation(
        self, detr_detector, small_dataset, small_training_config, tiny_config
    ):
        defended = noise_augmented_detector(
            build_detector("detr", seed=1, training=small_training_config),
            training=small_training_config,
            augmentation=NoiseAugmentationConfig(augmented_copies=1),
        )
        sample = small_dataset[0]
        evaluation = evaluate_defense(
            undefended=detr_detector,
            defended=defended,
            image=sample.image,
            ground_truth=sample.ground_truth,
            attack_config=tiny_config,
        )
        assert isinstance(evaluation, DefenseEvaluation)
        assert 0.0 <= evaluation.undefended_best_degradation <= 1.0 + 1e-9
        assert 0.0 <= evaluation.defended_best_degradation <= 1.0 + 1e-9
        assert 0.0 <= evaluation.clean_recall_defended <= 1.0
        rows = evaluation.summary_rows()
        assert {row["detector"] for row in rows} == {"undefended", "defended"}
        # robustness_gain is simply the difference of the two degradations.
        assert evaluation.robustness_gain == pytest.approx(
            evaluation.defended_best_degradation
            - evaluation.undefended_best_degradation
        )


class TestEnsembleDefense:
    def test_ensemble_defense_evaluation(
        self, yolo_detector, detr_detector, small_dataset, tiny_config
    ):
        ensemble = DetectorEnsemble([yolo_detector, detr_detector])
        evaluation = ensemble_defense_evaluation(
            ensemble, small_dataset[0].image, attack_config=tiny_config
        )
        assert len(evaluation.member_degradations) == 2
        assert all(0.0 <= value <= 1.0 + 1e-9 for value in evaluation.member_degradations)
        assert 0.0 <= evaluation.fused_degradation <= 1.0 + 1e-9
        assert isinstance(evaluation.fusion_helps, bool)
        assert evaluation.attack_result.pareto_front


class TestFusionHelps:
    def test_no_members_means_no_help(self):
        evaluation = EnsembleDefenseEvaluation(attack_result=None)
        assert evaluation.member_degradations == []
        assert evaluation.fusion_helps is False

    def test_fusion_above_member_mean_helps(self):
        evaluation = EnsembleDefenseEvaluation(
            attack_result=None,
            member_degradations=[0.2, 0.4],
            fused_degradation=0.5,
        )
        assert evaluation.fusion_helps is True

    def test_fusion_at_or_below_member_mean_does_not_help(self):
        at_mean = EnsembleDefenseEvaluation(
            attack_result=None,
            member_degradations=[0.2, 0.4],
            fused_degradation=0.3,
        )
        below = EnsembleDefenseEvaluation(
            attack_result=None,
            member_degradations=[0.6, 0.8],
            fused_degradation=0.5,
        )
        assert at_mean.fusion_helps is False
        assert below.fusion_helps is False


# Smaller than the fixtures above: the parity suite runs every evaluation
# several ways (reference, serial engine, three pool sizes).
_PARITY_LENGTH, _PARITY_WIDTH = 48, 96


@pytest.fixture(scope="module")
def parity_training():
    return TrainingConfig(
        scenes_per_class=2,
        image_length=_PARITY_LENGTH,
        image_width=_PARITY_WIDTH,
        background_clusters=12,
    )


@pytest.fixture(scope="module")
def parity_sample(parity_training):
    from repro.data.dataset import generate_dataset

    dataset = generate_dataset(
        num_images=1,
        seed=5,
        image_length=_PARITY_LENGTH,
        image_width=_PARITY_WIDTH,
        half="left",
    )
    return dataset[0]


@pytest.fixture(scope="module")
def parity_config():
    return AttackConfig(
        nsga=NSGAConfig(num_iterations=3, population_size=8, seed=0),
        region=HalfImageRegion("right"),
    )


@pytest.fixture(scope="module")
def parity_specs(parity_training):
    undefended = ModelSpec("detr", 1, training=parity_training)
    defended = DefendedModelSpec(
        base=undefended,
        augmentation=NoiseAugmentationConfig(augmented_copies=1),
        training=parity_training,
    )
    return undefended, defended


@pytest.fixture(scope="module")
def serial_defense(parity_specs, parity_sample, parity_config):
    undefended, defended = parity_specs
    return evaluate_defense(
        undefended,
        defended,
        parity_sample.image,
        parity_sample.ground_truth,
        parity_config,
    )


def _assert_defense_identical(left: DefenseEvaluation, right: DefenseEvaluation):
    assert left.undefended_result.fingerprint() == right.undefended_result.fingerprint()
    assert left.defended_result.fingerprint() == right.defended_result.fingerprint()
    assert left.undefended_best_degradation == right.undefended_best_degradation
    assert left.defended_best_degradation == right.defended_best_degradation
    assert left.clean_recall_undefended == right.clean_recall_undefended
    assert left.clean_recall_defended == right.clean_recall_defended


class TestDefenseEngineParity:
    def test_engine_matches_reference_loop(
        self, parity_training, parity_sample, parity_config, serial_defense
    ):
        """The engine evaluation equals the pre-engine loop bit for bit."""
        undefended = build_detector("detr", seed=1, training=parity_training)
        defended = noise_augmented_detector(
            build_detector("detr", seed=1, training=parity_training),
            training=parity_training,
            augmentation=NoiseAugmentationConfig(augmented_copies=1),
        )
        reference = evaluate_defense_reference(
            undefended,
            defended,
            parity_sample.image,
            parity_sample.ground_truth,
            parity_config,
        )
        _assert_defense_identical(reference, serial_defense)
        assert serial_defense.execution["backend"] == "serial"

    @pytest.mark.parametrize("n_jobs", [1, 2, 4])
    def test_pooled_matches_serial(
        self, parity_specs, parity_sample, parity_config, serial_defense, n_jobs
    ):
        """Pooled evaluations (shuffled submission) are bit-identical."""
        undefended, defended = parity_specs
        backend = PersistentPoolBackend(n_jobs=n_jobs, submission_seed=60 + n_jobs)
        try:
            pooled = evaluate_defense(
                undefended,
                defended,
                parity_sample.image,
                parity_sample.ground_truth,
                parity_config,
                n_jobs=n_jobs,
                backend=backend,
            )
        finally:
            backend.close()
        _assert_defense_identical(serial_defense, pooled)
        assert pooled.execution["backend"] == "persistent"

    def test_ensemble_engine_matches_reference(
        self, parity_training, parity_sample, parity_config
    ):
        members = [
            build_detector("yolo", seed=1, training=parity_training),
            build_detector("detr", seed=1, training=parity_training),
        ]
        reference = ensemble_defense_evaluation_reference(
            DetectorEnsemble(members), parity_sample.image, parity_config
        )
        specs = [
            ModelSpec("yolo", 1, training=parity_training),
            ModelSpec("detr", 1, training=parity_training),
        ]
        serial = ensemble_defense_evaluation(
            specs, parity_sample.image, parity_config
        )
        backend = PersistentPoolBackend(n_jobs=2)
        try:
            pooled = ensemble_defense_evaluation(
                specs, parity_sample.image, parity_config, backend=backend
            )
        finally:
            backend.close()
        for engine_result in (serial, pooled):
            assert (
                reference.attack_result.fingerprint()
                == engine_result.attack_result.fingerprint()
            )
            assert reference.member_degradations == engine_result.member_degradations
            assert reference.fused_degradation == engine_result.fused_degradation

    def test_combined_plan_contains_all_variants(
        self, parity_specs, parity_sample, parity_config, parity_training
    ):
        """build_defense_plan compiles undefended/defended/ensemble jobs."""
        undefended, defended = parity_specs
        members = (
            ModelSpec("yolo", 1, training=parity_training),
            ModelSpec("detr", 1, training=parity_training),
        )
        plan = build_defense_plan(
            undefended,
            defended,
            parity_sample.image,
            parity_sample.ground_truth,
            parity_config,
            ensemble_members=members,
            experiment_seed=7,
        )
        assert len(plan.jobs) == 3
        assert isinstance(plan.jobs[0], DefenseAttackJob)
        assert plan.jobs[0].role == "undefended"
        assert plan.jobs[1].role == "defended"
        assert isinstance(plan.jobs[2], EnsembleDefenseJob)
        # Every job received a plan-position-derived seed.
        assert all(job.nsga_seed is not None for job in plan.jobs)
        assert len({job.nsga_seed for job in plan.jobs}) == 3
        # The experiment seed also wires the defended variant's retraining
        # entropy (a derived defense_seed on an otherwise-equal spec).
        wired_defended = plan.jobs[1].model
        assert wired_defended.base == defended.base
        assert wired_defended.defense_seed is not None
        # The ensemble job participates in per-model lifecycle accounting.
        assert set(plan.jobs_per_model()) == {undefended, wired_defended, *members}


class TestDefenseSeedPlumbing:
    """The experiment seed reaches the defended variant's retraining RNG."""

    def test_experiment_seed_derives_defense_seed(
        self, parity_specs, parity_sample, parity_config
    ):
        from repro.defenses.jobs import derive_defense_seed

        undefended, defended = parity_specs
        assert defended.defense_seed is None
        plan = build_defense_plan(
            undefended,
            defended,
            parity_sample.image,
            parity_sample.ground_truth,
            parity_config,
            experiment_seed=7,
        )
        wired = plan.jobs[1].model
        assert isinstance(wired, DefendedModelSpec)
        assert wired.defense_seed == derive_defense_seed(7)
        # Distinct from every plan-position NSGA seed (reserved branch).
        assert wired.defense_seed not in {job.nsga_seed for job in plan.jobs}
        # Different experiment seeds → different refit entropy.
        assert derive_defense_seed(7) != derive_defense_seed(8)
        # Deterministic.
        assert derive_defense_seed(7) == derive_defense_seed(7)
        with pytest.raises(ValueError, match="non-negative"):
            derive_defense_seed(-1)

    def test_pinned_defense_seed_is_preserved(
        self, parity_specs, parity_sample, parity_config
    ):
        undefended, defended = parity_specs
        from dataclasses import replace

        pinned = replace(defended, defense_seed=99)
        plan = build_defense_plan(
            undefended,
            pinned,
            parity_sample.image,
            parity_sample.ground_truth,
            parity_config,
            experiment_seed=7,
        )
        assert plan.jobs[1].model.defense_seed == 99

    def test_no_experiment_seed_keeps_historical_default(
        self, parity_specs, parity_sample, parity_config
    ):
        undefended, defended = parity_specs
        plan = build_defense_plan(
            undefended,
            defended,
            parity_sample.image,
            parity_sample.ground_truth,
            parity_config,
        )
        assert plan.jobs[1].model.defense_seed is None
