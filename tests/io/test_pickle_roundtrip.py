"""Pickle round-trips across the multiprocessing boundary.

The persistent worker pool ships :class:`AttackJob`s to workers and
:class:`AttackResult`s back, so every field of the job/result object graph
must survive pickling bit-exactly.  These tests cover plain
``pickle.dumps``/``loads`` round-trips plus a real ``multiprocessing``
echo through a worker process.
"""

import multiprocessing
import pickle

import numpy as np
import pytest

from repro.core.config import AttackConfig
from repro.core.masks import FilterMask
from repro.core.regions import HalfImageRegion
from repro.core.results import AttackResult, ParetoSolution
from repro.detection.boxes import BoundingBox
from repro.detection.prediction import Prediction
from repro.experiments.jobs import AttackJob, ModelSpec
from repro.nsga.algorithm import NSGAConfig, NSGAResult
from repro.nsga.individual import Individual


def _roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


def _sample_prediction() -> Prediction:
    return Prediction(
        [
            BoundingBox(cl=0, x=4.0, y=6.0, l=8.0, w=10.0, score=0.9),
            BoundingBox(cl=2, x=1.0, y=2.0, l=3.0, w=4.0, score=0.5),
        ]
    )


def _sample_result() -> AttackResult:
    rng = np.random.default_rng(0)
    image = rng.uniform(0, 255, size=(8, 12, 3))
    mask = FilterMask(rng.normal(0, 5, size=(8, 12, 3)))
    solution = ParetoSolution(
        mask=mask,
        intensity=1.5,
        degradation=0.75,
        distance=2.25,
        rank=1,
        perturbed_prediction=_sample_prediction(),
        extras={"extra_0": 0.5},
    )
    return AttackResult(
        image=image,
        clean_prediction=_sample_prediction(),
        solutions=[solution],
        detector_name="single_stage-seed1",
        num_evaluations=24,
        cache_hits=4,
        history=[{"generation": 0, "best_per_objective": np.array([0.1, 0.2, 0.3])}],
        architecture="single_stage",
        model_seed=1,
        scene_index=3,
        job_id=7,
    )


class TestFilterMaskPickle:
    def test_values_survive_bit_exactly(self):
        mask = FilterMask(np.random.default_rng(1).normal(0, 9, size=(6, 10, 3)))
        clone = _roundtrip(mask)
        assert np.array_equal(clone.values, mask.values)
        assert clone.values.dtype == mask.values.dtype

    def test_cached_bbox_survives(self):
        mask = FilterMask.zeros((6, 10, 3))
        mask.values[2:4, 3:5] = 7.0
        bbox = mask.nonzero_bbox()  # populate the cache before pickling
        clone = _roundtrip(mask)
        assert clone.nonzero_bbox() == bbox
        assert clone.sparsity == mask.sparsity


class TestAttackResultPickle:
    def test_all_fields_survive(self):
        result = _sample_result()
        clone = _roundtrip(result)
        assert np.array_equal(clone.image, result.image)
        assert clone.detector_name == result.detector_name
        assert clone.num_evaluations == result.num_evaluations
        assert clone.cache_hits == result.cache_hits
        assert clone.architecture == result.architecture
        assert clone.model_seed == result.model_seed
        assert clone.scene_index == result.scene_index
        assert clone.job_id == result.job_id
        assert len(clone.solutions) == len(result.solutions)
        for left, right in zip(clone.solutions, result.solutions):
            assert np.array_equal(left.mask.values, right.mask.values)
            assert left.objectives == right.objectives
            assert left.rank == right.rank
            assert left.extras == right.extras
            assert left.perturbed_prediction.boxes == right.perturbed_prediction.boxes
        assert clone.clean_prediction.boxes == result.clean_prediction.boxes
        assert np.array_equal(
            clone.history[0]["best_per_objective"],
            result.history[0]["best_per_objective"],
        )

    def test_derived_properties_intact(self):
        clone = _roundtrip(_sample_result())
        assert clone.num_queries == 20
        assert len(clone.pareto_front) == 1
        assert clone.best_by("degradation").degradation == 0.75


class TestNSGAResultPickle:
    def test_population_and_fronts_survive(self):
        rng = np.random.default_rng(2)
        population = [
            Individual(
                genome=rng.normal(size=(4, 6, 3)),
                objectives=rng.uniform(size=3),
                rank=1,
                crowding=float(i),
                metadata={"fingerprint": bytes([i]) * 16, "ancestor": None},
            )
            for i in range(3)
        ]
        result = NSGAResult(
            population=population,
            fronts=[[0, 1], [2]],
            history=[{"generation": 0, "front_size": 2}],
            num_evaluations=12,
            cache_hits=3,
        )
        clone = _roundtrip(result)
        assert clone.fronts == result.fronts
        assert clone.num_evaluations == 12 and clone.cache_hits == 3
        assert clone.num_queries == 9
        for left, right in zip(clone.population, result.population):
            assert np.array_equal(left.genome, right.genome)
            assert np.array_equal(left.objectives, right.objectives)
            assert left.rank == right.rank
            assert left.crowding == right.crowding
            assert left.metadata == right.metadata
        assert np.array_equal(
            clone.objectives_matrix(), result.objectives_matrix()
        )


class TestAttackJobPickle:
    def test_all_fields_survive(self):
        config = AttackConfig(
            nsga=NSGAConfig(num_iterations=4, population_size=6, seed=11),
            region=HalfImageRegion("right"),
            sparse_init_fraction=0.25,
        )
        job = AttackJob(
            job_id=5,
            model=ModelSpec("detr", 9),
            image=np.random.default_rng(3).uniform(0, 255, size=(8, 16, 3)),
            config=config,
            scene_index=2,
            nsga_seed=987654321,
        )
        clone = _roundtrip(job)
        assert clone.job_id == 5
        assert clone.model == job.model
        assert np.array_equal(clone.image, job.image)
        assert clone.scene_index == 2
        assert clone.nsga_seed == 987654321
        assert clone.config.nsga == config.nsga
        assert clone.config.region == config.region
        assert clone.config.sparse_init_fraction == 0.25
        assert clone.resolved_config().nsga.seed == 987654321


def _echo(payload_bytes):
    """Worker: unpickle, re-pickle — proves the object graph crosses both ways."""
    return pickle.dumps(pickle.loads(payload_bytes))


class TestMultiprocessingBoundary:
    @pytest.mark.parametrize(
        "factory",
        [
            _sample_result,
            lambda: AttackJob(
                job_id=1,
                model=ModelSpec("yolo", 2),
                image=np.ones((6, 8, 3)),
                config=AttackConfig(
                    nsga=NSGAConfig(num_iterations=2, population_size=4)
                ),
            ),
            lambda: FilterMask(np.full((4, 6, 3), 3.0)),
        ],
        ids=["attack_result", "attack_job", "filter_mask"],
    )
    def test_objects_survive_a_worker_process(self, factory):
        original = factory()
        with multiprocessing.get_context().Pool(1) as pool:
            echoed_bytes = pool.apply(_echo, (pickle.dumps(original),))
        echoed = pickle.loads(echoed_bytes)
        assert type(echoed) is type(original)
        if isinstance(original, FilterMask):
            assert np.array_equal(echoed.values, original.values)
        elif isinstance(original, AttackJob):
            assert np.array_equal(echoed.image, original.image)
            assert echoed.model == original.model
        else:
            assert np.array_equal(echoed.image, original.image)
            assert echoed.job_id == original.job_id
            assert np.array_equal(
                echoed.solutions[0].mask.values, original.solutions[0].mask.values
            )


def _sample_transfer_result():
    from repro.experiments.transfer import TransferabilityResult

    rng = np.random.default_rng(4)
    return TransferabilityResult(
        model_names=["transformer-seed1", "transformer-seed2"],
        matrix=rng.uniform(0, 1, size=(2, 2)),
        masks_intensity=[0.5, 0.75],
        best_masks=[rng.normal(0, 3, size=(6, 8, 3)) for _ in range(2)],
        experiment_seed=2023,
        execution={"backend": "process", "n_jobs": 2},
    )


def _sample_defense_evaluation():
    from repro.defenses.evaluation import DefenseEvaluation

    return DefenseEvaluation(
        undefended_result=_sample_result(),
        defended_result=_sample_result(),
        undefended_best_degradation=0.25,
        defended_best_degradation=0.75,
        clean_recall_undefended=0.9,
        clean_recall_defended=0.8,
        execution={"backend": "serial", "n_jobs": 1},
    )


def _sample_ensemble_defense_evaluation():
    from repro.defenses.evaluation import EnsembleDefenseEvaluation

    return EnsembleDefenseEvaluation(
        attack_result=_sample_result(),
        member_degradations=[0.3, 0.6],
        fused_degradation=0.7,
        execution={"backend": "serial", "n_jobs": 1},
    )


class TestSweepReportPickle:
    """PR 5 report types must cross the multiprocessing boundary bit-exactly."""

    def test_transfer_result_roundtrip(self):
        original = _sample_transfer_result()
        clone = _roundtrip(original)
        assert clone.model_names == original.model_names
        assert np.array_equal(clone.matrix, original.matrix)
        assert clone.masks_intensity == original.masks_intensity
        for left, right in zip(clone.best_masks, original.best_masks):
            assert np.array_equal(left, right)
        assert clone.experiment_seed == 2023
        assert clone.execution == original.execution
        assert clone.transfer_gap() == original.transfer_gap()

    def test_defense_evaluation_roundtrip(self):
        original = _sample_defense_evaluation()
        clone = _roundtrip(original)
        assert clone.undefended_result.fingerprint() == original.undefended_result.fingerprint()
        assert clone.defended_result.fingerprint() == original.defended_result.fingerprint()
        assert clone.robustness_gain == original.robustness_gain
        assert clone.clean_recall_defended == original.clean_recall_defended
        assert clone.execution == original.execution

    def test_ensemble_defense_evaluation_roundtrip(self):
        original = _sample_ensemble_defense_evaluation()
        clone = _roundtrip(original)
        assert clone.attack_result.fingerprint() == original.attack_result.fingerprint()
        assert clone.member_degradations == original.member_degradations
        assert clone.fused_degradation == original.fused_degradation
        assert clone.fusion_helps == original.fusion_helps


def _transfer_eval_job():
    from repro.experiments.transfer import TransferEvalJob

    rng = np.random.default_rng(5)
    return TransferEvalJob(
        job_id=3,
        model=ModelSpec("detr", 2),
        image=rng.uniform(0, 255, size=(6, 8, 3)),
        masks=rng.normal(0, 3, size=(2, 6, 8, 3)),
        dirty_bounds=[(0, 2, 0, 3), (1, 4, 2, 6)],
        config=AttackConfig(nsga=NSGAConfig(num_iterations=2, population_size=4)),
        target_index=1,
    )


def _defense_attack_job():
    from repro.defenses.jobs import DefendedModelSpec, DefenseAttackJob
    from repro.defenses.augmentation import NoiseAugmentationConfig

    return DefenseAttackJob(
        job_id=1,
        model=DefendedModelSpec(
            base=ModelSpec("yolo", 3),
            augmentation=NoiseAugmentationConfig(augmented_copies=1),
            defense_seed=99,
        ),
        image=np.ones((6, 8, 3)),
        ground_truth=_sample_prediction(),
        config=AttackConfig(nsga=NSGAConfig(num_iterations=2, population_size=4)),
        role="defended",
        nsga_seed=123456,
    )


def _ensemble_defense_job():
    from repro.defenses.jobs import EnsembleDefenseJob

    return EnsembleDefenseJob(
        job_id=2,
        members=(ModelSpec("yolo", 1), ModelSpec("detr", 2)),
        image=np.ones((6, 8, 3)),
        config=AttackConfig(nsga=NSGAConfig(num_iterations=2, population_size=4)),
        vote_fraction=0.5,
        nsga_seed=777,
    )


class TestSweepJobMultiprocessingBoundary:
    """PR 5 job types ship to real worker processes and back intact."""

    @pytest.mark.parametrize(
        "factory",
        [
            _transfer_eval_job,
            _defense_attack_job,
            _ensemble_defense_job,
            _sample_transfer_result,
            _sample_defense_evaluation,
            _sample_ensemble_defense_evaluation,
        ],
        ids=[
            "transfer_eval_job",
            "defense_attack_job",
            "ensemble_defense_job",
            "transfer_result",
            "defense_evaluation",
            "ensemble_defense_evaluation",
        ],
    )
    def test_objects_survive_a_worker_process(self, factory):
        original = factory()
        with multiprocessing.get_context().Pool(1) as pool:
            echoed_bytes = pool.apply(_echo, (pickle.dumps(original),))
        echoed = pickle.loads(echoed_bytes)
        assert type(echoed) is type(original)

    def test_transfer_eval_job_fields_survive(self):
        original = _transfer_eval_job()
        clone = _roundtrip(original)
        assert clone.job_id == 3
        assert clone.model == original.model
        assert np.array_equal(clone.masks, original.masks)
        assert clone.dirty_bounds == original.dirty_bounds
        assert clone.target_index == 1

    def test_defense_attack_job_fields_survive(self):
        original = _defense_attack_job()
        clone = _roundtrip(original)
        assert clone.model == original.model
        assert clone.model.defense_seed == 99
        assert clone.role == "defended"
        assert clone.ground_truth.boxes == original.ground_truth.boxes
        assert clone.resolved_config().nsga.seed == 123456

    def test_ensemble_defense_job_fields_survive(self):
        original = _ensemble_defense_job()
        clone = _roundtrip(original)
        assert clone.members == original.members
        assert clone.vote_fraction == 0.5
        assert clone.stats_label == original.stats_label
