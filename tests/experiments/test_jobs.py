"""Tests for the declarative models × images work plan."""

import numpy as np
import pytest

from repro.core.config import AttackConfig
from repro.core.regions import HalfImageRegion
from repro.detectors.training import TrainingConfig
from repro.experiments.jobs import (
    AttackJob,
    ModelSpec,
    build_attack_plan,
    build_cached,
    clear_detector_memo,
    derive_job_seeds,
)
from repro.nsga.algorithm import NSGAConfig


def _tiny_dataset(num_images: int = 2, length: int = 24, width: int = 48):
    rng = np.random.default_rng(3)
    return [rng.uniform(0, 255, size=(length, width, 3)) for _ in range(num_images)]


def _tiny_config() -> AttackConfig:
    return AttackConfig(
        nsga=NSGAConfig(num_iterations=2, population_size=4, seed=7),
        region=HalfImageRegion("right"),
    )


class TestModelSpec:
    def test_label_follows_aliases(self):
        assert ModelSpec("yolo", 1).label == "single_stage"
        assert ModelSpec("detr", 1).label == "transformer"
        assert ModelSpec("single_stage", 1).label == "single_stage"

    def test_name_matches_detector_name(self):
        spec = ModelSpec(
            "yolo",
            3,
            training=TrainingConfig(
                scenes_per_class=2, image_length=48, image_width=96,
                background_clusters=8,
            ),
        )
        assert spec.name == "single_stage-seed3"
        assert build_cached(spec).name == spec.name

    def test_unknown_architecture_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec("resnet", 1)

    def test_specs_hash_and_compare_by_value(self):
        training = TrainingConfig(scenes_per_class=2)
        assert ModelSpec("yolo", 1, training=training) == ModelSpec(
            "yolo", 1, training=training
        )
        assert len({ModelSpec("yolo", 1), ModelSpec("yolo", 1)}) == 1

    def test_build_cached_memoises_per_spec(self):
        training = TrainingConfig(
            scenes_per_class=2, image_length=48, image_width=96, background_clusters=8
        )
        spec = ModelSpec("yolo", 2, training=training)
        first = build_cached(spec)
        assert build_cached(ModelSpec("yolo", 2, training=training)) is first
        clear_detector_memo()
        assert build_cached(spec) is not first


class TestDeriveJobSeeds:
    def test_deterministic_in_experiment_seed(self):
        assert derive_job_seeds(123, 8) == derive_job_seeds(123, 8)
        assert derive_job_seeds(123, 8) != derive_job_seeds(124, 8)

    def test_prefix_stable_under_plan_growth(self):
        # Spawned children depend only on their position, so extending the
        # plan never changes the seeds of existing jobs.
        assert derive_job_seeds(5, 4) == derive_job_seeds(5, 9)[:4]

    def test_seeds_are_distinct(self):
        seeds = derive_job_seeds(0, 64)
        assert len(set(seeds)) == 64

    def test_negative_seed_rejected_cleanly(self):
        with pytest.raises(ValueError, match="non-negative"):
            derive_job_seeds(-1, 4)


class TestBuildAttackPlan:
    def test_plan_order_is_nested_loop_order(self):
        plan = build_attack_plan(
            architectures=("yolo", "detr"),
            seeds=(1, 2),
            dataset=_tiny_dataset(2),
            attack_config=_tiny_config(),
        )
        assert len(plan) == 8
        grid = [
            (job.model.label, job.model.seed, job.scene_index) for job in plan.jobs
        ]
        assert grid == [
            ("single_stage", 1, 0), ("single_stage", 1, 1),
            ("single_stage", 2, 0), ("single_stage", 2, 1),
            ("transformer", 1, 0), ("transformer", 1, 1),
            ("transformer", 2, 0), ("transformer", 2, 1),
        ]
        assert [job.job_id for job in plan.jobs] == list(range(8))
        assert plan.labels == ("single_stage", "transformer")

    def test_default_plan_keeps_configured_seed(self):
        plan = build_attack_plan(
            architectures=("yolo",),
            seeds=(1,),
            dataset=_tiny_dataset(2),
            attack_config=_tiny_config(),
        )
        assert all(job.nsga_seed is None for job in plan.jobs)
        assert all(job.resolved_config() is job.config for job in plan.jobs)

    def test_experiment_seed_assigns_per_job_seeds(self):
        plan = build_attack_plan(
            architectures=("yolo",),
            seeds=(1, 2),
            dataset=_tiny_dataset(2),
            attack_config=_tiny_config(),
            experiment_seed=99,
        )
        seeds = [job.nsga_seed for job in plan.jobs]
        assert seeds == derive_job_seeds(99, 4)
        assert len(set(seeds)) == 4
        for job in plan.jobs:
            assert job.resolved_config().nsga.seed == job.nsga_seed

    def test_model_bookkeeping(self):
        plan = build_attack_plan(
            architectures=("yolo", "detr"),
            seeds=(1, 2),
            dataset=_tiny_dataset(3),
            attack_config=_tiny_config(),
        )
        specs = plan.model_specs()
        assert len(specs) == 4
        assert all(count == 3 for count in plan.jobs_per_model().values())

    def test_unknown_architecture_rejected(self):
        with pytest.raises(ValueError):
            build_attack_plan(
                architectures=("vgg",),
                seeds=(1,),
                dataset=_tiny_dataset(1),
                attack_config=_tiny_config(),
            )


class TestAttackJob:
    def test_image_coerced_to_float64(self):
        job = AttackJob(
            job_id=0,
            model=ModelSpec("yolo", 1),
            image=np.zeros((8, 8, 3), dtype=np.uint8),
        )
        assert job.image.dtype == np.float64

    def test_resolved_config_overrides_only_seed(self):
        config = _tiny_config()
        job = AttackJob(
            job_id=0, model=ModelSpec("yolo", 1),
            image=np.zeros((8, 8, 3)), config=config, nsga_seed=12345,
        )
        resolved = job.resolved_config()
        assert resolved.nsga.seed == 12345
        assert resolved.nsga.num_iterations == config.nsga.num_iterations
        assert resolved.region == config.region
        assert config.nsga.seed == 7  # original untouched


class _CountingJob:
    """Minimal generic job: no model, no seed — just deterministic work."""

    def __init__(self, job_id: int, value: int):
        self.job_id = job_id
        self.value = value

    def execute(self, context):
        from repro.experiments.jobs import JobOutcome

        return JobOutcome(job_id=self.job_id, result=self.value * self.value)


class TestGenericJobSubstrate:
    """The engine runs *any* job following the protocol, not just attacks."""

    def test_custom_jobs_execute_on_every_backend(self):
        from repro.experiments.engine import SerialBackend, execute_plan
        from repro.experiments.jobs import ExperimentPlan
        from repro.experiments.persistent import PersistentPoolBackend

        plan = ExperimentPlan(
            jobs=[_CountingJob(i, i + 1) for i in range(5)],
            attack_config=_tiny_config(),
            name="toy",
        )
        serial = execute_plan(plan, SerialBackend())
        assert [o.result for o in serial.outcomes] == [1, 4, 9, 16, 25]
        backend = PersistentPoolBackend(n_jobs=2, submission_seed=1)
        try:
            pooled = execute_plan(plan, backend)
        finally:
            backend.close()
        assert [o.result for o in pooled.outcomes] == [1, 4, 9, 16, 25]
        # Model-less jobs take no part in per-model accounting.
        assert plan.model_specs() == []
        assert serial.per_model == {}

    def test_apply_experiment_seed_skips_seedless_jobs(self):
        from repro.experiments.jobs import apply_experiment_seed

        attack_jobs = [
            AttackJob(job_id=0, model=ModelSpec("yolo", 1), image=_tiny_dataset(1)[0]),
        ]
        toy = _CountingJob(1, 3)
        apply_experiment_seed([*attack_jobs, toy], 42)
        assert attack_jobs[0].nsga_seed is not None
        assert not hasattr(toy, "nsga_seed")
        # Seeds are positional: the attack job's seed equals position 0 of
        # the derived sequence regardless of what shares the plan.
        assert attack_jobs[0].nsga_seed == derive_job_seeds(42, 2)[0]

    def test_seed_from_sequence_is_derive_job_seeds_derivation(self):
        import numpy as np

        from repro.experiments.jobs import seed_from_sequence

        root = np.random.SeedSequence(123)
        assert [
            seed_from_sequence(child) for child in root.spawn(4)
        ] == derive_job_seeds(123, 4)


class TestModelSpecAdapters:
    def test_as_model_spec_passes_specs_through(self):
        spec = ModelSpec("yolo", 1)
        from repro.experiments.jobs import as_model_spec

        assert as_model_spec(spec) is spec

    def test_as_model_spec_wraps_detectors(self, request):
        from repro.experiments.jobs import (
            DetectorInstanceSpec,
            as_model_spec,
            build_cached,
        )

        detector = request.getfixturevalue("yolo_detector")
        spec = as_model_spec(detector)
        assert isinstance(spec, DetectorInstanceSpec)
        assert spec.name == detector.name
        assert spec.label == detector.architecture
        assert spec.seed == detector.seed
        assert spec.build() is detector
        assert build_cached(spec) is detector
        # Identity semantics: same instance → same spec, equal hash.
        assert as_model_spec(detector) == spec
        assert hash(as_model_spec(detector)) == hash(spec)

    def test_as_model_spec_rejects_junk(self):
        from repro.experiments.jobs import as_model_spec

        with pytest.raises(TypeError):
            as_model_spec(42)

    def test_job_helpers(self):
        from repro.defenses.jobs import EnsembleDefenseJob
        from repro.experiments.jobs import job_model_specs, job_stats_label

        attack = AttackJob(job_id=0, model=ModelSpec("yolo", 1), image=_tiny_dataset(1)[0])
        assert job_model_specs(attack) == (attack.model,)
        assert job_stats_label(attack) == "single_stage-seed1"

        members = (ModelSpec("yolo", 1), ModelSpec("detr", 2))
        ensemble = EnsembleDefenseJob(
            job_id=1, members=members, image=_tiny_dataset(1)[0]
        )
        assert job_model_specs(ensemble) == members
        assert job_stats_label(ensemble).startswith("ensemble[")

        toy = _CountingJob(2, 1)
        assert job_model_specs(toy) == ()
        assert job_stats_label(toy) is None
