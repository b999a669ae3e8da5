"""Streaming sequence plans: structure, backend parity, cache provisioning.

The engine contract extends unchanged to the sequence workload: the plan
fully determines the sweep, so the serial and persistent backends must
produce bit-identical ``AttackResult``s.  On top of that,
sequence jobs must surface their frame-cache counters through the ordinary
execution report so hit rates appear in sweep summaries.
"""

import pickle

import pytest

from repro.core.config import AttackConfig
from repro.core.regions import HalfImageRegion
from repro.detectors.training import TrainingConfig
from repro.experiments.engine import (
    SerialBackend,
    effective_cache_size,
    execute_plan,
)
from repro.experiments.jobs import (
    SequenceAttackJob,
    SequenceSpec,
    build_sequence_plan,
)
from repro.experiments.persistent import PersistentPoolBackend
from repro.experiments.runner import run_sequence_sweep
from repro.nsga.algorithm import NSGAConfig

LENGTH, WIDTH = 48, 96
ARCHITECTURES = ("yolo", "detr")
SEEDS = (1,)


@pytest.fixture(scope="module")
def training():
    return TrainingConfig(
        scenes_per_class=2,
        image_length=LENGTH,
        image_width=WIDTH,
        background_clusters=12,
    )


@pytest.fixture(scope="module")
def sequences():
    return (
        SequenceSpec(
            num_frames=3,
            seed=5,
            image_length=LENGTH,
            image_width=WIDTH,
            half="left",
        ),
    )


@pytest.fixture(scope="module")
def attack_config():
    return AttackConfig(
        nsga=NSGAConfig(num_iterations=3, population_size=8, seed=0),
        region=HalfImageRegion("right"),
    )


@pytest.fixture(scope="module")
def plan(sequences, attack_config, training):
    return build_sequence_plan(
        architectures=ARCHITECTURES,
        seeds=SEEDS,
        sequences=sequences,
        attack_config=attack_config,
        training=training,
        frame_cache_size=2,
    )


@pytest.fixture(scope="module")
def serial_report(plan):
    return execute_plan(plan, SerialBackend())


def _report_fingerprints(report) -> list:
    return [outcome.result.fingerprint() for outcome in report.outcomes]


class TestPlanStructure:
    def test_nested_order_and_job_fields(self, plan, sequences):
        assert plan.name == "sequence-attack"
        assert len(plan.jobs) == len(ARCHITECTURES) * len(SEEDS) * len(sequences)
        assert [job.job_id for job in plan.jobs] == list(range(len(plan.jobs)))
        for job in plan.jobs:
            assert isinstance(job, SequenceAttackJob)
            assert job.sequence == sequences[job.scene_index]
            assert job.frame_cache_size == 2
            assert job.track_k == 2
        assert [job.model.architecture for job in plan.jobs] == ["yolo", "detr"]

    def test_job_pickle_roundtrip(self, plan):
        job = plan.jobs[0]
        clone = pickle.loads(pickle.dumps(job))
        assert clone == job
        assert clone.sequence.build().scenes == job.sequence.build().scenes

    def test_effective_cache_size_scales_with_frame_window(
        self, sequences, attack_config, training
    ):
        wide = build_sequence_plan(
            architectures=ARCHITECTURES,
            seeds=SEEDS,
            sequences=sequences,
            attack_config=attack_config,
            training=training,
            frame_cache_size=5,
        )
        # Two distinct models, five live frame bundles each; the configured
        # cap is below that floor, so the engine warns while growing it.
        with pytest.warns(RuntimeWarning, match="concurrently live"):
            assert effective_cache_size(wide) == 2 * 5


class TestSerialSequenceSweep:
    def test_results_carry_frame_cache_counters(self, plan, serial_report):
        assert len(serial_report.outcomes) == len(plan.jobs)
        for outcome in serial_report.outcomes:
            frame_stats = outcome.result.incremental["frame_cache"]
            assert frame_stats["frame_hits"] > 0
            assert frame_stats["frame_hit_rate"] > 0.0
            assert outcome.result.detector_name.endswith("@3frames")
        summary = serial_report.summary()
        assert summary["cache_stats"]["frame_hits"] > 0

    def test_track_survival_extras_on_every_solution(self, serial_report):
        for outcome in serial_report.outcomes:
            for solution in outcome.result.pareto_front:
                assert "track_survival" in solution.extras


class TestSequenceBackendParity:
    def test_persistent_matches_serial(self, plan, serial_report):
        backend = PersistentPoolBackend(n_jobs=2, submission_seed=11)
        try:
            report = execute_plan(plan, backend)
        finally:
            backend.close()
        assert _report_fingerprints(report) == _report_fingerprints(serial_report)
        summary = report.summary()
        assert summary["cache_stats"]["frame_hits"] > 0


class TestRunSequenceSweep:
    def test_sweep_wrapper_round_trip(self, sequences, attack_config, training):
        sweep = run_sequence_sweep(
            architectures=("yolo",),
            seeds=SEEDS,
            sequences=sequences,
            attack_config=attack_config,
            training=training,
        )
        assert len(sweep.results) == 1
        assert 0.0 <= sweep.mean_track_survival() <= 1.0
        provenance = sweep.provenance()
        assert provenance["backend"] == "serial"
        assert provenance["cache_stats"]["frame_hits"] > 0

    def test_resumed_sweep_keeps_frame_counters(self, sequences, training, tmp_path):
        """A sweep resumed from its journal reports the frame counters of
        the run that journaled it, not zeros."""
        config = AttackConfig(
            nsga=NSGAConfig(num_iterations=1, population_size=4, seed=0),
            region=HalfImageRegion("right"),
        )
        kwargs = dict(
            architectures=("yolo",),
            seeds=SEEDS,
            sequences=sequences,
            attack_config=config,
            training=training,
            checkpoint_dir=str(tmp_path),
        )
        fresh = run_sequence_sweep(**kwargs).provenance()
        resumed = run_sequence_sweep(**kwargs, resume=True).provenance()
        assert resumed["journal_hits"] == 1
        # One derivation or dense rebuild per frame of the 3-frame sequence.
        frames = fresh["cache_stats"]["frame_hits"] + fresh["cache_stats"]["frame_misses"]
        assert frames == 3
        assert resumed["cache_stats"] == fresh["cache_stats"]
