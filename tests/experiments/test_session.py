"""The sweep session: every sweep runs its plans in one lifecycle.

The five sweeps — the architecture comparison, the sequence sweep, the
transferability experiment and both defense evaluations — only build plans
and assemble reports.  :class:`~repro.experiments.runner.SweepSession`
resolves the backend, journals, pins, releases the models and closes what it
resolved.  These tests run each sweep on a tiny grid and check that
lifecycle from outside, also when a plan raises, and that every sweep runs
its plans through ``runner.execute_plan``, the name the end-to-end
benchmark's tracer patches.
"""

import pytest

from repro.core.config import AttackConfig
from repro.core.regions import HalfImageRegion
from repro.data.dataset import generate_dataset
from repro.defenses.augmentation import NoiseAugmentationConfig
from repro.defenses.evaluation import ensemble_defense_evaluation, evaluate_defense
from repro.defenses.jobs import DefendedModelSpec
from repro.detectors.training import TrainingConfig
from repro.experiments import runner
from repro.experiments.checkpoint import CheckpointError, PlanCheckpoint
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import SerialBackend
from repro.experiments.jobs import (
    JobOutcome,
    ModelSpec,
    SequenceSpec,
    build_cached,
    detector_if_built,
    release_detector,
)
from repro.experiments.transfer import run_transferability_experiment
from repro.nsga.algorithm import NSGAConfig

LENGTH, WIDTH = 48, 96

#: The plans each sweep runs, in order.
PLAN_NAMES = {
    "compare": ["architecture-comparison"],
    "sequence": ["sequence-attack"],
    "transfer": ["transfer-optimise", "transfer-evaluate"],
    "defense": ["defense-evaluation"],
    "ensemble": ["ensemble-defense"],
}

#: The sweeps that take ``release_models``; the other two always release.
TAKES_RELEASE_MODELS = ("transfer", "defense", "ensemble")


@pytest.fixture(scope="module")
def sweeps():
    """Each sweep on a tiny grid, called with the engine keyword arguments."""
    training = TrainingConfig(
        scenes_per_class=2,
        image_length=LENGTH,
        image_width=WIDTH,
        background_clusters=12,
    )
    sample = generate_dataset(
        num_images=1, seed=5, image_length=LENGTH, image_width=WIDTH, half="left"
    )[0]
    config = AttackConfig(
        nsga=NSGAConfig(num_iterations=1, population_size=4, seed=0),
        region=HalfImageRegion("right"),
    )
    models = [ModelSpec("yolo", seed, training=training) for seed in (1, 2)]
    defended = DefendedModelSpec(
        base=models[0],
        augmentation=NoiseAugmentationConfig(augmented_copies=1),
        training=training,
    )
    sequence = SequenceSpec(
        num_frames=2, seed=5, image_length=LENGTH, image_width=WIDTH, half="left"
    )
    return {
        "compare": lambda **kwargs: runner.run_architecture_comparison(
            experiment=ExperimentConfig.reduced(
                1, 1, image_length=LENGTH, image_width=WIDTH
            ),
            nsga=config.nsga,
            architectures=("yolo",),
            training=training,
            dataset_seed=5,
            **kwargs,
        ),
        "sequence": lambda **kwargs: runner.run_sequence_sweep(
            sequences=(sequence,), attack_config=config, training=training, **kwargs
        ),
        "transfer": lambda **kwargs: run_transferability_experiment(
            models, sample.image, config, **kwargs
        ),
        "defense": lambda **kwargs: evaluate_defense(
            models[0], defended, sample.image, sample.ground_truth, config, **kwargs
        ),
        "ensemble": lambda **kwargs: ensemble_defense_evaluation(
            models, sample.image, config, **kwargs
        ),
    }


@pytest.mark.parametrize("sweep", sorted(PLAN_NAMES))
def test_every_sweep_runs_its_plans_through_runner_execute_plan(
    sweep, sweeps, monkeypatch
):
    original = runner.execute_plan
    names = []

    def traced(plan, *args, **kwargs):
        names.append(plan.name)
        return original(plan, *args, **kwargs)

    monkeypatch.setattr(runner, "execute_plan", traced)
    sweeps[sweep]()
    assert names == PLAN_NAMES[sweep]


class _SpyBackend(SerialBackend):
    """A serial backend that records its lifecycle and can fail a plan."""

    def __init__(self, fail: bool) -> None:
        super().__init__()
        self.fail = fail
        self.closed = False
        self.pinned: set = set()
        self.ever_pinned: set = set()
        self.specs: list = []

    def run(self, plan):
        assert not self.closed
        # Build the plan's models first, so a failing plan leaves them live.
        for spec in plan.model_specs():
            build_cached(spec)
            self.specs.append(spec)
        if self.fail:
            raise RuntimeError("plan failed")
        return super().run(plan)

    def pin_models(self, specs):
        self.pinned.update(specs)
        self.ever_pinned.update(specs)

    def unpin_models(self, specs):
        self.pinned.difference_update(specs)

    def close(self):
        self.closed = True


@pytest.mark.parametrize("fail", [False, True], ids=["completes", "plan-raises"])
@pytest.mark.parametrize("owner", ["name", "caller"])
@pytest.mark.parametrize("sweep", sorted(PLAN_NAMES))
def test_session_closes_what_it_opened(
    sweep, owner, fail, sweeps, monkeypatch, tmp_path
):
    """A backend resolved from a name is closed and a caller's instance is
    left open; the journal is closed; pins are lifted; the models are
    released, or kept where the caller passes ``release_models=False``
    (the caller-instance runs do, for the sweeps that take it)."""
    backend = _SpyBackend(fail)
    if owner == "name":
        monkeypatch.setattr(runner, "resolve_backend", lambda *args, **kwargs: backend)
        kwargs = {"backend": "serial"}
    else:
        kwargs = {"backend": backend}
    keep_models = owner == "caller" and sweep in TAKES_RELEASE_MODELS
    if keep_models:
        kwargs["release_models"] = False
    journals = []
    init = PlanCheckpoint.__init__

    def recording_init(self, *args, **init_kwargs):
        init(self, *args, **init_kwargs)
        journals.append(self)

    monkeypatch.setattr(PlanCheckpoint, "__init__", recording_init)

    if fail:
        with pytest.raises(RuntimeError, match="plan failed"):
            sweeps[sweep](checkpoint_dir=str(tmp_path), **kwargs)
    else:
        sweeps[sweep](checkpoint_dir=str(tmp_path), **kwargs)

    assert backend.closed == (owner == "name")
    assert backend.pinned == set()
    assert bool(backend.ever_pinned) == (sweep == "transfer")
    assert len(journals) == 1
    with pytest.raises(CheckpointError, match="not bound"):
        journals[0].record(JobOutcome(job_id=0, result=None))
    assert backend.specs
    live = [detector_if_built(spec) is not None for spec in backend.specs]
    assert live == [keep_models] * len(live)
    for spec in backend.specs:
        release_detector(spec)
