"""Shared fault-injection plan for the resume test-suite and benchmark.

One tiny real attack plan (2 architectures × 1 seed × 2 scenes = 4 NSGA
jobs at 48×96) that both the in-process tests and the killed child
processes build *identically* — same plan fingerprint, same journal — so a
parent killed mid-plan can be resumed from its journal by the test and
compared bit-exactly against an uninterrupted serial run.

Runnable as a script (the child side of the parent-kill tests):

    python fault_plan.py <n_jobs> <checkpoint_dir>

executes the plan on the persistent backend, journaling to
``checkpoint_dir``.
The parent polls the journal and SIGKILLs the whole process group once
outcomes start streaming.

Also hosts ``KillOnceAttackJob`` — a real attack job that kills its worker
(``os._exit``) on first dispatch and behaves exactly like a plain
``AttackJob`` once its sentinel file exists, so crash-interrupted and
uninterrupted runs of the same plan produce bit-identical outcomes.
"""

import os
import sys
from dataclasses import dataclass

from repro.core.config import AttackConfig
from repro.core.regions import HalfImageRegion
from repro.data.dataset import generate_dataset
from repro.detectors.training import TrainingConfig
from repro.experiments.jobs import AttackJob, build_attack_plan
from repro.nsga.algorithm import NSGAConfig

LENGTH, WIDTH = 48, 96
ARCHITECTURES = ("yolo", "detr")
SEEDS = (1,)
NUM_SCENES = 2
EXPERIMENT_SEED = 2023


@dataclass
class KillOnceAttackJob(AttackJob):
    """A real attack job that kills its worker on first dispatch.

    ``os._exit`` (not an exception) simulates a hard crash — OOM-kill,
    segfault — mid-NSGA.  The sentinel file marks the first dispatch, so
    the re-dispatched (or resumed) job runs the plain attack and returns
    the exact outcome the uninterrupted plan would.
    """

    sentinel: str = ""

    def execute(self, context):
        if self.sentinel and not os.path.exists(self.sentinel):
            with open(self.sentinel, "w"):
                pass
            os._exit(13)
        return super().execute(context)


def attack_config() -> AttackConfig:
    return AttackConfig(
        nsga=NSGAConfig(num_iterations=2, population_size=6, seed=0),
        region=HalfImageRegion("right"),
    )


def training_config() -> TrainingConfig:
    return TrainingConfig(
        scenes_per_class=2,
        image_length=LENGTH,
        image_width=WIDTH,
        background_clusters=12,
    )


def build_plan():
    dataset = generate_dataset(
        num_images=NUM_SCENES,
        seed=5,
        image_length=LENGTH,
        image_width=WIDTH,
        half="left",
    )
    return build_attack_plan(
        architectures=ARCHITECTURES,
        seeds=SEEDS,
        dataset=dataset,
        attack_config=attack_config(),
        training=training_config(),
        experiment_seed=EXPERIMENT_SEED,
    )


def main(argv) -> int:
    n_jobs, checkpoint_dir = int(argv[0]), argv[1]
    from repro.experiments.checkpoint import PlanCheckpoint
    from repro.experiments.engine import execute_plan
    from repro.experiments.persistent import PersistentPoolBackend

    backend = PersistentPoolBackend(n_jobs=n_jobs)
    checkpoint = PlanCheckpoint(checkpoint_dir, resume=True)
    try:
        execute_plan(build_plan(), backend, checkpoint=checkpoint)
    finally:
        checkpoint.close()
        backend.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
