"""Shared fixtures: small datasets, fast detectors and reduced attack configs.

Detectors and datasets are session-scoped because building ("training") a
simulated detector renders a couple of dozen scenes; sharing them across
tests keeps the whole suite fast while still exercising the real code path.
Attack-oriented fixtures use a smaller image resolution and a reduced
NSGA-II budget — the search dynamics are identical, only the budget differs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core.config import AttackConfig
from repro.core.regions import HalfImageRegion
from repro.data.dataset import SyntheticDataset, generate_dataset
from repro.detectors.base import DetectorConfig
from repro.detectors.training import TrainingConfig
from repro.detectors.zoo import build_detector
from repro.nsga.algorithm import NSGAConfig
from repro.nsga.mutation import MutationConfig

#: ``--hypothesis-profile=ci`` draws ten times the default number of
#: examples for every property test that leaves ``max_examples`` to the
#: profile (the CI fuzz step of the window-feature suite); tier-1 runs
#: Hypothesis's default profile.
settings.register_profile(
    "ci", max_examples=10 * settings.get_profile("default").max_examples
)

#: Reduced image size used by attack-level tests (wide KITTI-like aspect).
SMALL_LENGTH = 64
SMALL_WIDTH = 208


@pytest.fixture(scope="session")
def small_training_config() -> TrainingConfig:
    """Training protocol matched to the reduced image resolution."""
    return TrainingConfig(
        scenes_per_class=4,
        image_length=SMALL_LENGTH,
        image_width=SMALL_WIDTH,
        background_clusters=32,
    )


@pytest.fixture(scope="session")
def small_dataset() -> SyntheticDataset:
    """Two small scenes with objects only in the left half."""
    return generate_dataset(
        num_images=2,
        seed=5,
        image_length=SMALL_LENGTH,
        image_width=SMALL_WIDTH,
        half="left",
        num_objects=(2, 3),
    )


@pytest.fixture(scope="session")
def full_dataset() -> SyntheticDataset:
    """Default-resolution scenes with objects anywhere."""
    return generate_dataset(num_images=3, seed=3)


@pytest.fixture(scope="session")
def yolo_detector(small_training_config):
    """A trained single-stage (YOLO-like) detector at reduced resolution."""
    return build_detector("yolo", seed=1, training=small_training_config)


@pytest.fixture(scope="session")
def detr_detector(small_training_config):
    """A trained transformer (DETR-like) detector at reduced resolution."""
    return build_detector("detr", seed=1, training=small_training_config)


@pytest.fixture(scope="session")
def default_yolo():
    """A trained single-stage detector at the default (96x320) resolution."""
    return build_detector("yolo", seed=1)


@pytest.fixture(scope="session")
def default_detr():
    """A trained transformer detector at the default (96x320) resolution."""
    return build_detector("detr", seed=1)


@pytest.fixture()
def fast_attack_config() -> AttackConfig:
    """A tiny NSGA-II budget with the paper's operators and constraints."""
    return AttackConfig(
        nsga=NSGAConfig(
            num_iterations=4,
            population_size=8,
            crossover_probability=0.5,
            mutation=MutationConfig(probability=0.45, window_fraction=0.01),
            seed=0,
        ),
        region=HalfImageRegion("right"),
    )


@pytest.fixture()
def rng() -> np.random.Generator:
    """A deterministic random generator for tests."""
    return np.random.default_rng(1234)
