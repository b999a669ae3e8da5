"""Attack-level NSGA-II options reach every attack front-end.

``AttackConfig`` carries options that rewrite the NSGA-II configuration
(``sparse_init_fraction`` and annealing).  The ensemble and temporal
front-ends must apply them exactly like the single-detector attack does:
setting either option on the attack must be the same search as setting
the matching NSGA-II field directly.  The temporal result must also report
the evaluation cache's hits.  :func:`~repro.core.attack.nsga_config`, the
one mapping every front-end calls, is pinned directly as well.
"""

from dataclasses import replace

import pytest

from repro.core.attack import nsga_config
from repro.core.config import AttackConfig
from repro.core.ensemble import EnsembleAttack
from repro.core.regions import HalfImageRegion
from repro.core.temporal import TemporalAttack
from repro.data.dataset import generate_dataset
from repro.data.sequences import generate_sequence
from repro.detectors.training import TrainingConfig
from repro.detectors.zoo import build_detector
from repro.nsga.algorithm import NSGAII, NSGAConfig
from repro.nsga.mutation import IntensityAnnealing, MutationConfig

LENGTH, WIDTH = 48, 96


@pytest.fixture(scope="module")
def detector():
    training = TrainingConfig(
        scenes_per_class=2,
        image_length=LENGTH,
        image_width=WIDTH,
        background_clusters=12,
    )
    return build_detector("yolo", seed=1, training=training)


@pytest.fixture(scope="module")
def image():
    dataset = generate_dataset(
        num_images=1, seed=5, image_length=LENGTH, image_width=WIDTH, half="left"
    )
    return dataset[0].image


@pytest.fixture(scope="module")
def frames():
    sequence = generate_sequence(
        num_frames=2, seed=5, image_length=LENGTH, image_width=WIDTH, half="left"
    )
    return list(sequence.images)


def _config(**overrides) -> AttackConfig:
    return AttackConfig(
        nsga=NSGAConfig(
            num_iterations=2,
            population_size=6,
            mutation=MutationConfig(probability=0.45, window_fraction=0.01),
            seed=0,
        ),
        region=HalfImageRegion("right"),
        **overrides,
    )


def _direct_sparse_config() -> AttackConfig:
    config = _config()
    nsga = config.nsga
    return replace(
        config,
        nsga=replace(
            nsga,
            initialization=replace(nsga.initialization, sparse_fraction=1.0),
        ),
    )


@pytest.fixture(params=["ensemble", "temporal"])
def run_attack(request, detector, image, frames):
    def run(config):
        if request.param == "ensemble":
            return EnsembleAttack([detector], config).attack(image)
        return TemporalAttack(detector, config).attack(frames)

    return run


def test_sparse_init_fraction_applies(run_attack):
    default = run_attack(_config()).fingerprint()
    via_attack = run_attack(_config(sparse_init_fraction=1.0)).fingerprint()
    via_nsga = run_attack(_direct_sparse_config()).fingerprint()
    assert via_attack == via_nsga
    assert via_attack != default


def test_anneal_final_window_applies(run_attack):
    default = run_attack(_config()).fingerprint()
    via_attack = run_attack(_config(anneal_final_window=0.002)).fingerprint()
    config = _config()
    annealing = IntensityAnnealing(final_window_fraction=0.002)
    via_nsga = run_attack(
        replace(config, nsga=replace(config.nsga, annealing=annealing))
    ).fingerprint()
    assert via_attack == via_nsga
    assert via_attack != default


def test_temporal_result_reports_cache_hits(monkeypatch, detector, frames):
    hits = []
    run = NSGAII.run

    def recording_run(self):
        result = run(self)
        hits.append(result.cache_hits)
        return result

    monkeypatch.setattr(NSGAII, "run", recording_run)
    result = TemporalAttack(detector, _config()).attack(frames)
    assert hits[0] > 0
    assert result.cache_hits == hits[0]
    assert result.num_queries == result.num_evaluations - hits[0]


def test_nsga_config_forwards_anneal_shape():
    nsga = nsga_config(_config(anneal_final_window=0.002, anneal_shape="linear"))
    assert nsga.annealing == IntensityAnnealing(
        final_window_fraction=0.002, shape="linear"
    )
