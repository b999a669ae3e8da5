"""Tests for the architecture-comparison runner (Figure 2 protocol)."""

import numpy as np
import pytest

from repro.detectors.training import TrainingConfig
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_architecture_comparison
from repro.nsga.algorithm import NSGAConfig

from tests.conftest import SMALL_LENGTH, SMALL_WIDTH


@pytest.fixture(scope="module")
def comparison():
    """A tiny but complete run of the Figure 2 protocol."""
    experiment = ExperimentConfig.reduced(
        models_per_architecture=1,
        images_per_model=1,
        ensemble_size=1,
        image_length=SMALL_LENGTH,
        image_width=SMALL_WIDTH,
    )
    nsga = NSGAConfig(num_iterations=3, population_size=8, seed=0)
    training = TrainingConfig(
        scenes_per_class=3,
        image_length=SMALL_LENGTH,
        image_width=SMALL_WIDTH,
        background_clusters=24,
    )
    return run_architecture_comparison(
        experiment=experiment, nsga=nsga, training=training, dataset_seed=5
    )


class TestRunArchitectureComparison:
    def test_both_architectures_present(self, comparison):
        assert set(comparison.results) == {"single_stage", "transformer"}

    def test_number_of_runs(self, comparison):
        # 1 model x 1 image per architecture.
        assert len(comparison.results["single_stage"]) == 1
        assert len(comparison.results["transformer"]) == 1

    def test_front_points_shape(self, comparison):
        points = comparison.front_points("transformer")
        assert points.ndim == 2 and points.shape[1] == 3

    def test_front_points_unknown_label_empty(self, comparison):
        assert comparison.front_points("nonexistent").size == 0

    def test_report_summary_contains_both_labels(self, comparison):
        labels = {row["label"] for row in comparison.report.summary_rows()}
        assert labels == {"single_stage", "transformer"}

    def test_susceptibility_summary_keys(self, comparison):
        summary = comparison.susceptibility_summary()
        for label in ("single_stage", "transformer"):
            assert {"best_degradation", "mean_degradation", "mean_intensity", "mean_distance"} <= set(
                summary[label]
            )

    def test_best_degradation_bounded(self, comparison):
        for label in ("single_stage", "transformer"):
            value = comparison.best_degradation(label)
            assert 0.0 <= value <= 1.0 + 1e-9

    def test_masks_respect_right_half_constraint(self, comparison):
        for results in comparison.results.values():
            for result in results:
                middle = result.image.shape[1] // 2
                for solution in result.pareto_front:
                    assert np.allclose(solution.mask.values[:, :middle, :], 0.0)

    def test_experiment_config_recorded(self, comparison):
        assert comparison.experiment is not None
        assert comparison.experiment.models_per_architecture == 1


def test_persistent_backend_from_experiment_config():
    """``execution_backend="persistent"`` runs the sweep on the persistent
    runtime, which the runner builds and closes."""
    experiment = ExperimentConfig.reduced(
        models_per_architecture=1,
        images_per_model=2,
        ensemble_size=1,
        image_length=SMALL_LENGTH,
        image_width=SMALL_WIDTH,
        n_jobs=2,
        execution_backend="persistent",
    )
    training = TrainingConfig(
        scenes_per_class=2,
        image_length=SMALL_LENGTH,
        image_width=SMALL_WIDTH,
        background_clusters=12,
    )
    comparison = run_architecture_comparison(
        experiment=experiment,
        nsga=NSGAConfig(num_iterations=1, population_size=4, seed=0),
        architectures=("yolo",),
        training=training,
        dataset_seed=5,
    )
    assert comparison.provenance()["backend"] == "persistent"
    assert len(comparison.results["single_stage"]) == 2


def test_auto_backend_pools_on_persistent_and_matches_serial():
    """The default ``execution_backend="auto"`` runs a one-job sweep serially
    and an ``n_jobs=2`` sweep on the persistent runtime, with identical
    results."""
    training = TrainingConfig(
        scenes_per_class=2,
        image_length=SMALL_LENGTH,
        image_width=SMALL_WIDTH,
        background_clusters=12,
    )
    comparisons = {}
    for n_jobs in (1, 2):
        experiment = ExperimentConfig.reduced(
            models_per_architecture=1,
            images_per_model=2,
            ensemble_size=1,
            image_length=SMALL_LENGTH,
            image_width=SMALL_WIDTH,
            n_jobs=n_jobs,
        )
        assert experiment.execution_backend == "auto"
        comparisons[n_jobs] = run_architecture_comparison(
            experiment=experiment,
            nsga=NSGAConfig(num_iterations=1, population_size=4, seed=0),
            architectures=("yolo",),
            training=training,
            dataset_seed=5,
        )
    assert comparisons[1].provenance()["backend"] == "serial"
    assert comparisons[2].provenance()["backend"] == "persistent"
    serial, pooled = (
        [result.fingerprint() for result in comparisons[n_jobs].results["single_stage"]]
        for n_jobs in (1, 2)
    )
    assert len(serial) == 2 and serial == pooled
