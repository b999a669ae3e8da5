"""Tests for the transferability experiment.

``TestTransferEngineParity`` is the engine-parity suite: the engine-based
experiment (serial and pooled at n_jobs ∈ {1, 2, 4}, shuffled submission)
must be bit-identical to the preserved pre-engine reference loop
(`run_transferability_reference`) — same matrix, same best masks, same
intensities — for both live-detector and model-spec inputs.
"""

import numpy as np
import pytest

from repro.core.config import AttackConfig
from repro.core.regions import HalfImageRegion
from repro.data.dataset import generate_dataset
from repro.detectors.training import TrainingConfig
from repro.detectors.zoo import build_model_zoo
from repro.experiments.engine import SerialBackend, execute_plan
from repro.experiments.persistent import PersistentPoolBackend
from repro.experiments.jobs import ModelSpec
from repro.experiments.persistent import PersistentPoolBackend
from repro.experiments.transfer import (
    TransferabilityResult,
    build_transfer_eval_plan,
    run_transferability_experiment,
    run_transferability_reference,
)
from repro.nn.incremental import mask_nonzero_bbox
from repro.nsga.algorithm import NSGAConfig


@pytest.fixture(scope="module")
def transfer_result(request):
    training = request.getfixturevalue("small_training_config")
    dataset = request.getfixturevalue("small_dataset")
    models = build_model_zoo("detr", seeds=(1, 2), training=training)
    config = AttackConfig(
        nsga=NSGAConfig(num_iterations=4, population_size=8, seed=0),
        region=HalfImageRegion("right"),
    )
    return run_transferability_experiment(models, dataset[0].image, config)


class TestTransferability:
    def test_matrix_shape(self, transfer_result):
        assert transfer_result.matrix.shape == (2, 2)
        assert transfer_result.num_models == 2
        assert len(transfer_result.masks_intensity) == 2

    def test_degradations_bounded(self, transfer_result):
        assert np.all(transfer_result.matrix >= 0.0)
        assert np.all(transfer_result.matrix <= 1.0 + 1e-9)

    def test_self_vs_transfer_statistics(self, transfer_result):
        self_deg = transfer_result.self_degradation()
        transfer_deg = transfer_result.transfer_degradation()
        assert 0.0 <= self_deg <= 1.0 + 1e-9
        assert 0.0 <= transfer_deg <= 1.0 + 1e-9
        assert transfer_result.transfer_gap() == pytest.approx(transfer_deg - self_deg)

    def test_rows_cover_all_pairs(self, transfer_result):
        rows = transfer_result.as_rows()
        assert len(rows) == 4
        assert sum(1 for row in rows if row["is_transfer"]) == 2

    def test_empty_model_list_rejected(self, small_dataset):
        with pytest.raises(ValueError):
            run_transferability_experiment([], small_dataset[0].image)

    def test_single_model_transfer_degradation_is_one(self):
        result = TransferabilityResult(
            model_names=["only"], matrix=np.array([[0.4]])
        )
        assert result.transfer_degradation() == 1.0


class TestTransferabilityResultEdgeCases:
    def test_single_model_gap_is_nan_free(self):
        result = TransferabilityResult(model_names=["only"], matrix=np.array([[0.4]]))
        assert result.self_degradation() == pytest.approx(0.4)
        assert not np.isnan(result.transfer_gap())
        assert result.transfer_gap() == pytest.approx(1.0 - 0.4)
        assert len(result.as_rows()) == 1

    def test_empty_masks_intensity_defaults(self):
        result = TransferabilityResult(
            model_names=["a", "b"], matrix=np.full((2, 2), 0.5)
        )
        assert result.masks_intensity == []
        assert result.best_masks == []
        assert result.execution is None
        assert not np.isnan(result.transfer_gap())
        assert result.transfer_gap() == pytest.approx(0.0)

    def test_empty_matrix_statistics_are_nan_free(self):
        result = TransferabilityResult(
            model_names=[], matrix=np.zeros((0, 0))
        )
        assert result.self_degradation() == 1.0
        assert result.transfer_degradation() == 1.0
        assert not np.isnan(result.transfer_gap())


# Deliberately smaller than the module fixture: the parity suite runs the
# sweep six ways (reference, two serial variants, three pool sizes).
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
def parity_image(parity_training):
    dataset = generate_dataset(
        num_images=1,
        seed=5,
        image_length=_PARITY_LENGTH,
        image_width=_PARITY_WIDTH,
        half="left",
    )
    return dataset[0].image


@pytest.fixture(scope="module")
def parity_config():
    return AttackConfig(
        nsga=NSGAConfig(num_iterations=3, population_size=8, seed=0),
        region=HalfImageRegion("right"),
    )


@pytest.fixture(scope="module")
def parity_specs(parity_training):
    return [ModelSpec("detr", seed, training=parity_training) for seed in (1, 2)]


@pytest.fixture(scope="module")
def reference_transfer(parity_training, parity_image, parity_config):
    models = build_model_zoo("detr", seeds=(1, 2), training=parity_training)
    return run_transferability_reference(models, parity_image, parity_config)


@pytest.fixture(scope="module")
def serial_transfer(parity_specs, parity_image, parity_config):
    return run_transferability_experiment(parity_specs, parity_image, parity_config)


def _assert_transfer_identical(left, right):
    """Bit-exact equality of everything the transfer report asserts."""
    assert left.model_names == right.model_names
    assert np.array_equal(left.matrix, right.matrix)
    assert left.masks_intensity == right.masks_intensity
    assert len(left.best_masks) == len(right.best_masks)
    for a, b in zip(left.best_masks, right.best_masks):
        assert np.array_equal(a, b)


class TestTransferEngineParity:
    def test_engine_matches_reference_loop(
        self, parity_training, parity_image, parity_config, serial_transfer,
        reference_transfer,
    ):
        """The engine sweep equals the preserved pre-engine loop bit for bit."""
        _assert_transfer_identical(reference_transfer, serial_transfer)

    def test_detector_instances_match_specs(
        self, parity_training, parity_image, parity_config, serial_transfer
    ):
        """Live-detector input rides the engine with identical results."""
        models = build_model_zoo("detr", seeds=(1, 2), training=parity_training)
        from_instances = run_transferability_experiment(
            models, parity_image, parity_config
        )
        _assert_transfer_identical(serial_transfer, from_instances)

    @pytest.mark.parametrize("n_jobs", [1, 2, 4])
    def test_pooled_matches_serial(
        self, parity_specs, parity_image, parity_config, serial_transfer, n_jobs
    ):
        """Pooled sweeps (shuffled submission) are bit-identical to serial."""
        backend = PersistentPoolBackend(n_jobs=n_jobs, submission_seed=50 + n_jobs)
        try:
            pooled = run_transferability_experiment(
                parity_specs, parity_image, parity_config, n_jobs=n_jobs, backend=backend
            )
        finally:
            backend.close()
        _assert_transfer_identical(serial_transfer, pooled)
        assert pooled.execution["backend"] == "persistent"

    def test_experiment_seed_is_scheduling_independent(
        self, parity_specs, parity_image, parity_config
    ):
        serial = run_transferability_experiment(
            parity_specs, parity_image, parity_config, experiment_seed=2023
        )
        backend = PersistentPoolBackend(n_jobs=2, submission_seed=9)
        try:
            pooled = run_transferability_experiment(
                parity_specs,
                parity_image,
                parity_config,
                backend=backend,
                experiment_seed=2023,
            )
        finally:
            backend.close()
        _assert_transfer_identical(serial, pooled)
        assert serial.experiment_seed == 2023

    def test_execution_provenance_recorded(self, serial_transfer):
        execution = serial_transfer.execution
        assert execution["backend"] == "serial"
        assert len(execution["stages"]) == 2
        stats = execution["cache_stats"]
        # Two models: at least one activation-cache miss per optimisation
        # job (the cross-evaluation stage adds one more per column only
        # when a best mask is sparse enough for the windowed path).
        assert stats["misses"] >= 2


class TestTransferMaskDtype:
    """The cross-evaluation stage ships the attack's int16 best masks as int16.

    The matrix built from them must equal, bit for bit, the matrix built
    from the same values in float64, on the serial and persistent backends.
    """

    @staticmethod
    def _matrix(plan, backend):
        matrix = np.ones((len(plan.jobs), len(plan.jobs)))
        for outcome in execute_plan(plan, backend).outcomes:
            matrix[:, outcome.result.target_index] = outcome.result.degradations
        return matrix

    def test_best_masks_and_eval_jobs_are_int16(
        self, serial_transfer, parity_specs, parity_image, parity_config
    ):
        best = serial_transfer.best_masks
        assert [mask.dtype for mask in best] == [np.dtype(np.int16)] * 2
        bounds = [mask_nonzero_bbox(mask) for mask in best]
        plan = build_transfer_eval_plan(
            parity_specs, parity_image, best, bounds, parity_config
        )
        assert all(job.masks.dtype == np.int16 for job in plan.jobs)
        as_float = [mask.astype(np.float32) for mask in best]
        plan = build_transfer_eval_plan(
            parity_specs, parity_image, as_float, bounds, parity_config
        )
        assert all(job.masks.dtype == np.float64 for job in plan.jobs)

    @pytest.mark.parametrize("backend_name", ["serial", "persistent"])
    def test_int16_matrix_equals_float64_matrix(
        self, backend_name, serial_transfer, parity_specs, parity_image,
        parity_config,
    ):
        best = serial_transfer.best_masks
        bounds = [mask_nonzero_bbox(mask) for mask in best]
        backend = (
            SerialBackend()
            if backend_name == "serial"
            else PersistentPoolBackend(n_jobs=2, submission_seed=3)
        )
        try:
            matrices = [
                self._matrix(
                    build_transfer_eval_plan(
                        parity_specs, parity_image, masks, bounds, parity_config
                    ),
                    backend,
                )
                for masks in (best, [mask.astype(np.float64) for mask in best])
            ]
        finally:
            backend.close()
        assert matrices[0].view(np.uint64).tobytes() == (
            matrices[1].view(np.uint64).tobytes()
        )
        assert np.array_equal(matrices[0], serial_transfer.matrix)
