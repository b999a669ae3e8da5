"""Attack results hold int16 masks from genome to journal.

``FilterMask`` keeps an ``int16`` array as given, so every path that moves
or stores a result carries ``int16``: worker pickles, result archives and
checkpoint journal records (each mask as its byte-support window).
``AttackResult.fingerprint()`` hashes mask values as float64, so it does
not depend on the storage dtype.  Exact comparisons are byte or ``uint64``
view comparisons throughout.
"""

import json
import pickle
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.attack import ButterflyAttack
from repro.core.masks import FilterMask, mask_array
from repro.core.results import AttackResult, ParetoSolution
from repro.detection.boxes import BoundingBox
from repro.detection.prediction import Prediction
from repro.experiments.checkpoint import PlanCheckpoint
from repro.experiments.jobs import ExperimentPlan, JobOutcome
from repro.io.serialization import (
    array_to_jsonable,
    load_attack_result,
    mask_from_jsonable,
    mask_to_jsonable,
    save_attack_result,
)
from repro.nn.incremental import byte_support_bbox, mask_nonzero_bbox
from repro.nsga.algorithm import NSGAResult
from repro.nsga.individual import Individual

#: The benchmark's working geometry.
SHAPE = (96, 320, 3)


def _right_half(seed: int) -> np.ndarray:
    """A right-half int16 mask, as ``constrain_mask`` leaves an attack's."""
    values = np.zeros(SHAPE, dtype=np.int16)
    half = SHAPE[1] // 2
    rng = np.random.default_rng(seed)
    values[:, half:] = rng.integers(-255, 256, size=(SHAPE[0], half, 3))
    return values


def _result(masks) -> AttackResult:
    prediction = Prediction([BoundingBox(cl=1, x=40.0, y=30.0, l=12.0, w=9.0)])
    solutions = [
        ParetoSolution(
            mask=FilterMask(values),
            intensity=0.125 * (index + 1),
            degradation=1.0 - 0.0625 * index,
            distance=3.5 + index,
            rank=1 + index % 2,
            perturbed_prediction=prediction if index % 2 == 0 else None,
        )
        for index, values in enumerate(masks)
    ]
    return AttackResult(
        image=np.random.default_rng(5).uniform(0.0, 255.0, size=SHAPE),
        clean_prediction=prediction,
        solutions=solutions,
        detector_name="single_stage-seed1",
        num_evaluations=24,
        cache_hits=4,
        architecture="single_stage",
        model_seed=1,
        scene_index=0,
        job_id=0,
    )


class TestFilterMaskStorage:
    def test_int16_values_are_wrapped_not_copied(self):
        genome = _right_half(1)
        mask = FilterMask(genome)
        assert mask.values is genome
        assert mask_array(genome) is genome

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.float32, np.uint8])
    def test_other_dtypes_become_float64(self, dtype):
        values = np.arange(24).reshape(2, 4, 3).astype(dtype)
        mask = FilterMask(values)
        assert mask.values.dtype == np.float64
        assert np.array_equal(mask.values, values)

    def test_float64_values_are_not_copied(self):
        values = np.zeros((2, 4, 3))
        assert FilterMask(values).values is values
        assert FilterMask([[[1, 2, 3]]]).values.dtype == np.float64

    def test_accessors_agree_with_the_float64_twin(self):
        genome = _right_half(2)
        genome[:40] = 0  # leave a box that does not span the frame
        stored, twin = FilterMask(genome), FilterMask(genome.astype(np.float64))
        assert stored.per_pixel_max.dtype == np.int16
        assert np.array_equal(stored.per_pixel_max, twin.per_pixel_max)
        assert stored.l1_norm == twin.l1_norm
        assert stored.l2_norm == twin.l2_norm
        assert stored.linf_norm == twin.linf_norm
        assert stored.perturbed_pixel_count == twin.perturbed_pixel_count
        assert stored.nonzero_bbox() == twin.nonzero_bbox() == (40, 96, 160, 320)
        assert stored.rounded().values.dtype == np.int16

    def test_fingerprint_hashes_values_as_float64(self):
        masks = [_right_half(seed) for seed in range(3)]
        stored = _result(masks)
        twin = _result([mask.astype(np.float64) for mask in masks])
        assert stored.fingerprint() == twin.fingerprint()
        for mask, entry in zip(masks, stored.fingerprint()[3]):
            assert entry[0] == mask.astype(np.float64).tobytes()


class TestMaskCodec:
    """``mask_to_jsonable`` / ``mask_from_jsonable``: bit-exact windows."""

    @staticmethod
    def _round_trip(values: np.ndarray) -> np.ndarray:
        return mask_from_jsonable(json.loads(json.dumps(mask_to_jsonable(values))))

    def test_int16_round_trip_stores_the_byte_box(self):
        values = _right_half(3)
        record = mask_to_jsonable(values)
        assert record["box"] == [0, 96, 160, 320]
        assert record["dtype"] == values.dtype.str
        decoded = self._round_trip(values)
        assert decoded.dtype == np.int16
        assert decoded.tobytes() == values.tobytes()

    def test_float64_negative_zero_and_nan_are_bit_exact(self):
        values = np.zeros((10, 14, 3))
        values[4, 6] = [3.0, -2.0, 0.5]
        values[1, 2, 1] = -0.0  # outside the value box
        values[8, 11, 0] = np.nan
        values[8, 12, 2] = np.frombuffer(
            np.uint64(0x7FF8_0000_0000_0ABC).tobytes(), dtype=np.float64
        )[0]  # a NaN with a payload
        values[9, 13, 0] = -np.nan
        assert mask_nonzero_bbox(values) == (4, 10, 6, 14)  # -0.0 ignored
        assert byte_support_bbox(values) == (1, 10, 2, 14)
        decoded = self._round_trip(values)
        assert decoded.dtype == np.float64
        assert np.array_equal(decoded.view(np.uint64), values.view(np.uint64))

    @pytest.mark.parametrize("dtype", [np.int16, np.float64])
    def test_empty_mask_round_trip(self, dtype):
        values = np.zeros((6, 9, 3), dtype=dtype)
        record = mask_to_jsonable(values)
        assert record["box"] == [0, 0, 0, 0]
        assert record["data"] == ""
        decoded = self._round_trip(values)
        assert decoded.dtype == dtype
        assert decoded.tobytes() == values.tobytes()

    @pytest.mark.parametrize(
        "dtype", [np.uint8, np.float32, np.int64, np.dtype(">i2")]
    )
    def test_any_dtype_round_trips(self, dtype):
        rng = np.random.default_rng(9)
        values = np.zeros((7, 11, 3), dtype=dtype)
        values[2:5, 3:9] = rng.integers(1, 100, size=(3, 6, 3)).astype(dtype)
        decoded = self._round_trip(values)
        assert decoded.dtype == values.dtype
        assert decoded.tobytes() == values.tobytes()

    def test_two_dimensional_and_strided_masks(self):
        plane = np.zeros((5, 8))
        plane[1, 2], plane[3, 6] = -0.0, 4.0
        assert self._round_trip(plane).tobytes() == plane.tobytes()
        strided = _right_half(4)[::2, ::3]
        assert not strided.flags.c_contiguous
        assert self._round_trip(strided).tobytes() == strided.tobytes()

    def test_inconsistent_records_raise(self):
        record = mask_to_jsonable(_right_half(5))
        with pytest.raises(ValueError):  # binascii.Error subclasses it
            mask_from_jsonable({**record, "data": record["data"][:101]})
        with pytest.raises(ValueError, match="needs"):
            mask_from_jsonable({**record, "shape": [96, 320, 4]})
        with pytest.raises(ValueError, match="does not fit"):
            mask_from_jsonable({**record, "shape": [96, 200, 3]})
        with pytest.raises(KeyError):
            mask_from_jsonable({k: v for k, v in record.items() if k != "dtype"})


class _Job:
    def __init__(self, job_id: int):
        self.job_id = job_id


def _plan() -> ExperimentPlan:
    return ExperimentPlan(jobs=[_Job(0), _Job(1)], attack_config=None, name="int16")


class TestJournalRecord:
    def test_record_round_trip_keeps_fingerprint_and_dtype(self, tmp_path):
        masks = [_right_half(seed) for seed in range(4)]
        result = _result(masks)
        legacy = _result([mask.astype(np.float64) for mask in masks])
        checkpoint = PlanCheckpoint(tmp_path)
        checkpoint.load(_plan())
        checkpoint.record(JobOutcome(job_id=0, result=result))
        checkpoint.record(JobOutcome(job_id=1, result=legacy))
        checkpoint.close()

        restored = PlanCheckpoint(tmp_path).load(_plan())
        for job_id, original in ((0, result), (1, legacy)):
            back = restored[job_id].result
            assert back.fingerprint() == original.fingerprint()
            assert back.image.tobytes() == original.image.tobytes()
            for left, right in zip(back.solutions, original.solutions):
                assert left.mask.values.dtype == right.mask.values.dtype
                assert left.mask.values.tobytes() == right.mask.values.tobytes()
        assert restored[0].result.fingerprint() == legacy.fingerprint()

    def test_record_stores_a_quarter_of_the_float64_bytes(self, tmp_path):
        mask = _right_half(6)
        checkpoint = PlanCheckpoint(tmp_path)
        checkpoint.load(_plan())
        checkpoint.record(JobOutcome(job_id=0, result=_result([mask])))
        checkpoint.close()
        lines = checkpoint.journal_path(_plan()).read_text().splitlines()
        record = json.loads(lines[1])["result"]["payload"]["masks"][0]
        float64_record = array_to_jsonable(mask.astype(np.float64))
        assert len(json.dumps(record)) * 4 <= len(json.dumps(float64_record))


class TestArchiveRoundTrip:
    def test_int16_masks_survive_the_archive(self, tmp_path):
        masks = [_right_half(seed) for seed in range(3)]
        result = _result(masks)
        directory = save_attack_result(result, tmp_path / "run")
        with np.load(directory / "arrays.npz") as arrays:
            assert arrays["mask_0"].dtype == np.int16
        loaded = load_attack_result(directory)
        assert loaded.fingerprint() == result.fingerprint()
        for left, right in zip(loaded.solutions, result.solutions):
            assert left.mask.values.dtype == np.int16
            assert left.mask.values.tobytes() == right.mask.values.tobytes()

    def test_float64_archive_loads_with_the_same_fingerprint(self, tmp_path):
        masks = [_right_half(seed) for seed in range(3)]
        legacy = _result([mask.astype(np.float64) for mask in masks])
        loaded = load_attack_result(save_attack_result(legacy, tmp_path / "old"))
        assert [s.mask.values.dtype for s in loaded.solutions] == [
            np.dtype(np.float64)
        ] * 3
        assert loaded.fingerprint() == _result(masks).fingerprint()


class TestResultPickle:
    def test_pickle_keeps_int16_at_a_third_of_the_float64_bytes(self):
        masks = [_right_half(seed) for seed in range(16)]
        result = _result(masks)
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        float64_payload = pickle.dumps(
            _result([mask.astype(np.float64) for mask in masks]),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        clone = pickle.loads(payload)
        assert all(s.mask.values.dtype == np.int16 for s in clone.solutions)
        assert clone.fingerprint() == result.fingerprint()
        assert 3 * len(payload) <= len(float64_payload)


class TestPackageAllocations:
    def test_package_wraps_the_survivors_genomes(self):
        """Packaging 101 survivors at 96x320 allocates no mask copies.

        A float64 copy per survivor is 737 KB (74 MB for the population);
        even an int16 copy would be 18.6 MB.  Every survivor is ranked 2,
        so ``predict_front`` has no front to answer and only the packaging
        itself is measured.
        """
        survivors = [
            Individual(
                genome=_right_half(seed),
                objectives=np.array([0.5, 0.75, -1.25]),
                rank=2,
            )
            for seed in range(101)
        ]
        nsga_result = NSGAResult(
            population=survivors, fronts=[], num_evaluations=202, cache_hits=7
        )
        attack = ButterflyAttack(SimpleNamespace(name="stub"))
        objectives = SimpleNamespace(clean_prediction=Prediction.empty())
        image = np.zeros(SHAPE)
        tracemalloc.start()
        try:
            result = attack._package(image, objectives, nsga_result)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
        assert len(result.solutions) == 101
        for solution, individual in zip(result.solutions, survivors):
            assert solution.mask.values is individual.genome
