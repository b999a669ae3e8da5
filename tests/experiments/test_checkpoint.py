"""Checkpoint-journal codecs, resume semantics and the engine retry loop.

Three layers:

1. **Codec round-trips** — every outcome payload type the repo's sweeps
   produce (attack results, transfer columns, defense bundles, scalars,
   pickle fallback) survives ``encode_outcome``/``decode_outcome``
   bit-exactly (fingerprints compare mask bytes, not approximations).
2. **Journal robustness** — plan-fingerprint and format-version
   validation, refusal to silently reuse an existing journal without
   ``resume=True``, torn-tail truncation after a mid-append kill,
   corrupt-line rejection, and typed errors for records that parse but do
   not decode.
3. **Engine integration** — ``execute_plan(checkpoint=...)`` skips
   journaled jobs on resume (``journal_hits``), journals stream *before*
   a failure aborts the plan, and ``RetryPolicy`` re-dispatches the
   un-collected remainder after transient worker-side failures.
"""

import binascii
import json
import os
import pickle

import numpy as np
import pytest

from repro.core.config import AttackConfig
from repro.core.masks import FilterMask
from repro.core.regions import HalfImageRegion
from repro.core.results import AttackResult, ParetoSolution
from repro.detection.prediction import Prediction
from repro.defenses.jobs import DefenseJobResult, EnsembleDefenseJobResult
from repro.detectors.activation_cache import CacheStats
from repro.experiments.checkpoint import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointExistsError,
    CheckpointMismatchError,
    JOURNAL_VERSION,
    PlanCheckpoint,
    decode_outcome,
    decode_result,
    encode_outcome,
    encode_result,
)
from repro.experiments.engine import (
    JobExecutionError,
    RetryPolicy,
    SerialBackend,
    WorkerCrashError,
    execute_plan,
)
from repro.experiments.jobs import ExperimentPlan, JobOutcome, plan_fingerprint
from repro.experiments.persistent import PersistentPoolBackend
from repro.experiments.transfer import TransferColumn
from repro.nsga.algorithm import NSGAConfig


def _toy_config() -> AttackConfig:
    return AttackConfig(
        nsga=NSGAConfig(num_iterations=2, population_size=4, seed=7),
        region=HalfImageRegion("right"),
    )


# --- toy jobs (module level: they cross the process boundary) ---------------


class _CountingJob:
    """Returns value² and, when given a trace directory, logs the execution
    so tests can prove a journaled job was *not* re-executed on resume."""

    def __init__(self, job_id: int, value: int, trace_dir: str | None = None):
        self.job_id = job_id
        self.value = value
        self.trace_dir = trace_dir

    def execute(self, context):
        if self.trace_dir is not None:
            with open(
                os.path.join(self.trace_dir, f"ran-{self.job_id}-{os.getpid()}"),
                "w",
            ):
                pass
        return JobOutcome(job_id=self.job_id, result=self.value * self.value)


class _FailOnceJob:
    """Raises on first dispatch (sentinel missing), succeeds afterwards."""

    def __init__(self, job_id: int, sentinel: str):
        self.job_id = job_id
        self.sentinel = sentinel

    def execute(self, context):
        if not os.path.exists(self.sentinel):
            with open(self.sentinel, "w"):
                pass
            raise ValueError("transient failure")
        return JobOutcome(job_id=self.job_id, result="recovered")


class _AlwaysFailJob:
    def __init__(self, job_id: int):
        self.job_id = job_id

    def execute(self, context):
        raise ValueError("permanent failure")


def _counting_plan(n: int = 4, name: str = "counting", trace_dir=None):
    return ExperimentPlan(
        jobs=[_CountingJob(i, i, trace_dir) for i in range(n)],
        attack_config=_toy_config(),
        name=name,
    )


# --- payload codecs ----------------------------------------------------------


class TestOutcomeCodecs:
    @pytest.fixture(scope="class")
    def attack_result(self, request):
        from repro.core.attack import ButterflyAttack

        detector = request.getfixturevalue("yolo_detector")
        dataset = request.getfixturevalue("small_dataset")
        config = AttackConfig(
            nsga=NSGAConfig(num_iterations=2, population_size=5, seed=0),
            region=HalfImageRegion("right"),
        )
        return ButterflyAttack(detector, config).attack(dataset[0].image)

    def _round_trip(self, outcome: JobOutcome) -> JobOutcome:
        encoded = encode_outcome(outcome)
        decoded = decode_outcome(json.loads(json.dumps(encoded)))
        assert decoded.restored is True
        assert decoded.job_id == outcome.job_id
        assert decoded.worker_id == outcome.worker_id
        assert decoded.duration_seconds == outcome.duration_seconds
        return decoded

    def test_attack_result_round_trip_is_bit_exact(self, attack_result):
        outcome = JobOutcome(
            job_id=3,
            result=attack_result,
            cache_stats=CacheStats(hits=2, misses=1, delta_hits=4, delta_bytes=9),
            worker_id="worker-1",
            duration_seconds=1.25,
        )
        decoded = self._round_trip(outcome)
        assert decoded.result.fingerprint() == attack_result.fingerprint()
        assert decoded.result.image.tobytes() == attack_result.image.tobytes()
        assert decoded.cache_stats == outcome.cache_stats

    def test_transfer_column_round_trip_is_bit_exact(self, rng):
        column = TransferColumn(
            target_index=2,
            target_name="detr-seed3",
            degradations=rng.uniform(0, 1, size=7),
        )
        decoded = self._round_trip(JobOutcome(job_id=2, result=column))
        assert decoded.result.target_index == 2
        assert decoded.result.target_name == "detr-seed3"
        assert decoded.result.degradations.tobytes() == column.degradations.tobytes()

    def test_defense_result_round_trip_is_bit_exact(self, attack_result):
        payload = DefenseJobResult(
            role="defended",
            attack_result=attack_result,
            best_degradation=0.375,
            clean_recall=0.875,
        )
        decoded = self._round_trip(JobOutcome(job_id=1, result=payload))
        assert decoded.result.role == "defended"
        assert decoded.result.best_degradation == 0.375
        assert decoded.result.clean_recall == 0.875
        assert decoded.result.attack_result.fingerprint() == attack_result.fingerprint()

    def test_ensemble_result_round_trip_is_bit_exact(self, attack_result):
        payload = EnsembleDefenseJobResult(
            attack_result=attack_result,
            member_degradations=[0.5, 0.25],
            fused_degradation=0.75,
        )
        decoded = self._round_trip(JobOutcome(job_id=0, result=payload))
        assert decoded.result.member_degradations == [0.5, 0.25]
        assert decoded.result.fused_degradation == 0.75
        assert decoded.result.attack_result.fingerprint() == attack_result.fingerprint()

    @pytest.mark.parametrize("payload", [None, True, 42, 2.5, "survived"])
    def test_json_scalars_round_trip(self, payload):
        encoded = encode_result(payload)
        assert encoded["type"] == "json"
        assert decode_result(json.loads(json.dumps(encoded))) == payload

    def test_unregistered_type_rides_pickle_fallback(self):
        payload = {"arbitrary": (1, 2, 3)}
        encoded = encode_result(payload)
        assert encoded["type"] == "pickle"
        assert decode_result(json.loads(json.dumps(encoded))) == payload

    def test_unknown_tag_is_corrupt(self):
        with pytest.raises(CheckpointCorruptError):
            decode_result({"type": "no-such-codec", "payload": {}})

    def test_missing_cache_stats_stay_none(self):
        decoded = decode_outcome(encode_outcome(JobOutcome(job_id=0, result=1)))
        assert decoded.cache_stats is None

    def test_every_cache_counter_round_trips(self):
        """Frame counters are journaled with the rest; a record written
        without them (the same format version) still decodes, as zeros."""
        stats = CacheStats(
            hits=1, misses=2, evictions=3, invalidations=4, delta_hits=5,
            delta_misses=6, delta_bytes=7, frame_hits=8, frame_misses=9,
        )
        outcome = JobOutcome(job_id=0, result=1, cache_stats=stats)
        assert self._round_trip(outcome).cache_stats == stats
        record = encode_outcome(outcome)
        for name in ("frame_hits", "frame_misses"):
            del record["cache_stats"][name]
        assert decode_outcome(record).cache_stats == CacheStats(
            hits=1, misses=2, evictions=3, invalidations=4, delta_hits=5,
            delta_misses=6, delta_bytes=7,
        )


# --- journal robustness ------------------------------------------------------


class TestJournalRobustness:
    def test_record_before_load_is_an_error(self, tmp_path):
        checkpoint = PlanCheckpoint(tmp_path)
        with pytest.raises(CheckpointError, match="load"):
            checkpoint.record(JobOutcome(job_id=0, result=1))

    def test_existing_journal_without_resume_is_an_error(self, tmp_path):
        plan = _counting_plan()
        execute_plan(plan, SerialBackend(), checkpoint=PlanCheckpoint(tmp_path))
        with pytest.raises(CheckpointExistsError):
            PlanCheckpoint(tmp_path, resume=False).load(plan)

    def test_journal_of_a_different_plan_is_rejected(self, tmp_path):
        execute_plan(
            _counting_plan(4), SerialBackend(), checkpoint=PlanCheckpoint(tmp_path)
        )
        different = _counting_plan(5)  # same name, different job list
        with pytest.raises(CheckpointMismatchError, match="num_jobs"):
            PlanCheckpoint(tmp_path).load(different)

    def test_headerless_file_is_rejected(self, tmp_path):
        plan = _counting_plan()
        path = PlanCheckpoint(tmp_path).journal_path(plan)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{"kind":"outcome"}\n')
        with pytest.raises(CheckpointCorruptError, match="header"):
            PlanCheckpoint(tmp_path).load(plan)

    def test_torn_tail_is_discarded_and_truncated(self, tmp_path):
        plan = _counting_plan()
        checkpoint = PlanCheckpoint(tmp_path)
        execute_plan(plan, SerialBackend(), checkpoint=checkpoint)
        checkpoint.close()
        path = checkpoint.journal_path(plan)
        intact = path.stat().st_size
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"kind":"outcome","job_id":99,"resu')  # no newline
        with pytest.warns(RuntimeWarning, match="torn record"):
            restored = PlanCheckpoint(tmp_path).load(plan)
        assert sorted(restored) == [0, 1, 2, 3]  # torn record contributed nothing
        assert path.stat().st_size == intact  # file back on a line boundary

    def test_corrupt_middle_line_is_an_error(self, tmp_path):
        plan = _counting_plan()
        checkpoint = PlanCheckpoint(tmp_path)
        execute_plan(plan, SerialBackend(), checkpoint=checkpoint)
        checkpoint.close()
        path = checkpoint.journal_path(plan)
        lines = path.read_text().splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]  # torn *inner* line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointCorruptError, match="non-final"):
            PlanCheckpoint(tmp_path).load(plan)

    def test_journal_of_another_format_version_is_rejected(self, tmp_path):
        plan = _counting_plan()
        checkpoint = PlanCheckpoint(tmp_path)
        execute_plan(plan, SerialBackend(), checkpoint=checkpoint)
        checkpoint.close()
        path = checkpoint.journal_path(plan)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["version"] == JOURNAL_VERSION == 2
        header["version"] = 99
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(CheckpointMismatchError, match="version 99.*version 2"):
            PlanCheckpoint(tmp_path).load(plan)

    @staticmethod
    def _attack_journal(tmp_path):
        """A journal holding one attack-result record (job 1) among others."""
        mask = np.zeros((8, 12, 3), dtype=np.int16)
        mask[2:6, 5:11] = np.arange(72, dtype=np.int16).reshape(4, 6, 3) - 30
        result = AttackResult(
            image=np.full((8, 12, 3), 17.0),
            clean_prediction=Prediction.empty(),
            solutions=[
                ParetoSolution(
                    mask=FilterMask(mask), intensity=0.5, degradation=0.75, distance=2.0
                )
            ],
            detector_name="single_stage-seed1",
        )
        plan = _counting_plan(3)
        checkpoint = PlanCheckpoint(tmp_path)
        checkpoint.load(plan)
        checkpoint.record(JobOutcome(job_id=0, result=0))
        checkpoint.record(JobOutcome(job_id=1, result=result))
        checkpoint.record(JobOutcome(job_id=2, result=4))
        checkpoint.close()
        path = checkpoint.journal_path(plan)
        assert PlanCheckpoint(tmp_path).load(plan)[1].result.fingerprint() == (
            result.fingerprint()
        )
        return plan, path

    @pytest.mark.parametrize(
        "corrupt, error",
        [
            (lambda mask: mask.update(data=mask["data"][:101]), binascii.Error),
            (lambda mask: mask.update(shape=[8, 12, 4]), ValueError),
            (lambda mask: mask.pop("dtype"), KeyError),
        ],
        ids=["truncated-base64", "shape-mismatch", "missing-dtype"],
    )
    def test_undecodable_record_is_corrupt(self, tmp_path, corrupt, error):
        plan, path = self._attack_journal(tmp_path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])
        mask = record["result"]["payload"]["masks"][0]
        assert len(mask["data"]) > 101
        corrupt(mask)
        lines[2] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        offset = sum(len(line) + 1 for line in lines[:2])
        with pytest.raises(CheckpointCorruptError) as raised:
            PlanCheckpoint(tmp_path).load(plan)
        message = str(raised.value)
        assert str(path) in message
        assert f"at byte {offset} " in message
        assert "job_id 1" in message
        assert type(raised.value.__cause__) is error

    def test_fingerprint_tracks_job_identity(self):
        base = _counting_plan(3)
        assert plan_fingerprint(base) == plan_fingerprint(_counting_plan(3))
        renamed = _counting_plan(3, name="other")
        assert plan_fingerprint(base)["name"] != plan_fingerprint(renamed)["name"]
        retyped = ExperimentPlan(
            jobs=[_CountingJob(0, 0), _CountingJob(1, 1), _AlwaysFailJob(2)],
            attack_config=_toy_config(),
            name="counting",
        )
        assert (
            plan_fingerprint(base)["jobs_digest"]
            != plan_fingerprint(retyped)["jobs_digest"]
        )


# --- engine integration ------------------------------------------------------


class TestResumeSemantics:
    def test_resume_skips_journaled_jobs(self, tmp_path):
        trace = tmp_path / "trace"
        trace.mkdir()
        plan = _counting_plan(trace_dir=str(trace))
        first = execute_plan(
            plan, SerialBackend(), checkpoint=PlanCheckpoint(tmp_path)
        )
        assert first.journal_hits == 0
        assert len(list(trace.iterdir())) == 4
        resumed = execute_plan(
            plan, SerialBackend(), checkpoint=PlanCheckpoint(tmp_path)
        )
        assert resumed.journal_hits == 4
        assert len(list(trace.iterdir())) == 4  # nothing re-executed
        assert [o.result for o in resumed.outcomes] == [0, 1, 4, 9]
        assert all(o.restored for o in resumed.outcomes)

    def test_interrupted_serial_plan_resumes_from_partial_journal(self, tmp_path):
        trace = tmp_path / "trace"
        trace.mkdir()
        sentinel = str(tmp_path / "failed-once")
        plan = ExperimentPlan(
            jobs=[
                _CountingJob(0, 2, str(trace)),
                _CountingJob(1, 3, str(trace)),
                _FailOnceJob(2, sentinel),
                _CountingJob(3, 4, str(trace)),
            ],
            attack_config=_toy_config(),
            name="interrupted",
        )
        checkpoint = PlanCheckpoint(tmp_path)
        # Serial surfaces the raw job exception; jobs 0-1 are already
        # journaled because outcomes stream to the journal as they finish.
        with pytest.raises(ValueError, match="transient failure"):
            execute_plan(plan, SerialBackend(), checkpoint=checkpoint)
        checkpoint.close()
        resumed = execute_plan(
            plan, SerialBackend(), checkpoint=PlanCheckpoint(tmp_path)
        )
        assert resumed.journal_hits == 2
        assert [o.result for o in resumed.outcomes] == [4, 9, "recovered", 16]
        assert [o.restored for o in resumed.outcomes] == [True, True, False, False]
        # Jobs 0-1 ran exactly once across both invocations.
        assert len([p for p in trace.iterdir() if p.name.startswith("ran-0")]) == 1
        assert len([p for p in trace.iterdir() if p.name.startswith("ran-1")]) == 1

    def test_summary_carries_fault_tolerance_counters(self, tmp_path):
        plan = _counting_plan()
        execute_plan(plan, SerialBackend(), checkpoint=PlanCheckpoint(tmp_path))
        resumed = execute_plan(
            plan, SerialBackend(), checkpoint=PlanCheckpoint(tmp_path)
        )
        summary = resumed.summary()
        assert summary["journal_hits"] == 4
        assert summary["retries"] == 0


class TestRetryPolicy:
    def test_should_retry_classification(self):
        policy = RetryPolicy()
        assert policy.should_retry(JobExecutionError(0, "w", "boom"))
        assert policy.should_retry(WorkerCrashError(0, 3))
        assert not policy.should_retry(ValueError("boom"))
        # A job the runtime cannot pickle fails the same way on every try.
        assert not policy.should_retry(pickle.PicklingError("job 0"))
        assert not RetryPolicy(retry_errors=False).should_retry(
            JobExecutionError(0, "w", "boom")
        )
        assert not RetryPolicy(retry_crashes=False).should_retry(
            WorkerCrashError(0, 3)
        )

    def test_transient_error_is_retried_on_the_worker_pool(self, tmp_path):
        sentinel = str(tmp_path / "failed-once")
        plan = ExperimentPlan(
            jobs=[
                _CountingJob(0, 1),
                _FailOnceJob(1, sentinel),
                _CountingJob(2, 2),
            ],
            attack_config=_toy_config(),
            name="transient",
        )
        backend = PersistentPoolBackend(n_jobs=2)
        try:
            report = execute_plan(
                plan,
                backend,
                checkpoint=PlanCheckpoint(tmp_path),
                retry=RetryPolicy(max_retries=2),
            )
        finally:
            backend.close()
        assert report.retries >= 1
        assert [o.result for o in report.outcomes] == [1, "recovered", 4]

    def test_poison_job_exhausts_the_attempt_budget(self):
        plan = ExperimentPlan(
            jobs=[_CountingJob(0, 1), _AlwaysFailJob(1)],
            attack_config=_toy_config(),
            name="poison-retry",
        )
        backend = PersistentPoolBackend(n_jobs=2)
        try:
            with pytest.raises(JobExecutionError) as err:
                execute_plan(plan, backend, retry=RetryPolicy(max_retries=1))
        finally:
            backend.close()
        assert err.value.job_id == 1

    def test_no_retry_without_a_policy(self, tmp_path):
        sentinel = str(tmp_path / "failed-once")
        plan = ExperimentPlan(
            jobs=[_FailOnceJob(0, sentinel)],
            attack_config=_toy_config(),
            name="fail-fast",
        )
        backend = PersistentPoolBackend(n_jobs=1)
        try:
            with pytest.raises(JobExecutionError):
                execute_plan(plan, backend)
        finally:
            backend.close()
