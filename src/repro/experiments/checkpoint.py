"""Append-only checkpoint journals making plan execution restartable.

A :class:`PlanCheckpoint` binds a plan to one JSONL journal file under a
plan directory (one file per plan name, so multi-stage sweeps journal each
stage separately).  The first line is a header carrying the plan's
fingerprint (:func:`~repro.experiments.jobs.plan_fingerprint`); every
following line is one completed :class:`~repro.experiments.jobs.JobOutcome`,
appended and flushed the moment the engine receives it.  On resume,
:meth:`PlanCheckpoint.load` validates the header against the plan and
returns the journaled outcomes so
:func:`~repro.experiments.engine.execute_plan` skips those jobs.

Robustness properties:

* **Bit-exact payloads** — outcome results ride the typed JSON round-trips
  of :mod:`repro.io.serialization` (arrays as base64 raw bytes; each
  attack mask as its byte-support window in its own dtype, ``int16`` for
  an attack's masks), so a resumed sweep's report is bit-identical to an
  uninterrupted run — the same fingerprint gates the backend parity
  suites enforce — and every mask comes back in the dtype it was
  journaled in.  Result types without a registered codec fall back to
  pickle-in-base64.
* **Torn-write tolerance** — a process killed mid-append leaves a partial
  final line; :meth:`load` discards it (and truncates the file so later
  appends start on a clean line boundary).  The journaled prefix is always
  a valid resume point because records are only written for *completed*
  jobs.
* **Mismatch rejection** — resuming a journal written for a different plan
  (name, job count, seed or job-id/type sequence) raises
  :class:`CheckpointMismatchError` instead of silently splicing foreign
  outcomes into the report; an existing journal with ``resume=False``
  raises :class:`CheckpointExistsError` instead of silently skipping work.
* **Version rule** — the header carries :data:`JOURNAL_VERSION`, bumped
  whenever a record of the old shape would no longer decode as it did; a
  journal of any other version raises :class:`CheckpointMismatchError`
  naming both versions (records are not converted across versions).  A
  record's ``cache_stats`` carries every :class:`CacheStats` counter; the
  frame counters joined it without a bump, because a version-2 record
  written without them decodes exactly as before (a missing counter reads
  as 0).
* **Corruption is typed** — every outcome record is decoded while the
  journal is read; a record that parses as JSON but does not decode (bad
  base64, a mask shape its bytes do not fill, a missing field) raises
  :class:`CheckpointCorruptError` naming the journal, the record's byte
  offset and its ``job_id``.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import os
import pickle
import warnings
from pathlib import Path
from typing import Any

from repro.core.results import AttackResult
from repro.defenses.jobs import DefenseJobResult, EnsembleDefenseJobResult
from repro.detectors.activation_cache import CacheStats
from repro.experiments.jobs import ExperimentPlan, JobOutcome, plan_fingerprint
from repro.experiments.transfer import TransferColumn
from repro.io.serialization import (
    array_from_jsonable,
    array_to_jsonable,
    attack_result_from_jsonable,
    attack_result_to_jsonable,
)

#: Journal format version stamped into every header line; resuming
#: requires an equal version.  2: attack masks are byte-support windows in
#: their own dtype (1 stored them whole, as float64).
JOURNAL_VERSION = 2

#: Header fields compared between a journal and the plan resuming from it.
_FINGERPRINT_KEYS = ("name", "num_jobs", "experiment_seed", "jobs_digest")


class CheckpointError(RuntimeError):
    """Base class for checkpoint-journal failures."""


class CheckpointMismatchError(CheckpointError):
    """The journal on disk was written for a different plan."""


class CheckpointExistsError(CheckpointError):
    """A journal exists but the checkpoint was opened with ``resume=False``."""


class CheckpointCorruptError(CheckpointError):
    """A non-final journal line failed to parse (not a torn tail), or a
    parsed outcome record failed to decode."""


# --- result payload codecs ---------------------------------------------------


def _transfer_column_to_jsonable(column: TransferColumn) -> dict[str, Any]:
    return {
        "target_index": int(column.target_index),
        "target_name": column.target_name,
        "degradations": array_to_jsonable(column.degradations),
    }


def _transfer_column_from_jsonable(data: dict[str, Any]) -> TransferColumn:
    return TransferColumn(
        target_index=int(data["target_index"]),
        target_name=str(data["target_name"]),
        degradations=array_from_jsonable(data["degradations"]),
    )


def _defense_result_to_jsonable(result: DefenseJobResult) -> dict[str, Any]:
    return {
        "role": result.role,
        "attack_result": attack_result_to_jsonable(result.attack_result),
        "best_degradation": float(result.best_degradation),
        "clean_recall": float(result.clean_recall),
    }


def _defense_result_from_jsonable(data: dict[str, Any]) -> DefenseJobResult:
    return DefenseJobResult(
        role=str(data["role"]),
        attack_result=attack_result_from_jsonable(data["attack_result"]),
        best_degradation=float(data["best_degradation"]),
        clean_recall=float(data["clean_recall"]),
    )


def _ensemble_result_to_jsonable(
    result: EnsembleDefenseJobResult,
) -> dict[str, Any]:
    return {
        "attack_result": attack_result_to_jsonable(result.attack_result),
        "member_degradations": [
            float(value) for value in result.member_degradations
        ],
        "fused_degradation": float(result.fused_degradation),
    }


def _ensemble_result_from_jsonable(
    data: dict[str, Any],
) -> EnsembleDefenseJobResult:
    return EnsembleDefenseJobResult(
        attack_result=attack_result_from_jsonable(data["attack_result"]),
        member_degradations=[
            float(value) for value in data.get("member_degradations", [])
        ],
        fused_degradation=float(data["fused_degradation"]),
    )


#: type tag -> (payload class, encoder, decoder).  Every job-result type the
#: repo's sweeps produce has a typed, bit-exact codec; anything else rides
#: the pickle fallback below.
_RESULT_CODECS: dict[str, tuple] = {
    "attack-result": (
        AttackResult,
        attack_result_to_jsonable,
        attack_result_from_jsonable,
    ),
    "transfer-column": (
        TransferColumn,
        _transfer_column_to_jsonable,
        _transfer_column_from_jsonable,
    ),
    "defense-job-result": (
        DefenseJobResult,
        _defense_result_to_jsonable,
        _defense_result_from_jsonable,
    ),
    "ensemble-defense-job-result": (
        EnsembleDefenseJobResult,
        _ensemble_result_to_jsonable,
        _ensemble_result_from_jsonable,
    ),
}


def encode_result(result: object) -> dict[str, Any]:
    """Encode one job-result payload as a tagged JSON-safe dict."""
    for tag, (cls, encoder, _) in _RESULT_CODECS.items():
        if type(result) is cls:
            return {"type": tag, "payload": encoder(result)}
    if result is None or isinstance(result, (bool, int, float, str)):
        return {"type": "json", "payload": result}
    return {
        "type": "pickle",
        "payload": base64.b64encode(
            pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        ).decode("ascii"),
    }


def decode_result(data: dict[str, Any]) -> object:
    """Rebuild a job-result payload encoded by :func:`encode_result`."""
    tag = data["type"]
    if tag == "json":
        return data["payload"]
    if tag == "pickle":
        return pickle.loads(base64.b64decode(data["payload"]))
    codec = _RESULT_CODECS.get(tag)
    if codec is None:
        raise CheckpointCorruptError(
            f"journal carries a result of unknown type {tag!r}"
        )
    return codec[2](data["payload"])


def encode_outcome(outcome: JobOutcome) -> dict[str, Any]:
    """Encode one completed job outcome as a JSONL journal record."""
    return {
        "kind": "outcome",
        "job_id": outcome.job_id,
        "worker_id": outcome.worker_id,
        "duration_seconds": outcome.duration_seconds,
        "cache_stats": (
            None
            if outcome.cache_stats is None
            else dataclasses.asdict(outcome.cache_stats)
        ),
        "result": encode_result(outcome.result),
    }


def decode_outcome(data: dict[str, Any]) -> JobOutcome:
    """Rebuild a journal record as a :class:`JobOutcome` (``restored=True``)."""
    stats = data.get("cache_stats")
    return JobOutcome(
        job_id=data["job_id"],
        result=decode_result(data["result"]),
        cache_stats=None if stats is None else CacheStats.from_dict(stats),
        worker_id=str(data.get("worker_id", "journal")),
        duration_seconds=float(data.get("duration_seconds", 0.0)),
        restored=True,
    )


# --- the journal -------------------------------------------------------------


class PlanCheckpoint:
    """One plan directory's append-only outcome journals.

    Parameters
    ----------
    directory:
        Where journals live; created on first use.  One instance serves a
        whole multi-stage sweep — :meth:`load` binds it to the current
        stage's journal (``<directory>/<plan.name>.journal.jsonl``).
    resume:
        ``True`` loads an existing journal (validating its plan
        fingerprint); ``False`` treats an existing journal as an error so
        a forgotten ``--resume`` cannot silently skip work.
    fsync:
        Also ``fsync`` after every record.  The default (``False``) only
        flushes to the OS — that already survives process death (kill -9
        included); ``fsync=True`` additionally survives machine crashes at
        a per-record latency cost.
    """

    def __init__(
        self,
        directory: "str | Path",
        resume: bool = True,
        fsync: bool = False,
    ) -> None:
        self.directory = Path(directory)
        self.resume = bool(resume)
        self.fsync = bool(fsync)
        self._path: Path | None = None
        self._handle = None

    def journal_path(self, plan: ExperimentPlan) -> Path:
        """The journal file backing ``plan`` (one per plan name)."""
        return self.directory / f"{plan.name}.journal.jsonl"

    # -- engine interface ---------------------------------------------------
    def load(self, plan: ExperimentPlan) -> dict[object, JobOutcome]:
        """Bind to the plan's journal; return journaled outcomes by job id.

        Called by :func:`~repro.experiments.engine.execute_plan` before
        dispatch.  A missing journal starts fresh (header written); an
        existing one is validated and its outcome records returned.
        """
        self.close()
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.journal_path(plan)
        fingerprint = plan_fingerprint(plan)
        restored: dict[object, JobOutcome] = {}
        if path.exists():
            if not self.resume:
                raise CheckpointExistsError(
                    f"journal {path} already exists; pass resume=True "
                    "(--resume) to continue it, or point --checkpoint-dir "
                    "at a fresh directory"
                )
            restored = self._read(path, fingerprint)
            self._handle = path.open("a", encoding="utf-8")
        else:
            self._handle = path.open("w", encoding="utf-8")
            self._append({"kind": "plan", "version": JOURNAL_VERSION, **fingerprint})
        self._path = path
        return restored

    def record(self, outcome: JobOutcome) -> None:
        """Journal one completed outcome (append + flush)."""
        if self._handle is None:
            raise CheckpointError(
                "checkpoint is not bound to a plan; load() runs first"
            )
        self._append(encode_outcome(outcome))

    def close(self) -> None:
        """Release the journal handle (the file stays for future resumes)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._path = None

    def __enter__(self) -> "PlanCheckpoint":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- plumbing -----------------------------------------------------------
    def _append(self, data: dict[str, Any]) -> None:
        line = json.dumps(data, separators=(",", ":"))
        self._handle.write(line + "\n")
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())

    def _read(
        self, path: Path, fingerprint: dict[str, Any]
    ) -> dict[object, JobOutcome]:
        """Parse a journal, validate its header, drop a torn tail."""
        raw = path.read_bytes()
        records: list[tuple[int, dict[str, Any]]] = []  # (byte offset, record)
        valid_end = 0
        offset = 0
        for chunk in raw.split(b"\n"):
            end = offset + len(chunk) + 1  # + the newline
            if end > len(raw):
                # Tail beyond the last newline: a record torn by process
                # death mid-append (complete records always end in \n).
                break
            if chunk:
                try:
                    records.append((offset, json.loads(chunk.decode("utf-8"))))
                except (UnicodeDecodeError, json.JSONDecodeError) as error:
                    if end >= len(raw):
                        break  # torn final line that happens to end in \n
                    raise CheckpointCorruptError(
                        f"journal {path} has an unparseable non-final line "
                        f"at byte {offset}"
                    ) from error
            valid_end = end
            offset = end
        if valid_end < len(raw):
            warnings.warn(
                f"journal {path} ends in a torn record "
                f"({len(raw) - valid_end} bytes discarded); resuming from "
                "the last complete outcome",
                RuntimeWarning,
                stacklevel=3,
            )
            with path.open("rb+") as handle:
                handle.truncate(valid_end)
        if not records or records[0][1].get("kind") != "plan":
            raise CheckpointCorruptError(
                f"journal {path} has no plan header; not a checkpoint journal"
            )
        header = records[0][1]
        if header.get("version") != JOURNAL_VERSION:
            raise CheckpointMismatchError(
                f"journal {path} has format version {header.get('version')!r}, "
                f"expected version {JOURNAL_VERSION}; refusing to resume"
            )
        mismatched = [
            key
            for key in _FINGERPRINT_KEYS
            if header.get(key) != fingerprint[key]
        ]
        if mismatched:
            raise CheckpointMismatchError(
                f"journal {path} was written for a different plan "
                f"(mismatched: {', '.join(mismatched)}); refusing to resume"
            )
        restored: dict[object, JobOutcome] = {}
        for offset, record in records[1:]:
            if record.get("kind") != "outcome":
                continue
            try:
                outcome = decode_outcome(record)
            except (
                LookupError,  # a missing field
                TypeError,
                ValueError,  # bad base64, a shape its bytes do not fill
                EOFError,
                pickle.UnpicklingError,
                CheckpointError,  # an unknown result type
            ) as error:
                raise CheckpointCorruptError(
                    f"journal {path} has an outcome record at byte {offset} "
                    f"(job_id {record.get('job_id')!r}) that does not decode: "
                    f"{type(error).__name__}: {error}"
                ) from error
            restored[outcome.job_id] = outcome
        return restored
