"""Serialisation of masks, predictions, attack results and sweep reports.

File formats:

* filter masks — ``.npz`` with a single ``values`` array,
* predictions — JSON (list of box dictionaries),
* attack results — a directory containing ``meta.json`` (objectives,
  detector name, clean prediction, per-solution metadata) and
  ``arrays.npz`` (the image and every solution's mask),
* transferability reports — a directory with ``meta.json`` (model names,
  intensities, execution provenance) and ``arrays.npz`` (the transfer
  matrix and the per-source best masks),
* defense evaluations — a directory with ``meta.json`` (degradations,
  recalls, execution provenance) and one attack-result subdirectory per
  attacked variant.

Sweep reports persist the shared execution-provenance summary produced by
:meth:`repro.experiments.engine.ExecutionReport.summary`, so a saved report
records the backend, worker count and cache traffic that produced it.

Masks are stored in their own dtype: an attack's masks are ``int16`` (see
:class:`~repro.core.masks.FilterMask`), so the archives hold ``int16``
arrays, and older float64 archives load as float64 with the same
:meth:`~repro.core.results.AttackResult.fingerprint`.

Besides the directory formats, this module exposes *pure JSON* round-trips
(:func:`array_to_jsonable` / :func:`mask_to_jsonable` /
:func:`attack_result_to_jsonable` and their inverses): one self-contained
dict per object, bit-exact for every dtype.  An array travels whole, as
base64 raw bytes with dtype and shape; a mask travels as its byte-support
window — the box of pixels whose bytes are nonzero, with the dtype, the
full shape and the window's raw bytes in base64 — since everything outside
that box is zero bytes.  The checkpoint journal
(:mod:`repro.experiments.checkpoint`) appends these dicts as JSONL records
— one line per completed job — and reloads them on resume.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.masks import FilterMask
from repro.core.results import AttackResult, ParetoSolution
from repro.defenses.evaluation import DefenseEvaluation, EnsembleDefenseEvaluation
from repro.detection.boxes import BoundingBox
from repro.detection.prediction import Prediction
from repro.experiments.transfer import TransferabilityResult
from repro.nn.incremental import byte_support_bbox


def save_mask(mask: FilterMask | np.ndarray, path: str | Path) -> Path:
    """Save a filter mask to an ``.npz`` file (the suffix is added if missing)."""
    values = mask.values if isinstance(mask, FilterMask) else np.asarray(mask)
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    np.savez_compressed(path, values=values)
    return path


def load_mask(path: str | Path) -> FilterMask:
    """Load a filter mask saved by :func:`save_mask`."""
    with np.load(path) as archive:
        return FilterMask(archive["values"])


def prediction_to_dict(prediction: Prediction) -> list[dict[str, Any]]:
    """Convert a prediction to a JSON-serialisable list of box dicts."""
    return [
        {
            "cl": int(box.cl),
            "x": float(box.x),
            "y": float(box.y),
            "l": float(box.l),
            "w": float(box.w),
            "score": float(box.score),
        }
        for box in prediction.boxes
    ]


def prediction_from_dict(data: list[dict[str, Any]]) -> Prediction:
    """Rebuild a prediction from :func:`prediction_to_dict` output."""
    return Prediction(
        [
            BoundingBox(
                cl=int(item["cl"]),
                x=float(item["x"]),
                y=float(item["y"]),
                l=float(item["l"]),
                w=float(item["w"]),
                score=float(item.get("score", 1.0)),
            )
            for item in data
        ]
    )


def array_to_jsonable(array: np.ndarray) -> dict[str, Any]:
    """Encode an array as a JSON-safe dict, bit-exactly.

    The raw buffer travels as base64 (JSON floats would survive a Python
    round-trip too, but raw bytes also preserve dtype, shape and byte
    order exactly, for any dtype).
    """
    array = np.ascontiguousarray(array)
    return {
        "dtype": array.dtype.str,
        "shape": list(array.shape),
        "data": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def array_from_jsonable(data: dict[str, Any]) -> np.ndarray:
    """Rebuild an array encoded by :func:`array_to_jsonable`."""
    raw = base64.b64decode(data["data"])
    array = np.frombuffer(raw, dtype=np.dtype(data["dtype"]))
    return array.reshape([int(size) for size in data["shape"]]).copy()


def mask_to_jsonable(values: np.ndarray) -> dict[str, Any]:
    """Encode a mask as a JSON-safe dict holding only its byte-support window.

    The window is :func:`~repro.nn.incremental.byte_support_bbox`: the box
    of pixels whose *bytes* are nonzero in some channel, so a float
    ``-0.0`` (and a NaN) stays inside it.  Every byte outside the box is
    zero, so dtype, full shape, box and the window's raw bytes give the mask
    back bit for bit, whatever its dtype.  A right-half ``int16`` mask stores
    half its pixels at two bytes each: an eighth of the float64 encoding.
    """
    values = np.asarray(values)
    box = byte_support_bbox(values)
    r0, r1, c0, c1 = box
    return {
        "dtype": values.dtype.str,
        "shape": list(values.shape),
        "box": list(box),
        "data": base64.b64encode(values[r0:r1, c0:c1].tobytes()).decode("ascii"),
    }


def mask_from_jsonable(data: dict[str, Any]) -> np.ndarray:
    """Rebuild a mask encoded by :func:`mask_to_jsonable`, bit for bit.

    Zero bytes fill the frame and the window's bytes are written back.
    Raises ``ValueError`` (``binascii.Error`` for bad base64) when the box
    does not fit the shape or the bytes do not fill the box, and
    ``KeyError`` for a missing field.
    """
    dtype = np.dtype(data["dtype"])
    shape = tuple(int(size) for size in data["shape"])
    r0, r1, c0, c1 = (int(edge) for edge in data["box"])
    raw = base64.b64decode(data["data"], validate=True)
    if len(shape) < 2 or not (
        0 <= r0 <= r1 <= shape[0] and 0 <= c0 <= c1 <= shape[1]
    ):
        raise ValueError(f"mask box {[r0, r1, c0, c1]} does not fit shape {shape}")
    values = np.zeros(shape, dtype=dtype)
    window = values[r0:r1, c0:c1]
    if len(raw) != window.nbytes:
        raise ValueError(
            f"mask window {window.shape} of {dtype} needs {window.nbytes} "
            f"bytes, the record holds {len(raw)}"
        )
    window[...] = np.frombuffer(raw, dtype=dtype).reshape(window.shape)
    return values


def save_prediction(prediction: Prediction, path: str | Path) -> Path:
    """Save a prediction as JSON."""
    path = Path(path)
    path.write_text(json.dumps(prediction_to_dict(prediction), indent=2))
    return path


def load_prediction(path: str | Path) -> Prediction:
    """Load a prediction saved by :func:`save_prediction`."""
    return prediction_from_dict(json.loads(Path(path).read_text()))


def _solution_meta(solution: ParetoSolution) -> dict[str, Any]:
    """The JSON-safe metadata of one solution (mask carried separately)."""
    return {
        "intensity": solution.intensity,
        "degradation": solution.degradation,
        "distance": solution.distance,
        "rank": solution.rank,
        "extras": solution.extras,
        "perturbed_prediction": (
            prediction_to_dict(solution.perturbed_prediction)
            if solution.perturbed_prediction is not None
            else None
        ),
    }


def _solution_from_meta(
    solution_meta: dict[str, Any], mask_values: np.ndarray
) -> ParetoSolution:
    """Rebuild one solution from :func:`_solution_meta` output + its mask."""
    perturbed = solution_meta.get("perturbed_prediction")
    return ParetoSolution(
        mask=FilterMask(mask_values),
        intensity=float(solution_meta["intensity"]),
        degradation=float(solution_meta["degradation"]),
        distance=float(solution_meta["distance"]),
        rank=int(solution_meta["rank"]),
        extras=dict(solution_meta.get("extras", {})),
        perturbed_prediction=(
            prediction_from_dict(perturbed) if perturbed is not None else None
        ),
    )


def _attack_result_meta(result: AttackResult) -> dict[str, Any]:
    """The shared JSON-safe metadata of an attack result (no arrays)."""
    return {
        "detector_name": result.detector_name,
        "num_evaluations": result.num_evaluations,
        "cache_hits": result.cache_hits,
        "architecture": result.architecture,
        "model_seed": result.model_seed,
        "scene_index": result.scene_index,
        "job_id": result.job_id,
        "clean_prediction": prediction_to_dict(result.clean_prediction),
        "solutions": [_solution_meta(solution) for solution in result.solutions],
    }


def _attack_result_from_meta(
    meta: dict[str, Any],
    image: np.ndarray,
    masks: "list[np.ndarray]",
) -> AttackResult:
    """Rebuild an attack result from shared metadata + its arrays."""

    def _optional_int(key: str) -> int | None:
        value = meta.get(key)
        return None if value is None else int(value)

    return AttackResult(
        image=image,
        clean_prediction=prediction_from_dict(meta["clean_prediction"]),
        solutions=[
            _solution_from_meta(solution_meta, mask_values)
            for solution_meta, mask_values in zip(meta["solutions"], masks)
        ],
        detector_name=meta.get("detector_name", ""),
        num_evaluations=int(meta.get("num_evaluations", 0)),
        cache_hits=int(meta.get("cache_hits", 0)),
        architecture=str(meta.get("architecture", "") or ""),
        model_seed=_optional_int("model_seed"),
        scene_index=_optional_int("scene_index"),
        job_id=_optional_int("job_id"),
    )


def attack_result_to_jsonable(result: AttackResult) -> dict[str, Any]:
    """Encode an attack result as one self-contained JSON-safe dict.

    Same provenance round-trip as :func:`save_attack_result` (history and
    transitions are dropped; everything :meth:`AttackResult.fingerprint`
    asserts survives bit-exactly, and each mask keeps its dtype), but
    arrays travel inline as base64 so the dict fits a single JSONL journal
    line: the image whole, each mask as its byte-support window
    (:func:`mask_to_jsonable`).
    """
    meta = _attack_result_meta(result)
    meta["image"] = array_to_jsonable(result.image)
    meta["masks"] = [
        mask_to_jsonable(solution.mask.values) for solution in result.solutions
    ]
    return meta


def attack_result_from_jsonable(data: dict[str, Any]) -> AttackResult:
    """Rebuild an attack result from :func:`attack_result_to_jsonable`."""
    return _attack_result_from_meta(
        data,
        image=array_from_jsonable(data["image"]),
        masks=[mask_from_jsonable(mask) for mask in data.get("masks", [])],
    )


def save_attack_result(result: AttackResult, directory: str | Path) -> Path:
    """Save an attack result (metadata + masks + image) to a directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    meta = _attack_result_meta(result)
    arrays: dict[str, np.ndarray] = {"image": result.image}
    for index, solution in enumerate(result.solutions):
        arrays[f"mask_{index}"] = solution.mask.values

    (directory / "meta.json").write_text(json.dumps(meta, indent=2))
    np.savez_compressed(directory / "arrays.npz", **arrays)
    return directory


def load_attack_result(directory: str | Path) -> AttackResult:
    """Load an attack result saved by :func:`save_attack_result`.

    Error transitions are not persisted (they can be recomputed from the
    stored predictions); history is not persisted either.
    """
    directory = Path(directory)
    meta = json.loads((directory / "meta.json").read_text())
    with np.load(directory / "arrays.npz") as arrays:
        image = arrays["image"]
        masks = [
            arrays[f"mask_{index}"] for index in range(len(meta["solutions"]))
        ]
        return _attack_result_from_meta(meta, image=image, masks=masks)


def save_transfer_result(result: TransferabilityResult, directory: str | Path) -> Path:
    """Save a transferability report (matrix + masks + provenance)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    meta: dict[str, Any] = {
        "report": "transferability",
        "model_names": list(result.model_names),
        "masks_intensity": [float(value) for value in result.masks_intensity],
        "experiment_seed": result.experiment_seed,
        "execution": result.execution,
    }
    arrays: dict[str, np.ndarray] = {"matrix": result.matrix}
    for index, mask in enumerate(result.best_masks):
        arrays[f"best_mask_{index}"] = np.asarray(mask)

    (directory / "meta.json").write_text(json.dumps(meta, indent=2))
    np.savez_compressed(directory / "arrays.npz", **arrays)
    return directory


def load_transfer_result(directory: str | Path) -> TransferabilityResult:
    """Load a transferability report saved by :func:`save_transfer_result`."""
    directory = Path(directory)
    meta = json.loads((directory / "meta.json").read_text())
    with np.load(directory / "arrays.npz") as arrays:
        matrix = arrays["matrix"]
        best_masks = []
        index = 0
        while f"best_mask_{index}" in arrays:
            best_masks.append(arrays[f"best_mask_{index}"])
            index += 1
    seed = meta.get("experiment_seed")
    return TransferabilityResult(
        model_names=[str(name) for name in meta["model_names"]],
        matrix=matrix,
        masks_intensity=[float(value) for value in meta.get("masks_intensity", [])],
        best_masks=best_masks,
        experiment_seed=None if seed is None else int(seed),
        execution=meta.get("execution"),
    )


def save_defense_evaluation(
    evaluation: DefenseEvaluation, directory: str | Path
) -> Path:
    """Save a defense evaluation: scalars + both attack-result subfolders."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    meta: dict[str, Any] = {
        "report": "defense-evaluation",
        "undefended_best_degradation": float(evaluation.undefended_best_degradation),
        "defended_best_degradation": float(evaluation.defended_best_degradation),
        "clean_recall_undefended": float(evaluation.clean_recall_undefended),
        "clean_recall_defended": float(evaluation.clean_recall_defended),
        "execution": evaluation.execution,
    }
    (directory / "meta.json").write_text(json.dumps(meta, indent=2))
    save_attack_result(evaluation.undefended_result, directory / "undefended")
    save_attack_result(evaluation.defended_result, directory / "defended")
    return directory


def load_defense_evaluation(directory: str | Path) -> DefenseEvaluation:
    """Load a defense evaluation saved by :func:`save_defense_evaluation`."""
    directory = Path(directory)
    meta = json.loads((directory / "meta.json").read_text())
    return DefenseEvaluation(
        undefended_result=load_attack_result(directory / "undefended"),
        defended_result=load_attack_result(directory / "defended"),
        undefended_best_degradation=float(meta["undefended_best_degradation"]),
        defended_best_degradation=float(meta["defended_best_degradation"]),
        clean_recall_undefended=float(meta["clean_recall_undefended"]),
        clean_recall_defended=float(meta["clean_recall_defended"]),
        execution=meta.get("execution"),
    )


def save_ensemble_defense_evaluation(
    evaluation: EnsembleDefenseEvaluation, directory: str | Path
) -> Path:
    """Save an ensemble-defense evaluation (fusion damage + attack result)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    meta: dict[str, Any] = {
        "report": "ensemble-defense-evaluation",
        "member_degradations": [
            float(value) for value in evaluation.member_degradations
        ],
        "fused_degradation": float(evaluation.fused_degradation),
        "execution": evaluation.execution,
    }
    (directory / "meta.json").write_text(json.dumps(meta, indent=2))
    save_attack_result(evaluation.attack_result, directory / "attack")
    return directory


def load_ensemble_defense_evaluation(
    directory: str | Path,
) -> EnsembleDefenseEvaluation:
    """Load a report saved by :func:`save_ensemble_defense_evaluation`."""
    directory = Path(directory)
    meta = json.loads((directory / "meta.json").read_text())
    return EnsembleDefenseEvaluation(
        attack_result=load_attack_result(directory / "attack"),
        member_degradations=[
            float(value) for value in meta.get("member_degradations", [])
        ],
        fused_degradation=float(meta["fused_degradation"]),
        execution=meta.get("execution"),
    )
