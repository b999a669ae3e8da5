"""A/B benchmark of the engine-based transfer and defense sweeps.

PR 5 rebuilt the transferability and defense evaluations as declarative
plans over the generic experiment engine.  This benchmark runs both sweeps

* on the in-process ``SerialBackend`` (the reference executor),
* on ``PersistentPoolBackend`` at each requested worker count (default 2,
  4), a fresh pool per run (its start-up is timed),
* and (transfer only) through the preserved pre-engine reference loop,

verifies that every run is **bit-identical** (parity is a hard gate on
every machine), writes ``BENCH_pr5.json`` and **fails** (exit 1) when a
gate is missed:

* parity: any backend or the reference loop producing different results
  fails immediately;
* engine vs reference: the serial engine transfer sweep must not be slower
  than the pre-engine loop (the batched cross-evaluation replaces one
  dense ``predict`` per matrix cell);
* ≥ 2 cores: the 2-worker pooled sweeps must not be slower than serial;
* ≥ 4 cores: the 4-worker pooled sweeps must reach 2x over serial.

Speed gates are recorded but skipped on machines with fewer cores than
workers (mirroring ``bench_persistent.py``); the JSON records ``cpu_count``
so CI results are interpretable.  Model training is hoisted out of the
timed region (the parent pre-builds the models once; ``fork`` workers
inherit them copy-on-write).

Usage::

    PYTHONPATH=src python benchmarks/bench_experiments.py \
        [--output BENCH_pr5.json] [--workers 2 4] [--models 3] \
        [--iterations 4] [--population 10]
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from benchmarks.conftest import BENCH_LENGTH, BENCH_WIDTH, bench_training_config
from repro.core.config import AttackConfig
from repro.core.regions import HalfImageRegion
from repro.data.dataset import generate_dataset
from repro.defenses.augmentation import NoiseAugmentationConfig
from repro.defenses.evaluation import evaluate_defense, evaluate_defense_reference
from repro.defenses.jobs import DefendedModelSpec
from repro.experiments.jobs import ModelSpec, build_cached
from repro.experiments.persistent import PersistentPoolBackend
from repro.experiments.transfer import (
    run_transferability_experiment,
    run_transferability_reference,
)
from repro.nsga.algorithm import NSGAConfig

#: Ratio tolerance for "must not be slower" gates — pool start-up, IPC and
#: timer noise cost a few percent on small CI sweeps.
EQUAL_SPEED_TOLERANCE = 0.95

#: The acceptance-criterion speedup for the 4-worker sweeps on >= 4 cores.
FOUR_WORKER_TARGET = 2.0


def _transfer_fingerprint(result) -> tuple:
    """Exact digest of a transferability report's asserted content."""
    return (
        tuple(result.model_names),
        result.matrix.tobytes(),
        tuple(result.masks_intensity),
        tuple(mask.tobytes() for mask in result.best_masks),
    )


def _defense_fingerprint(evaluation) -> tuple:
    """Exact digest of a defense evaluation's asserted content."""
    return (
        evaluation.undefended_result.fingerprint(),
        evaluation.defended_result.fingerprint(),
        evaluation.undefended_best_degradation,
        evaluation.defended_best_degradation,
        evaluation.clean_recall_undefended,
        evaluation.clean_recall_defended,
    )


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _timed(fn, repeats: int = 1):
    """Run ``fn`` ``repeats`` times; return (last result, best wall-clock).

    Best-of-N damps scheduler noise on small sweeps; every repeat computes
    the identical (deterministic) result, so returning the last is safe.
    """
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def _on_fresh_pool(sweep, workers: int, start_method):
    """Run ``sweep(backend)`` on a new persistent pool, then close the pool."""
    backend = PersistentPoolBackend(n_jobs=workers, start_method=start_method)
    try:
        return sweep(backend)
    finally:
        backend.close()


def run_benchmark(args) -> dict:
    training = bench_training_config()
    dataset = generate_dataset(
        num_images=1,
        seed=11,
        image_length=BENCH_LENGTH,
        image_width=BENCH_WIDTH,
        half="left",
    )
    sample = dataset[0]
    attack_config = AttackConfig(
        nsga=NSGAConfig(
            num_iterations=args.iterations,
            population_size=args.population,
            seed=0,
        ),
        region=HalfImageRegion("right"),
    )
    start_method = "fork" if _fork_available() else None

    transfer_specs = [
        ModelSpec("detr", seed, training=training)
        for seed in range(1, args.models + 1)
    ]
    undefended = ModelSpec("detr", 1, training=training)
    defended = DefendedModelSpec(
        base=undefended,
        augmentation=NoiseAugmentationConfig(augmented_copies=1),
        training=training,
    )

    # Hoist deterministic model training out of the timed region: the
    # parent builds every spec once and fork workers inherit the memo.
    build_start = time.perf_counter()
    for spec in (*transfer_specs, undefended, defended):
        build_cached(spec)
    build_seconds = time.perf_counter() - build_start

    sweeps: dict[str, dict] = {}

    # --- transfer sweep ----------------------------------------------------
    reference, reference_seconds = _timed(
        lambda: run_transferability_reference(
            [build_cached(spec) for spec in transfer_specs],
            sample.image,
            attack_config,
        ),
        repeats=args.repeats,
    )
    serial, serial_seconds = _timed(
        lambda: run_transferability_experiment(
            transfer_specs, sample.image, attack_config, release_models=False
        ),
        repeats=args.repeats,
    )
    transfer_runs = {
        "reference_loop": {
            "backend": "pre-engine loop",
            "n_jobs": 1,
            "wall_seconds": reference_seconds,
            "parity": True,
        },
        "serial": {
            "backend": "serial",
            "n_jobs": 1,
            "wall_seconds": serial_seconds,
            "speedup_vs_reference": (
                reference_seconds / serial_seconds if serial_seconds > 0 else float("inf")
            ),
            "parity": _transfer_fingerprint(serial) == _transfer_fingerprint(reference),
        },
    }
    for workers in args.workers:
        pooled, wall = _timed(
            lambda: _on_fresh_pool(
                lambda backend: run_transferability_experiment(
                    transfer_specs,
                    sample.image,
                    attack_config,
                    n_jobs=workers,
                    backend=backend,
                    release_models=False,
                ),
                workers,
                start_method,
            )
        )
        transfer_runs[f"persistent_{workers}"] = {
            "backend": "persistent",
            "n_jobs": workers,
            "wall_seconds": wall,
            "speedup_vs_serial": serial_seconds / wall if wall > 0 else float("inf"),
            "parity": _transfer_fingerprint(pooled) == _transfer_fingerprint(serial),
        }
    sweeps["transfer"] = transfer_runs

    # --- defense sweep -----------------------------------------------------
    defense_args = (sample.image, sample.ground_truth, attack_config)
    reference, reference_seconds = _timed(
        lambda: evaluate_defense_reference(
            build_cached(undefended), build_cached(defended), *defense_args
        ),
        repeats=args.repeats,
    )
    serial, serial_seconds = _timed(
        lambda: evaluate_defense(
            undefended, defended, *defense_args, release_models=False
        ),
        repeats=args.repeats,
    )
    defense_runs = {
        "reference_loop": {
            "backend": "pre-engine loop",
            "n_jobs": 1,
            "wall_seconds": reference_seconds,
            "parity": True,
        },
        "serial": {
            "backend": "serial",
            "n_jobs": 1,
            "wall_seconds": serial_seconds,
            "speedup_vs_reference": (
                reference_seconds / serial_seconds if serial_seconds > 0 else float("inf")
            ),
            "parity": _defense_fingerprint(serial) == _defense_fingerprint(reference),
        },
    }
    for workers in args.workers:
        pooled, wall = _timed(
            lambda: _on_fresh_pool(
                lambda backend: evaluate_defense(
                    undefended,
                    defended,
                    *defense_args,
                    n_jobs=workers,
                    backend=backend,
                    release_models=False,
                ),
                workers,
                start_method,
            )
        )
        defense_runs[f"persistent_{workers}"] = {
            "backend": "persistent",
            "n_jobs": workers,
            "wall_seconds": wall,
            "speedup_vs_serial": serial_seconds / wall if wall > 0 else float("inf"),
            "parity": _defense_fingerprint(pooled) == _defense_fingerprint(serial),
        }
    sweeps["defense"] = defense_runs

    return {
        "benchmark": "engine-based transfer/defense sweeps vs reference loops",
        "image_shape": [BENCH_LENGTH, BENCH_WIDTH, 3],
        "transfer_models": args.models,
        "nsga": {"iterations": args.iterations, "population": args.population},
        "cpu_count": os.cpu_count(),
        "start_method": start_method or multiprocessing.get_start_method(),
        "fork_available": _fork_available(),
        "model_build_seconds": build_seconds,
        "sweeps": sweeps,
    }


def check_gates(report: dict) -> tuple[list[str], list[str]]:
    """Returns (failures, skipped) gate lists."""
    failures: list[str] = []
    skipped: list[str] = []
    cores = report["cpu_count"] or 1

    for sweep_name, runs in report["sweeps"].items():
        for name, run in runs.items():
            if not run["parity"]:
                failures.append(
                    f"{sweep_name}/{name}: results differ from the reference "
                    f"(parity gate)"
                )

        serial = runs["serial"]
        if serial["parity"] and serial.get("speedup_vs_reference") is not None:
            if serial["speedup_vs_reference"] < EQUAL_SPEED_TOLERANCE:
                failures.append(
                    f"{sweep_name}/serial: engine sweep slower than the "
                    f"pre-engine loop "
                    f"({serial['speedup_vs_reference']:.2f}x < "
                    f"{EQUAL_SPEED_TOLERANCE}x)"
                )

        serial_seconds = serial["wall_seconds"]
        for name, run in runs.items():
            if run["backend"] != "persistent" or not run["parity"]:
                continue
            workers = run["n_jobs"]
            speedup = run["speedup_vs_serial"]
            if not report["fork_available"]:
                skipped.append(
                    f"{sweep_name}/{name}: speed gate skipped — requires the "
                    f"fork start method (platform offers "
                    f"{report['start_method']})"
                )
                continue
            if cores < 2 or cores < workers:
                skipped.append(
                    f"{sweep_name}/{name}: speed gate skipped — {workers} "
                    f"workers need >= {workers} cores, machine has {cores}"
                )
                continue
            if speedup < EQUAL_SPEED_TOLERANCE:
                failures.append(
                    f"{sweep_name}/{name}: pooled sweep slower than serial "
                    f"({run['wall_seconds']:.2f}s vs {serial_seconds:.2f}s, "
                    f"speedup {speedup:.2f}x < {EQUAL_SPEED_TOLERANCE}x)"
                )
            if workers >= 4 and speedup < FOUR_WORKER_TARGET:
                failures.append(
                    f"{sweep_name}/{name}: {workers}-worker speedup "
                    f"{speedup:.2f}x below the {FOUR_WORKER_TARGET}x target"
                )
    return failures, skipped


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_pr5.json")
    parser.add_argument("--workers", type=int, nargs="+", default=[2, 4])
    parser.add_argument("--models", type=int, default=3,
                        help="seed-varied models in the transfer sweep")
    parser.add_argument("--iterations", type=int, default=4)
    parser.add_argument("--population", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N timing for the serial/reference runs")
    args = parser.parse_args(argv)

    report = run_benchmark(args)
    failures, skipped = check_gates(report)
    report["gates_passed"] = not failures
    if failures:
        report["gate_failures"] = failures
    if skipped:
        report["gates_skipped"] = skipped

    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    if failures:
        print("\n".join(["GATE FAILURES:"] + failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
