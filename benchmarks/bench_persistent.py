"""A/B benchmark of the persistent worker runtime against serial execution.

The persistent runtime is the repo's one pooled backend: long-lived workers
pulling jobs from one plan-ordered queue, with the serial backend's
per-model cache lifecycle.  This benchmark measures the two claims that
matter and **fails** (exit 1) when a gate is missed:

* **Scenario A — one attack plan** (models × images sweep: yolo + detr ×
  2 models × 2 scenes of dataset seed 11, 6 generations × 12, experiment
  seed 2023): serial vs the persistent backend at each requested worker
  count.  Parity is a hard gate on every machine; on ≥ 2 cores the
  2-worker run must reach 0.95x serial, and on ≥ 4 cores the 4-worker run
  must reach 2x.
* **Scenario C — warm evaluation service**: the workload a pool that
  restarts per plan structurally loses: repeated rounds of transfer-evaluation plans (fresh
  masks each round) over the *same pinned models and scene*.  Serial
  rebuilds its activation store every round; persistent workers keep the
  bundles warm across rounds, so in the service's steady state **even one
  worker on one core** must reach serial speed
  (``EQUAL_SPEED_TOLERANCE``).  This is the 1-core acceptance gate, plus
  a mechanism gate: warm rounds must re-miss nothing.  Service startup
  (worker spawn + the first round's bundle builds) is hoisted out of the
  timed region for *both* sides, exactly like model training: a service
  pays it once, and timing it would compare process spawn against zero
  instead of steady-state throughput.  Its timed region is short (about
  0.7 s on a 2-core VM), and there its speed-up read 0.95–1.73x over seven
  runs of the same code, so one failing run of this gate says little;
  repeat it before reading a regression into it.

Model training is hoisted out of every timed region (the parent builds the
zoo once; fork workers inherit it copy-on-write), so timings compare sweep
execution, not detector construction.

Usage::

    PYTHONPATH=src python benchmarks/bench_persistent.py \
        [--output BENCH_pr6.json] [--workers 2 4] [--models 2] [--images 2] \
        [--iterations 6] [--population 12] [--rounds 4] [--eval-seeds 2]
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from benchmarks.conftest import BENCH_LENGTH, BENCH_WIDTH, bench_training_config
from repro.core.config import AttackConfig
from repro.core.regions import HalfImageRegion
from repro.data.dataset import generate_dataset
from repro.experiments.engine import SerialBackend, execute_plan
from repro.experiments.jobs import ModelSpec, build_attack_plan, build_cached
from repro.experiments.persistent import PersistentPoolBackend
from repro.experiments.transfer import (
    build_transfer_attack_plan,
    build_transfer_eval_plan,
)
from repro.nsga.algorithm import NSGAConfig

#: Ratio tolerance for every "must not be slower than serial" gate — a few
#: percent absorbs timer noise without hiding a real regression.  The same
#: tolerance guards the warm-eval scenario on ONE core: persistence must
#: pay for its own IPC out of the rebuild work it avoids.
EQUAL_SPEED_TOLERANCE = 0.95

#: The acceptance-criterion speedup for the 4-worker sweep on >= 4 cores.
FOUR_WORKER_TARGET = 2.0


def _fingerprint(report) -> list:
    """Exact per-result digest of an attack-plan execution."""
    fingerprints = []
    for outcome in report.outcomes:
        result = outcome.result
        fingerprints.append(
            (
                result.detector_name,
                result.num_evaluations,
                result.cache_hits,
                tuple(
                    (
                        solution.mask.values.tobytes(),
                        solution.intensity,
                        solution.degradation,
                        solution.distance,
                        solution.rank,
                    )
                    for solution in result.solutions
                ),
            )
        )
    return fingerprints


def _eval_fingerprint(report) -> list:
    """Exact digest of a transfer-evaluation execution (matrix columns)."""
    return [
        (outcome.result.target_name, outcome.result.degradations.tobytes())
        for outcome in report.outcomes
    ]


def _fork_available() -> bool:
    """Whether the ``fork`` start method exists on this platform.

    All timed comparisons pre-build the zoo in the parent and rely on fork
    workers inheriting it copy-on-write; under spawn/forkserver each worker
    retrains inside the timed region, so the speed gates would measure
    training, not sweep execution.
    """
    return "fork" in multiprocessing.get_all_start_methods()


def _attack_config(args) -> AttackConfig:
    return AttackConfig(
        nsga=NSGAConfig(
            num_iterations=args.iterations,
            population_size=args.population,
            seed=0,
        ),
        region=HalfImageRegion("right"),
    )


def bench_attack_plan(args, start_method) -> dict:
    """Scenario A: one models × images sweep, serial vs persistent."""
    training = bench_training_config()
    dataset = generate_dataset(
        num_images=args.images,
        seed=11,
        image_length=BENCH_LENGTH,
        image_width=BENCH_WIDTH,
        half="left",
    )
    plan = build_attack_plan(
        architectures=("yolo", "detr"),
        seeds=range(1, args.models + 1),
        dataset=dataset,
        attack_config=_attack_config(args),
        training=training,
        experiment_seed=args.experiment_seed,
    )
    for spec in plan.model_specs():
        build_cached(spec)

    runs: dict[str, dict] = {}
    start = time.perf_counter()
    serial_report = execute_plan(plan, SerialBackend())
    serial_seconds = time.perf_counter() - start
    reference = _fingerprint(serial_report)
    runs["serial"] = {
        "backend": "serial",
        "n_jobs": 1,
        "wall_seconds": serial_seconds,
        "parity": True,
    }

    for workers in args.workers:
        backend = PersistentPoolBackend(n_jobs=workers, start_method=start_method)
        try:
            start = time.perf_counter()
            report = execute_plan(plan, backend)
            wall = time.perf_counter() - start
        finally:
            backend.close()
        runs[f"persistent_{workers}"] = {
            "backend": "persistent",
            "n_jobs": workers,
            "wall_seconds": wall,
            "speedup_vs_serial": serial_seconds / wall if wall > 0 else float("inf"),
            "parity": _fingerprint(report) == reference,
        }

    return {
        "num_jobs": len(plan.jobs),
        "models_per_architecture": args.models,
        "images_per_model": args.images,
        "runs": runs,
    }


def bench_warm_eval(args, start_method) -> dict:
    """Scenario C: rounds of fresh-mask evaluations over pinned warm models.

    The repeated-sweep service shape (evaluate incoming masks against a
    fixed zoo): stage 1 optimises one mask per model (untimed — identical
    work for both sides), then each round evaluates one fresh candidate
    mask (a perturbed variant of a stage-1 mask) on every model.  Serial
    pays one activation-bundle build per model **per round**; persistent
    workers build once (during the untimed warm-up round) and hit
    thereafter, which is what lets one worker beat serial on one core in
    steady state.
    """
    training = bench_training_config()
    dataset = generate_dataset(
        num_images=1,
        seed=11,
        image_length=BENCH_LENGTH,
        image_width=BENCH_WIDTH,
        half="left",
    )
    image = dataset[0].image
    specs = [
        ModelSpec(architecture, seed, training=training)
        for architecture in ("yolo", "detr")
        for seed in range(1, args.eval_seeds + 1)
    ]
    # Provision each worker's activation store to hold the whole zoo — a
    # service sizes its cache to its models; the default cap (4) would
    # LRU-thrash a larger zoo and silently erase the reuse being measured.
    config = replace(
        _attack_config(args), activation_cache_size=max(4, len(specs))
    )
    for spec in specs:
        build_cached(spec)

    optimise_plan = build_transfer_attack_plan(
        specs, image, config, experiment_seed=args.experiment_seed
    )
    optimise = execute_plan(optimise_plan, SerialBackend())
    best_masks = []
    dirty_bounds = []
    for outcome in optimise.outcomes:
        best = outcome.result.best_by("degradation")
        best_masks.append(best.mask.values)
        dirty_bounds.append(best.mask.nonzero_bbox())

    # One fresh candidate mask per round (a scaled variant keeps the
    # sparsity pattern, so its dirty bound stays exact) over the same scene
    # and models.  Plan 0 is the shared untimed warm-up round.
    round_plans = [
        build_transfer_eval_plan(
            specs,
            image,
            [best_masks[index % len(best_masks)] * (1.0 - 0.02 * index)],
            [dirty_bounds[index % len(dirty_bounds)]],
            config,
        )
        for index in range(args.rounds + 1)
    ]

    warmup_serial = execute_plan(round_plans[0], SerialBackend())
    start = time.perf_counter()
    serial_rounds = [
        execute_plan(plan, SerialBackend()) for plan in round_plans[1:]
    ]
    serial_seconds = time.perf_counter() - start
    reference = [_eval_fingerprint(report) for report in serial_rounds]
    serial_cache = [report.cache_stats.as_dict() for report in serial_rounds]

    backend = PersistentPoolBackend(n_jobs=1, start_method=start_method)
    backend.pin_models(specs)
    try:
        # Service startup: spawn the worker and build the pinned bundles.
        warmup_persistent = execute_plan(round_plans[0], backend)
        start = time.perf_counter()
        persistent_rounds = [
            execute_plan(plan, backend) for plan in round_plans[1:]
        ]
        persistent_seconds = time.perf_counter() - start
    finally:
        backend.unpin_models(specs)
        backend.close()
    warmup_parity = _eval_fingerprint(warmup_persistent) == _eval_fingerprint(
        warmup_serial
    )
    persistent_cache = [report.cache_stats.as_dict() for report in persistent_rounds]

    return {
        "rounds": args.rounds,
        "num_models": len(specs),
        "runs": {
            "serial": {
                "backend": "serial",
                "n_jobs": 1,
                "wall_seconds": serial_seconds,
                "parity": True,
                "round_cache_stats": serial_cache,
            },
            "persistent_1": {
                "backend": "persistent",
                "n_jobs": 1,
                "wall_seconds": persistent_seconds,
                "speedup_vs_serial": (
                    serial_seconds / persistent_seconds
                    if persistent_seconds > 0
                    else float("inf")
                ),
                "parity": warmup_parity
                and [_eval_fingerprint(report) for report in persistent_rounds]
                == reference,
                "warmup_cache_stats": warmup_persistent.cache_stats.as_dict(),
                "round_cache_stats": persistent_cache,
            },
        },
    }


def run_benchmark(args) -> dict:
    start_method = "fork" if _fork_available() else None
    scenarios = {
        "attack_plan": bench_attack_plan(args, start_method),
        "warm_eval": bench_warm_eval(args, start_method),
    }
    return {
        "benchmark": "persistent worker runtime vs serial",
        "image_shape": [BENCH_LENGTH, BENCH_WIDTH, 3],
        "nsga": {"iterations": args.iterations, "population": args.population},
        "experiment_seed": args.experiment_seed,
        "cpu_count": os.cpu_count(),
        "start_method": start_method or multiprocessing.get_start_method(),
        "fork_available": _fork_available(),
        "scenarios": scenarios,
    }


def check_gates(report: dict) -> tuple[list[str], list[str]]:
    """Returns (failures, skipped) gate lists."""
    failures: list[str] = []
    skipped: list[str] = []
    cores = report["cpu_count"] or 1
    fork = report["fork_available"]

    for scenario_name, scenario in report["scenarios"].items():
        for name, run in scenario["runs"].items():
            if run["parity"] is not True:
                failures.append(
                    f"{scenario_name}/{name}: results differ from the serial "
                    "reference (parity gate)"
                )

    # Scenario A: multi-core speed targets for a single cold plan.
    attack_runs = report["scenarios"]["attack_plan"]["runs"]
    serial_seconds = attack_runs["serial"]["wall_seconds"]
    for name, run in attack_runs.items():
        if run["backend"] != "persistent" or run["parity"] is not True:
            continue
        workers = run["n_jobs"]
        speedup = run["speedup_vs_serial"]
        if not fork:
            skipped.append(
                f"attack_plan/{name}: speed gate skipped — requires the fork "
                f"start method (platform offers {report['start_method']})"
            )
            continue
        if cores < 2 or cores < workers:
            skipped.append(
                f"attack_plan/{name}: speed gate skipped — {workers} workers "
                f"need >= {workers} cores, machine has {cores}"
            )
            continue
        if speedup < EQUAL_SPEED_TOLERANCE:
            failures.append(
                f"attack_plan/{name}: persistent sweep slower than serial "
                f"({run['wall_seconds']:.2f}s vs {serial_seconds:.2f}s, "
                f"speedup {speedup:.2f}x < {EQUAL_SPEED_TOLERANCE}x)"
            )
        if workers >= 4 and speedup < FOUR_WORKER_TARGET:
            failures.append(
                f"attack_plan/{name}: {workers}-worker speedup {speedup:.2f}x "
                f"below the {FOUR_WORKER_TARGET}x acceptance target"
            )

    # Scenario C: the 1-core acceptance gate — no core-count precondition.
    warm = report["scenarios"]["warm_eval"]["runs"]
    persistent = warm["persistent_1"]
    if not fork:
        skipped.append(
            "warm_eval/persistent_1: speed gate skipped — requires the fork "
            f"start method (platform offers {report['start_method']})"
        )
    elif persistent["parity"] is True:
        speedup = persistent["speedup_vs_serial"]
        if speedup < EQUAL_SPEED_TOLERANCE:
            failures.append(
                "warm_eval/persistent_1: warm persistent service slower than "
                f"serial on this machine ({persistent['wall_seconds']:.2f}s vs "
                f"{warm['serial']['wall_seconds']:.2f}s, speedup "
                f"{speedup:.2f}x < {EQUAL_SPEED_TOLERANCE}x)"
            )
        # Mechanism gate: when the store is in play at all (the warm-up
        # round built bundles), every timed round must be pure hits —
        # re-misses mean the pinning machinery silently stopped retaining
        # state and the speed comparison is measuring nothing.
        if persistent["warmup_cache_stats"]["misses"] > 0:
            warm_misses = sum(
                stats["misses"] for stats in persistent["round_cache_stats"]
            )
            if warm_misses:
                failures.append(
                    f"warm_eval/persistent_1: {warm_misses} cache misses in "
                    "warm rounds — pinned bundles were not retained"
                )
    return failures, skipped


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_pr6.json")
    parser.add_argument("--workers", type=int, nargs="+", default=[2, 4])
    parser.add_argument("--models", type=int, default=2,
                        help="models per architecture (scenario A)")
    parser.add_argument("--images", type=int, default=2,
                        help="scenes per model (scenario A)")
    parser.add_argument("--iterations", type=int, default=6)
    parser.add_argument("--population", type=int, default=12)
    parser.add_argument("--rounds", type=int, default=10,
                        help="evaluation rounds (scenario C)")
    parser.add_argument("--eval-seeds", type=int, default=3,
                        help="model seeds per architecture (scenario C)")
    parser.add_argument(
        "--experiment-seed", type=int, default=2023,
        help="root seed for the per-job NSGA-II seed derivation",
    )
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
