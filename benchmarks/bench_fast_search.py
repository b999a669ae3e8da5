"""A/B benchmark of the bounded-error two-phase search (fast search).

Times the exact incremental evaluation path against the ``windowed``
fidelity fast search runs at, on the NSGA mutation regime (sparse 3x5
patch masks — the population shape the search phase actually evaluates),
verifies the two-phase exactness guarantee, quantifies the front-quality
cost of the approximate search phase, writes everything to
``BENCH_pr9.json`` and **fails** (exit 1) when the gates are not met:

* exact re-score bit parity (hard): every solution of a fast-search attack
  must carry objective values bit-equal to a from-scratch exact evaluation
  of the same mask, on both architectures,
* transformer search-phase speedup: the windowed fidelity must reach >= 2x
  over the exact incremental path on the sparse-patch regime,
* no-regression: the single-stage detector has no global attention to
  approximate, so the windowed fidelity answers exactly there and must stay
  within a bounded overhead floor,
* front quality: the exactly-re-scored front found by the approximate
  search (with periodic exact re-anchoring, ``rescore_every``) must
  retain >= 95% of the exact search's hypervolume under a shared
  reference, averaged over seeds, per architecture.

Usage::

    PYTHONPATH=src python benchmarks/bench_fast_search.py \
        [--output BENCH_pr9.json] [--repeats 8]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.conftest import BENCH_LENGTH, BENCH_WIDTH, bench_training_config
from repro.analysis.front_quality import compare_front_quality
from repro.core.attack import ButterflyAttack
from repro.core.config import AttackConfig
from repro.core.objectives import ButterflyObjectives
from repro.core.regions import HalfImageRegion
from repro.data.dataset import generate_dataset
from repro.detectors.zoo import build_detector
from repro.nn.incremental import mask_nonzero_bbox
from repro.nsga.algorithm import SEARCH_FIDELITY, NSGAConfig

#: Gate: transformer search-phase speedup of the windowed fidelity on the
#: sparse-patch regime.
TRANSFORMER_MIN_SPEEDUP = 2.0

#: Gate: the single-stage detector, which has no attention to approximate,
#: must keep the windowed fidelity's overhead bounded (measured ~1.0x on a
#: 2-core VM: the exact splice, minus the delta store).
NO_REGRESSION_FLOOR = 0.80

#: Gate: exactly-re-scored fast-search front vs exact-search front
#: (mean over ATTACK_SEEDS).
MIN_HYPERVOLUME_RATIO = 0.95

#: Sparse-patch masks per timed evaluate_population call (the steady-state
#: evaluator batch of a paper-budget generation).
POPULATION = 48

#: Attack budget of the front-quality and bit-parity runs.  The fast
#: searches re-anchor with a periodic exact re-score every third
#: generation — that cadence is what keeps approximate-search drift
#: bounded at this budget (without it the single-seed hypervolume ratio
#: wanders as low as ~0.86).
ATTACK_ITERATIONS = 10
ATTACK_POPULATION = 16
ATTACK_RESCORE_EVERY = 3
ATTACK_SEEDS = (0, 1)


def _time(function, repeats):
    """Best-of-``repeats`` wall time of one call (interference only adds)."""
    function()  # warm-up (allocations, fidelity-state caches)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def _bench_image():
    return generate_dataset(
        num_images=1,
        seed=5,
        image_length=BENCH_LENGTH,
        image_width=BENCH_WIDTH,
        half="left",
        num_objects=(2, 3),
    )[0].image


def _patch_population(image_shape, seed=3, patch=(3, 5)):
    """Sparse patch masks — the mutation-window regime of the search phase."""
    rng = np.random.default_rng(seed)
    length, width = image_shape[0], image_shape[1]
    masks = np.zeros((POPULATION,) + image_shape)
    for index in range(POPULATION):
        r = int(rng.integers(0, length - patch[0]))
        c = int(rng.integers(width // 2, width - patch[1]))
        masks[index, r : r + patch[0], c : c + patch[1]] = rng.integers(
            -255, 256, size=patch + (3,)
        )
    return masks


def run_search_phase_benchmarks(image, repeats):
    """Exact vs approximate evaluate_population on both architectures."""
    scenarios = {}
    for architecture in ("yolo", "detr"):
        detector = build_detector(
            architecture, seed=1, training=bench_training_config()
        )
        label = detector.architecture
        objectives = ButterflyObjectives(
            detector=detector, image=image, use_delta_reuse=False
        )
        masks = _patch_population(image.shape)
        bounds = [mask_nonzero_bbox(mask) for mask in masks]

        def evaluate(fidelity):
            objectives.set_fidelity(fidelity)
            try:
                return objectives.evaluate_population(masks, dirty_bounds=bounds)
            finally:
                objectives.set_fidelity(None)

        exact_ms = 1e3 * _time(lambda: evaluate(None), repeats)
        fast_ms = 1e3 * _time(lambda: evaluate(SEARCH_FIDELITY), repeats)
        scenarios[label] = {
            "population_sparse_ms": {"exact": exact_ms, SEARCH_FIDELITY: fast_ms}
        }
    return scenarios


def _attack_config(fast, seed=0):
    return AttackConfig(
        nsga=NSGAConfig(
            num_iterations=ATTACK_ITERATIONS,
            population_size=ATTACK_POPULATION,
            seed=seed,
        ),
        region=HalfImageRegion("right"),
        sparse_init_fraction=1.0,
        fast_search=fast,
        rescore_every=ATTACK_RESCORE_EVERY if fast else 0,
    )


def _front_matrix(result):
    """Minimised NSGA objective vectors of the rank-1 front."""
    return np.array(
        [
            [solution.intensity, solution.degradation, -solution.distance]
            for solution in result.pareto_front
        ]
    )


def run_attack_comparisons(image):
    """Exact vs fast attacks: bit parity of the re-score, front quality."""
    comparisons = {}
    for architecture in ("yolo", "detr"):
        detector = build_detector(
            architecture, seed=1, training=bench_training_config()
        )
        label = detector.architecture
        reference = ButterflyObjectives(
            detector=detector, image=image, use_activation_cache=False
        )
        mismatches = 0
        per_seed = {}
        for seed in ATTACK_SEEDS:
            exact_result = ButterflyAttack(
                detector, _attack_config(False, seed)
            ).attack(image)
            fast_start = time.perf_counter()
            fast_result = ButterflyAttack(
                detector, _attack_config(True, seed)
            ).attack(image)
            fast_seconds = time.perf_counter() - fast_start

            # Hard gate: every fast-search solution re-scores bit-identically.
            for solution in fast_result.solutions:
                exact = reference(solution.mask.values)
                if (
                    solution.intensity != float(exact[0])
                    or solution.degradation != float(exact[1])
                    or solution.distance != float(-exact[2])
                ):
                    mismatches += 1

            quality = compare_front_quality(
                _front_matrix(fast_result), _front_matrix(exact_result)
            )
            quality["fast_attack_seconds"] = fast_seconds
            per_seed[str(seed)] = quality

        ratios = [entry["hypervolume_ratio"] for entry in per_seed.values()]
        comparisons[label] = {
            "rescore_bit_parity": mismatches == 0,
            "rescore_mismatches": mismatches,
            "rescore_every": ATTACK_RESCORE_EVERY,
            "mean_hypervolume_ratio": float(np.mean(ratios)),
            "front_quality_by_seed": per_seed,
        }
    return comparisons


def check_gates(report):
    failures = []
    for label, entry in report["scenarios"].items():
        speedup = entry["population_sparse_ms"]["speedup"][SEARCH_FIDELITY]
        if label == "transformer" and speedup < TRANSFORMER_MIN_SPEEDUP:
            failures.append(
                f"{label}.{SEARCH_FIDELITY}: {speedup:.2f}x < required "
                f"{TRANSFORMER_MIN_SPEEDUP}x"
            )
        elif label != "transformer" and speedup < NO_REGRESSION_FLOOR:
            failures.append(
                f"{label}.{SEARCH_FIDELITY}: approximate fidelity regressed "
                f"({speedup:.2f}x < {NO_REGRESSION_FLOOR}x floor)"
            )
    for label, entry in report["attacks"].items():
        if not entry["rescore_bit_parity"]:
            failures.append(
                f"{label}: {entry['rescore_mismatches']} fast-search solutions "
                "were not bit-identical to exact re-evaluation"
            )
        ratio = entry["mean_hypervolume_ratio"]
        if ratio < MIN_HYPERVOLUME_RATIO:
            failures.append(
                f"{label}: mean hypervolume ratio {ratio:.3f} < required "
                f"{MIN_HYPERVOLUME_RATIO}"
            )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_pr9.json")
    parser.add_argument("--repeats", type=int, default=8)
    args = parser.parse_args(argv)

    image = _bench_image()
    scenarios = run_search_phase_benchmarks(image, args.repeats)
    for entry in scenarios.values():
        metric = entry["population_sparse_ms"]
        speedup = metric["exact"] / metric[SEARCH_FIDELITY]
        metric["speedup"] = {SEARCH_FIDELITY: speedup}

    report = {
        "benchmark": "two-phase bounded-error search vs exact incremental path",
        "image_shape": [BENCH_LENGTH, BENCH_WIDTH, 3],
        "population_size": POPULATION,
        "repeats": args.repeats,
        "transformer_min_speedup": TRANSFORMER_MIN_SPEEDUP,
        "no_regression_floor": NO_REGRESSION_FLOOR,
        "min_hypervolume_ratio": MIN_HYPERVOLUME_RATIO,
        "scenarios": scenarios,
        "attacks": run_attack_comparisons(image),
    }

    failures = check_gates(report)
    report["gates_passed"] = not failures
    if failures:
        report["gate_failures"] = failures

    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    if failures:
        print("\n".join(["GATE FAILURES:"] + failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
