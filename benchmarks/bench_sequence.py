"""A/B benchmark of temporal frame-to-frame activation reuse.

Times the streaming temporal path (frame t's clean bundle derived from
frame t-1's cached bundle by splicing only the inter-frame dirty region)
against dense per-frame clean builds on a KITTI-style moving-object
sequence at default motion, verifies the two paths stay bit-identical
while timing, writes everything to ``BENCH_pr10.json`` and **fails**
(exit 1) when the gates are not met:

* both architectures: every temporally derived bundle must be
  bit-identical to an independent dense build of that frame (hard),
* single_stage: the per-frame incremental derivation must reach
  >= 1.5x over the dense per-frame build,
* transformer: the temporal path must never regress (a measurement
  tolerance absorbs timer noise on shared CI runners),
* a warm sequence attack must record a frame-cache hit rate > 0,
* a shared-memory-backed sequence cache must leave zero segments
  after shutdown.

Usage::

    PYTHONPATH=src python benchmarks/bench_sequence.py \
        [--output BENCH_pr10.json] [--repeats 12] [--frames 8]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.core.config import AttackConfig
from repro.core.regions import HalfImageRegion
from repro.core.temporal import SequenceAttack
from repro.data.sequences import generate_sequence
from repro.detectors.activation_cache import (
    SequenceActivationCache,
    SharedMemoryActivationStore,
)
from repro.detectors.training import TrainingConfig
from repro.detectors.zoo import build_detector
from repro.experiments.shm import list_segments
from repro.nsga.algorithm import NSGAConfig

#: The streaming workload runs at the sequence generator's native
#: KITTI-like geometry (96x320) rather than the still-image benchmark
#: scale: dense per-frame cost grows with frame area while the temporal
#: splice cost tracks the moving objects, so this is the regime the
#: temporal path exists for.
SEQ_LENGTH = 96
SEQ_WIDTH = 320

#: Gate: the single-stage per-frame derivation must reach this speedup.
SINGLE_STAGE_MIN_SPEEDUP = 1.5

#: Gate: the transformer must not regress beyond timer noise.  Its
#: attention stage recomputes globally, so the temporal win is smaller —
#: the floor only needs to absorb shared-runner jitter.
NO_REGRESSION_FLOOR = 0.90

#: Default motion: the generator's stock ``max_speed`` (4 px/frame).
DEFAULT_MAX_SPEED = 4.0


def _time(function, repeats):
    """Best-of-``repeats`` wall time of one call (interference only adds)."""
    function()  # warm-up (allocations, caches)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def _seq_training_config():
    return TrainingConfig(
        scenes_per_class=4,
        image_length=SEQ_LENGTH,
        image_width=SEQ_WIDTH,
        background_clusters=32,
    )


def _bench_sequence(frames):
    return generate_sequence(
        num_frames=frames,
        seed=5,
        image_length=SEQ_LENGTH,
        image_width=SEQ_WIDTH,
        half="left",
        num_objects=(2, 3),
        max_speed=DEFAULT_MAX_SPEED,
    )


def _assert_bundle_identical(bundle, dense, label):
    """Hard parity gate: a temporally derived bundle vs a dense build."""
    if not np.array_equal(bundle.clean_image, dense.clean_image):
        raise AssertionError(f"{label}: clean image diverged")
    if set(bundle.tensors) != set(dense.tensors):
        raise AssertionError(f"{label}: tensor stages diverged")
    for name, tensor in dense.tensors.items():
        if not np.array_equal(bundle.tensors[name], tensor):
            raise AssertionError(f"{label}: stage {name!r} diverged")
    boxes = [(b.cl, b.x, b.y, b.l, b.w, b.score) for b in bundle.prediction]
    expected = [(b.cl, b.x, b.y, b.l, b.w, b.score) for b in dense.prediction]
    if boxes != expected:
        raise AssertionError(f"{label}: prediction diverged")


def run_frame_derivation_benchmarks(sequence, repeats):
    """Temporal derivation vs dense per-frame builds on both architectures."""
    frames = list(sequence)
    scenarios = {}
    for architecture in ("yolo", "detr"):
        detector = build_detector(
            architecture, seed=1, training=_seq_training_config()
        )
        label = detector.architecture

        # Hard parity gate first: walk the whole sequence through the
        # rolling cache and compare every bundle to a dense build.
        cache = SequenceActivationCache(detector, max_frames=2)
        for index, frame in enumerate(frames):
            bundle = cache.advance(frame)
            _assert_bundle_identical(
                bundle, detector.clean_activations(frame), f"{label} frame {index}"
            )
        stats = cache.snapshot()
        if stats.frame_hits != len(frames) - 1:
            raise AssertionError(
                f"{label}: expected {len(frames) - 1} temporal derivations, "
                f"saw {stats.frame_hits}"
            )

        # Steady-state timing: derive frames 1..n-1 from their already
        # cached predecessors vs building each densely from scratch.
        previous = [detector.clean_activations(frame) for frame in frames[:-1]]

        def derive_chain():
            for index in range(1, len(frames)):
                detector.clean_activations_delta(frames[index], previous[index - 1])

        def dense_chain():
            for index in range(1, len(frames)):
                detector.clean_activations(frames[index])

        scenarios[label] = {
            "per_frame_ms": {
                "dense": 1e3 * _time(dense_chain, repeats) / (len(frames) - 1),
                "temporal": 1e3 * _time(derive_chain, repeats) / (len(frames) - 1),
            },
            "frame_hit_rate": stats.frame_hit_rate,
        }
    return scenarios


def run_warm_sequence_attack(sequence):
    """A sequence attack must actually ride the temporal path."""
    detector = build_detector("yolo", seed=1, training=_seq_training_config())
    config = AttackConfig(
        nsga=NSGAConfig(num_iterations=6, population_size=12, seed=0),
        region=HalfImageRegion("right"),
    )
    start = time.perf_counter()
    result = SequenceAttack(detector, config).attack(sequence)
    seconds = time.perf_counter() - start
    frame_stats = result.incremental["frame_cache"]
    survival = min(
        solution.extras["track_survival"] for solution in result.pareto_front
    )
    return {
        "attack_seconds": seconds,
        "frame_hits": frame_stats.get("frame_hits", 0),
        "frame_misses": frame_stats.get("frame_misses", 0),
        "frame_hit_rate": frame_stats.get("frame_hit_rate", 0.0),
        "best_track_survival": survival,
        "front_size": len(result.pareto_front),
    }


def run_shm_audit(sequence):
    """Frame bundles in shared memory must die with their store."""
    detector = build_detector("yolo", seed=1, training=_seq_training_config())
    store = SharedMemoryActivationStore(max_entries=4, segment_prefix="benchseq")
    prefix = store.segment_prefix
    try:
        cache = SequenceActivationCache(detector, max_frames=2, store=store)
        for frame in sequence.images:
            cache.advance(frame)
        segments_while_live = len(list_segments(prefix))
    finally:
        store.shutdown()
    return {
        "segments_while_live": segments_while_live,
        "segments_after_shutdown": len(list_segments(prefix)),
    }


def check_gates(report):
    failures = []
    for label, entry in report["scenarios"].items():
        speedup = entry["per_frame_ms"]["speedup"]
        if label == "single_stage":
            if speedup < SINGLE_STAGE_MIN_SPEEDUP:
                failures.append(
                    f"{label}.per_frame_ms: {speedup:.2f}x < required "
                    f"{SINGLE_STAGE_MIN_SPEEDUP}x"
                )
        elif speedup < NO_REGRESSION_FLOOR:
            failures.append(
                f"{label}.per_frame_ms: temporal path regressed "
                f"({speedup:.2f}x < {NO_REGRESSION_FLOOR}x floor)"
            )
        if entry["frame_hit_rate"] <= 0.0:
            failures.append(f"{label}: frame cache recorded no temporal hits")
    if report["warm_attack"]["frame_hit_rate"] <= 0.0:
        failures.append("warm sequence attack recorded no frame-cache hits")
    if report["shm_audit"]["segments_after_shutdown"] != 0:
        failures.append(
            f"{report['shm_audit']['segments_after_shutdown']} shm segments "
            "leaked after shutdown"
        )
    if report["shm_audit"]["segments_while_live"] == 0:
        failures.append("shm audit saw no live segments (nothing was shared)")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_pr10.json")
    parser.add_argument("--repeats", type=int, default=12)
    parser.add_argument("--frames", type=int, default=8)
    args = parser.parse_args(argv)

    sequence = _bench_sequence(args.frames)
    scenarios = run_frame_derivation_benchmarks(sequence, args.repeats)
    for entry in scenarios.values():
        metric = entry["per_frame_ms"]
        metric["speedup"] = metric["dense"] / metric["temporal"]

    report = {
        "benchmark": "temporal frame-to-frame activation reuse vs dense per-frame builds",
        "image_shape": [SEQ_LENGTH, SEQ_WIDTH, 3],
        "num_frames": args.frames,
        "max_speed": DEFAULT_MAX_SPEED,
        "repeats": args.repeats,
        "single_stage_min_speedup": SINGLE_STAGE_MIN_SPEEDUP,
        "no_regression_floor": NO_REGRESSION_FLOOR,
        "scenarios": scenarios,
        "warm_attack": run_warm_sequence_attack(sequence),
        "shm_audit": run_shm_audit(sequence),
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
