"""End-to-end and per-layer benchmark of the butterfly-effect attack stack.

Run from the repository root::

    python3 perfbench/run.py --workload attack-yolo --seed 1 --seconds 10 --trace 0

``--trace 0`` sets up the workload several times, runs the correctness
gate, then repeats the timed operation until the repeats have taken
``--seconds`` (at least two repeats; a per-repeat set-up does not count) and prints every end-to-end metric of ``BENCHMARK.json``.
``--trace 1`` runs the operation once untraced and once with every layer
wrapped (see ``spans.py``), prints a per-layer table and every per-layer
metric, and writes the spans to ``.perfbench_out/``.

Correctness: a reduced copy of the workload must match the dense
reference route bit for bit, every timed repeat and the traced run must
reproduce the first repeat's fingerprint, and sweeps must leave no
shared-memory segments.  A violation or an exception counts as a failed
operation; the command then prints ``"correct": false`` and exits 1.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# Before numpy loads: every process the benchmark starts (fork-started
# workers inherit this) runs BLAS on one thread.  Unpinned 2-worker pools
# on a 2-core machine oversubscribe and their times are not steady.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse
import json
import multiprocessing
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"

#: Repeats each timed operation at least this often, so that repeat
#: fingerprints can be compared even when one repeat outlasts the run.
MIN_REPEATS = 2


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # numpy builds differ in what they report
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "threads": {
            name: os.environ[name]
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "start_method": multiprocessing.get_start_method(),
    }


def stop_resource_tracker() -> None:
    """Stop the tracker process shared memory starts, and wait for it."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Outcome:
    """Attempted and failed operations of one benchmark command."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def attempt(self, label: str, operation, check=lambda result: []):
        """Run one operation; it fails if it raises or ``check`` objects."""
        self.attempted += 1
        try:
            result = operation()
        except Exception:
            traceback.print_exc()
            self.failures.append(f"{label} raised")
            return None
        violations = check(result)
        if violations:
            self.failures.append(f"{label}: " + "; ".join(violations))
        return result


def run_checks(workload, first, run) -> list[str]:
    """Violations of one timed or traced operation against the first repeat."""
    violations = []
    if run.digest != first.digest:
        violations.append(f"{workload.name}: fingerprint differs between repeats")
    if run.leaked_segments:
        violations.append(f"{workload.name}: {run.leaked_segments} shm segments leaked")
    if run.retries:
        violations.append(f"{workload.name}: {run.retries} jobs were retried")
    return violations


def setup_timed(workload, seed: int):
    start = time.perf_counter()
    state = workload.setup(seed)
    return state, time.perf_counter() - start


def measure(workload, seed: int, seconds: float, outcome: Outcome):
    """The untraced end-to-end run: metrics plus a sample-count note each."""
    setups: list[float] = []
    state = None
    for _ in range(workload.setup_repeats):
        state, elapsed = setup_timed(workload, seed)
        setups.append(elapsed)
    gate_start = time.perf_counter()
    outcome.attempt("gate", lambda: workload.gate(state, seed), check=list)

    runs = []
    start = time.perf_counter()
    print(f"# gate took {start - gate_start:.2f} s")
    while len(runs) < MIN_REPEATS or sum(run.wall_s for run in runs) < seconds:
        if workload.setup_per_repeat and runs:
            state, elapsed = setup_timed(workload, seed)
            setups.append(elapsed)
        run = outcome.attempt(
            "timed operation",
            lambda: workload.run(state, seed),
            check=lambda run: run_checks(workload, (runs or [run])[0], run),
        )
        if run is None:
            break
        runs.append(run)
    print(f"# timed phase took {time.perf_counter() - start:.2f} s")
    if not runs:
        return {}, {}

    wall = statistics.median(run.wall_s for run in runs)
    generations_ms = [ms for run in runs for ms in run.gen_ms]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "evals_per_s": runs[0].evaluations / wall,
        "gen_ms_p50": statistics.median(generations_ms),
        "peak_rss_mb": own_peak_rss_mb() + max(run.children_rss_mb for run in runs),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "wall_s": f"median of {len(runs)} repeats",
        "gen_ms_p50": f"{len(generations_ms)} samples; p90 not reported, "
        "it needs 100 samples to have ten beyond it",
        "peak_rss_mb": "benchmark process plus each worker's peak",
    }
    return metrics, notes


def span_layers(op, setup) -> dict:
    """Per-layer values the spans give: ``op`` traced the operation,
    ``setup`` the set-up (scene generation and detector training)."""
    return {
        "nsga.self_ms": op.self_ms("nsga.run"),
        "nsga.variation_ms": op.total_ms("nsga.variation"),
        "nsga.variation_calls": op.calls("nsga.variation"),
        "nsga.ranking_ms": op.total_ms("nsga.ranking"),
        "core.evaluate_population_ms": op.total_ms("core.evaluate_population"),
        "core.objective_vectors_ms": op.self_ms("core.evaluate_population"),
        "core.mask_scan_ms": op.total_ms("core.mask_scan"),
        "core.mask_scans": op.calls("core.mask_scan"),
        "core.distance_ms": op.total_ms("core.distance"),
        "core.region_project_ms": op.total_ms("core.region_project"),
        "core.build_objectives_ms": op.total_ms("core.build_objectives"),
        "core.package_ms": op.total_ms("core.package"),
        "detectors.predict_delta_batch_ms": op.self_ms("detectors.predict_delta_batch"),
        "detectors.predict_delta_batch.calls": op.calls("detectors.predict_delta_batch"),
        "detectors.predict_delta_batch.masks": op.counters["detectors.predict_delta_batch.masks"],
        "detectors.predict_batch_ms": op.total_ms("detectors.predict_batch"),
        "detectors.predict_batch.images": op.counters["detectors.predict_batch.images"],
        "detectors.prototypes_ms": op.total_ms("detectors.prototypes"),
        "detectors.decode_ms": op.total_ms("detectors.decode"),
        "detection.nms_ms": op.total_ms("detection.nms"),
        "detectors.clean_activations_ms": op.total_ms("detectors.clean_activations"),
        "detectors.clean_activations.calls": op.calls("detectors.clean_activations"),
        "detectors.clean_activations_delta_ms": op.total_ms(
            "detectors.clean_activations_delta"
        ),
        "detectors.clean_activations_delta.calls": op.calls(
            "detectors.clean_activations_delta"
        ),
        "detectors.train_ms": setup.total_ms("detectors.train") + op.total_ms("detectors.train"),
        "nn.extract_ms": op.total_ms("nn.extract"),
        "nn.window_extract_ms": op.total_ms("nn.window_extract"),
        "nn.window_calls": op.calls("nn.window_extract"),
        "nn.attention_ms": op.total_ms("nn.attention"),
        "nn.attention_l1_ms": op.total_ms("nn.attention.l1"),
        "nn.attention_l2_ms": op.total_ms("nn.attention.l2"),
        "nn.mixing_softmax_ms": op.total_ms("nn.mixing_softmax"),
        "nn.attention_score_bytes": op.counters["nn.attention_score_bytes"],
        "data.scene_gen_ms": setup.total_ms("data.scene_gen") + op.total_ms("data.scene_gen"),
    }


def result_layers(run, workers: int, parent) -> dict:
    """Per-layer values the results and program counters give."""
    cache = run.cache
    busy: dict[str, float] = defaultdict(float)
    for worker, seconds in run.jobs:
        busy[worker] += seconds
    job_s = sum(busy.values())
    return {
        "nsga.eval_requests": run.evaluations,
        "nsga.eval_cache_hits": run.cache_hits,
        "nsga.eval_cache_hit_ratio": run.cache_hits / run.evaluations,
        "nsga.front_hv": run.front_hv,
        "nsga.best_degrad": run.best_degrad,
        "core.dirty_area_ratio": run.dirty_area_ratio,
        "detectors.delta_hits": cache.delta_hits,
        "detectors.delta_misses": cache.delta_misses,
        "detectors.delta_hit_ratio": cache.delta_hit_rate,
        "detectors.delta_bytes": cache.delta_bytes,
        "detectors.frame_hits": cache.frame_hits,
        "detectors.frame_misses": cache.frame_misses,
        "detectors.frame_hit_ratio": cache.frame_hit_rate,
        "detectors.evictions": cache.evictions,
        "experiments.job_s_sum": job_s,
        "experiments.worker_busy_ratio": job_s / (workers * run.wall_s) if run.jobs else 0.0,
        "experiments.dispatch_overhead_ms": (
            1e3 * (run.wall_s - max(busy.values())) if run.jobs else 0.0
        ),
        "experiments.journal_record_ms": parent.total_ms("experiments.journal_record"),
        "experiments.journal_records": parent.calls("experiments.journal_record"),
        "experiments.journal_bytes": run.journal_bytes,
        "experiments.retries": run.retries,
        "experiments.shm_segments_leaked": run.leaked_segments,
    }


def trace_layers(workload, seed: int, outcome: Outcome, out_dir: Path):
    """The traced run: per-layer metrics and the tables to print."""
    from spans import Tracer, program_targets
    from workloads import SweepWorkload

    targets = program_targets()
    state, _ = setup_timed(workload, seed)
    outcome.attempt("gate", lambda: workload.gate(state, seed), check=list)
    untraced = outcome.attempt(
        "untraced operation",
        lambda: workload.run(state, seed),
        check=lambda run: run_checks(workload, run, run),
    )
    if untraced is None:
        return {}, []

    def same_as_untraced(run):
        return run_checks(workload, untraced, run)

    with Tracer(targets) as setup_tracer:
        state, _ = setup_timed(workload, seed)
    runs = []
    tables = []
    if isinstance(workload, SweepWorkload):
        # Worker internals cannot be wrapped from the parent, so the
        # in-job layer split comes from the same plan on the serial
        # backend; the persistent run gives the parent-side spans.
        with Tracer(targets) as op_tracer:
            for detector in state:
                op_tracer.label_attention_layers(detector)
            serial = outcome.attempt(
                "traced serial operation",
                lambda: workload.run(state, seed, "serial"),
                check=same_as_untraced,
            )
        runs.append(serial)
        if serial is not None:
            tables.append(("in-job layers, serial backend", op_tracer, serial.wall_s))
        state, _ = setup_timed(workload, seed)
        with Tracer(targets) as parent_tracer:
            traced = outcome.attempt(
                "traced operation", lambda: workload.run(state, seed), check=same_as_untraced
            )
        if traced is not None:
            tables.append(("parent side, persistent backend", parent_tracer, traced.wall_s))
    else:
        with Tracer(targets, keep=("core.build_objectives",)) as op_tracer:
            op_tracer.label_attention_layers(state[0])
            traced = outcome.attempt(
                "traced operation", lambda: workload.run(state, seed), check=same_as_untraced
            )
        parent_tracer = op_tracer
        if traced is not None:
            tables.append(("attack", op_tracer, traced.wall_s))
            delta = op_tracer.kept["core.build_objectives"].clean_activations.delta
            traced.cache = delta.counters()
    runs.append(traced)
    if None in runs:
        return {}, tables

    metrics = span_layers(op_tracer, setup_tracer)
    metrics.update(result_layers(traced, getattr(workload, "workers", 1), parent_tracer))
    metrics["trace.overhead_ratio"] = traced.wall_s / untraced.wall_s
    metrics["trace.unattributed_ms"] = 1e3 * traced.wall_s - parent_tracer.top_level_ms()

    for index, (_, tracer, _) in enumerate(tables):
        tracer.write_chrome_trace(out_dir / f"trace-{workload.name}-seed{seed}-{index}.json")
    return metrics, tables


def main(argv=None, workloads=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SOURCE / "repro").is_dir() or not spec_path.is_file():
        print(f"perfbench: needs {SOURCE / 'repro'} and {spec_path}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SOURCE))
    from workloads import OUT_DIR, WORKLOADS

    workloads = WORKLOADS if workloads is None else workloads
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads[args.workload]
    print("# environment:", json.dumps(environment()))

    outcome = Outcome()
    notes: dict = {}
    try:
        if args.trace:
            values, tables = trace_layers(workload, args.seed, outcome, OUT_DIR)
            for title, tracer, wall_s in tables:
                print(f"# per-layer table ({title}), wall {wall_s * 1e3:.1f} ms")
                print(tracer.table(wall_s * 1e3))
            wanted = spec["per_layer"]
        else:
            values, notes = measure(workload, args.seed, args.seconds, outcome)
            wanted = spec["end_to_end"]
    finally:
        stop_resource_tracker()

    metrics = {}
    missing = [entry["name"] for entry in wanted if entry["name"] not in values]
    if missing:
        outcome.failures.append(f"not measured: {', '.join(missing)}")
    for entry in wanted:
        name = entry["name"]
        if name not in values:
            continue
        metrics[name] = {"value": float(values[name]), "unit": entry["unit"]}
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<42} {values[name]:>16.6g} {entry['unit']}{note}")
    for failure in outcome.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    attempted = max(outcome.attempted, 1)
    failed = min(len(outcome.failures), attempted)
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} operations)")
    correct = not outcome.failures
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
