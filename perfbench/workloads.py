"""The benchmark's workloads: inputs, set-up, the timed operation and its checks.

Every workload is a closed loop with one client, the benchmark process,
which issues one attack (or one sweep) at a time.  The workload seed picks
the scene or sequence and the NSGA-II seed; detectors always use model
seed 1 (the sweep: model seeds 1 and 2), so a seed changes the inputs and
the search, never the models.

Sizes are chosen so that one run, with its set-ups, gate and at least two
timed repeats, takes about half a minute on a 2-core machine with BLAS
pinned to one thread.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.core.attack import ButterflyAttack
from repro.core.config import AttackConfig
from repro.core.regions import HalfImageRegion
from repro.data import dataset as dataset_module
from repro.detectors.activation_cache import CacheStats
from repro.detectors.training import TrainingConfig
from repro.detectors.zoo import build_detector
from repro.experiments.engine import RetryPolicy, SerialBackend, execute_plan
from repro.experiments.jobs import SequenceSpec, build_cached, build_sequence_plan
from repro.experiments.persistent import PersistentPoolBackend
from repro.experiments.runner import run_sequence_sweep
from repro.experiments.shm import list_segments
from repro.nsga.algorithm import NSGAConfig
from repro.nsga.front import hypervolume

#: Reference point of ``nsga.front_hv`` in the minimised objective space
#: (obj_intensity, obj_degrad, -obj_dist).  Degradation 2 lies well beyond
#: the unchanged-prediction value 1, so a front that changed no prediction
#: still has a positive volume and lower degradation still adds to it.
HV_REFERENCE = (1.0, 2.0, 0.0)

#: Scratch space inside the checkout (journals, trace files); git-ignored.
OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench_out"


def results_digest(results) -> str:
    """Hash of the results' ``fingerprint()`` tuples, in order.

    A fingerprint holds every mask's raw bytes (tens of MB at population
    101), so it is folded into a digest here and never printed.  Floats
    go through ``repr``, which round-trips exactly, so equal digests mean
    bit-identical results.
    """
    digest = hashlib.blake2b(digest_size=16)
    for result in results:
        name, evaluations, cache_hits, solutions = result.fingerprint()
        digest.update(repr((name, evaluations, cache_hits)).encode())
        for mask_bytes, *numbers in solutions:
            digest.update(mask_bytes)
            digest.update(repr(numbers).encode())
    return digest.hexdigest()


def front_quality(result) -> tuple[float, float]:
    """(hypervolume at :data:`HV_REFERENCE`, minimum obj_degrad) of a front."""
    front = result.pareto_front
    points = np.array(
        [(s.intensity, s.degradation, -s.distance) for s in front], dtype=np.float64
    )
    return hypervolume(points, HV_REFERENCE), min(s.degradation for s in front)


@dataclass
class Run:
    """What one timed operation produced, reduced to what the metrics need."""

    wall_s: float
    digest: str
    evaluations: int
    cache_hits: int
    gen_ms: list[float]
    front_hv: float
    best_degrad: float
    dirty_area_ratio: float
    cache: CacheStats = field(default_factory=CacheStats)
    children_rss_mb: float = 0.0
    #: Sweep only: per-job (worker, seconds), retries, leaked segments and
    #: journal bytes.
    jobs: list[tuple[str, float]] = field(default_factory=list)
    retries: int = 0
    leaked_segments: int = 0
    journal_bytes: int = 0


class ChildPeaks:
    """Peak resident memory of this process's children while it is entered.

    A sampling thread reads each child's ``VmHWM`` (its own high-water
    mark, so a 50 ms sampling interval loses nothing but the last moments
    of a child's life).  The multiprocessing resource tracker is left out:
    it is bookkeeping, not a worker.
    """

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.peaks_kb: dict[str, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self) -> None:
        from multiprocessing import resource_tracker

        tracker = str(getattr(resource_tracker._resource_tracker, "_pid", None))
        proc = Path("/proc") / str(os.getpid()) / "task"
        for task in proc.iterdir():
            try:
                children = (task / "children").read_text().split()
            except OSError:
                continue
            for pid in children:
                if pid == tracker:
                    continue
                try:
                    status = (Path("/proc") / pid / "status").read_text()
                except OSError:
                    continue
                for line in status.splitlines():
                    if line.startswith("VmHWM:"):
                        kb = int(line.split()[1])
                        self.peaks_kb[pid] = max(self.peaks_kb.get(pid, 0), kb)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def __enter__(self) -> "ChildPeaks":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def total_mb(self) -> float:
        return sum(self.peaks_kb.values()) / 1024


@dataclass(frozen=True)
class AttackWorkload:
    """One NSGA-II attack on one left-half scene, right-half region.

    Runs the default exact route (activation cache and delta reuse on) in
    process.  The correctness gate runs a reduced copy through the dense
    reference route (no activation cache) and requires the identical
    fingerprint.
    """

    name: str
    architecture: str
    image_length: int
    image_width: int
    population: int
    generations: int
    training: TrainingConfig
    gate_population: int
    gate_generations: int
    setup_repeats: int = 3
    #: The sweep retrains per repeat (it releases its models); attacks do not.
    setup_per_repeat = False

    def setup(self, seed: int):
        detector = build_detector(self.architecture, seed=1, training=self.training)
        image = dataset_module.generate_dataset(
            num_images=1,
            seed=seed,
            image_length=self.image_length,
            image_width=self.image_width,
            half="left",
        )[0].image
        return detector, image

    def config(
        self, seed: int, population: int, generations: int, dense: bool = False
    ) -> AttackConfig:
        base = AttackConfig.paper_defaults(region=HalfImageRegion("right"), seed=seed)
        return replace(
            base,
            nsga=replace(
                base.nsga, num_iterations=generations, population_size=population
            ),
            use_activation_cache=not dense,
            use_delta_reuse=True,
        )

    def _attack(self, state, config: AttackConfig, stamps=None):
        detector, image = state
        callback = None if stamps is None else (lambda *_: stamps.append(time.perf_counter()))
        return ButterflyAttack(detector, config).attack(image, callback=callback)

    def gate(self, state, seed: int) -> list[str]:
        """Dense-route parity of a reduced copy; returns the violations."""
        sizes = (seed, self.gate_population, self.gate_generations)
        fast = self._attack(state, self.config(*sizes))
        dense = self._attack(state, self.config(*sizes, dense=True))
        if results_digest([fast]) != results_digest([dense]):
            return [f"{self.name}: default route differs from the dense route"]
        return []

    def run(self, state, seed: int) -> Run:
        stamps: list[float] = []
        config = self.config(seed, self.population, self.generations)
        start = time.perf_counter()
        result = self._attack(state, config, stamps)
        wall = time.perf_counter() - start
        hv, best = front_quality(result)
        incremental = result.incremental or {}
        return Run(
            wall_s=wall,
            digest=results_digest([result]),
            evaluations=result.num_evaluations,
            cache_hits=result.cache_hits,
            # Generation g's time is the gap between callbacks g-1 and g;
            # the first callback also covers the initial population.
            gen_ms=[1e3 * (b - a) for a, b in zip(stamps, stamps[1:])],
            front_hv=hv,
            best_degrad=best,
            dirty_area_ratio=float(incremental.get("dirty_area_ratio", 0.0)),
        )


@dataclass(frozen=True)
class SweepWorkload:
    """``run_sequence_sweep`` over architectures x model seeds x sequences.

    The run seed picks ``sequences`` sequences (seeds ``seed``,
    ``seed + 1000``, ...), so a run's time averages over several scenes
    instead of riding on one; the gate uses the first sequence only.

    Runs on the persistent shared-memory backend with checkpoint journals
    on.  ``run_sequence_sweep`` releases its models when it returns, so
    every repeat starts from a fresh set-up; set-up trains the plan's
    detectors in the parent, and the fork-started workers inherit them.
    The gate runs a reduced plan on the workload's route and on the dense
    serial reference and requires identical fingerprints.
    """

    name: str
    architectures: tuple[str, ...]
    model_seeds: tuple[int, ...]
    sequences: int
    frames: int
    image_length: int
    image_width: int
    population: int
    generations: int
    workers: int
    training: TrainingConfig
    gate_frames: int
    gate_population: int
    gate_generations: int
    setup_repeats: int = 1
    setup_per_repeat = True

    def sequence_specs(self, seed: int, frames: int, count: int) -> list[SequenceSpec]:
        return [
            SequenceSpec(
                num_frames=frames,
                seed=seed + 1000 * index,
                image_length=self.image_length,
                image_width=self.image_width,
                half="left",
            )
            for index in range(count)
        ]

    def config(self, population: int, generations: int, dense: bool = False) -> AttackConfig:
        return AttackConfig(
            nsga=NSGAConfig(num_iterations=generations, population_size=population),
            region=HalfImageRegion("right"),
            # Two live frame bundles per model; the engine would grow a
            # smaller cap to this anyway, with a warning on every plan.
            activation_cache_size=2 * len(self.architectures) * len(self.model_seeds),
            use_activation_cache=not dense,
            use_delta_reuse=True,
        )

    def plan(self, seed: int, frames: int, population: int, generations: int, dense=False):
        return build_sequence_plan(
            architectures=self.architectures,
            seeds=self.model_seeds,
            sequences=self.sequence_specs(seed, frames, 1),
            attack_config=self.config(population, generations, dense),
            training=self.training,
            experiment_seed=seed,
        )

    def setup(self, seed: int):
        specs = self.plan(seed, self.frames, self.population, self.generations).model_specs()
        return [build_cached(spec) for spec in specs]

    def gate(self, state, seed: int) -> list[str]:
        sizes = (seed, self.gate_frames, self.gate_population, self.gate_generations)
        backend = PersistentPoolBackend(n_jobs=self.workers)
        try:
            fast = execute_plan(self.plan(*sizes), backend)
            prefix = backend.runtime.segment_prefix
        finally:
            backend.close()
        dense = execute_plan(self.plan(*sizes, dense=True), SerialBackend())
        violations = []
        if results_digest(o.result for o in fast.outcomes) != results_digest(
            o.result for o in dense.outcomes
        ):
            violations.append(f"{self.name}: persistent route differs from dense serial")
        if list_segments(prefix):
            violations.append(f"{self.name}: gate leaked shared-memory segments")
        return violations

    def run(self, state, seed: int, backend_name: str = "persistent") -> Run:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        journal_dir = Path(tempfile.mkdtemp(prefix="journal-", dir=OUT_DIR))
        backend = (
            PersistentPoolBackend(n_jobs=self.workers)
            if backend_name == "persistent"
            else SerialBackend()
        )
        prefix = None
        try:
            with ChildPeaks() as children:
                start = time.perf_counter()
                try:
                    sweep = run_sequence_sweep(
                        architectures=self.architectures,
                        seeds=self.model_seeds,
                        sequences=self.sequence_specs(seed, self.frames, self.sequences),
                        attack_config=self.config(self.population, self.generations),
                        training=self.training,
                        n_jobs=self.workers,
                        backend=backend,
                        experiment_seed=seed,
                        checkpoint_dir=str(journal_dir),
                        retry=RetryPolicy(),
                    )
                    runtime = getattr(backend, "runtime", None)
                    prefix = runtime.segment_prefix if runtime is not None else None
                finally:
                    backend.close()
                wall = time.perf_counter() - start
            journal_bytes = sum(p.stat().st_size for p in journal_dir.iterdir())
        finally:
            shutil.rmtree(journal_dir, ignore_errors=True)
        quality = [front_quality(result) for result in sweep.results]
        execution = sweep.execution
        ratios = [
            float((r.incremental or {}).get("dirty_area_ratio", 0.0))
            for r in sweep.results
        ]
        rounds = self.generations + 1
        return Run(
            wall_s=wall,
            digest=results_digest(sweep.results),
            evaluations=sum(r.num_evaluations for r in sweep.results),
            cache_hits=sum(r.cache_hits for r in sweep.results),
            # Workers cannot call back into the parent, so a job's
            # generation time is its duration over its evaluation rounds
            # (initial population plus one per generation).
            gen_ms=[
                1e3 * sum(o.duration_seconds for o in execution.outcomes)
                / (rounds * len(execution.outcomes))
            ],
            front_hv=statistics.fmean(hv for hv, _ in quality),
            best_degrad=statistics.fmean(best for _, best in quality),
            dirty_area_ratio=statistics.fmean(ratios),
            cache=execution.cache_stats,
            children_rss_mb=children.total_mb,
            jobs=[(o.worker_id, o.duration_seconds) for o in execution.outcomes],
            retries=execution.retries,
            leaked_segments=len(list_segments(prefix)) if prefix else 0,
            journal_bytes=journal_bytes,
        )


_TRAINING_96x320 = TrainingConfig(image_length=96, image_width=320)

WORKLOADS = {
    w.name: w
    for w in (
        AttackWorkload(
            name="attack-yolo",
            architecture="yolo",
            image_length=96,
            image_width=320,
            population=101,
            generations=10,
            training=_TRAINING_96x320,
            gate_population=16,
            gate_generations=2,
        ),
        AttackWorkload(
            name="attack-detr",
            architecture="detr",
            image_length=96,
            image_width=320,
            population=101,
            generations=5,
            training=_TRAINING_96x320,
            gate_population=16,
            gate_generations=2,
        ),
        SweepWorkload(
            name="sweep-sequence",
            architectures=("yolo", "detr"),
            model_seeds=(1, 2),
            sequences=3,
            frames=4,
            image_length=96,
            image_width=320,
            population=12,
            generations=2,
            workers=2,
            training=_TRAINING_96x320,
            gate_frames=2,
            gate_population=4,
            gate_generations=1,
        ),
    )
}
