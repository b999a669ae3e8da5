"""Declarative work plans: the generic job substrate of the experiment engine.

The paper's evaluation is three sweeps over the same seed-varied model zoo
— the architecture comparison (Table I/II), mask transferability across
seeds and defense robustness.  All three are embarrassingly parallel grids
of independent units of work, so this module turns "a unit of sweep work"
into data:

* an **experiment job** is any picklable object with an integer ``job_id``
  and an ``execute(context)`` method returning a :class:`JobOutcome`; the
  :class:`WorkerContext` hands the job the executing process's activation
  store.  Jobs may additionally expose a ``model`` spec (or a ``members``
  tuple of specs) for cache lifecycle and per-model stats attribution, and
  an ``nsga_seed`` field to opt into plan-position seed derivation.
* :class:`ModelSpec` — a picklable recipe for one trained detector
  (architecture, seed, detector/training configs).  Workers rebuild the
  model zoo from specs, so no detector object ever crosses a process
  boundary; a per-process memo (:func:`build_cached`) makes the rebuild a
  one-time cost per ``(worker, model)``.  Any hashable object with a
  ``build() -> Detector`` method and a ``name`` is a valid spec —
  :class:`DetectorInstanceSpec` wraps an already-built detector, and the
  defense sweep contributes a defended-variant spec.
* :class:`AttackJob` — one cell of the models × images grid: a model spec,
  one scene, the attack configuration and an optional pre-derived NSGA-II
  seed.  It is *one instance* of the job protocol; the transfer and
  defense sweeps define their own (see :mod:`repro.experiments.transfer`
  and :mod:`repro.defenses.jobs`).
* :class:`ExperimentPlan` — the ordered list of jobs plus sweep metadata.
  Plan order is the canonical result order; execution backends may finish
  jobs in any order and the engine reassembles by ``job_id``.
  :class:`AttackPlan` extends it with the architecture labels of the
  models × images sweep.
* :func:`derive_job_seeds` — spawn-safe deterministic per-job seeds:
  ``np.random.SeedSequence(experiment_seed).spawn(n)`` assigns entropy by
  *plan position*, never by worker or completion order, so serial and
  pooled sweeps are bit-identical for a fixed experiment seed.
  :func:`apply_experiment_seed` assigns them to every job of a plan that
  accepts one.
* :func:`resolved_config` — a job's attack config with its derived NSGA-II
  seed applied; every job type that searches (attack, sequence, defense,
  ensemble) runs through it.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from repro.core.attack import ButterflyAttack
from repro.core.config import AttackConfig
from repro.core.results import AttackResult
from repro.core.temporal import SequenceAttack
from repro.data.sequences import SceneSequence, generate_sequence
from repro.detectors.activation_cache import ActivationCacheStore, CacheStats
from repro.detectors.base import Detector, DetectorConfig
from repro.detectors.training import TrainingConfig
from repro.detectors.zoo import ARCHITECTURE_ALIASES, build_detector


@dataclass(frozen=True)
class ModelSpec:
    """Recipe for one trained detector, picklable and hashable.

    Two equal specs build bit-identical detectors (training is fully
    deterministic in the seed), which is what lets pool workers
    reconstruct the model zoo locally instead of unpickling live models.
    """

    architecture: str
    seed: int
    detector: DetectorConfig | None = None
    training: TrainingConfig | None = None

    def __post_init__(self) -> None:
        if self.architecture.lower() not in ARCHITECTURE_ALIASES:
            raise ValueError(
                f"unknown architecture {self.architecture!r}; expected one of "
                f"{sorted(ARCHITECTURE_ALIASES)}"
            )

    @property
    def label(self) -> str:
        """Canonical architecture label (``single_stage`` / ``transformer``)."""
        return ARCHITECTURE_ALIASES[self.architecture.lower()]

    @property
    def name(self) -> str:
        """Unique model name, matching ``Detector.name`` (label + seed)."""
        return f"{self.label}-seed{self.seed}"

    def build(self) -> Detector:
        """Build and train the detector this spec describes."""
        return build_detector(
            self.architecture, self.seed, config=self.detector, training=self.training
        )


#: Per-process memo of built detectors.  A pool worker attacks each model on
#: several scenes; memoising the (deterministic) build makes the rebuild a
#: one-time cost per worker.  Never shared across processes — under the
#: ``fork`` start method children inherit a copy-on-write snapshot, under
#: ``spawn`` they start empty; both are correct because builds are
#: deterministic.
_DETECTOR_MEMO: dict[ModelSpec, Detector] = {}


def build_cached(spec: ModelSpec) -> Detector:
    """The process-local detector for ``spec``, built on first use."""
    detector = _DETECTOR_MEMO.get(spec)
    if detector is None:
        detector = spec.build()
        _DETECTOR_MEMO[spec] = detector
    return detector


def clear_detector_memo() -> int:
    """Drop all memoised detectors (tests / memory control); returns count."""
    count = len(_DETECTOR_MEMO)
    _DETECTOR_MEMO.clear()
    return count


def detector_if_built(spec) -> Detector | None:
    """The memoised detector for ``spec`` if one exists — never builds.

    The persistent runtime's invalidation broadcast uses this to find the
    worker-local instance whose ``id()`` keys the activation store: a model
    the worker never built has nothing to invalidate, and building one just
    to drop it would be absurd.  Unhashable specs return ``None``.
    """
    try:
        return _DETECTOR_MEMO.get(spec)
    except TypeError:  # pragma: no cover - specs are hashable by contract
        return None


def release_detector(spec) -> bool:
    """Drop one spec's detector from the process-local memo, if present."""
    try:
        return _DETECTOR_MEMO.pop(spec, None) is not None
    except TypeError:  # pragma: no cover - specs are hashable by contract
        return False


def release_plan_models(plan: "ExperimentPlan") -> int:
    """Drop a finished plan's detectors from the process-local memo.

    A :class:`~repro.experiments.runner.SweepSession` calls this on exit
    for every plan it ran, so a long-lived process (notebook, service) does
    not accumulate every zoo it ever trained; returns the number of entries
    released.  Pool workers die with their pool, so only the parent needs
    this.
    """
    released = 0
    for spec in plan.model_specs():
        if _DETECTOR_MEMO.pop(spec, None) is not None:
            released += 1
    return released


@dataclass(frozen=True, eq=False)
class DetectorInstanceSpec:
    """Spec adapter wrapping an already-built detector instance.

    The transfer and defense entry points historically accepted live
    :class:`~repro.detectors.base.Detector` objects; this adapter lets them
    ride the spec-based engine unchanged.  The detector is carried *by
    value* — pickling a job ships the whole detector to the worker — so
    pooled runs stay bit-identical under every start method, at the cost
    of a fatter job payload than a :class:`ModelSpec` recipe.  Equality and
    hashing are by detector identity: two specs wrapping the same instance
    memoise to the same entry.
    """

    detector: Detector

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DetectorInstanceSpec)
            and self.detector is other.detector
        )

    def __hash__(self) -> int:
        return hash(id(self.detector))

    @property
    def label(self) -> str:
        return self.detector.architecture

    @property
    def name(self) -> str:
        return self.detector.name

    @property
    def seed(self) -> int:
        return self.detector.seed

    def build(self) -> Detector:
        return self.detector


def as_model_spec(model) -> object:
    """Coerce a detector or spec into an engine-compatible model spec.

    Anything with a ``build()`` method passes through unchanged (it already
    is a spec); a live :class:`~repro.detectors.base.Detector` is wrapped
    in a :class:`DetectorInstanceSpec`.
    """
    if hasattr(model, "build"):
        return model
    if isinstance(model, Detector) or hasattr(model, "predict"):
        return DetectorInstanceSpec(model)
    raise TypeError(
        f"expected a Detector or a model spec with a build() method, got "
        f"{type(model).__name__}"
    )


@dataclass
class WorkerContext:
    """What the executing process hands a job: its activation store.

    One context per store owner — the serial backend's sweep-level store or
    a pool worker's private store.  ``store`` is ``None`` when the plan's
    attack config disables the activation cache.  The per-process detector
    memo is reached through :func:`build_cached` (module state, shared by
    every job the process runs).  ``worker_id`` names the executing worker
    (outcome attribution); long-lived executors such as the persistent
    runtime keep one context for their whole life and stamp it once.
    """

    store: ActivationCacheStore | None = None
    worker_id: str = "serial"

    def job_store(self, config: AttackConfig) -> ActivationCacheStore | None:
        """The store a job should thread into an attack (or ``None``)."""
        if self.store is not None and config.use_activation_cache:
            return self.store
        return None


def job_model_specs(job) -> tuple:
    """The model specs a job builds, for cache lifecycle accounting.

    Jobs expose either a single ``model`` spec (the attack, transfer and
    defense jobs) or a ``members`` tuple (the ensemble defense job); jobs
    with neither take no part in per-model cache lifecycle.
    """
    model = getattr(job, "model", None)
    if model is not None:
        return (model,)
    return tuple(getattr(job, "members", ()) or ())


def job_stats_label(job) -> str | None:
    """The name a job's cache-stats delta is attributed to (or ``None``).

    A job may pin the label explicitly via a ``stats_label`` attribute;
    otherwise its ``model`` spec's name is used.  Multi-model jobs without
    an explicit label (and model-less jobs) return ``None`` — their deltas
    still count toward per-worker and sweep totals.
    """
    label = getattr(job, "stats_label", None)
    if label:
        return str(label)
    model = getattr(job, "model", None)
    if model is not None:
        return model.name
    return None


def resolved_config(job) -> AttackConfig:
    """``job.config`` with the job's derived ``nsga_seed`` applied (if any)."""
    if job.nsga_seed is None:
        return job.config
    return replace(job.config, nsga=replace(job.config.nsga, seed=int(job.nsga_seed)))


@dataclass
class AttackJob:
    """One unit of sweep work: attack one model on one scene.

    Attributes
    ----------
    job_id:
        Position in the plan; the engine reassembles completion-ordered
        outcomes back into plan order by this id.
    model:
        The detector recipe (rebuilt inside workers, memoised per process).
    image:
        The evaluation scene, carried by value (scenes are small; shipping
        pixels avoids any worker-side dataset regeneration coupling).
    config:
        The attack configuration shared by the sweep.
    scene_index:
        Index of the scene within the sweep's dataset (provenance).
    nsga_seed:
        Pre-derived NSGA-II seed for this job, or ``None`` to keep
        ``config.nsga.seed`` untouched (the historical behaviour where
        every job runs the same seed).
    """

    job_id: int
    model: ModelSpec
    image: np.ndarray
    config: AttackConfig = field(default_factory=AttackConfig)
    scene_index: int = 0
    nsga_seed: int | None = None

    def __post_init__(self) -> None:
        self.image = np.asarray(self.image, dtype=np.float64)

    def execute(self, context: "WorkerContext") -> "JobOutcome":
        """Run the attack and package result, provenance and cache delta.

        The outcome carries the context store's counter *delta* so the
        engine can aggregate per-model and per-worker hit rates no matter
        where the job ran.
        """
        start = time.perf_counter()
        detector = build_cached(self.model)
        config = resolved_config(self)
        use_store = context.job_store(config)
        before = use_store.snapshot() if use_store is not None else None

        attack = ButterflyAttack(detector, config, activation_store=use_store)
        result = attack.attack(self.image)
        result.architecture = self.model.label
        result.model_seed = self.model.seed
        result.scene_index = self.scene_index
        result.job_id = self.job_id

        stats = use_store.snapshot() - before if use_store is not None else None
        return JobOutcome(
            job_id=self.job_id,
            result=result,
            cache_stats=stats,
            duration_seconds=time.perf_counter() - start,
        )


@dataclass(frozen=True)
class SequenceSpec:
    """Picklable recipe for one generated scene sequence.

    Workers rebuild the sequence locally from the recipe (generation is
    deterministic in the seed), so no frame stack ever crosses a process
    boundary — the same ship-the-recipe idiom as :class:`ModelSpec`.
    Mirrors :func:`~repro.data.sequences.generate_sequence`'s parameters
    (with the default class mix).
    """

    num_frames: int = 5
    seed: int = 0
    image_length: int = 96
    image_width: int = 320
    num_objects: tuple[int, int] = (2, 3)
    half: str | None = None
    max_speed: float = 4.0

    def build(self) -> SceneSequence:
        """Generate the sequence this spec describes."""
        return generate_sequence(
            num_frames=self.num_frames,
            seed=self.seed,
            image_length=self.image_length,
            image_width=self.image_width,
            num_objects=self.num_objects,
            half=self.half,
            max_speed=self.max_speed,
        )


@dataclass
class SequenceAttackJob:
    """One unit of the streaming workload: attack one model on one sequence.

    Follows the generic job protocol, so it runs unchanged on every
    backend (serial, persistent runtime) — the ``model`` spec opts it
    into model-affinity dispatch and cache lifecycle, and
    the worker store it receives backs the temporal frame cache (sequence
    bundles ride the same store cap and lifecycle broadcasts as
    single-scene bundles).  The outcome's ``cache_stats`` delta folds
    in the frame cache's counters, so per-model/per-worker report rows
    carry ``frame_hits``/``frame_misses`` alongside the store traffic.

    Attributes mirror :class:`AttackJob` with the scene swapped for a
    :class:`SequenceSpec` plus the track-objective knobs (``track_k``
    consecutive frames to count a ground-truth track as suppressed,
    ``iou_threshold`` for detection matching, ``frame_cache_size`` rolling
    frame-bundle window).
    """

    job_id: int
    model: ModelSpec
    sequence: SequenceSpec
    config: AttackConfig = field(default_factory=AttackConfig)
    track_k: int = 2
    iou_threshold: float = 0.5
    frame_cache_size: int = 2
    scene_index: int = 0
    nsga_seed: int | None = None

    def execute(self, context: "WorkerContext") -> "JobOutcome":
        """Run the sequence attack; fold frame-cache counters into the delta."""
        start = time.perf_counter()
        detector = build_cached(self.model)
        config = resolved_config(self)
        use_store = context.job_store(config)
        before = use_store.snapshot() if use_store is not None else None

        attack = SequenceAttack(
            detector,
            config,
            activation_store=use_store,
            track_k=self.track_k,
            iou_threshold=self.iou_threshold,
            frame_cache_size=self.frame_cache_size,
        )
        result = attack.attack(self.sequence.build())
        result.architecture = self.model.label
        result.model_seed = self.model.seed
        result.scene_index = self.scene_index
        result.job_id = self.job_id

        stats = use_store.snapshot() - before if use_store is not None else None
        # The frame cache's counters live outside the store (a store-backed
        # cache reports only its own eviction/frame traffic, so summing the
        # two snapshots never double-counts delta-store activity).
        frame_stats = CacheStats.from_dict(
            (result.incremental or {}).get("frame_cache", {})
        )
        if frame_stats != CacheStats():
            stats = frame_stats if stats is None else stats + frame_stats
        return JobOutcome(
            job_id=self.job_id,
            result=result,
            cache_stats=stats,
            duration_seconds=time.perf_counter() - start,
        )


def build_sequence_plan(
    architectures: Sequence[str],
    seeds: Iterable[int],
    sequences: Sequence[SequenceSpec],
    attack_config: AttackConfig,
    training: TrainingConfig | None = None,
    detector_config: DetectorConfig | None = None,
    experiment_seed: int | None = None,
    track_k: int = 2,
    iou_threshold: float = 0.5,
    frame_cache_size: int = 2,
) -> AttackPlan:
    """Expand the models × sequences grid into an ordered :class:`AttackPlan`.

    The streaming analogue of :func:`build_attack_plan`: same nested order
    (architectures, model seeds, then sequences), same plan-position seed
    derivation, with every job a :class:`SequenceAttackJob`.
    """
    seeds = list(seeds)
    jobs: list[SequenceAttackJob] = []
    labels: list[str] = []
    job_id = 0
    for architecture in architectures:
        spec_label = ARCHITECTURE_ALIASES.get(architecture.lower())
        if spec_label is None:
            raise ValueError(
                f"unknown architecture {architecture!r}; expected one of "
                f"{sorted(ARCHITECTURE_ALIASES)}"
            )
        if spec_label not in labels:
            labels.append(spec_label)
        for seed in seeds:
            model = ModelSpec(
                architecture=architecture,
                seed=int(seed),
                detector=detector_config,
                training=training,
            )
            for scene_index, sequence in enumerate(sequences):
                jobs.append(
                    SequenceAttackJob(
                        job_id=job_id,
                        model=model,
                        sequence=sequence,
                        config=attack_config,
                        track_k=track_k,
                        iou_threshold=iou_threshold,
                        frame_cache_size=frame_cache_size,
                        scene_index=scene_index,
                    )
                )
                job_id += 1

    apply_experiment_seed(jobs, experiment_seed)

    return AttackPlan(
        jobs=jobs,
        labels=tuple(labels),
        attack_config=attack_config,
        experiment_seed=experiment_seed,
        name="sequence-attack",
    )


@dataclass
class JobOutcome:
    """One finished job: the job's result payload plus execution metadata.

    ``result`` is whatever the job type produces — an
    :class:`~repro.core.results.AttackResult` for attack jobs, a transfer
    matrix column for cross-evaluation jobs, a defense comparison bundle
    for defense jobs.  The engine never looks inside it; only the sweep
    orchestrator that built the plan does.

    ``restored`` marks an outcome loaded from a checkpoint journal instead
    of executed this run (``worker_id``/``duration_seconds``/``cache_stats``
    then describe the *original* execution).
    """

    job_id: int
    result: object
    cache_stats: CacheStats | None = None
    worker_id: str = "serial"
    duration_seconds: float = 0.0
    restored: bool = False


@dataclass
class ExperimentPlan:
    """An ordered list of experiment jobs plus shared sweep metadata.

    The generic substrate every sweep compiles to: the architecture
    comparison's :class:`AttackPlan`, the transferability stages and the
    defense plans are all instances.  ``attack_config`` supplies the
    activation-cache settings the executing backend uses to provision
    stores; ``name`` labels the plan in reports.
    """

    jobs: list
    attack_config: AttackConfig
    experiment_seed: int | None = None
    name: str = "experiment"

    def __len__(self) -> int:
        return len(self.jobs)

    def model_specs(self) -> list:
        """Unique model specs in first-appearance (plan) order."""
        seen: dict = {}
        for job in self.jobs:
            for spec in job_model_specs(job):
                seen.setdefault(spec, None)
        return list(seen)

    def jobs_per_model(self) -> dict:
        """Number of jobs each model appears in (for lifecycle accounting)."""
        counts: dict = {}
        for job in self.jobs:
            for spec in job_model_specs(job):
                counts[spec] = counts.get(spec, 0) + 1
        return counts


@dataclass
class AttackPlan(ExperimentPlan):
    """The models × images sweep plan: jobs plus architecture labels."""

    labels: tuple[str, ...] = ()


def plan_fingerprint(plan: ExperimentPlan) -> dict:
    """A plan's identity for checkpoint-journal validation.

    Cheap but discriminating: name, job count, experiment seed and a
    digest of the job-id/job-type sequence.  A journal written for one
    plan must never seed the resume of a different one — silently loading
    mismatched outcomes would corrupt the resumed report, so the journal
    header stores this fingerprint and :class:`~repro.experiments.checkpoint.PlanCheckpoint`
    rejects a plan whose fingerprint differs.
    """
    digest = hashlib.sha256()
    for job in plan.jobs:
        digest.update(f"{job.job_id}:{type(job).__name__};".encode())
    return {
        "name": plan.name,
        "num_jobs": len(plan.jobs),
        "experiment_seed": plan.experiment_seed,
        "jobs_digest": digest.hexdigest(),
    }


def seed_from_sequence(sequence: np.random.SeedSequence) -> int:
    """Collapse a ``SeedSequence`` child into a 64-bit integer seed.

    The shared derivation of every plan-position seed (and of the defense
    augmentation seeds): two ``uint32`` words of the sequence's generated
    state packed into one integer, so a derived seed is a pure function of
    the root entropy and the spawn path.
    """
    state = sequence.generate_state(2, np.uint32)
    return (int(state[0]) << 32) | int(state[1])


def derive_job_seeds(experiment_seed: int, num_jobs: int) -> list[int]:
    """Deterministic spawn-safe per-job NSGA-II seeds.

    One ``SeedSequence`` child per plan position, collapsed to a 64-bit
    integer seed.  The derivation depends only on ``experiment_seed`` and
    the job's position, so any backend, worker count or completion order
    sees the same seed for the same job.
    """
    if experiment_seed < 0:
        raise ValueError(
            f"experiment_seed must be non-negative, got {experiment_seed}"
        )
    root = np.random.SeedSequence(experiment_seed)
    return [seed_from_sequence(child) for child in root.spawn(num_jobs)]


def apply_experiment_seed(jobs: Sequence, experiment_seed: int | None) -> None:
    """Assign plan-position-derived NSGA seeds to every job that takes one.

    Seeds are derived for *every* position (so a job's seed never depends
    on which other job types share the plan) but only assigned to jobs
    exposing an ``nsga_seed`` field; jobs without one — e.g. the transfer
    cross-evaluation stage, which runs no NSGA search — are skipped.
    ``experiment_seed=None`` is a no-op (the historical shared-seed mode).
    """
    if experiment_seed is None:
        return
    for job, seed in zip(jobs, derive_job_seeds(experiment_seed, len(jobs))):
        if hasattr(job, "nsga_seed"):
            job.nsga_seed = seed


def build_attack_plan(
    architectures: Sequence[str],
    seeds: Iterable[int],
    dataset: Sequence,
    attack_config: AttackConfig,
    training: TrainingConfig | None = None,
    detector_config: DetectorConfig | None = None,
    experiment_seed: int | None = None,
) -> AttackPlan:
    """Expand the models × images grid into an ordered :class:`AttackPlan`.

    Job order is exactly the historical nested loop — architectures, then
    model seeds, then scenes — so a serial execution of the plan reproduces
    the original runner's result order (and, with ``experiment_seed=None``,
    its results bit-exactly).  ``dataset`` is any sequence of samples with
    an ``image`` attribute (or raw arrays).
    """
    seeds = list(seeds)
    jobs: list[AttackJob] = []
    labels: list[str] = []
    job_id = 0
    for architecture in architectures:
        spec_label = ARCHITECTURE_ALIASES.get(architecture.lower())
        if spec_label is None:
            raise ValueError(
                f"unknown architecture {architecture!r}; expected one of "
                f"{sorted(ARCHITECTURE_ALIASES)}"
            )
        if spec_label not in labels:
            labels.append(spec_label)
        for seed in seeds:
            model = ModelSpec(
                architecture=architecture,
                seed=int(seed),
                detector=detector_config,
                training=training,
            )
            for scene_index, sample in enumerate(dataset):
                image = getattr(sample, "image", sample)
                jobs.append(
                    AttackJob(
                        job_id=job_id,
                        model=model,
                        image=image,
                        config=attack_config,
                        scene_index=scene_index,
                    )
                )
                job_id += 1

    apply_experiment_seed(jobs, experiment_seed)

    return AttackPlan(
        jobs=jobs,
        labels=tuple(labels),
        attack_config=attack_config,
        experiment_seed=experiment_seed,
        name="architecture-comparison",
    )

