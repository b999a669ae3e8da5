"""Command-line interface.

Six subcommands cover the common workflows:

* ``repro-attack attack``    — run a butterfly-effect attack on a synthetic
  scene (or the full-paper budget with ``--paper-budget``) and optionally
  save the result,
* ``repro-attack compare``   — run the reduced Figure 2 architecture
  comparison and print the summary table,
* ``repro-attack transfer``  — measure mask transferability across
  seed-varied models (the N×N transfer matrix) on the experiment engine,
* ``repro-attack defend``    — attack undefended / noise-defended (and
  optionally ensemble) variants under the same budget,
* ``repro-attack sequence``  — attack a streaming scene sequence (one shared
  mask, track-level objectives, frame-to-frame activation reuse),
* ``repro-attack figures``   — regenerate the qualitative figure scenarios,
* ``repro-attack table``     — print Table I / Table II.

The sweep commands (``compare``, ``transfer``, ``defend``, ``sequence``) share the
execution-engine options ``--jobs``, ``--backend``, ``--experiment-seed``,
``--checkpoint-dir``/``--resume`` (fault-tolerant journaled execution: an
interrupted sweep resumes from the journal with bit-identical results) and
``--max-retries`` (in-run requeue of crashed/raising jobs) — results are
bit-identical for every backend and worker count.  The CLI works entirely
on the synthetic substrate, so every command runs offline on a laptop.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Sequence

from repro.analysis.reporting import format_table
from repro.core.attack import ButterflyAttack
from repro.core.config import AttackConfig
from repro.core.regions import HalfImageRegion, region_from_name
from repro.defenses.augmentation import NoiseAugmentationConfig
from repro.defenses.evaluation import ensemble_defense_evaluation, evaluate_defense
from repro.defenses.jobs import DefendedModelSpec
from repro.detectors.activation_cache import ActivationCacheStore
from repro.data.dataset import generate_dataset
from repro.detectors.training import TrainingConfig
from repro.detectors.zoo import build_detector
from repro.experiments.config import (
    ExperimentConfig,
    NSGA_TABLE_II,
    experiment_table_rows,
    nsga_table_rows,
)
from repro.experiments.figures import (
    figure1_disappearing_objects,
    figure3_figure4_contrast,
    figure5_ghost_objects,
)
from repro.experiments.engine import RetryPolicy
from repro.experiments.jobs import ModelSpec, SequenceSpec
from repro.experiments.runner import run_architecture_comparison, run_sequence_sweep
from repro.experiments.transfer import run_transferability_experiment
from repro.io.serialization import (
    save_attack_result,
    save_defense_evaluation,
    save_ensemble_defense_evaluation,
    save_transfer_result,
)
from repro.nsga.algorithm import NSGAConfig


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return parsed


def _non_negative_int(value: str) -> int:
    parsed = int(value)
    if parsed < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return parsed


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    """The execution-engine options shared by every sweep subcommand."""
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help=(
            "worker processes for the sweep (1 = in-process serial "
            "execution); results are bit-identical for every worker count, "
            "only wall-clock time changes"
        ),
    )
    parser.add_argument(
        "--backend",
        choices=["serial", "process", "persistent"],
        default=None,
        help=(
            "execution backend for the sweep; default: serial for --jobs 1, "
            "a multiprocessing pool otherwise; 'persistent' keeps a pool of "
            "long-lived workers with warm activation caches and shared-memory scenes"
        ),
    )
    parser.add_argument(
        "--experiment-seed",
        type=_non_negative_int,
        default=None,
        help=(
            "derive one NSGA-II seed per job from this seed (spawn-safe "
            "SeedSequence by plan position, independent of worker "
            "scheduling); default: every job runs the same configured seed"
        ),
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help=(
            "journal completed jobs to this directory as they finish; an "
            "interrupted sweep re-run with --resume picks up from the "
            "journal with bit-identical final results"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume from the journals in --checkpoint-dir (already-journaled "
            "jobs are skipped); without --resume an existing journal is an "
            "error so a stale directory cannot silently skip work"
        ),
    )
    parser.add_argument(
        "--max-retries",
        type=_non_negative_int,
        default=None,
        help=(
            "requeue a job whose worker crashed or raised up to this many "
            "times before giving up; default: fail fast on the first error"
        ),
    )


def _engine_kwargs(args: argparse.Namespace) -> dict:
    """Resolve the shared engine options into sweep keyword arguments."""
    if args.resume and args.checkpoint_dir is None:
        raise SystemExit("error: --resume requires --checkpoint-dir")
    retry = (
        RetryPolicy(max_retries=args.max_retries)
        if args.max_retries is not None
        else None
    )
    return {
        "n_jobs": args.jobs,
        "backend": args.backend,
        "experiment_seed": args.experiment_seed,
        "checkpoint_dir": args.checkpoint_dir,
        "resume": args.resume,
        "retry": retry,
    }


def _print_execution_summary(execution: dict | None) -> None:
    """Print the shared engine-provenance summary of a sweep report."""
    if execution is None:
        return
    print(
        f"Execution: backend={execution['backend']} jobs={execution['n_jobs']} "
        f"wall={execution['duration_seconds']:.2f}s"
    )
    if execution.get("journal_hits") or execution.get("retries"):
        print(
            f"Fault tolerance: {execution.get('journal_hits', 0)} jobs "
            f"restored from journal, {execution.get('retries', 0)} retries"
        )
    if execution.get("cache_enabled"):
        stats = execution["cache_stats"]
        print(
            f"Activation cache (sweep total): {stats['hits']} hits, "
            f"{stats['misses']} misses, {stats['evictions']} evictions, "
            f"{stats.get('invalidations', 0)} invalidations "
            f"(hit rate {stats['hit_rate']:.1%})"
        )
        if stats.get("delta_hits", 0) or stats.get("delta_misses", 0):
            print(
                f"Delta reuse (sweep total): {stats['delta_hits']} ancestor "
                f"hits, {stats['delta_misses']} misses "
                f"(hit rate {stats.get('delta_hit_rate', 0.0):.1%})"
            )
        if stats.get("frame_hits", 0) or stats.get("frame_misses", 0):
            print(
                f"Frame cache (sweep total): {stats['frame_hits']} temporal "
                f"derivations/hits, {stats['frame_misses']} dense rebuilds "
                f"(hit rate {stats.get('frame_hit_rate', 0.0):.1%})"
            )
    else:
        print("Activation cache: disabled")


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``repro-attack`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro-attack",
        description="Butterfly Effect Attack (DATE 2023) reproduction CLI",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    attack = subparsers.add_parser("attack", help="attack one synthetic scene")
    attack.add_argument("--detector", default="detr", help="yolo or detr")
    attack.add_argument("--seed", type=int, default=1, help="detector seed")
    attack.add_argument("--scene-seed", type=int, default=7, help="scene generator seed")
    attack.add_argument(
        "--region", default="right", help="perturbable region: full, left or right"
    )
    attack.add_argument("--iterations", type=int, default=10)
    attack.add_argument("--population", type=int, default=16)
    attack.add_argument(
        "--paper-budget",
        action="store_true",
        help="use the paper's Table II budget (100 generations x 101 individuals)",
    )
    attack.add_argument("--output", default=None, help="directory to save the result")
    attack.add_argument(
        "--activation-cache",
        action=argparse.BooleanOptionalAction,
        default=None,
        help=(
            "cache the clean scene's activations and evaluate masks through "
            "the detector's incremental dirty-region path (bit-identical to "
            "the dense path, only faster); --no-activation-cache forces the "
            "dense batched path.  Default: on"
        ),
    )
    attack.add_argument(
        "--activation-cache-size",
        type=_positive_int,
        default=4,
        help=(
            "entry cap of the clean-activation store (one entry per cached "
            "(detector, scene) pair; least recently used scenes are evicted)"
        ),
    )
    attack.add_argument(
        "--delta-reuse",
        action=argparse.BooleanOptionalAction,
        default=None,
        help=(
            "memoise each evaluated mask's spliced activations and re-splice "
            "only the child-vs-parent diff for offspring whose ancestor is "
            "still cached (bit-identical to the clean-splice path, only "
            "faster on lineage-heavy populations); --no-delta-reuse forces "
            "every mask through the full clean-splice.  Default: on"
        ),
    )
    attack.add_argument(
        "--delta-store-size",
        type=_positive_int,
        default=None,
        help="entry cap of the per-scene delta-activation store (default 256)",
    )
    attack.add_argument(
        "--anneal-final-window",
        type=float,
        default=None,
        help=(
            "anneal the mutation window fraction from its base value to "
            "this value across the run (dense exploration early, sparse "
            "refinement late); default: constant paper schedule"
        ),
    )
    attack.add_argument(
        "--anneal-shape",
        choices=["log", "linear"],
        default="log",
        help="interpolation shape of --anneal-final-window (default: log)",
    )

    compare = subparsers.add_parser(
        "compare", help="run the reduced Figure 2 architecture comparison"
    )
    compare.add_argument("--models", type=int, default=2, help="models per architecture")
    compare.add_argument("--images", type=int, default=1, help="images per model")
    compare.add_argument("--iterations", type=int, default=8)
    compare.add_argument("--population", type=int, default=14)
    _add_engine_options(compare)

    transfer = subparsers.add_parser(
        "transfer",
        help="measure mask transferability across seed-varied models",
    )
    transfer.add_argument("--architecture", default="detr", help="yolo or detr")
    transfer.add_argument(
        "--models",
        type=_positive_int,
        default=2,
        help="number of seed-varied models (trained with seeds 1..N)",
    )
    transfer.add_argument("--scene-seed", type=int, default=7, help="scene generator seed")
    transfer.add_argument("--iterations", type=int, default=6)
    transfer.add_argument("--population", type=int, default=12)
    _add_engine_options(transfer)
    transfer.add_argument("--output", default=None, help="directory to save the report")

    defend = subparsers.add_parser(
        "defend",
        help="attack undefended vs noise-defended (and ensemble) variants",
    )
    defend.add_argument("--detector", default="detr", help="yolo or detr")
    defend.add_argument("--seed", type=int, default=1, help="detector seed")
    defend.add_argument("--scene-seed", type=int, default=7, help="scene generator seed")
    defend.add_argument("--iterations", type=int, default=6)
    defend.add_argument("--population", type=int, default=12)
    defend.add_argument(
        "--augmented-copies",
        type=_positive_int,
        default=1,
        help="noisy copies of every training scene in the defence refit",
    )
    defend.add_argument(
        "--ensemble",
        type=_positive_int,
        default=None,
        help=(
            "additionally attack an ensemble of this many seed-varied models "
            "(seeds 1..N) and measure whether vote fusion suppresses the damage"
        ),
    )
    _add_engine_options(defend)
    defend.add_argument("--output", default=None, help="directory to save the report")

    sequence = subparsers.add_parser(
        "sequence",
        help=(
            "attack a streaming scene sequence: one shared mask, "
            "track-level objectives, temporally derived activations"
        ),
    )
    sequence.add_argument("--detector", default="yolo", help="yolo or detr")
    sequence.add_argument(
        "--models",
        type=_positive_int,
        default=1,
        help="number of seed-varied models (trained with seeds 1..N)",
    )
    sequence.add_argument("--scene-seed", type=int, default=7, help="sequence generator seed")
    sequence.add_argument(
        "--frames",
        type=_positive_int,
        default=4,
        help="frames per generated sequence (objects drift between frames)",
    )
    sequence.add_argument(
        "--frame-cache-size",
        type=_positive_int,
        default=2,
        help=(
            "rolling window of per-frame activation bundles the temporal "
            "cache keeps; frame t's clean activations are derived from "
            "frame t-1's bundle by recomputing only the moving-object "
            "region (bit-identical to a dense per-frame build)"
        ),
    )
    sequence.add_argument(
        "--track-k",
        type=_positive_int,
        default=2,
        help=(
            "consecutive undetected frames for a ground-truth track to "
            "count as suppressed (the fourth, track-survival objective)"
        ),
    )
    sequence.add_argument(
        "--iou-threshold",
        type=float,
        default=0.5,
        help="IoU for matching a detection to a ground-truth track box",
    )
    sequence.add_argument(
        "--max-speed",
        type=float,
        default=4.0,
        help="maximum per-frame object drift in pixels",
    )
    sequence.add_argument("--iterations", type=int, default=6)
    sequence.add_argument("--population", type=int, default=12)
    _add_engine_options(sequence)
    sequence.add_argument("--output", default=None, help="directory to save the first result")

    figures = subparsers.add_parser("figures", help="regenerate a figure scenario")
    figures.add_argument(
        "name", choices=["fig1", "fig3-4", "fig5"], help="which figure to regenerate"
    )
    figures.add_argument("--iterations", type=int, default=12)
    figures.add_argument("--population", type=int, default=16)

    table = subparsers.add_parser("table", help="print Table I or Table II")
    table.add_argument("name", choices=["1", "2"], help="table number")

    return parser


def _attack_config(args: argparse.Namespace) -> AttackConfig:
    region = region_from_name(args.region) if hasattr(args, "region") else region_from_name("right")
    cache_overrides = {}
    if getattr(args, "activation_cache", None) is not None:
        cache_overrides["use_activation_cache"] = bool(args.activation_cache)
    if getattr(args, "activation_cache_size", None) is not None:
        cache_overrides["activation_cache_size"] = int(args.activation_cache_size)
    if getattr(args, "delta_reuse", None) is not None:
        cache_overrides["use_delta_reuse"] = bool(args.delta_reuse)
    if getattr(args, "delta_store_size", None) is not None:
        cache_overrides["delta_store_size"] = int(args.delta_store_size)
    if getattr(args, "anneal_final_window", None) is not None:
        cache_overrides["anneal_final_window"] = float(args.anneal_final_window)
        cache_overrides["anneal_shape"] = str(getattr(args, "anneal_shape", "log"))
    if getattr(args, "paper_budget", False):
        base = AttackConfig.paper_defaults(region=region)
        return replace(base, **cache_overrides) if cache_overrides else base
    return AttackConfig(
        nsga=NSGAConfig(
            num_iterations=args.iterations, population_size=args.population, seed=0
        ),
        region=region,
        **cache_overrides,
    )


def _run_attack(args: argparse.Namespace) -> int:
    dataset = generate_dataset(num_images=1, seed=args.scene_seed, half="left")
    sample = dataset[0]
    detector = build_detector(args.detector, seed=args.seed)
    print(f"Detector: {detector.name}")
    print(f"Clean prediction: {detector.predict(sample.image).summary()}")

    config = _attack_config(args)
    activation_store = (
        ActivationCacheStore(
            max_entries=config.activation_cache_size,
            delta_store_size=config.delta_store_size if config.use_delta_reuse else 0,
        )
        if config.use_activation_cache
        else None
    )
    result = ButterflyAttack(
        detector, config, activation_store=activation_store
    ).attack(sample.image)
    print(result.summary())
    print(
        f"Evaluations: {result.num_evaluations} requested, "
        f"{result.cache_hits} answered by the evaluation cache, "
        f"{result.num_queries} detector queries"
    )
    if activation_store is not None:
        stats = activation_store.stats
        print(
            f"Activation cache: {stats['entries']} cached scene(s), "
            f"{stats['hits']} hits, {stats['misses']} misses, "
            f"{stats['evictions']} evictions"
        )
        if "delta_hits" in stats:
            print(
                f"Delta reuse: {stats['delta_hits']} ancestor hits, "
                f"{stats['delta_misses']} misses, "
                f"{stats['delta_bytes']} bytes admitted"
            )
    incremental_rows = [
        {
            "generation": entry["generation"],
            "dirty_area": f"{entry['incremental']['dirty_area_ratio']:.1%}",
            "delta_hits": entry["incremental"]["delta_hits"],
            "delta_misses": entry["incremental"]["delta_misses"],
        }
        for entry in result.history
        if entry.get("incremental") is not None
    ]
    if incremental_rows:
        print("Incremental inference per generation:")
        print(format_table(incremental_rows))
    rows = [
        {
            "solution": index,
            "obj_intensity": solution.intensity,
            "obj_degrad": solution.degradation,
            "obj_dist": solution.distance,
        }
        for index, solution in enumerate(result.pareto_front)
    ]
    print(format_table(rows))

    if args.output:
        path = save_attack_result(result, args.output)
        print(f"Saved attack result to {path}")
    return 0


def _run_compare(args: argparse.Namespace) -> int:
    experiment = ExperimentConfig.reduced(
        models_per_architecture=args.models,
        images_per_model=args.images,
        ensemble_size=min(args.models, 2),
    )
    nsga = NSGAConfig(
        num_iterations=args.iterations, population_size=args.population, seed=0
    )
    comparison = run_architecture_comparison(
        experiment=experiment,
        nsga=nsga,
        **_engine_kwargs(args),
    )
    print(comparison.report.to_text())
    summary = comparison.susceptibility_summary()
    single_stage = summary["single_stage"]["best_degradation"]
    transformer = summary["transformer"]["best_degradation"]
    print(
        f"best obj_degrad: single_stage={single_stage:.3f} transformer={transformer:.3f}"
    )
    execution = comparison.execution
    if execution is not None:
        total = execution.cache_stats
        print(
            f"Execution: backend={execution.backend} jobs={execution.n_jobs} "
            f"wall={execution.duration_seconds:.2f}s workers={len(execution.per_worker)}"
        )
        if execution.journal_hits or execution.retries:
            print(
                f"Fault tolerance: {execution.journal_hits} jobs restored "
                f"from journal, {execution.retries} retries"
            )
        if execution.cache_enabled:
            print(
                f"Activation cache (sweep total): {total.hits} hits, "
                f"{total.misses} misses, {total.evictions} evictions "
                f"(hit rate {total.hit_rate:.1%})"
            )
            if execution.per_model:
                print(format_table(execution.cache_rows()))
        else:
            print("Activation cache: disabled")
    return 0


#: Reduced sweep geometry shared by the transfer/defend subcommands (the
#: laptop-scale ExperimentConfig.reduced() resolution).
_SWEEP_LENGTH, _SWEEP_WIDTH = 64, 208


def _sweep_protocol(scene_seed: int) -> tuple[TrainingConfig, object]:
    """Training config and one left-half scene at the reduced resolution."""
    training = TrainingConfig(image_length=_SWEEP_LENGTH, image_width=_SWEEP_WIDTH)
    dataset = generate_dataset(
        num_images=1,
        seed=scene_seed,
        image_length=_SWEEP_LENGTH,
        image_width=_SWEEP_WIDTH,
        half="left",
    )
    return training, dataset[0]


def _sweep_attack_config(args: argparse.Namespace) -> AttackConfig:
    return AttackConfig(
        nsga=NSGAConfig(
            num_iterations=args.iterations, population_size=args.population, seed=0
        ),
        region=HalfImageRegion("right"),
    )


def _run_transfer(args: argparse.Namespace) -> int:
    training, sample = _sweep_protocol(args.scene_seed)
    specs = [
        ModelSpec(args.architecture, seed, training=training)
        for seed in range(1, args.models + 1)
    ]
    result = run_transferability_experiment(
        specs,
        sample.image,
        _sweep_attack_config(args),
        **_engine_kwargs(args),
    )
    print(format_table(result.as_rows()))
    print(
        f"white-box obj_degrad: {result.self_degradation():.3f}, "
        f"transferred obj_degrad: {result.transfer_degradation():.3f}, "
        f"transfer gap: {result.transfer_gap():.3f}"
    )
    _print_execution_summary(result.execution)
    if args.output:
        path = save_transfer_result(result, args.output)
        print(f"Saved transferability report to {path}")
    return 0


def _run_defend(args: argparse.Namespace) -> int:
    training, sample = _sweep_protocol(args.scene_seed)
    config = _sweep_attack_config(args)
    undefended = ModelSpec(args.detector, args.seed, training=training)
    defended = DefendedModelSpec(
        base=undefended,
        augmentation=NoiseAugmentationConfig(augmented_copies=args.augmented_copies),
        training=training,
    )
    evaluation = evaluate_defense(
        undefended,
        defended,
        sample.image,
        sample.ground_truth,
        config,
        **_engine_kwargs(args),
    )
    print(format_table(evaluation.summary_rows()))
    print(
        f"robustness gain: {evaluation.robustness_gain:+.3f} "
        f"(attack still succeeds: {evaluation.attack_still_succeeds})"
    )
    _print_execution_summary(evaluation.execution)

    ensemble_evaluation = None
    if args.ensemble:
        members = [
            ModelSpec(args.detector, seed, training=training)
            for seed in range(1, args.ensemble + 1)
        ]
        ensemble_evaluation = ensemble_defense_evaluation(
            members,
            sample.image,
            config,
            **_engine_kwargs(args),
        )
        member_mean = (
            sum(ensemble_evaluation.member_degradations)
            / len(ensemble_evaluation.member_degradations)
        )
        print(
            f"Ensemble of {len(members)}: fused obj_degrad="
            f"{ensemble_evaluation.fused_degradation:.3f}, member mean="
            f"{member_mean:.3f}, fusion helps: {ensemble_evaluation.fusion_helps}"
        )

    if args.output:
        path = save_defense_evaluation(evaluation, args.output)
        print(f"Saved defense evaluation to {path}")
        if ensemble_evaluation is not None:
            ensemble_path = save_ensemble_defense_evaluation(
                ensemble_evaluation, path / "ensemble"
            )
            print(f"Saved ensemble-defense evaluation to {ensemble_path}")
    return 0


def _run_sequence(args: argparse.Namespace) -> int:
    spec = SequenceSpec(
        num_frames=args.frames,
        seed=args.scene_seed,
        image_length=_SWEEP_LENGTH,
        image_width=_SWEEP_WIDTH,
        half="left",
        max_speed=args.max_speed,
    )
    training = TrainingConfig(image_length=_SWEEP_LENGTH, image_width=_SWEEP_WIDTH)
    sweep = run_sequence_sweep(
        architectures=[args.detector],
        seeds=range(1, args.models + 1),
        sequences=[spec],
        attack_config=_sweep_attack_config(args),
        training=training,
        track_k=args.track_k,
        iou_threshold=args.iou_threshold,
        frame_cache_size=args.frame_cache_size,
        **_engine_kwargs(args),
    )
    rows = []
    for result in sweep.results:
        front = result.pareto_front
        best_degradation = (
            min(solution.degradation for solution in front) if front else 1.0
        )
        best_survival = (
            min(solution.extras.get("track_survival", 1.0) for solution in front)
            if front
            else 1.0
        )
        frame_stats = (result.incremental or {}).get("frame_cache", {})
        rows.append(
            {
                "run": result.detector_name,
                "front": len(front),
                "best_degrad": best_degradation,
                "best_track_survival": best_survival,
                "frame_hit_rate": f"{frame_stats.get('frame_hit_rate', 0.0):.1%}",
            }
        )
    print(format_table(rows))
    print(
        f"mean best track survival: {sweep.mean_track_survival():.3f} "
        f"(track suppressed = undetected for >= {args.track_k} consecutive frames)"
    )
    _print_execution_summary(sweep.provenance())
    if args.output and sweep.results:
        path = save_attack_result(sweep.results[0], args.output)
        print(f"Saved first sequence attack result to {path}")
    return 0


def _run_figures(args: argparse.Namespace) -> int:
    config = AttackConfig(
        nsga=NSGAConfig(
            num_iterations=args.iterations, population_size=args.population, seed=0
        ),
        region=region_from_name("right"),
    )
    if args.name == "fig1":
        outcome = figure1_disappearing_objects(
            build_detector("detr", seed=1), attack_config=config
        )
    elif args.name == "fig3-4":
        outcome = figure3_figure4_contrast(
            build_detector("yolo", seed=1),
            build_detector("detr", seed=1),
            attack_config=config,
        )
    else:
        outcome = figure5_ghost_objects(
            build_detector("detr", seed=1), attack_config=config
        )
    print(outcome.summary())
    if outcome.rendering:
        print(outcome.rendering)
    return 0


def _run_table(args: argparse.Namespace) -> int:
    if args.name == "1":
        print(format_table(experiment_table_rows(ExperimentConfig.paper())))
    else:
        print(format_table(nsga_table_rows(NSGA_TABLE_II)))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "attack": _run_attack,
        "compare": _run_compare,
        "transfer": _run_transfer,
        "defend": _run_defend,
        "sequence": _run_sequence,
        "figures": _run_figures,
        "table": _run_table,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
