#!/usr/bin/env python
"""Defence evaluation and mask transferability.

Two follow-up questions the paper raises:

1. *Is noise-augmented training enough?*  The introduction argues it is not:
   butterfly perturbations are structured, not random.  This example
   retrains the transformer's classification head on noise-augmented scenes
   and attacks both the defended and the undefended model with the same
   budget.
2. *Do butterfly masks transfer between models?*  The paper trains 25
   seed-varied models per architecture; this example optimises a mask
   against one seed and measures its effect on another.

Run with::

    python examples/defense_and_transfer.py
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.core import AttackConfig, HalfImageRegion
from repro.data import generate_dataset
from repro.defenses import NoiseAugmentationConfig, evaluate_defense, noise_augmented_detector
from repro.detectors import TrainingConfig, build_detector, build_model_zoo
from repro.experiments import run_transferability_experiment


def main() -> None:
    dataset = generate_dataset(num_images=1, seed=31, half="left")
    sample = dataset[0]
    attack_config = AttackConfig.fast(
        region=HalfImageRegion("right"), num_iterations=8, population_size=12
    )

    print("=== 1. Noise-augmentation defence ===")
    undefended = build_detector("detr", seed=1)
    defended = noise_augmented_detector(
        build_detector("detr", seed=1),
        training=TrainingConfig(),
        augmentation=NoiseAugmentationConfig(augmented_copies=2),
    )
    evaluation = evaluate_defense(
        undefended=undefended,
        defended=defended,
        image=sample.image,
        ground_truth=sample.ground_truth,
        attack_config=attack_config,
    )
    print(format_table(evaluation.summary_rows()))
    if evaluation.attack_still_succeeds:
        print(
            "=> The butterfly attack still degrades the noise-augmented model, "
            "matching the paper's insufficiency argument."
        )
    else:
        print("=> At this budget the defended model resisted; increase the budget.")

    print()
    print("=== 2. Transferability across model seeds ===")
    # Both sweeps run on the generic experiment engine; pass n_jobs=2 to fan
    # the per-model attacks out over the persistent worker pool — results
    # are bit-identical for every worker count.
    models = build_model_zoo("detr", seeds=(1, 2))
    transfer = run_transferability_experiment(models, sample.image, attack_config)
    print(format_table(transfer.as_rows()))
    print(
        f"white-box obj_degrad: {transfer.self_degradation():.3f}, "
        f"transferred obj_degrad: {transfer.transfer_degradation():.3f}"
    )
    execution = transfer.execution
    print(
        f"engine: backend={execution['backend']} "
        f"wall={execution['duration_seconds']:.2f}s "
        f"cache hits={execution['cache_stats']['hits']}"
    )


if __name__ == "__main__":
    main()
