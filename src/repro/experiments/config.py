"""Table I and Table II of the paper as configuration objects.

Table I (experiment parametrisation)::

    # models generated                25 YOLOv5 and 25 DETR
    # images tested on each model     16
    # models used in ensemble         16

Table II (configuration for NSGA-II)::

    Number of iterations              100
    Population size                   101
    Crossover probability             pc = 0.5
    Mutation probability              pm = 0.45
    Mutation window size              w = 1 %
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nsga.algorithm import NSGAConfig
from repro.nsga.mutation import MutationConfig

#: Table II, exactly as printed in the paper.
NSGA_TABLE_II: NSGAConfig = NSGAConfig(
    num_iterations=100,
    population_size=101,
    crossover_probability=0.5,
    mutation=MutationConfig(probability=0.45, window_fraction=0.01),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Table I: the evaluation protocol of Section V-A.

    Attributes
    ----------
    models_per_architecture:
        Number of seed-varied models trained per architecture (paper: 25).
    images_per_model:
        Number of images each model is attacked on (paper: 16).
    ensemble_size:
        Number of models per ensemble (paper: 16).
    model_seeds:
        The seeds used to train the models (paper: 1..25).
    image_length, image_width:
        Evaluation image resolution (synthetic substitute for KITTI's
        1242x375; the wide aspect ratio is preserved).

    The protocol says what is attacked, not how it is executed: a sweep
    takes its worker count and backend as its own ``n_jobs``/``backend``
    arguments (see :class:`~repro.experiments.runner.SweepSession`).
    """

    models_per_architecture: int = 25
    images_per_model: int = 16
    ensemble_size: int = 16
    model_seeds: tuple[int, ...] = tuple(range(1, 26))
    image_length: int = 96
    image_width: int = 320

    def __post_init__(self) -> None:
        if self.models_per_architecture < 1:
            raise ValueError("models_per_architecture must be at least 1")
        if self.images_per_model < 1:
            raise ValueError("images_per_model must be at least 1")
        if self.ensemble_size < 1:
            raise ValueError("ensemble_size must be at least 1")
        if len(self.model_seeds) < self.models_per_architecture:
            raise ValueError(
                "model_seeds must provide at least models_per_architecture seeds"
            )
        if self.ensemble_size > self.models_per_architecture:
            raise ValueError("ensemble_size cannot exceed models_per_architecture")

    @staticmethod
    def paper() -> "ExperimentConfig":
        """The exact Table I protocol."""
        return ExperimentConfig()

    @staticmethod
    def reduced(
        models_per_architecture: int = 2,
        images_per_model: int = 2,
        ensemble_size: int | None = None,
        image_length: int = 64,
        image_width: int = 208,
    ) -> "ExperimentConfig":
        """A laptop/CI-scale protocol with the same structure as Table I.

        ``ensemble_size`` defaults to ``min(2, models_per_architecture)``.
        """
        return ExperimentConfig(
            models_per_architecture=models_per_architecture,
            images_per_model=images_per_model,
            ensemble_size=(
                min(2, models_per_architecture)
                if ensemble_size is None
                else ensemble_size
            ),
            model_seeds=tuple(range(1, models_per_architecture + 1)),
            image_length=image_length,
            image_width=image_width,
        )


def experiment_table_rows(config: ExperimentConfig | None = None) -> list[dict[str, object]]:
    """Rows reproducing Table I for the given (default: paper) protocol."""
    config = config if config is not None else ExperimentConfig.paper()
    return [
        {
            "Configuration": "# models generated",
            "Value": (
                f"{config.models_per_architecture} YOLOv5(sim) and "
                f"{config.models_per_architecture} DETR(sim)"
            ),
        },
        {
            "Configuration": "# images tested on each model",
            "Value": str(config.images_per_model),
        },
        {
            "Configuration": "# models used in ensemble",
            "Value": str(config.ensemble_size),
        },
    ]


def nsga_table_rows(config: NSGAConfig | None = None) -> list[dict[str, object]]:
    """Rows reproducing Table II for the given (default: paper) configuration."""
    config = config if config is not None else NSGA_TABLE_II
    return [
        {"Parameter": "Number of iterations", "Value": str(config.num_iterations)},
        {"Parameter": "Population size", "Value": str(config.population_size)},
        {
            "Parameter": "Crossover probability",
            "Value": f"pc = {config.crossover_probability}",
        },
        {
            "Parameter": "Mutation probability",
            "Value": f"pm = {config.mutation.probability}",
        },
        {
            "Parameter": "Mutation window size",
            "Value": f"w = {config.mutation.window_fraction:.0%}",
        },
    ]
