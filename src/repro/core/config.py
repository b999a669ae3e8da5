"""Attack configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.regions import FullImageRegion, Region
from repro.nsga.algorithm import NSGAConfig


@dataclass(frozen=True)
class AttackConfig:
    """Configuration of a butterfly-effect attack run.

    Attributes
    ----------
    nsga:
        NSGA-II parametrisation (the paper's Table II by default).
    region:
        Spatial constraint on the perturbation (paper: right half only).
    epsilon:
        Buffer ``ϵ`` around bounding boxes used by Algorithm 2.
    use_activation_cache:
        Cache the clean scene's activations and evaluate masks through the
        detectors' incremental (dirty-region) path where supported.
        Bit-identical to the dense path; only changes speed.  Defaults to
        on.
    activation_cache_size:
        Entry cap of the per-sweep :class:`~repro.detectors.
        activation_cache.ActivationCacheStore` (one entry per cached
        ``(detector, scene)`` pair) used by the experiment runner.
    sparse_init_fraction:
        Fraction of the NSGA-II initial population drawn as *sparse*
        patch-confined masks instead of dense Gaussian ones, so short
        attacks reach the incremental inference path's sparse-mask sweet
        spot from generation zero.  ``0.0`` (the default) keeps the paper's
        dense initialisation bit-exactly — the search dynamics only change
        when this is explicitly enabled.
    use_delta_reuse:
        Memoise each evaluated mask's spliced activations and re-splice
        only the child-vs-parent diff for offspring whose ancestor is still
        cached (cross-generation delta reuse).  Bit-identical to the
        clean-splice path; only changes speed.  Defaults to on.
    delta_store_size:
        LRU entry cap of the per-scene delta-activation store feeding the
        cross-generation reuse path.
    anneal_final_window:
        When set, anneal the mutation ``window_fraction`` from its base
        value down (or up) to this value across the run — dense exploration
        early, sparse refinement late.  ``None`` (default) keeps the
        constant paper schedule and the exact historical RNG draw stream.
    anneal_shape:
        ``"log"`` (geometric, default) or ``"linear"`` interpolation for
        the annealing schedule.
    """

    nsga: NSGAConfig = field(default_factory=NSGAConfig)
    region: Region = field(default_factory=FullImageRegion)
    epsilon: float = 2.0
    use_activation_cache: bool = True
    activation_cache_size: int = 4
    sparse_init_fraction: float = 0.0
    use_delta_reuse: bool = True
    delta_store_size: int = 256
    anneal_final_window: float | None = None
    anneal_shape: str = "log"

    def __post_init__(self) -> None:
        if not 0.0 <= self.sparse_init_fraction <= 1.0:
            raise ValueError("sparse_init_fraction must be in [0, 1]")
        if self.activation_cache_size < 1:
            raise ValueError("activation_cache_size must be at least 1")
        if self.delta_store_size < 1:
            raise ValueError("delta_store_size must be at least 1")
        if self.anneal_final_window is not None:
            from repro.nsga.mutation import IntensityAnnealing

            IntensityAnnealing(
                final_window_fraction=self.anneal_final_window,
                shape=self.anneal_shape,
            )

    @staticmethod
    def paper_defaults(region: Region | None = None, seed: int = 0) -> "AttackConfig":
        """Table II parametrisation; optionally with a perturbation region."""
        return AttackConfig(
            nsga=NSGAConfig.paper_defaults(seed=seed),
            region=region if region is not None else FullImageRegion(),
        )

    @staticmethod
    def fast(
        region: Region | None = None,
        seed: int = 0,
        num_iterations: int = 10,
        population_size: int = 16,
    ) -> "AttackConfig":
        """A reduced configuration for tests, examples and CI benchmarks.

        The search dynamics are identical to the paper's; only the budget
        (population and generations) is smaller.
        """
        from repro.nsga.mutation import MutationConfig

        return AttackConfig(
            nsga=NSGAConfig(
                num_iterations=num_iterations,
                population_size=population_size,
                crossover_probability=0.5,
                mutation=MutationConfig(probability=0.45, window_fraction=0.01),
                seed=seed,
            ),
            region=region if region is not None else FullImageRegion(),
        )
