"""The NSGA-II main loop.

The algorithm follows Deb et al. (2002) with the implementation choices of
the paper's Section IV-A: explicit filter-mask genomes, one-point crossover
with probability ``pc``, the four pixel mutation operators with probability
``pm`` and window size ``w``, an initial population of Gaussian masks plus
the all-zero mask, and Pareto-sorted binary tournament selection.

Evaluation pipeline
-------------------

Each generation's unevaluated individuals flow through one batched pass:

1. a **keyed evaluation cache** (genome digest → objective vector)
   answers genomes that were already evaluated this run — duplicated
   elites and no-op offspring never re-query the detector;
2. the remaining genomes are stacked and handed to the objective function's
   ``evaluate_population`` fast path when it has one (one vectorised
   detector pass for the whole population), with a sequential per-genome
   fallback otherwise.

The fast path is an explicit protocol:
``evaluate_population(masks, dirty_bounds=None, ancestry=None)`` returns
one objective row per mask.  NSGA-II passes only ``ancestry`` — one record
per genome naming its own fingerprint and its head parent's — and leaves
``dirty_bounds`` to callers that already hold exact boxes.  Ancestry only
redirects which cached activations are spliced; it never changes
objective values.

Both paths are bit-identical by construction (the parity test suite
enforces it), so ``NSGAConfig.batch_evaluation`` only changes speed, never
results.  ``NSGAResult.num_evaluations`` keeps its historical meaning — the
number of objective vectors requested — while ``NSGAResult.cache_hits``
counts how many of those the cache answered without a detector query.

The genome-keyed evaluation cache composes with the clean-scene activation
cache of the incremental inference path: the former answers *repeated
genomes* from their digest, the latter makes *fresh genomes* cheap by
recomputing only each mask's dirty region against cached clean
activations.  Every dirty region is scanned exactly from the genome
itself, so the constraint may be any genome-to-genome map.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from repro.nn.incremental import byte_support_bbox
# The variation operators are bound under the names perfbench/spans.py
# patches by attribute.
from repro.nsga.crossover import one_point_crossover as one_point_crossover_lineage
from repro.nsga.crowding import crowding_distance
from repro.nsga.individual import Individual
from repro.nsga.initialization import InitializationConfig, initialize_population
from repro.nsga.mutation import IntensityAnnealing, MutationConfig
from repro.nsga.mutation import mutate as mutate_tracked_lineage
from repro.nsga.selection import binary_tournament
from repro.nsga.sorting import fast_non_dominated_sort

#: An objective function maps a genome to a vector of minimised objectives.
ObjectiveFunction = Callable[[np.ndarray], np.ndarray]

#: Optional constraint applied to every genome (e.g. zero out the left half).
GenomeConstraint = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class NSGAConfig:
    """NSGA-II parametrisation (paper Table II).

    Attributes
    ----------
    num_iterations:
        Number of generations (paper: 100).
    population_size:
        Number of individuals (paper: 101).
    crossover_probability:
        Probability of applying one-point crossover to a parent pair
        (paper: pc = 0.5).
    mutation:
        Mutation configuration (paper: pm = 0.45, window 1 %).
    initialization:
        Initial-population configuration; its ``population_size`` is kept in
        sync with this config's value.
    seed:
        Seed of the random generator driving the evolutionary process.
    batch_evaluation:
        Evaluate each generation through the objective function's
        ``evaluate_population`` fast path when available (default).  The
        sequential path produces bit-identical results; this switch exists
        for parity testing and for objective functions whose batch path is
        not profitable.
    evaluation_cache:
        Reuse objective vectors for genomes already evaluated during this
        run (default).  The objective function must be deterministic in the
        genome — true for all evaluators in this repository.
    annealing:
        Optional mutation-intensity schedule
        (:class:`~repro.nsga.mutation.IntensityAnnealing`).  ``None``
        (default) keeps the constant ``mutation.window_fraction`` and the
        exact historical RNG draw stream.
    """

    num_iterations: int = 100
    population_size: int = 101
    crossover_probability: float = 0.5
    mutation: MutationConfig = field(default_factory=MutationConfig)
    initialization: InitializationConfig = field(default_factory=InitializationConfig)
    seed: int = 0
    batch_evaluation: bool = True
    evaluation_cache: bool = True
    annealing: IntensityAnnealing | None = None

    def __post_init__(self) -> None:
        if self.num_iterations < 0:
            raise ValueError("num_iterations must be non-negative")
        if self.population_size < 2:
            raise ValueError("population_size must be at least 2")
        if not 0.0 <= self.crossover_probability <= 1.0:
            raise ValueError("crossover_probability must be in [0, 1]")

    @staticmethod
    def paper_defaults(seed: int = 0) -> "NSGAConfig":
        """The exact configuration of Table II."""
        return NSGAConfig(
            num_iterations=100,
            population_size=101,
            crossover_probability=0.5,
            mutation=MutationConfig(probability=0.45, window_fraction=0.01),
            seed=seed,
        )


@dataclass
class NSGAResult:
    """Outcome of an NSGA-II run.

    ``num_evaluations`` counts requested objective vectors (initial
    population plus one per offspring, the classic NSGA-II accounting);
    ``cache_hits`` counts how many of those the evaluation cache served.
    The number of actual objective-function queries is therefore
    ``num_evaluations - cache_hits`` (:attr:`num_queries`).
    """

    population: list[Individual]
    fronts: list[list[int]]
    history: list[dict] = field(default_factory=list)
    num_evaluations: int = 0
    cache_hits: int = 0
    #: Run-level incremental-inference counters (delta hits/misses and the
    #: dirty-area ratio) when the objective function exposes them; ``None``
    #: for objective functions without an incremental path.
    incremental: dict | None = None

    @property
    def num_queries(self) -> int:
        """Objective-function evaluations actually executed (non-cached)."""
        return self.num_evaluations - self.cache_hits

    @property
    def pareto_front(self) -> list[Individual]:
        """Rank-1 individuals of the final population."""
        if not self.fronts:
            return []
        return [self.population[i] for i in self.fronts[0]]

    def objectives_matrix(self) -> np.ndarray:
        """All final objective vectors stacked, shape (pop, num_objectives)."""
        return np.stack([ind.objectives for ind in self.population], axis=0)


class NSGAII:
    """NSGA-II optimiser over filter-mask genomes.

    Parameters
    ----------
    objective_function:
        Maps a genome to a minimised objective vector.  It may also expose
        the batch protocol ``evaluate_population(masks, dirty_bounds=None,
        ancestry=None)`` (see the module docstring).
    genome_shape:
        Shape of the genomes (for the attack: the image shape).
    config:
        Algorithm parametrisation.
    constraint:
        Optional genome-to-genome map applied to every genome after
        initialisation, crossover and mutation (used for the paper's
        "perturb only the right half" restriction).  It may write any
        pixel: nothing downstream assumes which pixels it changes.
    callback:
        Optional per-generation callback receiving ``(generation, population)``.
    """

    def __init__(
        self,
        objective_function: ObjectiveFunction,
        genome_shape: tuple[int, ...],
        config: NSGAConfig | None = None,
        constraint: Optional[GenomeConstraint] = None,
        callback: Optional[Callable[[int, list[Individual]], None]] = None,
    ) -> None:
        self.objective_function = objective_function
        self.genome_shape = tuple(genome_shape)
        self.config = config if config is not None else NSGAConfig()
        self.constraint = constraint
        self.callback = callback
        self.rng = np.random.default_rng(self.config.seed)
        self.num_evaluations = 0
        self.cache_hits = 0
        self._cache: dict[bytes, np.ndarray] = {}
        self._batch_evaluator = (
            getattr(objective_function, "evaluate_population", None)
            if self.config.batch_evaluation
            else None
        )

    def _apply_constraint(self, genome: np.ndarray) -> np.ndarray:
        if self.constraint is None:
            return genome
        return self.constraint(genome)

    @staticmethod
    def _genome_key(genome: np.ndarray) -> bytes:
        """Stable cache key: a digest of the genome's dtype, shape and bytes.

        Only the box of pixels whose *bytes* are nonzero in some channel
        (:func:`~repro.nn.incremental.byte_support_bbox`, the box the
        journal's mask codec stores) is hashed, together with the box
        itself: every byte outside it is zero, so two keys collide exactly
        when the full genome bytes are equal.  The box is taken over bytes,
        not values, which matters for float genomes only: a value box would
        merge genomes whose bytes differ only by a ``-0.0``.  The attack's
        genomes are ``int16`` (:func:`~repro.core.attack.constrain_mask`),
        which has no negative zero and hashes a quarter of the float64
        bytes.
        """
        genome = np.asarray(genome)
        box = byte_support_bbox(genome)
        r0, r1, c0, c1 = box
        digest = hashlib.blake2b(digest_size=16)
        digest.update(str(genome.dtype).encode())
        digest.update(str(genome.shape).encode())
        digest.update(str(box).encode())
        digest.update(np.ascontiguousarray(genome[r0:r1, c0:c1]))
        return digest.digest()

    @staticmethod
    def _ancestry_record(individual: Individual, key: Optional[bytes]) -> dict:
        """Per-genome ancestry record for the batch evaluator.

        ``fingerprint`` is the genome's own digest (the delta store admits
        spliced activations under it); ``ancestor`` is the head parent's
        digest (``None`` = no usable lineage).
        """
        return {"fingerprint": key, "ancestor": individual.metadata.get("ancestor")}

    def _evaluate(self, population: Sequence[Individual]) -> None:
        """Assign objective vectors to every unevaluated individual.

        Cached genomes are answered from the run's evaluation cache; the
        rest go through one ``evaluate_population`` batch when the objective
        function provides it, or a sequential loop otherwise.  Both paths
        yield bit-identical objective vectors.
        """
        pending = [ind for ind in population if not ind.is_evaluated]
        if not pending:
            return
        self.num_evaluations += len(pending)

        unique: list[Individual] = []
        unique_keys: list[Optional[bytes]] = []
        duplicates: list[tuple[Individual, int]] = []
        if self.config.evaluation_cache or self._batch_evaluator is not None:
            # Resolve cache hits first; duplicated genomes inside one batch
            # collapse onto a single evaluation via the per-batch key map.
            # The genome digest doubles as the individual's *fingerprint* —
            # the key under which the delta-reuse path stores its spliced
            # activations and under which children look their parents up.
            batch_positions: dict[bytes, int] = {}
            for individual in pending:
                key = self._genome_key(individual.genome)
                individual.metadata["fingerprint"] = key
                if not self.config.evaluation_cache:
                    unique.append(individual)
                    unique_keys.append(key)
                    continue
                cached = self._cache.get(key)
                if cached is not None:
                    individual.set_objectives(cached.copy())
                    self.cache_hits += 1
                elif key in batch_positions:
                    duplicates.append((individual, batch_positions[key]))
                    self.cache_hits += 1
                else:
                    batch_positions[key] = len(unique)
                    unique.append(individual)
                    unique_keys.append(key)
        else:
            unique = list(pending)
            unique_keys = [None] * len(unique)

        if unique:
            if self._batch_evaluator is not None:
                matrix = np.asarray(
                    self._batch_evaluator(
                        np.stack([ind.genome for ind in unique], axis=0),
                        ancestry=[
                            self._ancestry_record(ind, key)
                            for ind, key in zip(unique, unique_keys)
                        ],
                    ),
                    dtype=np.float64,
                )
                if matrix.shape[0] != len(unique):
                    raise ValueError(
                        "evaluate_population returned "
                        f"{matrix.shape[0]} rows for {len(unique)} genomes"
                    )
                for individual, row in zip(unique, matrix):
                    individual.set_objectives(row)
            else:
                for individual in unique:
                    individual.set_objectives(
                        self.objective_function(individual.genome)
                    )
            if self.config.evaluation_cache:
                for individual, key in zip(unique, unique_keys):
                    if key is not None:
                        self._cache[key] = individual.objectives.copy()

        for individual, position in duplicates:
            individual.set_objectives(unique[position].objectives.copy())

    def _rank_population(self, population: list[Individual]) -> list[list[int]]:
        fronts = fast_non_dominated_sort(population)
        for front in fronts:
            crowding_distance(population, front)
        return fronts

    def _initial_population(self) -> list[Individual]:
        init_config = InitializationConfig(
            population_size=self.config.population_size,
            gaussian_sigma=self.config.initialization.gaussian_sigma,
            include_zero_mask=self.config.initialization.include_zero_mask,
            salt_and_pepper_fraction=self.config.initialization.salt_and_pepper_fraction,
            max_value=self.config.initialization.max_value,
            sparse_fraction=self.config.initialization.sparse_fraction,
            sparse_patch_fraction=self.config.initialization.sparse_patch_fraction,
        )
        population = initialize_population(self.genome_shape, self.rng, init_config)
        for individual in population:
            individual.genome = self._apply_constraint(individual.genome)
        return population

    def _mutation_config(self, generation: int) -> MutationConfig:
        """The mutation config for one offspring round, annealed if enabled."""
        annealing = self.config.annealing
        if annealing is None:
            return self.config.mutation
        fraction = annealing.window_fraction(
            self.config.mutation.window_fraction,
            generation,
            self.config.num_iterations,
        )
        return replace(self.config.mutation, window_fraction=fraction)

    def _make_offspring(
        self, population: list[Individual], generation: int = 0
    ) -> list[Individual]:
        """Crossover + mutation, recording each offspring's head parent.

        Each offspring carries ``metadata["ancestor"]``, its head parent's
        fingerprint: the cross-generation delta-reuse path scans where the
        two genomes differ and re-splices only that region into the
        parent's cached activations.  ``generation`` selects the annealed
        mutation intensity when an
        :class:`~repro.nsga.mutation.IntensityAnnealing` schedule is set.
        """
        mutation = self._mutation_config(generation)
        parents = binary_tournament(population, self.rng, self.config.population_size)
        offspring: list[Individual] = []
        for index in range(0, len(parents) - 1, 2):
            parent_a, parent_b = parents[index], parents[index + 1]
            child_a, child_b = one_point_crossover_lineage(
                parent_a.genome,
                parent_b.genome,
                self.rng,
                probability=self.config.crossover_probability,
            )
            child_a = mutate_tracked_lineage(child_a, self.rng, mutation)
            child_b = mutate_tracked_lineage(child_b, self.rng, mutation)
            offspring.append(self._offspring(child_a, parent_a))
            offspring.append(self._offspring(child_b, parent_b))
        # Odd population sizes (the paper uses 101) get one extra mutant of
        # the last parent so that |offspring| == |population|.
        while len(offspring) < self.config.population_size:
            extra = mutate_tracked_lineage(parents[-1].genome, self.rng, mutation)
            offspring.append(self._offspring(extra, parents[-1]))
        return offspring[: self.config.population_size]

    def _offspring(self, genome: np.ndarray, parent: Individual) -> Individual:
        """A constrained child genome that names its head parent."""
        return Individual(
            genome=self._apply_constraint(genome),
            metadata={"ancestor": parent.metadata.get("fingerprint")},
        )

    def _environmental_selection(
        self, combined: list[Individual]
    ) -> list[Individual]:
        fronts = self._rank_population(combined)
        survivors: list[Individual] = []
        for front in fronts:
            if len(survivors) + len(front) <= self.config.population_size:
                survivors.extend(combined[i] for i in front)
            else:
                remaining = self.config.population_size - len(survivors)
                members = sorted(
                    (combined[i] for i in front),
                    key=lambda ind: (ind.crowding if ind.crowding is not None else 0.0),
                    reverse=True,
                )
                survivors.extend(members[:remaining])
                break
        return survivors

    @staticmethod
    def _incremental_delta(
        before: dict | None, after: dict | None
    ) -> dict | None:
        """Per-generation view of two monotonic incremental snapshots."""
        if before is None or after is None:
            return None
        entry = {key: after[key] - before.get(key, 0) for key in after}
        total = entry.pop("total_area", 0)
        entry["dirty_area_ratio"] = (
            float(entry.pop("dirty_area", 0) / total) if total > 0 else 0.0
        )
        return entry

    def run(self) -> NSGAResult:
        """Execute the configured number of generations and return the result."""
        # Objective functions with an incremental-inference path expose
        # monotonic counters; snapshot diffs give per-generation stats
        # (delta hits/misses, dirty-area ratio) without touching results.
        snapshot = getattr(self.objective_function, "incremental_snapshot", None)
        baseline = snapshot() if callable(snapshot) else None
        run_start = baseline

        population = self._initial_population()
        self._evaluate(population)
        self._rank_population(population)
        if callable(snapshot):
            baseline = snapshot()

        history: list[dict] = []
        for generation in range(self.config.num_iterations):
            offspring = self._make_offspring(population, generation)
            self._evaluate(offspring)
            population = self._environmental_selection(population + offspring)

            objectives = np.stack([ind.objectives for ind in population], axis=0)
            history.append(
                {
                    "generation": generation,
                    "best_per_objective": objectives.min(axis=0),
                    "mean_per_objective": objectives.mean(axis=0),
                    "front_size": sum(1 for ind in population if ind.rank == 1),
                }
            )
            if callable(snapshot):
                current = snapshot()
                entry = self._incremental_delta(baseline, current)
                if entry is not None:
                    history[-1]["incremental"] = entry
                baseline = current
            if self.callback is not None:
                self.callback(generation, population)

        fronts = self._rank_population(population)
        return NSGAResult(
            population=population,
            fronts=fronts,
            history=history,
            num_evaluations=self.num_evaluations,
            cache_hits=self.cache_hits,
            incremental=self._incremental_delta(
                run_start, snapshot() if callable(snapshot) else None
            ),
        )
