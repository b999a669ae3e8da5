"""Individuals of the genetic algorithm."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass(eq=False)
class Individual:
    """One member of the population: a genome plus its evaluation.

    Equality is identity-based (``eq=False``): two individuals are the same
    only if they are the same object, which is the semantics population
    bookkeeping needs (array-valued fields make field-wise equality both
    ambiguous and meaningless here).

    For the butterfly-effect attack the genome is a filter mask — a signed
    perturbation array of the same shape as the image — but the NSGA-II
    implementation only assumes the genome is a NumPy array.

    Attributes
    ----------
    genome:
        The decision variables.
    objectives:
        The evaluated objective vector (all objectives are minimised), or
        ``None`` when the individual has not been evaluated yet.
    rank:
        Pareto rank assigned by non-dominated sorting (1 is the first
        front).  ``None`` before sorting.
    crowding:
        Crowding distance within its front.  ``None`` before assignment.
    """

    genome: np.ndarray
    objectives: Optional[np.ndarray] = None
    rank: Optional[int] = None
    crowding: Optional[float] = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.genome = np.asarray(self.genome)
        if self.objectives is not None:
            self.objectives = np.asarray(self.objectives, dtype=np.float64)

    @property
    def is_evaluated(self) -> bool:
        return self.objectives is not None

    @property
    def num_objectives(self) -> int:
        return 0 if self.objectives is None else int(self.objectives.shape[0])

    def set_objectives(self, values) -> None:
        """Record the evaluated objective vector."""
        self.objectives = np.asarray(values, dtype=np.float64)

    def copy(self) -> "Individual":
        """Deep copy of the genome; evaluation results are copied as well."""
        return Individual(
            genome=self.genome.copy(),
            objectives=None if self.objectives is None else self.objectives.copy(),
            rank=self.rank,
            crowding=self.crowding,
            metadata=dict(self.metadata),
        )
