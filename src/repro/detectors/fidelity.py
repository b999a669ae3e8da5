"""Evaluation-fidelity abstraction for the two-phase fast search.

The bit-parity contract that governs every fast path in this repository
(batched, incremental, delta-reuse) caps the transformer incremental path
near ~1.6x: the global softmax mixing must be recomputed exactly for every
offspring.  :class:`FidelityConfig` is the escape hatch — an explicitly
opt-in description of *how cheap* an evaluation is allowed to be.  It has
one knob, ``attention_window``: recompute the transformer's attention only
for token rows inside the mask's dirty cell window (dilated by this
radius); rows outside reuse the clean scene's cached attention state, with
the raw-feature delta still propagated exactly through the stale weights.

A fidelity is a *permission to approximate, never an obligation*: code
that does not implement it (the single-stage detector, dense masks,
third-party detectors) evaluates exactly (exact results are always within
any error budget).  The exact fidelity routes through the unchanged
bit-parity paths, so the default search is bit-identical to a run without
this module.  Two-phase NSGA-II (:mod:`repro.nsga.algorithm`) searches
at the ``windowed`` preset and re-scores survivors at
:data:`EXACT_FIDELITY`, so *reported* Pareto fronts remain bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FidelityConfig:
    """One evaluation fidelity (see the module docstring).

    Attributes
    ----------
    name:
        Human-readable label (preset name, or free-form for custom configs).
    attention_window:
        Dilation radius, in grid cells, of the token window whose attention
        rows are recomputed around a mask's dirty region; ``None`` is the
        exact fidelity.  ``0`` recomputes only the dirty cells themselves.
        Only the transformer architecture interprets it.
    """

    name: str = "exact"
    attention_window: int | None = None

    def __post_init__(self) -> None:
        if self.attention_window is not None and self.attention_window < 0:
            raise ValueError("attention_window must be None or non-negative")

    @property
    def is_exact(self) -> bool:
        """True when this fidelity requests no approximation at all."""
        return self.attention_window is None

    @property
    def tag(self) -> str:
        """Canonical value-derived key for caches keyed per fidelity.

        Two configs with the same window share a tag regardless of their
        ``name``, so cache entries can never collide across genuinely
        different fidelities nor split across aliases.
        """
        return "exact" if self.is_exact else f"w{self.attention_window}"


#: The fidelity of every pre-existing evaluation path (no approximation).
EXACT_FIDELITY = FidelityConfig()

#: Named presets accepted by :func:`resolve_fidelity`.
FIDELITY_PRESETS: dict[str, FidelityConfig] = {
    "exact": EXACT_FIDELITY,
    "windowed": FidelityConfig(name="windowed", attention_window=2),
}


def resolve_fidelity(value: "FidelityConfig | str | None") -> FidelityConfig:
    """Normalise a fidelity selector to a :class:`FidelityConfig`.

    Accepts ``None`` (exact), a preset name, or an explicit config.
    """
    if value is None:
        return EXACT_FIDELITY
    if isinstance(value, FidelityConfig):
        return value
    try:
        return FIDELITY_PRESETS[value]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown evaluation fidelity {value!r}; "
            f"expected one of {sorted(FIDELITY_PRESETS)} or a FidelityConfig"
        ) from None
