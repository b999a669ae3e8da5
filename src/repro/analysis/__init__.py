"""Analysis utilities: heatmaps, error statistics, reporting, visualisation.

* :mod:`repro.analysis.heatmap` — detector feature heatmaps and the
  grey-box feature-distance objective the paper mentions ("we also can
  include feature-level distance as an additional optimization objective"),
* :mod:`repro.analysis.errors` — aggregation of the Section V-B error
  taxonomy over attack results,
* :mod:`repro.analysis.front_quality` — Pareto-front quality metrics
  (hypervolume, damage) comparing a candidate front with a reference
  front,
* :mod:`repro.analysis.reporting` — tabular summaries for the experiment
  harness (plain-text tables, CSV export),
* :mod:`repro.analysis.visualization` — text rendering of predictions and
  masks, plus PPM image export (no plotting dependencies required).
"""

from repro.analysis.heatmap import (
    attention_heatmap,
    feature_distance_objective,
    feature_heatmap,
    heatmap_difference,
)
from repro.analysis.errors import (
    AttackErrorSummary,
    summarize_attack_errors,
    summarize_transitions,
)
from repro.analysis.front_quality import (
    compare_front_quality,
    damage,
    front_quality,
    front_reference,
)
from repro.analysis.reporting import (
    ComparisonReport,
    format_table,
    objectives_to_rows,
    write_csv,
)
from repro.analysis.sweep import budget_sweep, epsilon_sweep, mutation_window_sweep
from repro.analysis.visualization import (
    mask_to_ascii,
    overlay_boxes,
    prediction_to_ascii,
    save_ppm,
    side_by_side,
)

__all__ = [
    "attention_heatmap",
    "feature_distance_objective",
    "feature_heatmap",
    "heatmap_difference",
    "AttackErrorSummary",
    "summarize_attack_errors",
    "summarize_transitions",
    "compare_front_quality",
    "damage",
    "front_quality",
    "front_reference",
    "budget_sweep",
    "epsilon_sweep",
    "mutation_window_sweep",
    "ComparisonReport",
    "format_table",
    "objectives_to_rows",
    "write_csv",
    "mask_to_ascii",
    "overlay_boxes",
    "prediction_to_ascii",
    "save_ppm",
    "side_by_side",
]
