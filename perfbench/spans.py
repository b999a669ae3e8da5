"""Per-layer span tracing installed from outside the program under test.

:class:`Tracer` replaces module attributes and class methods of ``repro``
with ``functools.wraps`` wrappers that record one span per call: name,
start, end and the enclosing span.  Spans stay in memory and are written
out once, as Chrome trace-event JSON, when the traced run ends.  A layer's
self time is its spans' duration minus the part covered by child spans.

The wrappers keep the wrapped callable's signature visible to
``inspect.signature`` (through ``__wrapped__``).  That matters: NSGA-II
inspects ``evaluate_population`` to decide whether to pass dirty bounds
and ancestry, and a plain ``*args`` wrapper would silently switch delta
reuse off, so the traced program would no longer be the measured one.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path


def _attention_score_bytes(args, kwargs) -> dict:
    """B * heads * N^2 * 8 bytes of float64 scores per attention call."""
    layer, tokens = args[0], args[1] if len(args) > 1 else kwargs["tokens"]
    shape = getattr(tokens, "shape", ())
    batch = 1
    for size in shape[:-2]:
        batch *= int(size)
    tokens_n = int(shape[-2]) if len(shape) >= 2 else 0
    return {"nn.attention_score_bytes": batch * layer.num_heads * tokens_n**2 * 8}


def _count_arg(counter: str, position: int, keyword: str):
    def count(args, kwargs) -> dict:
        value = args[position] if len(args) > position else kwargs[keyword]
        return {counter: len(value)}

    return count


def program_targets() -> list[tuple]:
    """``(owner, attribute, span name, counter)`` for every traced layer.

    Functions are wrapped where their callers look them up: a module
    attribute is patched in the module that calls it (``NSGAII`` binds
    the variation and ranking operators at import, ``repro.core.objectives``
    binds ``mask_nonzero_bbox``), and methods are patched on the class that
    defines them.  Attention layers have no fixed span name: each call is
    named after its instance (see :meth:`Tracer.label_attention_layers`).
    """
    from repro.core import objectives as core_objectives
    from repro.core.attack import ButterflyAttack
    from repro.core.objectives import ButterflyObjectives
    from repro.core.regions import Region
    from repro.core.temporal import SequenceAttack, SequenceObjectives
    from repro.data import dataset
    from repro.detection import nms
    from repro.detectors import decode, zoo
    from repro.detectors import transformer as transformer_module
    from repro.detectors.base import Detector
    from repro.detectors.prototypes import PrototypeBank
    from repro.detectors.single_stage import SingleStageDetector
    from repro.detectors.transformer import TransformerDetector
    from repro.experiments import runner
    from repro.experiments.checkpoint import PlanCheckpoint
    from repro.experiments.jobs import SequenceSpec
    from repro.nn.attention import MultiHeadSelfAttention
    from repro.nn.features import GridFeatureExtractor
    from repro.nsga import algorithm
    from repro.nsga.algorithm import NSGAII

    targets = [
        (NSGAII, "run", "nsga.run", None),
        (algorithm, "one_point_crossover_lineage", "nsga.variation", None),
        (algorithm, "mutate_tracked_lineage", "nsga.variation", None),
        (algorithm, "binary_tournament", "nsga.variation", None),
        (algorithm, "fast_non_dominated_sort", "nsga.ranking", None),
        (algorithm, "crowding_distance", "nsga.ranking", None),
        (ButterflyObjectives, "evaluate_population", "core.evaluate_population", None),
        (SequenceObjectives, "evaluate_population", "core.evaluate_population", None),
        (core_objectives, "mask_nonzero_bbox", "core.mask_scan", None),
        (core_objectives, "objective_distance", "core.distance", None),
        (Region, "project", "core.region_project", None),
        (ButterflyAttack, "build_objectives", "core.build_objectives", None),
        (SequenceAttack, "build_sequence_objectives", "core.build_objectives", None),
        (ButterflyAttack, "_package", "core.package", None),
        (SequenceAttack, "_package_sequence", "core.package", None),
        (Detector, "predict_delta_batch", "detectors.predict_delta_batch",
         _count_arg("detectors.predict_delta_batch.masks", 2, "masks")),
        (PrototypeBank, "probabilities", "detectors.prototypes", None),
        (nms, "non_max_suppression", "detection.nms", None),
        (Detector, "clean_activations_delta", "detectors.clean_activations_delta", None),
        (zoo, "fit_prototypes", "detectors.train", None),
        (GridFeatureExtractor, "__call__", "nn.extract", None),
        (GridFeatureExtractor, "batch", "nn.extract", None),
        (GridFeatureExtractor, "window_features", "nn.window_extract", None),
        (MultiHeadSelfAttention, "__call__", None, _attention_score_bytes),
        (transformer_module, "softmax", "nn.mixing_softmax", None),
        (runner, "execute_plan", "experiments.execute_plan", None),
        (PlanCheckpoint, "record", "experiments.journal_record", None),
        (dataset, "generate_dataset", "data.scene_gen", None),
        (SequenceSpec, "build", "data.scene_gen", None),
    ]
    for name in (
        "decode_cell_probabilities",
        "decode_cell_probabilities_vectorised",
        "decode_cell_probabilities_batch",
    ):
        targets.append((decode, name, "detectors.decode", None))
    for cls in (SingleStageDetector, TransformerDetector):
        targets.append(
            (cls, "predict_batch", "detectors.predict_batch",
             _count_arg("detectors.predict_batch.images", 1, "images"))
        )
        targets.append((cls, "clean_activations", "detectors.clean_activations", None))
    return targets


class Tracer:
    """In-memory span recorder that patches the program while installed.

    Use as a context manager: entering installs every wrapper, leaving
    restores the original attributes, so an untraced run after a traced
    one executes exactly the original code.
    """

    def __init__(self, targets: list[tuple], keep: tuple[str, ...] = ()) -> None:
        self.targets = targets
        #: Last return value of each span name in ``keep``.
        self.kept: dict[str, object] = {}
        self._keep = keep
        #: One ``[name, start_ns, end_ns, parent_index]`` per call.
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.instance_labels: dict[int, str] = {}
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def label_attention_layers(self, detector) -> None:
        """Name a detector's attention layers ``nn.attention.l1``, ``.l2``..."""
        for index, layer in enumerate(getattr(detector, "layers", ())):
            self.instance_labels[id(layer)] = f"nn.attention.l{index + 1}"

    def _wrap(self, original, name, count):
        spans, stack, counters = self.spans, self._stack, self.counters
        labels, keep, kept = self.instance_labels, self._keep, self.kept

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = name or labels.get(id(args[0]), "nn.attention.other")
            if count is not None:
                for key, value in count(args, kwargs).items():
                    counters[key] += value
            index = len(spans)
            spans.append([label, time.perf_counter_ns(), 0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter_ns()
            if label in keep:
                kept[label] = result
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        for owner, attribute, name, count in self.targets:
            own = attribute in vars(owner)
            original = vars(owner)[attribute] if own else getattr(owner, attribute)
            self._saved.append((owner, attribute, original, own))
            setattr(owner, attribute, self._wrap(original, name, count))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attribute, original, own in reversed(self._saved):
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._saved.clear()

    # -- analysis ---------------------------------------------------------
    def _self_ns(self) -> list[int]:
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def _in(self, name: str, group: str) -> bool:
        return name == group or name.startswith(group + ".")

    def total_ms(self, group: str) -> float:
        """Wall time inside ``group``'s spans, counting nested ones once."""
        total = 0
        for name, start, end, parent in self.spans:
            if not self._in(name, group):
                continue
            ancestor = parent
            while ancestor >= 0 and not self._in(self.spans[ancestor][0], group):
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                total += end - start
        return total / 1e6

    def self_ms(self, group: str) -> float:
        own = self._self_ns()
        return sum(
            own[i] for i, span in enumerate(self.spans) if self._in(span[0], group)
        ) / 1e6

    def calls(self, group: str) -> int:
        return sum(1 for span in self.spans if self._in(span[0], group))

    def top_level_ms(self) -> float:
        """Time covered by spans that have no traced parent."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0) / 1e6

    def table(self, wall_ms: float) -> str:
        """Per-layer self time, call count and share of ``wall_ms``."""
        own = self._self_ns()
        rows: dict[str, list] = {}
        for index, span in enumerate(self.spans):
            row = rows.setdefault(span[0], [0, 0])
            row[0] += own[index]
            row[1] += 1
        unattributed = wall_ms - self.top_level_ms()
        lines = [f"{'layer':<40} {'self_ms':>11} {'count':>8} {'share':>7}"]
        for name, (ns, count) in sorted(rows.items(), key=lambda item: -item[1][0]):
            lines.append(
                f"{name:<40} {ns / 1e6:>11.2f} {count:>8d} {ns / 1e6 / wall_ms:>7.1%}"
            )
        lines.append(
            f"{'(unattributed)':<40} {unattributed:>11.2f} {'':>8} "
            f"{unattributed / wall_ms:>7.1%}"
        )
        return "\n".join(lines)

    def write_chrome_trace(self, path: Path) -> None:
        """Dump the spans in the Chrome trace-event format (Perfetto loads it)."""
        origin_ns = self.spans[0][1]
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin_ns) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 0,
                "tid": 0,
            }
            for name, start, end, _ in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))
