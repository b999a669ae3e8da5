"""Call sites the end-to-end benchmark's per-layer tracer wraps.

``perfbench/spans.py`` times the program's layers by replacing module
attributes and methods with timing wrappers for the length of a run.  A
wrapper only sees the calls that look the name up where it is patched, so
each call site below must be reached by a transformer attack on the
incremental route when patched in place, and the wrapped run must produce
the same result as an unwrapped one.  Two of them are also read by
position or parameter name: ``Detector.predict_delta_batch`` receives the
mask stack at position 2 (after ``self`` and the image) or as ``masks``, and
``ButterflyObjectives.evaluate_population`` keeps the evaluator protocol's
signature.
"""

import functools
import inspect

import pytest

from repro.core.attack import ButterflyAttack
from repro.core.config import AttackConfig
from repro.core.objectives import ButterflyObjectives
from repro.core.regions import HalfImageRegion
from repro.detectors import transformer
from repro.detectors.base import Detector
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.features import GridFeatureExtractor
from repro.nsga import algorithm
from repro.nsga.algorithm import NSGAConfig
from repro.nsga.mutation import MutationConfig

CALL_SITES = {
    "transformer.softmax": (transformer, "softmax"),
    "MultiHeadSelfAttention.__call__": (MultiHeadSelfAttention, "__call__"),
    "GridFeatureExtractor.window_features": (GridFeatureExtractor, "window_features"),
    "Detector.predict_delta_batch": (Detector, "predict_delta_batch"),
    "ButterflyObjectives.evaluate_population": (
        ButterflyObjectives,
        "evaluate_population",
    ),
    "algorithm.one_point_crossover_lineage": (algorithm, "one_point_crossover_lineage"),
    "algorithm.mutate_tracked_lineage": (algorithm, "mutate_tracked_lineage"),
}


def _config():
    return AttackConfig(
        nsga=NSGAConfig(
            num_iterations=2,
            population_size=6,
            mutation=MutationConfig(probability=0.45, window_fraction=0.01),
            seed=2,
        ),
        region=HalfImageRegion("right"),
        sparse_init_fraction=1.0,
    )


def _run(detector, image):
    return ButterflyAttack(detector, _config()).attack(image).fingerprint()


@pytest.fixture(scope="module")
def untraced(detr_detector, small_dataset):
    return _run(detr_detector, small_dataset[0].image)


@pytest.mark.parametrize("site", sorted(CALL_SITES))
def test_call_site_is_reached_and_transparent(
    site, detr_detector, small_dataset, untraced, monkeypatch
):
    owner, attribute = CALL_SITES[site]
    original = getattr(owner, attribute)
    calls = []

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attribute, wrapper)
    traced = _run(detr_detector, small_dataset[0].image)
    assert calls, f"{site} was not reached through its patched name"
    assert traced == untraced
    if site == "Detector.predict_delta_batch":
        image = small_dataset[0].image
        for args, kwargs in calls:
            masks = args[2] if len(args) > 2 else kwargs["masks"]
            assert masks.ndim == 4 and masks.shape[1:] == image.shape


def test_traced_signatures():
    evaluator = inspect.signature(ButterflyObjectives.evaluate_population)
    assert list(evaluator.parameters) == ["self", "masks", "dirty_bounds", "ancestry"]
    delta = inspect.signature(Detector.predict_delta_batch).parameters
    assert list(delta)[:3] == ["self", "image", "masks"]
    assert "fidelity" not in delta
