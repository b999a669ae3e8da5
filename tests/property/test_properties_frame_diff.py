"""Property-based tests for the inter-frame diff of the streaming path.

The temporal path splices only the region where two consecutive frames'
pixels differ, so the scanned bound must be exactly the box of the changed
pixels — for any seed, motion speed, object count or frame geometry.  A
bound missing a changed pixel would splice stale activations into frame
t's "clean" bundle.  An empty diff must hand back the previous frame's
bundle outright, never rebuild it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.sequences import generate_sequence
from repro.detectors.activation_cache import SequenceActivationCache
from repro.nn.incremental import EMPTY_BBOX, frames_differ_bbox, support_bbox

LENGTH, WIDTH = 32, 64

sequence_params = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 10_000),
        "num_frames": st.integers(2, 4),
        "max_speed": st.floats(0.0, 8.0, allow_nan=False),
        "num_objects": st.sampled_from([(1, 2), (2, 3), (3, 4)]),
    }
)


def _frame_pair(sequence, index):
    return (
        np.asarray(sequence.frame(index - 1), dtype=np.float64),
        np.asarray(sequence.frame(index), dtype=np.float64),
    )


class TestMovedObjectsBound:
    @given(sequence_params)
    @settings(max_examples=150, deadline=None)
    def test_bound_contains_exact_pixel_diff(self, params):
        """The scanned bound covers every pixel that really changed, tightly."""
        sequence = generate_sequence(image_length=LENGTH, image_width=WIDTH, **params)
        for index in range(1, len(sequence)):
            previous, current = _frame_pair(sequence, index)
            changed = np.any(previous != current, axis=2)
            bound = frames_differ_bbox(previous, current)
            assert bound == support_bbox(changed)
            if changed.any():
                r0, r1, c0, c1 = bound
                inside = np.zeros_like(changed)
                inside[r0:r1, c0:c1] = True
                assert np.all(~changed | inside)

    @given(st.integers(0, 10_000), st.integers(2, 4))
    @settings(max_examples=100, deadline=None)
    def test_static_sequence_has_empty_bound_and_empty_diff(self, seed, frames):
        sequence = generate_sequence(
            num_frames=frames,
            seed=seed,
            image_length=LENGTH,
            image_width=WIDTH,
            max_speed=0.0,
        )
        for index in range(1, len(sequence)):
            previous, current = _frame_pair(sequence, index)
            assert np.array_equal(previous, current)
            assert frames_differ_bbox(previous, current) == EMPTY_BBOX


class TestEmptyDiffCacheIdentity:
    @given(st.integers(0, 500))
    @settings(max_examples=15, deadline=None)
    def test_identical_frames_return_the_cached_bundle(self, yolo_detector, seed):
        """An empty inter-frame diff must hand back the previous bundle —
        same tensors, same prediction — never rebuild."""
        sequence = generate_sequence(
            num_frames=2,
            seed=seed,
            image_length=64,
            image_width=208,
            half="left",
            max_speed=0.0,
        )
        cache = SequenceActivationCache(yolo_detector, max_frames=2)
        first = cache.advance(sequence.frame(0))
        second = cache.advance(sequence.frame(1))
        assert second is first or second.tensors is first.tensors
        assert second.prediction is first.prediction
        assert cache.frame_misses == 1
