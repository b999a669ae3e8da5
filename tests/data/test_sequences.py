"""Tests for temporal scene sequences."""

import numpy as np
import pytest

from repro.data.sequences import SceneSequence, generate_sequence
from repro.nn.incremental import EMPTY_BBOX, bbox_is_empty, frames_differ_bbox


class TestGenerateSequence:
    def test_number_of_frames(self):
        sequence = generate_sequence(num_frames=4, seed=0, image_length=48, image_width=96)
        assert len(sequence) == 4
        assert len(sequence.scenes) == 4

    def test_invalid_frame_count_rejected(self):
        with pytest.raises(ValueError):
            generate_sequence(num_frames=0)

    def test_frames_have_consistent_shape(self):
        sequence = generate_sequence(num_frames=3, seed=1, image_length=48, image_width=96)
        shapes = {frame.shape for frame in sequence}
        assert shapes == {(48, 96, 3)}

    def test_objects_move_between_frames(self):
        sequence = generate_sequence(
            num_frames=3, seed=2, image_length=64, image_width=160, max_speed=6.0
        )
        first = sequence.scenes[0].objects
        last = sequence.scenes[-1].objects
        assert len(first) == len(last)
        moved = any(
            abs(a.x - b.x) > 1e-6 or abs(a.y - b.y) > 1e-6 for a, b in zip(first, last)
        )
        assert moved

    def test_object_count_constant_across_frames(self):
        sequence = generate_sequence(num_frames=5, seed=3, image_length=48, image_width=96)
        counts = {len(scene.objects) for scene in sequence.scenes}
        assert len(counts) == 1

    def test_objects_stay_inside_image(self):
        sequence = generate_sequence(
            num_frames=6, seed=4, image_length=48, image_width=96, max_speed=20.0
        )
        for scene in sequence.scenes:
            for obj in scene.objects:
                box = obj.to_box()
                assert box.x_min >= -1e-6 and box.x_max <= 48 + 1e-6
                assert box.y_min >= -1e-6 and box.y_max <= 96 + 1e-6

    def test_ground_truth_accessors(self):
        sequence = generate_sequence(num_frames=2, seed=5, image_length=48, image_width=96)
        assert sequence.ground_truth(0).num_valid == len(sequence.scenes[0].objects)
        assert len(sequence.ground_truths) == 2

    def test_frame_accessor_matches_iteration(self):
        sequence = generate_sequence(num_frames=3, seed=6, image_length=48, image_width=96)
        assert np.allclose(sequence.frame(1), list(sequence)[1])

    def test_reproducibility(self):
        a = generate_sequence(num_frames=3, seed=7, image_length=48, image_width=96)
        b = generate_sequence(num_frames=3, seed=7, image_length=48, image_width=96)
        for frame_a, frame_b in zip(a, b):
            assert np.allclose(frame_a, frame_b)


class TestSceneSequenceAccessors:
    def test_ground_truths_computed_once_and_cached(self):
        sequence = generate_sequence(num_frames=3, seed=5, image_length=48, image_width=96)
        first = sequence.ground_truths
        assert sequence.ground_truths is first  # same list object, no recompute
        assert first[0].num_valid == len(sequence.scenes[0].objects)
        assert sequence.ground_truth(1) is first[1]

    def test_int_indexing_returns_frames(self):
        sequence = generate_sequence(num_frames=3, seed=6, image_length=48, image_width=96)
        assert np.array_equal(sequence[1], sequence.frame(1))
        assert np.array_equal(sequence[-1], sequence.frame(2))

    def test_slicing_returns_subsequence(self):
        sequence = generate_sequence(num_frames=4, seed=6, image_length=48, image_width=96)
        sliced = sequence[1:3]
        assert isinstance(sliced, SceneSequence)
        assert len(sliced) == 2
        assert sliced.seed == sequence.seed
        assert sliced.scenes == sequence.scenes[1:3]
        assert np.array_equal(sliced[0], sequence[1])
        # The slice recomputes its own ground truths for its own frames.
        assert len(sliced.ground_truths) == 2


class TestMovedObjectsBbox:
    """Consecutive frames are diffed from their pixels: the bound the
    streaming cache splices is the exact box of the changed pixels."""

    def _exact_diff(self, sequence, index):
        return frames_differ_bbox(
            np.asarray(sequence.frame(index - 1), dtype=np.float64),
            np.asarray(sequence.frame(index), dtype=np.float64),
        )

    def test_bound_contains_exact_pixel_diff(self):
        sequence = generate_sequence(
            num_frames=5, seed=11, image_length=64, image_width=160, max_speed=6.0
        )
        moved = 0
        for index in range(1, len(sequence)):
            bound = self._exact_diff(sequence, index)
            changed = np.any(sequence.frame(index - 1) != sequence.frame(index), axis=2)
            if bbox_is_empty(bound):
                assert not changed.any()
                continue
            moved += 1
            rows, cols = np.nonzero(changed)
            assert bound == (
                int(rows.min()),
                int(rows.max()) + 1,
                int(cols.min()),
                int(cols.max()) + 1,
            )
        assert moved > 0

    def test_identical_scenes_give_empty_bound(self):
        sequence = generate_sequence(
            num_frames=2, seed=11, image_length=48, image_width=96, max_speed=0.0
        )
        assert np.array_equal(sequence.frame(0), sequence.frame(1))
        assert self._exact_diff(sequence, 1) == EMPTY_BBOX
