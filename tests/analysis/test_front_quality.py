"""Front-quality metrics comparing a candidate front with a reference front."""

import numpy as np
import pytest

from repro.analysis.front_quality import (
    compare_front_quality,
    damage,
    front_quality,
    front_reference,
)


def _front(rows):
    return np.asarray(rows, dtype=np.float64)


class TestDamage:
    def test_champions(self):
        front = _front([[0.2, 0.9, -0.1], [0.5, 0.4, -0.8], [0.1, 0.7, -0.3]])
        summary = damage(front)
        assert summary["best_degradation"] == 0.4
        assert summary["best_distance"] == 0.8
        assert summary["best_intensity"] == 0.1

    def test_empty_front_is_neutral(self):
        summary = damage(np.zeros((0, 3)))
        assert summary == {
            "best_degradation": 1.0,
            "best_distance": 0.0,
            "best_intensity": 0.0,
        }

    def test_rejects_wrong_shapes(self):
        with pytest.raises(ValueError):
            damage(np.zeros((3, 2)))


class TestFrontReference:
    def test_dominates_all_inputs(self):
        a = _front([[0.1, 0.9, -0.2]])
        b = _front([[0.4, 0.3, -0.6]])
        reference = front_reference(a, b)
        assert np.all(reference >= a) and np.all(reference >= b)

    def test_skips_empty_fronts(self):
        a = _front([[0.1, 0.9, -0.2]])
        reference = front_reference(a, np.zeros((0, 3)))
        assert reference.shape == (3,)
        with pytest.raises(ValueError):
            front_reference(np.zeros((0, 3)))


class TestCompare:
    def test_identical_fronts_ratio_one(self):
        front = _front([[0.1, 0.8, -0.2], [0.3, 0.4, -0.7]])
        report = compare_front_quality(front, front)
        assert report["hypervolume_ratio"] == pytest.approx(1.0)
        assert report["degradation_delta"] == 0.0
        assert report["distance_delta"] == 0.0

    def test_weaker_approx_front_scores_below_one(self):
        exact = _front([[0.1, 0.2, -0.9], [0.2, 0.1, -0.8]])
        approx = _front([[0.3, 0.5, -0.4], [0.5, 0.4, -0.3]])
        report = compare_front_quality(approx, exact)
        assert report["hypervolume_ratio"] < 1.0
        assert report["degradation_delta"] > 0.0

    def test_metrics_share_one_reference(self):
        exact = _front([[0.1, 0.2, -0.9]])
        approx = _front([[0.4, 0.6, -0.1]])
        report = compare_front_quality(approx, exact)
        reference = np.asarray(report["reference"])
        assert np.all(reference >= exact) and np.all(reference >= approx)
        assert report["approx"] == front_quality(approx, reference)
        assert report["exact"] == front_quality(exact, reference)
