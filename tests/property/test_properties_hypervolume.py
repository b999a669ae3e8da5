"""Property-based tests (hypothesis) for the general hypervolume indicator.

The anneal sweep and the end-to-end benchmark report hypervolumes, so
the indicator itself must be trustworthy on arbitrary (including
degenerate) fronts.  The properties pinned here are the standard ones: invariance
under point order and under adding dominated points, monotonicity under
adding points, the scaling/translation laws of a Lebesgue measure, and
agreement with an independent Monte-Carlo estimate.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nsga.front import hypervolume


def _points(draw, count, dims):
    values = draw(
        st.lists(
            st.lists(
                st.floats(0.0, 1.0, allow_nan=False, width=32),
                min_size=dims,
                max_size=dims,
            ),
            min_size=count,
            max_size=count,
        )
    )
    return np.asarray(values, dtype=np.float64)


@st.composite
def fronts(draw, max_points=6, dims=3):
    count = draw(st.integers(1, max_points))
    return _points(draw, count, dims)


@given(front=fronts())
@settings(max_examples=60, deadline=None)
def test_permutation_invariance(front):
    reference = np.full(front.shape[1], 1.5)
    base = hypervolume(front, reference)
    shuffled = front[np.random.default_rng(0).permutation(front.shape[0])]
    assert hypervolume(shuffled, reference) == pytest.approx(base)


@given(front=fronts(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_adding_points_is_monotone(front, data):
    reference = np.full(front.shape[1], 1.5)
    base = hypervolume(front, reference)
    extra = np.asarray(
        data.draw(
            st.lists(
                st.floats(0.0, 1.0, allow_nan=False, width=32),
                min_size=front.shape[1],
                max_size=front.shape[1],
            )
        )
    )
    grown = hypervolume(np.vstack([front, extra[None]]), reference)
    assert grown >= base - 1e-12


@given(front=fronts())
@settings(max_examples=60, deadline=None)
def test_dominated_points_add_nothing(front):
    reference = np.full(front.shape[1], 1.5)
    base = hypervolume(front, reference)
    # A point worse than an existing one in every coordinate is dominated.
    dominated = np.clip(front[0] + 0.25, None, 1.4)
    grown = hypervolume(np.vstack([front, dominated[None]]), reference)
    assert grown == pytest.approx(base)


@given(front=fronts(), scale=st.floats(0.1, 3.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_scaling_law(front, scale):
    reference = np.full(front.shape[1], 1.5)
    base = hypervolume(front, reference)
    scaled = hypervolume(front * scale, reference * scale)
    assert scaled == pytest.approx(base * scale ** front.shape[1], rel=1e-9)


@given(front=fronts(), shift=st.floats(-2.0, 2.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_translation_invariance(front, shift):
    reference = np.full(front.shape[1], 1.5)
    base = hypervolume(front, reference)
    translated = hypervolume(front + shift, reference + shift)
    assert translated == pytest.approx(base, abs=1e-9)


@given(front=fronts(max_points=5, dims=3), seed=st.integers(0, 2**16))
@settings(max_examples=15, deadline=None)
def test_matches_monte_carlo(front, seed):
    reference = np.full(3, 1.5)
    exact = hypervolume(front, reference)
    samples = np.random.default_rng(seed).random((120_000, 3)) * 1.5
    dominated = np.zeros(samples.shape[0], dtype=bool)
    for point in front:
        dominated |= np.all(samples >= point, axis=1)
    estimate = float(dominated.mean()) * 1.5**3
    assert exact == pytest.approx(estimate, abs=0.05)


@given(front=fronts(dims=2))
@settings(max_examples=60, deadline=None)
def test_reference_clipping_never_negative(front):
    # A reference the whole front fails to dominate yields zero, never a
    # negative or NaN volume.
    volume = hypervolume(front, np.full(2, -1.0))
    assert volume == 0.0
