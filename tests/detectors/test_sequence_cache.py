"""Tests for the streaming-sequence frame cache and the frame counters.

The temporal derivation contract is the load-bearing part: every bundle a
:class:`SequenceActivationCache` hands out — whether derived incrementally
from the previous frame or rebuilt densely — must be bit-identical to an
independent ``detector.clean_activations(frame)`` build, so the streaming
workload only ever changes speed, never results.
"""

import numpy as np
import pytest

from repro.data.sequences import generate_sequence
from repro.detectors.activation_cache import (
    ActivationCacheStore,
    CacheStats,
    CleanActivations,
    SequenceActivationCache,
    SharedMemoryActivationStore,
)
from repro.experiments.shm import list_segments

from tests.conftest import SMALL_LENGTH, SMALL_WIDTH


@pytest.fixture(scope="module")
def sequence():
    return generate_sequence(
        num_frames=4,
        seed=9,
        image_length=SMALL_LENGTH,
        image_width=SMALL_WIDTH,
        half="left",
    )


def _assert_bundle_matches_dense(detector, bundle, frame):
    clean = np.clip(np.asarray(frame, dtype=np.float64) + 0.0, 0.0, 255.0)
    dense = detector.clean_activations(frame)
    assert np.array_equal(bundle.clean_image, clean)
    assert set(bundle.tensors) == set(dense.tensors)
    for name, tensor in dense.tensors.items():
        assert np.array_equal(bundle.tensors[name], tensor)
    expected = detector.predict(frame)
    assert len(bundle.prediction) == len(expected)
    for left, right in zip(expected, bundle.prediction):
        assert (left.cl, left.x, left.y, left.l, left.w, left.score) == (
            right.cl, right.x, right.y, right.l, right.w, right.score,
        )


class TestCacheStatsFrameCounters:
    def test_add_and_sub(self):
        a = CacheStats(frame_hits=3, frame_misses=1)
        b = CacheStats(frame_hits=1, frame_misses=1)
        assert (a + b).frame_hits == 4
        assert (a + b).frame_misses == 2
        assert (a - b).frame_hits == 2
        assert (a - b).frame_requests == 2

    def test_frame_hit_rate(self):
        assert CacheStats().frame_hit_rate == 0.0
        assert CacheStats(frame_hits=3, frame_misses=1).frame_hit_rate == 0.75

    def test_as_dict_emits_frame_keys_only_when_traffic_exists(self):
        # Pre-existing report shapes (single-scene sweeps) must not grow
        # frame keys they never had.
        assert "frame_hits" not in CacheStats(hits=2).as_dict()
        emitted = CacheStats(frame_hits=2, frame_misses=1).as_dict()
        assert emitted["frame_hits"] == 2
        assert emitted["frame_misses"] == 1
        assert emitted["frame_hit_rate"] == pytest.approx(2 / 3)


class TestStorePut:
    def test_put_is_counter_neutral(self, yolo_detector, sequence):
        store = ActivationCacheStore(max_entries=4)
        bundle = yolo_detector.clean_activations(sequence.frame(0))
        admitted = store.put(yolo_detector, sequence.frame(0), bundle)
        assert admitted is not None
        assert store.hits == 0 and store.misses == 0
        assert len(store) == 1
        # A later lookup is answered by the admitted entry.
        assert store.get(yolo_detector, sequence.frame(0)) is admitted
        assert store.hits == 1

    def test_put_existing_key_returns_cached_bundle(self, yolo_detector, sequence):
        store = ActivationCacheStore(max_entries=4)
        frame = sequence.frame(0)
        first = store.put(
            yolo_detector, frame, yolo_detector.clean_activations(frame)
        )
        second = store.put(
            yolo_detector, frame, yolo_detector.clean_activations(frame)
        )
        assert second is first
        assert len(store) == 1

    def test_put_evicts_lru_at_cap(self, yolo_detector, sequence):
        store = ActivationCacheStore(max_entries=2)
        for index in range(3):
            frame = sequence.frame(index)
            store.put(yolo_detector, frame, yolo_detector.clean_activations(frame))
        assert len(store) == 2
        assert store.evictions == 1


class TestSequenceActivationCache:
    def test_warm_chain_is_bit_identical_to_dense(
        self, yolo_detector, detr_detector, sequence
    ):
        for detector in (yolo_detector, detr_detector):
            cache = SequenceActivationCache(detector, max_frames=2)
            for frame in sequence.images:
                bundle = cache.advance(frame)
                _assert_bundle_matches_dense(detector, bundle, frame)
            stats = cache.snapshot()
            assert stats.frame_misses == 1  # only the first frame is dense
            assert stats.frame_hits == len(sequence) - 1
            assert stats.frame_hit_rate > 0.0

    def test_repeated_frame_is_a_digest_hit(self, yolo_detector, sequence):
        cache = SequenceActivationCache(yolo_detector, max_frames=2)
        first = cache.advance(sequence.frame(0))
        again = cache.advance(sequence.frame(0).copy())
        assert again is first
        assert cache.frame_hits == 1 and cache.frame_misses == 1

    def test_unrelated_frame_is_rebuilt_densely(self, yolo_detector, sequence):
        """A frame of another scene differs almost everywhere: the scanned
        diff is too large to splice, so the bundle is rebuilt densely."""
        other = generate_sequence(
            num_frames=1,
            seed=10,
            image_length=SMALL_LENGTH,
            image_width=SMALL_WIDTH,
            half="left",
        ).frame(0)
        cache = SequenceActivationCache(yolo_detector, max_frames=2)
        cache.advance(sequence.frame(0))
        bundle = cache.advance(other)
        assert cache.frame_hits == 0 and cache.frame_misses == 2
        _assert_bundle_matches_dense(yolo_detector, bundle, other)

    def test_resized_frame_is_rebuilt_densely(self, yolo_detector, sequence):
        """Frames of another size have no pixel diff to scan."""
        cropped = np.ascontiguousarray(sequence.frame(1)[:, : SMALL_WIDTH - 16])
        cache = SequenceActivationCache(yolo_detector, max_frames=2)
        cache.advance(sequence.frame(0))
        bundle = cache.advance(cropped)
        assert cache.frame_hits == 0 and cache.frame_misses == 2
        _assert_bundle_matches_dense(yolo_detector, bundle, cropped)

    def test_identical_consecutive_frames_share_tensors(self, yolo_detector):
        frames = generate_sequence(
            num_frames=2,
            seed=9,
            image_length=SMALL_LENGTH,
            image_width=SMALL_WIDTH,
            half="left",
            max_speed=0.0,
        )
        cache = SequenceActivationCache(yolo_detector, max_frames=2)
        first = cache.advance(frames.frame(0))
        # Same pixels under a different digest-triggering path would still
        # be a digest hit here; force a derivation with a copy.
        second = cache.advance(frames.frame(1))
        assert second is first or second.tensors is first.tensors

    def test_eviction_keeps_rolling_window(self, yolo_detector, sequence):
        cache = SequenceActivationCache(yolo_detector, max_frames=1)
        for frame in sequence:
            cache.advance(frame)
        assert len(cache) == 1
        assert cache.evictions == len(sequence) - 1
        # The survivor is the latest frame's bundle.
        assert np.array_equal(
            cache.latest.clean_image,
            np.clip(np.asarray(sequence.frame(-1), float) + 0.0, 0.0, 255.0),
        )

    def test_snapshot_folds_evicted_delta_counters(self, yolo_detector, sequence):
        cache = SequenceActivationCache(yolo_detector, max_frames=1)
        bundle = cache.advance(sequence.frame(0))
        from repro.detectors.activation_cache import DeltaActivationStore

        bundle.delta = DeltaActivationStore(max_entries=4)
        bundle.delta.get(b"missing")  # one delta miss
        cache.advance(sequence.frame(1))  # evicts frame 0's bundle
        assert cache.snapshot().delta_misses == 1

    def test_clear(self, yolo_detector, sequence):
        cache = SequenceActivationCache(yolo_detector, max_frames=3)
        for frame in sequence:
            cache.advance(frame)
        assert cache.clear() == min(3, len(sequence))
        assert len(cache) == 0
        assert cache.latest is None

    def test_rejects_zero_window(self, yolo_detector):
        with pytest.raises(ValueError):
            SequenceActivationCache(yolo_detector, max_frames=0)

    def test_non_incremental_detector_returns_none(self, sequence):
        class Opaque:
            def clean_activations_delta(self, image, previous):
                return None, False

        cache = SequenceActivationCache(Opaque(), max_frames=2)
        assert cache.advance(sequence.frame(0)) is None
        assert cache.frame_misses == 1
        assert len(cache) == 0


class TestStoreBackedSequenceCache:
    def test_bundles_ride_the_store(self, yolo_detector, sequence):
        store = ActivationCacheStore(max_entries=4)
        cache = SequenceActivationCache(yolo_detector, max_frames=2, store=store)
        for frame in sequence.images:
            bundle = cache.advance(frame)
            _assert_bundle_matches_dense(yolo_detector, bundle, frame)
        # Admissions are not lookups: the store saw no hit/miss traffic.
        assert store.hits == 0 and store.misses == 0
        assert len(store) == 4
        # The cache's own snapshot carries only frame/eviction counters —
        # store-owned delta counters are the store's to report.
        stats = cache.snapshot()
        assert stats.frame_hits == len(sequence) - 1
        assert stats.delta_hits == 0 and stats.delta_misses == 0

    def test_shared_memory_store_roundtrip_and_no_leaks(
        self, yolo_detector, sequence
    ):
        store = SharedMemoryActivationStore(
            max_entries=4, segment_prefix="tseqcache"
        )
        try:
            cache = SequenceActivationCache(
                yolo_detector, max_frames=2, store=store
            )
            for frame in sequence.images:
                bundle = cache.advance(frame)
                _assert_bundle_matches_dense(yolo_detector, bundle, frame)
            assert store.active_segments > 0
        finally:
            store.shutdown()
        assert list_segments("tseqcache") == []
