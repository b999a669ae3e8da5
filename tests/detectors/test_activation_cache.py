"""Tests for the clean-scene activation cache store.

The store is content-keyed (detector identity + image digest), so a new
scene can never hit a stale entry — the cache-invalidation guarantee the
experiment runner's per-scene lifecycle relies on.
"""

import numpy as np
import pytest

from repro.detectors.activation_cache import (
    ActivationCacheStore,
    CacheStats,
    CleanActivations,
    DeltaActivations,
    DeltaActivationStore,
    image_digest,
)


def _scene(seed, shape=(64, 208, 3)):
    return np.random.default_rng(seed).uniform(0, 255, size=shape).round()


class TestImageDigest:
    def test_content_keyed(self):
        image = _scene(0)
        assert image_digest(image) == image_digest(image.copy())
        changed = image.copy()
        changed[3, 4, 1] += 1.0
        assert image_digest(image) != image_digest(changed)

    def test_dtype_and_shape_enter_the_key(self):
        image = np.zeros((4, 4, 3))
        assert image_digest(image) != image_digest(image.astype(np.float32))
        assert image_digest(image) != image_digest(np.zeros((4, 12)))


class TestActivationCacheStore:
    def test_miss_then_hit(self, yolo_detector):
        store = ActivationCacheStore(max_entries=2)
        image = _scene(1)
        first = store.get(yolo_detector, image)
        assert isinstance(first, CleanActivations)
        assert store.stats == {
            "hits": 0, "misses": 1, "evictions": 0, "invalidations": 0, "entries": 1,
        }
        second = store.get(yolo_detector, image)
        assert second is first
        assert store.hits == 1

    def test_new_scene_never_hits_stale_entry(self, yolo_detector):
        store = ActivationCacheStore(max_entries=4)
        scene_a, scene_b = _scene(2), _scene(3)
        cached_a = store.get(yolo_detector, scene_a)
        cached_b = store.get(yolo_detector, scene_b)
        assert cached_b is not cached_a
        assert store.misses == 2 and store.hits == 0
        # The cached bundle's clean image and prediction belong to its own
        # scene: predictions answered from it match a fresh forward pass.
        expected = yolo_detector.predict(np.clip(scene_b + 0.0, 0.0, 255.0))
        assert len(cached_b.prediction) == len(expected)
        for left, right in zip(expected, cached_b.prediction):
            assert (left.cl, left.x, left.y, left.l, left.w, left.score) == (
                right.cl, right.x, right.y, right.l, right.w, right.score,
            )
        # A single perturbed pixel produces a different digest => miss.
        perturbed = scene_a.copy()
        perturbed[0, 0, 0] = (perturbed[0, 0, 0] + 1.0) % 255.0
        store.get(yolo_detector, perturbed)
        assert store.misses == 3

    def test_distinct_detectors_do_not_collide(self, yolo_detector, detr_detector):
        store = ActivationCacheStore(max_entries=4)
        image = _scene(4)
        cached_yolo = store.get(yolo_detector, image)
        cached_detr = store.get(detr_detector, image)
        assert cached_yolo is not cached_detr
        assert "raw" in cached_detr.tensors
        assert "features" in cached_yolo.tensors

    def test_lru_eviction_respects_cap(self, yolo_detector):
        store = ActivationCacheStore(max_entries=2)
        scenes = [_scene(seed) for seed in (5, 6, 7)]
        store.get(yolo_detector, scenes[0])
        store.get(yolo_detector, scenes[1])
        store.get(yolo_detector, scenes[0])  # refresh scene 0 => scene 1 is LRU
        store.get(yolo_detector, scenes[2])  # evicts scene 1
        assert store.evictions == 1
        assert len(store) == 2
        store.get(yolo_detector, scenes[0])
        assert store.hits == 2  # scene 0 survived the eviction
        store.get(yolo_detector, scenes[1])
        assert store.misses == 4  # scene 1 was rebuilt

    def test_invalidate(self, yolo_detector, detr_detector):
        store = ActivationCacheStore(max_entries=8)
        image = _scene(8)
        store.get(yolo_detector, image)
        store.get(detr_detector, image)
        assert store.invalidate(yolo_detector) == 1
        assert len(store) == 1
        store.get(yolo_detector, image)
        assert store.misses == 3  # rebuilt after invalidation
        assert store.invalidate() == 2
        assert len(store) == 0

    def test_invalidations_counted_separately_from_evictions(
        self, yolo_detector, detr_detector
    ):
        """Explicit drops increment ``invalidations``, never ``evictions``.

        The regression: ``invalidate`` used to delete entries without
        counting them anywhere, so persisted provenance under-reported
        entry turnover relative to cap-driven evictions.
        """
        store = ActivationCacheStore(max_entries=8)
        image = _scene(8)
        store.get(yolo_detector, image)
        store.get(detr_detector, image)
        assert store.invalidations == 0
        store.invalidate(yolo_detector)
        assert store.invalidations == 1
        store.invalidate()
        assert store.invalidations == 2
        assert store.evictions == 0  # cap never hit: evictions untouched
        assert store.snapshot().invalidations == 2
        assert store.stats["invalidations"] == 2
        previous = store.reset_stats()
        assert previous.invalidations == 2
        assert store.invalidations == 0

    def test_admitted_arrays_are_read_only(self, yolo_detector):
        """Whatever a store admits — a bundle built by ``get``, one handed
        to ``put``, an entry handed to ``DeltaActivationStore.put`` — is
        cached as is, with every array marked read-only."""
        store = ActivationCacheStore(max_entries=2)
        image = _scene(20)
        cached = store.get(yolo_detector, image)
        reference = yolo_detector.clean_activations(image)
        assert np.array_equal(cached.clean_image, reference.clean_image)
        for name, tensor in reference.tensors.items():
            assert np.array_equal(cached.tensors[name], tensor)
        assert store.get(yolo_detector, image) is cached
        assert store.hits == 1

        other = _scene(21)
        bundle = yolo_detector.clean_activations(other)
        assert bundle.clean_image.flags.writeable
        assert store.put(yolo_detector, other, bundle) is bundle
        assert store.get(yolo_detector, other) is bundle

        delta = DeltaActivationStore(max_entries=2)
        entry = DeltaActivations(
            mask_window=np.ones((2, 3, 3), dtype=np.int16),
            pixel_bbox=(0, 2, 0, 3),
            prediction=reference.prediction,
            tensors={"features": np.zeros((1, 1, 7))},
        )
        delta.put(b"a", entry)
        assert delta.get(b"a") is entry

        for arrays in (
            [cached.clean_image, *cached.tensors.values()],
            [bundle.clean_image, *bundle.tensors.values()],
            [entry.mask_window, *entry.tensors.values()],
        ):
            for array in arrays:
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[(0,) * array.ndim] = 1

    def test_dropped_bundle_stays_readable(self, yolo_detector, detr_detector):
        """A bundle fetched before the store drops it — by eviction, by a
        shrinking resize or by invalidation — stays intact and read-only
        for as long as its holder keeps it; a later lookup rebuilds."""
        store = ActivationCacheStore(max_entries=2)
        image, other = _scene(26), _scene(27)
        held = [store.get(yolo_detector, image), store.get(detr_detector, image)]
        store.get(yolo_detector, other)  # cap 2: evicts the first
        store.resize(1)  # evicts the second
        held.append(store.get(yolo_detector, other))
        store.invalidate()  # drops the third
        assert store.evictions == 2 and store.invalidations == 1
        assert len(store) == 0
        for bundle, detector, scene in zip(
            held, (yolo_detector, detr_detector, yolo_detector), (image, image, other)
        ):
            reference = detector.clean_activations(scene)
            assert np.array_equal(bundle.clean_image, reference.clean_image)
            assert bundle.tensors.keys() == reference.tensors.keys()
            for name, tensor in reference.tensors.items():
                assert np.array_equal(bundle.tensors[name], tensor)
            assert not bundle.clean_image.flags.writeable
            assert not any(t.flags.writeable for t in bundle.tensors.values())
        rebuilt = store.get(yolo_detector, image)
        assert rebuilt is not held[0]
        assert np.array_equal(rebuilt.clean_image, held[0].clean_image)
        assert store.misses == 4

    def test_non_incremental_detector_not_cached(self, yolo_detector):
        class Opaque:
            def clean_activations(self, image):
                return None

        store = ActivationCacheStore(max_entries=2)
        assert store.get(Opaque(), _scene(9)) is None
        assert len(store) == 0

    def test_rejects_zero_cap(self):
        with pytest.raises(ValueError):
            ActivationCacheStore(max_entries=0)


class TestCacheStats:
    def test_add_sub_and_merge(self):
        first = CacheStats(hits=2, misses=3, evictions=1)
        second = CacheStats(hits=1, misses=1, evictions=0)
        assert first + second == CacheStats(hits=3, misses=4, evictions=1)
        assert (first + second) - second == first
        assert CacheStats.merge([first, second, CacheStats()]) == first + second
        assert CacheStats.merge([]) == CacheStats()

    def test_rates(self):
        assert CacheStats().hit_rate == 0.0
        assert CacheStats(hits=3, misses=1).hit_rate == 0.75
        assert CacheStats(hits=3, misses=1).requests == 4

    def test_as_dict(self):
        stats = CacheStats(hits=1, misses=3, evictions=2, invalidations=4)
        assert stats.as_dict() == {
            "hits": 1, "misses": 3, "evictions": 2, "invalidations": 4,
            "hit_rate": 0.25,
        }

    def test_invalidations_propagate_through_arithmetic(self):
        first = CacheStats(hits=1, invalidations=2)
        second = CacheStats(misses=1, invalidations=3)
        assert (first + second).invalidations == 5
        assert (first - second).invalidations == -1
        assert CacheStats.merge([first, second]).invalidations == 5


class TestStatsLifecycle:
    def test_snapshot_reflects_counters(self, yolo_detector):
        store = ActivationCacheStore(max_entries=2)
        image = _scene(10)
        store.get(yolo_detector, image)
        store.get(yolo_detector, image)
        assert store.snapshot() == CacheStats(hits=1, misses=1, evictions=0)

    def test_snapshot_deltas_isolate_one_phase(self, yolo_detector):
        store = ActivationCacheStore(max_entries=4)
        store.get(yolo_detector, _scene(11))
        before = store.snapshot()
        image = _scene(12)
        store.get(yolo_detector, image)
        store.get(yolo_detector, image)
        assert store.snapshot() - before == CacheStats(hits=1, misses=1, evictions=0)

    def test_reset_stats_zeroes_counters_but_keeps_entries(self, yolo_detector):
        """Per-model stats reset: hit-rates must not accumulate across models."""
        store = ActivationCacheStore(max_entries=4)
        image = _scene(13)
        store.get(yolo_detector, image)
        store.get(yolo_detector, image)
        previous = store.reset_stats()
        assert previous == CacheStats(hits=1, misses=1, evictions=0)
        assert store.snapshot() == CacheStats()
        assert len(store) == 1  # entries untouched — only counters reset
        store.get(yolo_detector, image)
        assert store.snapshot() == CacheStats(hits=1, misses=0, evictions=0)
