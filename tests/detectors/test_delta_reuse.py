"""Cross-generation delta-reuse: store lifecycle and splice parity.

The delta store memoizes spliced activation grids of evaluated masks; a
descendant re-splices only its relative dirty window against an ancestor's
grids.  Every route must stay bit-identical to the full forward pass — the
store is a pure speed layer, so these tests pin exact equality alongside
the LRU/counter/lifecycle mechanics the engine depends on.
"""

import numpy as np
import pytest

from repro.detectors.activation_cache import (
    ActivationCacheStore,
    CacheStats,
    DeltaActivations,
    DeltaActivationStore,
)
from repro.nn.incremental import (
    EMPTY_BBOX,
    bbox_is_empty,
    bbox_union,
    mask_nonzero_bbox,
    masks_differ_bbox,
)


def _scene(seed, shape=(64, 208, 3)):
    return np.random.default_rng(seed).uniform(0, 255, size=shape).round()


def _patch_mask(shape, window, seed):
    mask = np.zeros(shape, dtype=np.float64)
    r0, r1, c0, c1 = window
    mask[r0:r1, c0:c1] = np.random.default_rng(seed).integers(
        -255, 256, size=(r1 - r0, c1 - c0, shape[2])
    )
    return mask


def _entry(mask, prediction="prediction"):
    bbox = mask_nonzero_bbox(mask)
    r0, r1, c0, c1 = bbox
    return DeltaActivations(
        mask_window=mask[r0:r1, c0:c1].copy(),
        pixel_bbox=bbox,
        prediction=prediction,
    )


def _assert_same_prediction(expected, actual):
    assert len(expected) == len(actual)
    for left, right in zip(expected, actual):
        assert (left.cl, left.x, left.y, left.l, left.w, left.score) == (
            right.cl,
            right.x,
            right.y,
            right.l,
            right.w,
            right.score,
        )


class TestDeltaActivationStore:
    def test_rejects_zero_cap(self):
        with pytest.raises(ValueError):
            DeltaActivationStore(max_entries=0)

    def test_unkeyed_masks_bypass_the_store(self):
        store = DeltaActivationStore(max_entries=2)
        store.put(None, _entry(_patch_mask((8, 8, 3), (1, 3, 1, 3), 0)))
        assert len(store) == 0
        assert store.get(None) is None
        # Provenance-free traffic is invisible: no counters move.
        assert store.counters() == CacheStats()

    def test_put_get_roundtrip_and_counters(self):
        store = DeltaActivationStore(max_entries=2)
        entry = _entry(_patch_mask((8, 8, 3), (1, 3, 1, 3), 1))
        assert store.get(b"a") is None
        store.put(b"a", entry)
        assert store.get(b"a") is entry
        counters = store.counters()
        assert counters.delta_hits == 1
        assert counters.delta_misses == 1
        assert counters.delta_bytes == entry.nbytes

    def test_lru_eviction_and_mru_refresh(self):
        store = DeltaActivationStore(max_entries=2)
        entries = {
            key: _entry(_patch_mask((8, 8, 3), (1, 3, 1, 3), seed))
            for seed, key in enumerate((b"a", b"b", b"c"))
        }
        store.put(b"a", entries[b"a"])
        store.put(b"b", entries[b"b"])
        store.get(b"a")  # refresh: b becomes the LRU entry
        store.put(b"c", entries[b"c"])
        assert store.get(b"a") is entries[b"a"]
        assert store.get(b"c") is entries[b"c"]
        assert store.get(b"b") is None

    def test_reput_refreshes_without_readmitting(self):
        store = DeltaActivationStore(max_entries=2)
        first = _entry(_patch_mask((8, 8, 3), (1, 3, 1, 3), 2))
        store.put(b"a", first)
        store.put(b"b", _entry(_patch_mask((8, 8, 3), (1, 3, 1, 3), 4)))
        admitted = store.bytes_admitted
        # The fingerprint is a content digest, so a re-put of the same key
        # must keep the original entry and only refresh its LRU position.
        store.put(b"a", _entry(_patch_mask((8, 8, 3), (1, 3, 1, 3), 3)))
        store.put(b"c", _entry(_patch_mask((8, 8, 3), (1, 3, 1, 3), 5)))
        assert store.get(b"a") is first  # refreshed: b was the evictee
        assert store.get(b"b") is None
        assert store.bytes_admitted > admitted  # only c added bytes

    def test_clear_and_reset_counters(self):
        store = DeltaActivationStore(max_entries=4)
        store.put(b"a", _entry(_patch_mask((8, 8, 3), (1, 3, 1, 3), 6)))
        store.get(b"a")
        store.get(b"missing")
        assert store.clear() == 1
        assert len(store) == 0
        assert store.counters().delta_requests == 2  # clear keeps counters
        store.reset_counters()
        assert store.counters() == CacheStats()


class TestDeltaActivationsDiffBBox:
    def test_matches_full_mask_reference(self):
        shape = (16, 24, 3)
        ancestor = _patch_mask(shape, (2, 9, 3, 15), 7)
        child = ancestor.copy()
        child[4:6, 5:8] += 1.0
        entry = _entry(ancestor)
        expected = masks_differ_bbox(child, ancestor)
        assert entry.diff_bbox(child, None) == expected
        # A window covering the diff gives the identical exact box.
        loose = bbox_union(expected, (0, 10, 0, 20))
        assert entry.diff_bbox(child, loose) == expected

    def test_identical_descendant_is_empty(self):
        ancestor = _patch_mask((16, 24, 3), (2, 9, 3, 15), 8)
        entry = _entry(ancestor)
        assert bbox_is_empty(entry.diff_bbox(ancestor.copy(), None))
        assert entry.diff_bbox(ancestor, EMPTY_BBOX) == EMPTY_BBOX

    def test_support_outside_window_counts_as_zero(self):
        # A descendant that *dropped* part of the ancestor's support must
        # report the vacated pixels as differing.
        shape = (16, 24, 3)
        ancestor = _patch_mask(shape, (2, 9, 3, 15), 9)
        child = np.zeros(shape)
        entry = _entry(ancestor)
        assert entry.diff_bbox(child, None) == entry.pixel_bbox


class TestCacheStoreDeltaLifecycle:
    def test_delta_store_attached_only_when_configured(self, yolo_detector):
        plain = ActivationCacheStore(max_entries=2)
        assert plain.get(yolo_detector, _scene(10)).delta is None
        assert "delta_hits" not in plain.stats
        wired = ActivationCacheStore(max_entries=2, delta_store_size=8)
        bundle = wired.get(yolo_detector, _scene(10))
        assert isinstance(bundle.delta, DeltaActivationStore)
        assert bundle.delta.max_entries == 8
        assert wired.stats["delta_hits"] == 0

    def test_drop_folds_delta_counters_into_totals(self, yolo_detector):
        store = ActivationCacheStore(max_entries=1, delta_store_size=4)
        bundle = store.get(yolo_detector, _scene(11))
        mask = _patch_mask(bundle.clean_image.shape, (4, 8, 10, 20), 12)
        bundle.delta.put(b"a", _entry(mask))
        bundle.delta.get(b"a")
        bundle.delta.get(b"missing")
        store.invalidate()
        # The bundle (and its delta store) is gone, but the traffic counters
        # survive in the parent totals — snapshots stay monotonic.
        assert len(bundle.delta) == 0
        assert store.stats["delta_hits"] == 1
        assert store.stats["delta_misses"] == 1
        assert store.snapshot().delta_bytes > 0

    def test_evicted_delta_entry_stays_readable(self, yolo_detector):
        """The delta cap evicts an entry its holder still uses: the store
        forgets it, the holder's view stays intact and read-only."""
        store = ActivationCacheStore(max_entries=2, delta_store_size=1)
        bundle = store.get(yolo_detector, _scene(32))
        shape = bundle.clean_image.shape
        first = _entry(_patch_mask(shape, (4, 8, 10, 20), 33))
        first.tensors["features"] = np.arange(12.0).reshape(2, 2, 3)
        copies = [first.mask_window.copy(), first.tensors["features"].copy()]
        bundle.delta.put(b"a", first)
        held = bundle.delta.get(b"a")
        second = _entry(_patch_mask(shape, (4, 8, 10, 20), 34))
        bundle.delta.put(b"b", second)
        # Cap 1: admitting b evicted a.
        assert len(bundle.delta) == 1
        assert bundle.delta.get(b"a") is None
        assert bundle.delta.get(b"b") is second
        assert bundle.delta.bytes_admitted == first.nbytes + second.nbytes
        assert held is first
        for array, copy in zip((held.mask_window, held.tensors["features"]), copies):
            assert np.array_equal(array, copy)
            assert not array.flags.writeable

    def test_bundle_eviction_keeps_fetched_delta_entries_readable(
        self, yolo_detector
    ):
        """Evicting a bundle clears its delta store, yet an entry fetched
        before the eviction stays intact; the rebuilt bundle starts with
        an empty delta store of its own."""
        store = ActivationCacheStore(max_entries=1, delta_store_size=2)
        image = _scene(35)
        bundle = store.get(yolo_detector, image)
        bundle.delta.put(
            b"a", _entry(_patch_mask(bundle.clean_image.shape, (4, 8, 10, 20), 36))
        )
        held = bundle.delta.get(b"a")
        window = held.mask_window.copy()
        store.get(yolo_detector, _scene(37))  # cap 1: evicts the bundle
        assert store.evictions == 1
        assert len(bundle.delta) == 0
        assert np.array_equal(held.mask_window, window)
        assert not held.mask_window.flags.writeable
        rebuilt = store.get(yolo_detector, image)
        assert rebuilt is not bundle
        assert rebuilt.delta is not bundle.delta and len(rebuilt.delta) == 0
        assert store.stats["delta_hits"] == 1

    def test_reset_stats_zeroes_delta_counters_keeps_entries(self, yolo_detector):
        store = ActivationCacheStore(max_entries=2, delta_store_size=4)
        bundle = store.get(yolo_detector, _scene(13))
        bundle.delta.put(b"a", _entry(_patch_mask(bundle.clean_image.shape, (4, 8, 10, 20), 14)))
        bundle.delta.get(b"a")
        before = store.reset_stats()
        assert before.delta_hits == 1
        assert store.snapshot() == CacheStats()
        assert bundle.delta.get(b"a") is not None  # entries untouched

    def test_resize_grow_and_shrink(self, yolo_detector):
        store = ActivationCacheStore(max_entries=4)
        scenes = [_scene(20 + index) for index in range(3)]
        for scene in scenes:
            store.get(yolo_detector, scene)
        assert store.resize(8) == 8 and len(store) == 3
        # Shrinking evicts from the LRU end (the oldest scene first).
        store.get(yolo_detector, scenes[0])  # refresh scene 0 to MRU
        assert store.resize(2) == 2
        assert len(store) == 2 and store.evictions == 1
        store.get(yolo_detector, scenes[0])
        assert store.hits == 2  # survived the shrink
        store.get(yolo_detector, scenes[1])
        assert store.misses == 4  # scene 1 was the shrink victim
        with pytest.raises(ValueError):
            store.resize(0)


@pytest.fixture(params=["yolo", "detr"])
def detector(request, yolo_detector, detr_detector):
    return yolo_detector if request.param == "yolo" else detr_detector


def _lineage(masks, image_shape, seed=40):
    """Chain of masks, each a small perturbation of the previous one."""
    rng = np.random.default_rng(seed)
    chain = [masks]
    for _ in range(3):
        child = chain[-1].copy()
        r = int(rng.integers(0, image_shape[0] - 4))
        c = int(rng.integers(0, image_shape[1] - 4))
        child[r : r + 4, c : c + 4] = rng.integers(-255, 256, size=(4, 4, 3))
        chain.append(child)
    return chain


class TestAncestorSpliceParity:
    def test_descendant_bit_identical_with_delta_hit(self, detector, small_dataset):
        image = small_dataset[0].image
        clean = detector.clean_activations(image)
        clean.delta = DeltaActivationStore(max_entries=8)
        parent = _patch_mask(image.shape, (10, 20, 30, 60), 41)
        child = parent.copy()
        child[12:14, 40:44] += 17.0
        masks = np.stack([parent, child], axis=0)
        expected = detector.predict_batch(np.clip(image[None] + masks, 0.0, 255.0))
        # Generation boundary: the parent is evaluated (and stored) first,
        # then the child arrives with its lineage record.
        first = detector.predict_delta_batch(
            image,
            parent[None],
            clean=clean,
            ancestry=[{"fingerprint": b"parent", "ancestor": None}],
        )[0]
        actual = detector.predict_delta_batch(
            image,
            child[None],
            clean=clean,
            ancestry=[{"fingerprint": b"child", "ancestor": b"parent"}],
        )[0]
        for left, right in zip(expected, (first, actual)):
            _assert_same_prediction(left, right)
        assert clean.delta.hits == 1  # the child spliced against the parent

    def test_identical_descendant_answers_from_stored_prediction(
        self, detector, small_dataset
    ):
        image = small_dataset[0].image
        clean = detector.clean_activations(image)
        clean.delta = DeltaActivationStore(max_entries=8)
        mask = _patch_mask(image.shape, (10, 20, 30, 60), 42)
        first = detector.predict_delta_batch(
            image,
            mask[None],
            clean=clean,
            ancestry=[{"fingerprint": b"a", "ancestor": None}],
        )[0]
        again = detector.predict_delta_batch(
            image,
            mask.copy()[None],
            clean=clean,
            ancestry=[{"fingerprint": b"b", "ancestor": b"a"}],
        )[0]
        assert again is first  # exact-match hit: no recompute at all
        _assert_same_prediction(
            detector.predict(np.clip(image + mask, 0.0, 255.0)), again
        )

    def test_generation_chain_stays_bit_identical(self, detector, small_dataset):
        image = small_dataset[0].image
        clean = detector.clean_activations(image)
        clean.delta = DeltaActivationStore(max_entries=8)
        chain = _lineage(_patch_mask(image.shape, (8, 22, 25, 70), 43), image.shape)
        previous_key = None
        for index, mask in enumerate(chain):
            key = f"gen{index}".encode()
            actual = detector.predict_delta_batch(
                image,
                mask[None],
                clean=clean,
                ancestry=[{"fingerprint": key, "ancestor": previous_key}],
            )[0]
            _assert_same_prediction(
                detector.predict(np.clip(image + mask, 0.0, 255.0)), actual
            )
            previous_key = key
        assert clean.delta.hits == len(chain) - 1

    def test_loose_or_unknown_diff_bound_never_changes_result(
        self, detector, small_dataset
    ):
        """The splice window is scanned from both exact supports, so a
        caller's loose or unknown dirty bound for the child changes
        nothing."""
        image = small_dataset[0].image
        parent = _patch_mask(image.shape, (10, 20, 30, 60), 44)
        child = parent.copy()
        child[11, 35, 0] += 3.0
        assert masks_differ_bbox(child, parent) == (11, 12, 35, 36)
        exact = mask_nonzero_bbox(child)
        full = (0, image.shape[0], 0, image.shape[1])
        reference = detector.predict(np.clip(image + child, 0.0, 255.0))
        for bound in (exact, bbox_union(exact, (0, 30, 0, 90)), full, None):
            clean = detector.clean_activations(image)
            clean.delta = DeltaActivationStore(max_entries=8)
            detector.predict_delta_batch(
                image,
                parent[None],
                clean=clean,
                ancestry=[{"fingerprint": b"p", "ancestor": None}],
            )
            actual = detector.predict_delta_batch(
                image,
                child[None],
                dirty_bounds=[bound],
                clean=clean,
                ancestry=[{"fingerprint": b"c", "ancestor": b"p"}],
            )[0]
            _assert_same_prediction(reference, actual)
            assert clean.delta.hits == 1

    def test_unknown_ancestor_falls_back_bit_identically(
        self, detector, small_dataset
    ):
        image = small_dataset[0].image
        clean = detector.clean_activations(image)
        clean.delta = DeltaActivationStore(max_entries=8)
        mask = _patch_mask(image.shape, (10, 20, 30, 60), 45)
        actual = detector.predict_delta_batch(
            image,
            mask[None],
            clean=clean,
            ancestry=[{"fingerprint": b"c", "ancestor": b"never-seen"}],
        )[0]
        _assert_same_prediction(
            detector.predict(np.clip(image + mask, 0.0, 255.0)), actual
        )
        assert clean.delta.misses >= 1

    def test_predict_delta_single_path_with_ancestry(self, detector, small_dataset):
        image = small_dataset[0].image
        clean = detector.clean_activations(image)
        clean.delta = DeltaActivationStore(max_entries=8)
        parent = _patch_mask(image.shape, (10, 20, 30, 60), 46)
        child = parent.copy()
        child[15:17, 50:53] -= 9.0
        detector.predict_delta(
            image,
            parent,
            clean=clean,
            ancestry={"fingerprint": b"p", "ancestor": None},
        )
        actual = detector.predict_delta(
            image,
            child,
            clean=clean,
            ancestry={"fingerprint": b"c", "ancestor": b"p"},
        )
        _assert_same_prediction(
            detector.predict(np.clip(image + child, 0.0, 255.0)), actual
        )
        assert clean.delta.hits == 1

    def test_without_ancestry_store_is_untouched(self, detector, small_dataset):
        image = small_dataset[0].image
        clean = detector.clean_activations(image)
        clean.delta = DeltaActivationStore(max_entries=8)
        mask = _patch_mask(image.shape, (10, 20, 30, 60), 47)
        actual = detector.predict_delta_batch(image, mask[None], clean=clean)[0]
        _assert_same_prediction(
            detector.predict(np.clip(image + mask, 0.0, 255.0)), actual
        )
        assert len(clean.delta) == 0
        assert clean.delta.counters() == CacheStats()
