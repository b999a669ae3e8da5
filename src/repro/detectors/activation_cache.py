"""Clean-scene activation cache for incremental (dirty-region) inference.

The butterfly-effect attack evaluates thousands of perturbation masks
against the *same* clean scene.  Each simulated detector can precompute the
clean scene's intermediate activations once (see
``Detector.clean_activations``) and then answer a perturbed image by
recomputing only the mask's dirty region.  This module provides the shared
cache machinery:

* :class:`CleanActivations` — the per-``(detector, image)`` bundle of
  cached tensors plus the decoded clean prediction;
* :class:`ActivationCacheStore` — a small content-keyed LRU store with a
  size cap, hit/miss/eviction/invalidation counters and explicit
  invalidation, used by the experiment runner to manage per-scene cache
  lifecycle across a models × images sweep.  Every backend caches through
  it: the serial sweep, each ``process`` pool worker and each persistent
  worker (:mod:`repro.experiments.persistent`) holds one in its own heap;
* :class:`CacheStats` — an immutable counter snapshot that supports
  differences (per-job/per-model deltas) and merging (summing per-worker
  counters into sweep-level totals across a process pool, where every
  worker owns a private store).
* :class:`DeltaActivationStore` — a second-order cache hanging off each
  clean bundle: it memoizes the *spliced* activation grids of already
  evaluated masks, keyed by the mask's provenance fingerprint, so an NSGA
  offspring can re-splice only the window where it differs from an
  evaluated ancestor instead of its whole dirty region (cross-generation
  delta reuse).  Its lifecycle is tied to the parent bundle: dropping the
  bundle (eviction, invalidation, shutdown) drops the delta entries with
  it and folds their counters into the parent store's totals.

Entries are keyed by the *content digest* of the image (plus the detector
instance), so presenting a new scene can never hit a stale entry — a fresh
image always misses and rebuilds.  Both stores mark the arrays they admit
read-only, so a splice that writes into a cached grid instead of a copy
raises instead of corrupting every later lookup.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.detection.prediction import Prediction
from repro.nn.incremental import (
    BBox,
    EMPTY_BBOX,
    bbox_intersection,
    bbox_is_empty,
    channels_differ,
    support_bbox,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.detectors.base import Detector


def image_digest(image: np.ndarray) -> bytes:
    """Stable content key of an image: dtype, shape and raw bytes."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(image.dtype).encode())
    digest.update(str(image.shape).encode())
    digest.update(np.ascontiguousarray(image).tobytes())
    return digest.digest()


def _freeze(*arrays: np.ndarray) -> None:
    """Mark cached arrays read-only in place (identity is kept)."""
    for array in arrays:
        array.flags.writeable = False


@dataclass(frozen=True)
class CacheStats:
    """Immutable hit/miss/eviction/invalidation counters of a store.

    Snapshots subtract (``after - before`` gives the delta attributable to
    one attack job) and add (merging per-worker or per-model deltas into
    sweep totals), so the experiment engine can report per-model hit rates
    even when jobs fan out over a process pool of private stores.

    ``evictions`` counts cap-driven LRU drops only; ``invalidations``
    counts entries dropped by explicit :meth:`ActivationCacheStore.invalidate`
    calls (per-model lifecycle, shutdown).  Keeping the two separate lets
    persisted provenance distinguish cache pressure from lifecycle churn.

    ``delta_hits``/``delta_misses``/``delta_bytes`` count the second-order
    :class:`DeltaActivationStore` traffic (ancestor-grid lookups by the
    cross-generation reuse path and cumulative bytes of spliced grids
    admitted); they stay zero for stores without delta reuse, and
    :meth:`as_dict` omits them in that case so pre-existing persisted
    reports keep their exact shape.

    ``frame_hits``/``frame_misses`` count the temporal traffic of the
    streaming-sequence workload (:class:`SequenceActivationCache`): a frame
    whose clean bundle was derived incrementally from the previous frame's
    cached bundle is a frame hit, a dense rebuild is a frame miss.  Like
    the delta counters they stay zero for still-image runs and are omitted
    from :meth:`as_dict` in that case.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    delta_hits: int = 0
    delta_misses: int = 0
    delta_bytes: int = 0
    frame_hits: int = 0
    frame_misses: int = 0

    @property
    def requests(self) -> int:
        """Total lookups observed (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when idle)."""
        return self.hits / self.requests if self.requests else 0.0

    @property
    def delta_requests(self) -> int:
        """Total delta-store lookups observed (delta hits + misses)."""
        return self.delta_hits + self.delta_misses

    @property
    def delta_hit_rate(self) -> float:
        """Fraction of delta lookups answered from stored grids."""
        return self.delta_hits / self.delta_requests if self.delta_requests else 0.0

    @property
    def frame_requests(self) -> int:
        """Total sequence-frame derivations observed (frame hits + misses)."""
        return self.frame_hits + self.frame_misses

    @property
    def frame_hit_rate(self) -> float:
        """Fraction of frames derived incrementally from the previous frame."""
        return self.frame_hits / self.frame_requests if self.frame_requests else 0.0

    def __add__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
            invalidations=self.invalidations + other.invalidations,
            delta_hits=self.delta_hits + other.delta_hits,
            delta_misses=self.delta_misses + other.delta_misses,
            delta_bytes=self.delta_bytes + other.delta_bytes,
            frame_hits=self.frame_hits + other.frame_hits,
            frame_misses=self.frame_misses + other.frame_misses,
        )

    def __sub__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            hits=self.hits - other.hits,
            misses=self.misses - other.misses,
            evictions=self.evictions - other.evictions,
            invalidations=self.invalidations - other.invalidations,
            delta_hits=self.delta_hits - other.delta_hits,
            delta_misses=self.delta_misses - other.delta_misses,
            delta_bytes=self.delta_bytes - other.delta_bytes,
            frame_hits=self.frame_hits - other.frame_hits,
            frame_misses=self.frame_misses - other.frame_misses,
        )

    def as_dict(self) -> dict[str, float]:
        """JSON-friendly counters plus the derived hit rate.

        Delta-store counters appear only when there was delta traffic, so
        reports from runs without delta reuse keep the pre-existing shape.
        """
        counters = {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
        }
        if self.delta_hits or self.delta_misses or self.delta_bytes:
            counters["delta_hits"] = self.delta_hits
            counters["delta_misses"] = self.delta_misses
            counters["delta_bytes"] = self.delta_bytes
            counters["delta_hit_rate"] = self.delta_hit_rate
        if self.frame_hits or self.frame_misses:
            counters["frame_hits"] = self.frame_hits
            counters["frame_misses"] = self.frame_misses
            counters["frame_hit_rate"] = self.frame_hit_rate
        return counters

    @staticmethod
    def merge(parts: "list[CacheStats] | tuple[CacheStats, ...]") -> "CacheStats":
        """Sum a collection of snapshots (empty collection → zero stats)."""
        total = CacheStats()
        for part in parts:
            total = total + part
        return total


@dataclass
class CleanActivations:
    """Cached clean-scene activations of one ``(detector, image)`` pair.

    Attributes
    ----------
    clean_image:
        The canonical clean image ``clip(image + 0, 0, 255)`` — exactly the
        pixel values a zero mask would produce, so splicing against it is
        bit-identical to the full forward pass on the perturbed image.
    prediction:
        The decoded prediction on ``clean_image``; returned directly when a
        mask's dirty region is empty (nothing to recompute).
    tensors:
        Architecture-specific cached stages, e.g. the raw feature grid and
        the smoothed feature grid for the single-stage detector or the raw
        patch tokens for the transformer.
    delta:
        Optional second-order store of spliced activation grids for masks
        already evaluated against this bundle (cross-generation reuse).
        Attached by the owning :class:`ActivationCacheStore` when delta
        reuse is configured, or lazily by an evaluator; dropped with the
        bundle.
    """

    clean_image: np.ndarray
    prediction: Prediction
    tensors: dict[str, np.ndarray] = field(default_factory=dict)
    delta: "DeltaActivationStore | None" = None


#: Default LRU cap of a per-bundle delta store — a couple of generations of
#: the paper's 101-individual population.
DEFAULT_DELTA_STORE_ENTRIES = 256


@dataclass
class DeltaActivations:
    """Spliced activation grids of one evaluated mask against one bundle.

    Attributes
    ----------
    mask_window:
        The mask values cropped to ``pixel_bbox`` (everything outside the
        crop is zero by construction) — enough to compute the *exact*
        relative dirty region of a descendant without holding a full-frame
        copy per entry.  Kept in the mask's dtype: ``int16`` for attack
        genomes (a quarter of the float64 bytes).
    pixel_bbox:
        The exact nonzero bounding box of the full mask.
    prediction:
        The decoded prediction of ``clip(image + mask)``; returned directly
        when a descendant turns out to be bit-identical to this mask.
    tensors:
        The architecture's *pre-finalisation* spliced grids (the same stage
        names as the parent bundle's tensors), bit-identical to what a
        clean-bundle splice of the full dirty region produces — so a
        descendant can splice only its relative window into them.
    """

    mask_window: np.ndarray
    pixel_bbox: BBox
    prediction: Prediction
    tensors: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def nbytes(self) -> int:
        """Array payload of the entry (mask crop plus spliced grids)."""
        return self.mask_window.nbytes + sum(
            tensor.nbytes for tensor in self.tensors.values()
        )

    def diff_bbox(self, mask: np.ndarray, within: BBox | None) -> BBox:
        """Exact bbox of the pixels where ``mask`` differs from this entry.

        ``within`` must contain every differing pixel (the detector passes
        the union of both exact supports); ``None`` scans the whole frame.
        The stored crop is compared against the matching window of
        ``mask``, with zeros outside ``pixel_bbox``, by ``!=`` per channel,
        each side in its own dtype: an ``int16`` crop against a float64
        mask (or the reverse) compares exact values, ``x`` and ``-x``
        differ, and ``-0.0`` and ``+0.0`` do not.
        """
        mask = np.asarray(mask)
        if within is None:
            within = (0, mask.shape[0], 0, mask.shape[1])
        if bbox_is_empty(within):
            return EMPTY_BBOX
        r0, r1, c0, c1 = within
        window = mask[r0:r1, c0:c1]
        ancestor = np.zeros(window.shape, dtype=self.mask_window.dtype)
        overlap = bbox_intersection(within, self.pixel_bbox)
        if overlap is not None and not bbox_is_empty(overlap):
            o_r0, o_r1, o_c0, o_c1 = overlap
            p_r0, _, p_c0, _ = self.pixel_bbox
            ancestor[o_r0 - r0 : o_r1 - r0, o_c0 - c0 : o_c1 - c0] = (
                self.mask_window[
                    o_r0 - p_r0 : o_r1 - p_r0, o_c0 - p_c0 : o_c1 - p_c0
                ]
            )
        return support_bbox(channels_differ(window, ancestor), (r0, c0))


class DeltaActivationStore:
    """Per-bundle LRU of spliced activation grids keyed by mask provenance.

    The NSGA loop stamps every evaluated individual with a content
    fingerprint; offspring carry their parent's fingerprint.  When the
    evaluator meets an offspring whose ancestor's grids are stored here it
    re-splices only the *relative* dirty window (where the two masks
    differ) instead of the offspring's whole dirty region — a second-order
    incremental path that is bit-identical to the clean-bundle splice.

    The store lives on one :class:`CleanActivations` bundle and dies with
    it: the owning :class:`ActivationCacheStore` folds its counters into
    the parent totals and calls :meth:`clear` whenever the bundle is
    evicted, invalidated or shut down, so a delta entry can never outlive
    (or leak across) the clean grids it was spliced from.
    """

    def __init__(self, max_entries: int = DEFAULT_DELTA_STORE_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = int(max_entries)
        self._entries: dict[bytes, DeltaActivations] = {}
        self.hits = 0
        self.misses = 0
        self.bytes_admitted = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, fingerprint: bytes | None) -> DeltaActivations | None:
        """The stored entry for a fingerprint (``None`` misses trivially)."""
        if fingerprint is None:
            return None
        entry = self._entries.get(fingerprint)
        if entry is not None:
            self.hits += 1
            # Move to the MRU end so the cap evicts stale lineages first.
            self._entries[fingerprint] = self._entries.pop(fingerprint)
            return entry
        self.misses += 1
        return None

    def put(self, fingerprint: bytes | None, entry: DeltaActivations) -> None:
        """Admit one evaluated mask's spliced grids under its fingerprint.

        Unkeyed masks (no provenance) are not stored; re-putting a known
        fingerprint only refreshes its LRU position — the content is
        identical by construction (the fingerprint is a content digest).
        An admitted entry's mask crop and grids become read-only.
        """
        if fingerprint is None:
            return
        if fingerprint in self._entries:
            self._entries[fingerprint] = self._entries.pop(fingerprint)
            return
        _freeze(entry.mask_window, *entry.tensors.values())
        while len(self._entries) >= self.max_entries:
            del self._entries[next(iter(self._entries))]
        self._entries[fingerprint] = entry
        self.bytes_admitted += entry.nbytes

    def clear(self) -> int:
        """Drop every entry (parent bundle dropped); returns the count."""
        count = len(self._entries)
        self._entries.clear()
        return count

    # -- counters -----------------------------------------------------------
    def counters(self) -> CacheStats:
        """The store's traffic as delta-counter-only :class:`CacheStats`."""
        return CacheStats(
            delta_hits=self.hits,
            delta_misses=self.misses,
            delta_bytes=self.bytes_admitted,
        )

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0
        self.bytes_admitted = 0


@dataclass
class _StoreEntry:
    detector: "Detector"  # strong ref: keeps id(detector) stable while cached
    activations: CleanActivations


class ActivationCacheStore:
    """Content-keyed LRU store of :class:`CleanActivations`.

    Keys combine the detector identity with the image content digest, so a
    new scene (or a retrained detector instance) always misses — there are
    no stale hits by construction.  The ``max_entries`` cap bounds memory
    for long models × scenes sweeps; the least recently used entry is
    evicted first.  An admitted bundle's clean image and tensors are
    marked read-only in place: splices copy before they write.
    """

    def __init__(self, max_entries: int = 4, delta_store_size: int = 0) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        if delta_store_size < 0:
            raise ValueError("delta_store_size must be non-negative")
        self.max_entries = int(max_entries)
        self.delta_store_size = int(delta_store_size)
        self._entries: dict[tuple[int, bytes], _StoreEntry] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        # Delta traffic of bundles already dropped — folded in at _drop so
        # snapshots stay monotonic while bundles churn.
        self._delta_dropped = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, detector: "Detector", image: np.ndarray) -> CleanActivations | None:
        """The cached activations for ``(detector, image)``, built on miss.

        Returns ``None`` when the detector does not support incremental
        inference (its ``clean_activations`` returns ``None``); nothing is
        stored in that case.
        """
        key = (id(detector), image_digest(image))
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            # Move to the MRU end so the cap evicts the oldest scene first.
            self._entries[key] = self._entries.pop(key)
            return entry.activations
        self.misses += 1
        activations = detector.clean_activations(image)
        if activations is None:
            return None
        return self._admit(key, detector, activations)

    def put(
        self,
        detector: "Detector",
        image: np.ndarray,
        activations: CleanActivations,
    ) -> CleanActivations:
        """Admit an externally built bundle under ``(detector, image)``.

        The streaming-sequence workload derives frame t's bundle from frame
        t−1's instead of calling ``detector.clean_activations`` — this entry
        point lets such bundles ride the store's machinery anyway (LRU cap,
        delta-store attachment, lifecycle broadcasts).  Returns the bundle
        it was given, or the cached one when the key is already held:
        re-admitting a cached key only refreshes its LRU position.
        Neither ``hits`` nor ``misses`` move — an admission is not a
        lookup; the temporal traffic is counted by the sequence cache's
        ``frame_hits``/``frame_misses``.
        """
        key = (id(detector), image_digest(image))
        entry = self._entries.get(key)
        if entry is not None:
            self._entries[key] = self._entries.pop(key)
            return entry.activations
        return self._admit(key, detector, activations)

    def _admit(
        self,
        key: tuple[int, bytes],
        detector: "Detector",
        activations: CleanActivations,
    ) -> CleanActivations:
        """Cache a fresh bundle: freeze its arrays, attach a delta store
        when configured, and evict from the LRU end to make room."""
        _freeze(activations.clean_image, *activations.tensors.values())
        if self.delta_store_size > 0 and activations.delta is None:
            activations.delta = DeltaActivationStore(max_entries=self.delta_store_size)
        while len(self._entries) >= self.max_entries:
            self._drop(next(iter(self._entries)))
            self.evictions += 1
        self._entries[key] = _StoreEntry(detector=detector, activations=activations)
        return activations

    def _drop(self, key: tuple[int, bytes]) -> None:
        """Remove one entry (eviction or invalidation).

        A bundle's delta store dies with the bundle: its counters fold into
        the parent totals (so per-job snapshot deltas stay monotonic) and
        its entries are cleared — a spliced grid never outlives the clean
        grids it derives from.
        """
        entry = self._entries.pop(key)
        delta = entry.activations.delta
        if delta is not None:
            self._delta_dropped = self._delta_dropped + delta.counters()
            delta.reset_counters()
            delta.clear()

    def resize(self, max_entries: int) -> int:
        """Change the entry cap in place; returns the cap actually applied.

        Growing never touches existing entries; shrinking evicts from the
        LRU end until the store fits (counted as evictions).  The
        persistent runtime broadcasts grow-only resizes when a plan brings
        more distinct models than the configured cap, so long-lived workers
        adopt the auto-sized cap without a restart.
        """
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = int(max_entries)
        while len(self._entries) > self.max_entries:
            self._drop(next(iter(self._entries)))
            self.evictions += 1
        return self.max_entries

    def invalidate(self, detector: "Detector | None" = None) -> int:
        """Drop entries (all of them, or one detector's); returns the count.

        Explicit drops are counted in ``invalidations`` (not ``evictions``,
        which stays cap-driven only) so persisted provenance reports entry
        turnover completely.
        """
        if detector is None:
            keys = list(self._entries)
        else:
            keys = [key for key in self._entries if key[0] == id(detector)]
        for key in keys:
            self._drop(key)
        self.invalidations += len(keys)
        return len(keys)

    def _delta_totals(self) -> CacheStats:
        """Delta traffic: dropped bundles' folded counters plus live stores."""
        totals = self._delta_dropped
        for entry in self._entries.values():
            delta = entry.activations.delta
            if delta is not None:
                totals = totals + delta.counters()
        return totals

    @property
    def stats(self) -> dict[str, int]:
        """Hit/miss/eviction/invalidation counters plus the entry count.

        Delta-store counters appear only on stores configured for (or
        carrying) delta reuse, keeping the pre-existing shape otherwise.
        """
        counters = {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "entries": len(self._entries),
        }
        delta_totals = self._delta_totals()
        if self.delta_store_size > 0 or delta_totals != CacheStats():
            counters["delta_hits"] = delta_totals.delta_hits
            counters["delta_misses"] = delta_totals.delta_misses
            counters["delta_bytes"] = delta_totals.delta_bytes
        return counters

    def snapshot(self) -> CacheStats:
        """The current counters as an immutable :class:`CacheStats`."""
        return (
            CacheStats(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                invalidations=self.invalidations,
            )
            + self._delta_totals()
        )

    def reset_stats(self) -> CacheStats:
        """Zero the counters and return the pre-reset snapshot.

        The experiment sweep calls this after finishing each model so the
        reported hit-rates are per-model rather than cumulative across the
        whole run (cumulative counters made late models look better than
        they were, because earlier models' hits kept inflating the rate).
        Cached entries are not touched — use :meth:`invalidate` for that.
        """
        snapshot = self.snapshot()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self._delta_dropped = CacheStats()
        for entry in self._entries.values():
            delta = entry.activations.delta
            if delta is not None:
                delta.reset_counters()
        return snapshot


# --- streaming-sequence frame cache -------------------------------------------


class SequenceActivationCache:
    """Rolling cache of clean-activation bundles along one video sequence.

    Frames of a driving sequence arrive in order and differ only where
    objects moved, so frame t's clean bundle is *derived* from frame t−1's
    through :meth:`Detector.clean_activations_delta` — the inter-frame diff
    is spliced like a sparse mask — instead of a full dense forward.  The
    cache keeps the last ``max_frames`` bundles (a mask evaluated against
    the sequence touches every live frame, so the window bounds memory, not
    reuse: derivation only ever needs the newest bundle), evicting oldest
    first and folding evicted bundles' delta counters into the snapshot.

    ``frame_hits`` counts frames whose bundle was derived incrementally
    (including identical frames answered by sharing the previous tensors);
    ``frame_misses`` counts dense rebuilds — the first frame of a sequence
    is always a miss.  Both fold into :class:`CacheStats` so sequence jobs
    report temporal reuse through the same per-job snapshot deltas as the
    still-image caches.

    An optional backing ``store`` (the worker's activation store) admits
    every derived bundle via :meth:`ActivationCacheStore.put`, so frame
    bundles share the store's cap, become read-only and, on the persistent
    runtime, die with the model's lifecycle broadcast.  Bundles
    admitted to a store leave delta-counter folding to the store — the
    snapshot only adds its own counters, so merging both never
    double-counts.
    """

    def __init__(
        self,
        detector: "Detector",
        max_frames: int = 2,
        store: ActivationCacheStore | None = None,
    ) -> None:
        if max_frames < 1:
            raise ValueError("max_frames must be at least 1")
        self.detector = detector
        self.max_frames = int(max_frames)
        self.store = store
        self._frames: dict[bytes, CleanActivations] = {}
        self.frame_hits = 0
        self.frame_misses = 0
        self.evictions = 0
        self._dropped = CacheStats()

    def __len__(self) -> int:
        return len(self._frames)

    @property
    def latest(self) -> CleanActivations | None:
        """The most recently advanced frame's bundle (the splice source)."""
        if not self._frames:
            return None
        return self._frames[next(reversed(self._frames))]

    def advance(self, image: np.ndarray) -> CleanActivations | None:
        """The clean bundle of the sequence's next frame.

        Derived from the latest cached frame's bundle by splicing only the
        inter-frame dirty region, which an exact scan of both frames'
        pixels finds, and bit-identical to
        ``detector.clean_activations(image)`` either way.  Returns ``None``
        for detectors without incremental support (nothing is cached).
        """
        key = image_digest(image)
        cached = self._frames.get(key)
        if cached is not None:
            self.frame_hits += 1
            self._frames[key] = self._frames.pop(key)
            return cached
        bundle, incremental = self.detector.clean_activations_delta(image, self.latest)
        if bundle is None:
            self.frame_misses += 1
            return None
        if self.store is not None:
            bundle = self.store.put(self.detector, image, bundle)
        if incremental:
            self.frame_hits += 1
        else:
            self.frame_misses += 1
        while len(self._frames) >= self.max_frames:
            self._drop(next(iter(self._frames)))
            self.evictions += 1
        self._frames[key] = bundle
        return bundle

    def _drop(self, key: bytes) -> None:
        """Evict one frame bundle, folding its delta counters.

        Store-admitted bundles are owned by the backing store (which folds
        their delta counters on its own drop); only privately held bundles
        fold here, so merging this cache's snapshot with the store's never
        double-counts.
        """
        bundle = self._frames.pop(key)
        if self.store is None:
            delta = bundle.delta
            if delta is not None:
                self._dropped = self._dropped + delta.counters()
                delta.reset_counters()
                delta.clear()

    def clear(self) -> int:
        """Drop every cached frame (sequence finished); returns the count."""
        count = len(self._frames)
        for key in list(self._frames):
            self._drop(key)
        return count

    def snapshot(self) -> CacheStats:
        """The temporal counters (plus privately owned delta traffic)."""
        totals = (
            CacheStats(
                evictions=self.evictions,
                frame_hits=self.frame_hits,
                frame_misses=self.frame_misses,
            )
            + self._dropped
        )
        if self.store is None:
            for bundle in self._frames.values():
                if bundle.delta is not None:
                    totals = totals + bundle.delta.counters()
        return totals

    @property
    def stats(self) -> dict[str, float]:
        """JSON-friendly counters (the snapshot's conditional dict form)."""
        counters = self.snapshot().as_dict()
        counters["frames_cached"] = len(self._frames)
        return counters
