"""Detector interface and shared configuration."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro.detection.prediction import Prediction
from repro.detectors import decode as cell_decode
from repro.detectors.activation_cache import (
    CleanActivations,
    DeltaActivations,
    DeltaActivationStore,
)
from repro.nn.incremental import (
    BBox,
    bbox_area,
    bbox_area_fraction,
    bbox_is_empty,
    bbox_union,
    frames_differ_bbox,
    mask_nonzero_bbox,
)

#: One item of :meth:`Detector._splice_batch`: the population index, the
#: pixel window to recompute, the source grids to splice into, and the
#: prediction to return when the window touches no grid cell.
SpliceItem = tuple[int, BBox, dict, Prediction]


@dataclass(frozen=True)
class DetectorConfig:
    """Configuration shared by both simulated detector families.

    Attributes
    ----------
    cell:
        Pixel side length of one grid cell / patch token.
    num_classes:
        Number of foreground classes.
    objectness_threshold:
        A cell seeds a detection only when its foreground probability
        exceeds this value.
    nms_iou_threshold:
        IoU above which overlapping detections are merged.
    class_agnostic_nms:
        When True (default) overlapping detections suppress each other
        regardless of class, which removes duplicate boxes of confusable
        classes (car vs van) on the same object.
    decode_window:
        Half-width (in cells) of the neighbourhood used to estimate the box
        extent around a seed cell.
    score_temperature:
        Softmax temperature applied to prototype-distance logits; smaller is
        sharper.  ``None`` means "use the value calibrated during training".
    background_bias:
        Additive bias on the background logit; larger values make the
        detector more conservative (fewer detections).
    """

    cell: int = 8
    num_classes: int = 5
    objectness_threshold: float = 0.7
    nms_iou_threshold: float = 0.3
    class_agnostic_nms: bool = True
    decode_window: int = 2
    score_temperature: float | None = None
    background_bias: float = 0.0


class Detector(abc.ABC):
    """Abstract object detector: image in, :class:`Prediction` out.

    The attack treats detectors as black boxes — only :meth:`predict` is
    required — but the simulated implementations also expose their per-cell
    class-probability maps and backbone features for the grey-box analysis
    utilities (feature heatmaps).

    A third-party detector joins the incremental (dirty-region) path by
    implementing two methods: :meth:`clean_activations`, which caches the
    clean scene's tensors (the base returns ``None``, which keeps every
    mask on the dense path), and :meth:`_splice_batch`, which recomputes a
    list of pixel windows against given source tensors.  Everything else —
    empty and dense routing, cross-generation delta reuse and the temporal
    frame derivation — is built on those two here.
    """

    #: Short architecture name, e.g. ``"single_stage"`` or ``"transformer"``.
    architecture: str = "abstract"

    #: Images per internal chunk of the vectorised batch path.  A chunk
    #: bounds the stacked temporaries that grow with images x pixels:
    #: feature extraction, token stacks and the prototype head.  Attention
    #: scores do not grow with it (the row-blocked kernel holds one block
    #: per call).  Results are bit-identical for every chunk size.
    batch_chunk: int = 2

    #: Dirty-bounding-box area fraction (of the image plane) above which the
    #: delta path routes a mask through the dense batched forward pass
    #: instead of the windowed one.  Near-full windows pay the windowed
    #: path's gather/splice overhead without skipping much work; both paths
    #: are bit-identical, so this only affects speed.
    incremental_dense_fraction: float = 0.5

    #: Grids per chunk for the batched tail stages of the windowed delta
    #: path (attention mixing, prototype head, decode).  A chunk bounds the
    #: stacked token and head temporaries, which grow with grids x cells;
    #: spliced grids are two orders of magnitude smaller than full images,
    #: so chunks are larger than :attr:`batch_chunk`.  Attention scores do
    #: not grow with it.  Results are bit-identical for every chunk size
    #: (the exact-routing suite pins that property).
    delta_batch_chunk: int = 16

    def __init__(self, config: DetectorConfig | None = None, seed: int = 0) -> None:
        self.config = config if config is not None else DetectorConfig()
        self.seed = int(seed)

    @property
    def name(self) -> str:
        """Unique human-readable detector name (architecture + seed)."""
        return f"{self.architecture}-seed{self.seed}"

    @abc.abstractmethod
    def predict(self, image: np.ndarray) -> Prediction:
        """Run the detector on an RGB image in ``[0, 255]``."""

    def predict_batch(self, images: np.ndarray) -> list[Prediction]:
        """Run the detector on a stack of images ``(B, L, W, 3)``.

        This generic fallback loops :meth:`predict`, so any third-party
        detector satisfies the batch API for free.  The simulated detectors
        override it with a vectorised forward pass whose per-image results
        are bit-identical to :meth:`predict` (enforced by the parity tests);
        the NSGA-II population evaluator relies on that equivalence.
        """
        images = validate_image_batch(images)
        return [self.predict(image) for image in images]

    def clean_activations(self, image: np.ndarray) -> CleanActivations | None:
        """Precompute the clean scene's activations for the delta path.

        Detectors that support incremental inference return a
        :class:`~repro.detectors.activation_cache.CleanActivations` bundle
        (cached intermediate tensors plus the decoded clean prediction);
        the generic base returns ``None``, which makes every delta call
        fall back to a full recompute.
        """
        return None

    def clean_activations_delta(
        self,
        image: np.ndarray,
        previous: CleanActivations | None,
    ) -> tuple[CleanActivations | None, bool]:
        """Clean bundle of ``image`` derived from a previous frame's bundle.

        The temporal form of :meth:`clean_activations`: the inter-frame
        diff of a streaming sequence is a dirty region like any mask, so
        frame t's clean activations are recovered by splicing only the
        changed window — found by an exact scan of both frames' pixels —
        into frame t−1's cached grids.

        Returns ``(bundle, used_incremental)`` where ``used_incremental``
        reports whether the bundle was derived through the windowed splice
        (a *frame hit*) or rebuilt densely (``previous`` missing, shapes
        differing, the diff too large to profit, or a detector whose
        :meth:`clean_activations` returns ``None``).  Either way the bundle is
        bit-identical to :meth:`clean_activations` on ``image`` — the
        splice runs with an all-zero mask, so the recomputed window sees
        exactly the new frame's clean pixels, and identical frames share
        the previous bundle's tensors outright (bundles are read-only by
        contract).
        """
        image = validate_image(image)
        if previous is None:
            return self.clean_activations(image), False
        clean_image = np.clip(image + 0.0, 0.0, 255.0)
        if previous.clean_image.shape != clean_image.shape:
            return self.clean_activations(image), False
        diff = frames_differ_bbox(previous.clean_image, clean_image)
        if bbox_is_empty(diff):
            return (
                CleanActivations(
                    clean_image=clean_image,
                    prediction=previous.prediction,
                    tensors=previous.tensors,
                ),
                True,
            )
        plane = (image.shape[0], image.shape[1])
        if bbox_area_fraction(diff, plane) > self.incremental_dense_fraction:
            return self.clean_activations(image), False
        predictions, states = self._splice_batch(
            clean_image,
            np.zeros((1,) + clean_image.shape),
            [(0, diff, previous.tensors, previous.prediction)],
        )
        tensors = previous.tensors if states[0] is None else states[0]
        return (
            CleanActivations(
                clean_image=clean_image,
                prediction=predictions[0],
                tensors=tensors,
            ),
            True,
        )

    def predict_delta(
        self,
        image: np.ndarray,
        mask: np.ndarray,
        dirty_bound: BBox | None = None,
        clean: CleanActivations | None = None,
        ancestry: dict | None = None,
    ) -> Prediction:
        """Prediction on ``clip(image + mask, 0, 255)``, bit-identical to
        :meth:`predict` on the perturbed image.

        The one-mask form of :meth:`predict_delta_batch`, which does all
        the routing: with a ``clean`` bundle only the mask's dirty region is
        recomputed, ``dirty_bound`` caps the nonzero scan and ``ancestry``
        (one record) opts the mask into cross-generation reuse.
        """
        mask = np.asarray(mask, dtype=np.float64)
        return self.predict_delta_batch(
            image,
            mask[None, ...],
            [dirty_bound],
            clean,
            None if ancestry is None else [ancestry],
        )[0]

    def predict_delta_batch(
        self,
        image: np.ndarray,
        masks: np.ndarray,
        dirty_bounds: list[BBox | None] | None = None,
        clean: CleanActivations | None = None,
        ancestry: list[dict | None] | None = None,
    ) -> list[Prediction]:
        """Per-mask predictions on ``clip(image + masks[b], 0, 255)``.

        With a ``clean`` activation bundle (from :meth:`clean_activations`)
        each mask is routed by its dirty-region size — empty regions answer
        from the cached clean prediction, sparse regions become one splice
        item each and go through :meth:`_splice_batch` in a single call,
        and dense regions fall back to the stacked :meth:`predict_batch`
        fast path.  All three routes are bit-identical to :meth:`predict`
        per mask, so the routing only affects speed.  ``dirty_bounds``
        optionally restricts each nonzero scan to a window known to contain
        every nonzero pixel (callers that already hold each mask's exact
        box pass it so the detector does not rescan); the exact box is
        still computed, so a loose bound never changes the result.  Without
        ``clean`` every perturbed image runs through the full forward pass.

        ``ancestry`` (one dict or ``None`` per mask) opts a mask into
        cross-generation reuse against the bundle's delta store.  The dict
        carries ``"fingerprint"`` (the mask's own provenance key — evaluated
        grids are stored under it) and ``"ancestor"`` (the key of the
        evaluated relative whose grids to splice against).  When the
        ancestor's grids are stored, only the *relative* dirty window — the
        exact diff of the two masks, scanned over the union of both
        supports — is re-spliced, and a mask bit-identical to its ancestor
        answers from the stored prediction outright.  Every route remains
        bit-identical to :meth:`predict`: the delta store only decides
        which grids a mask splices against and whether its spliced grids
        are stored for its descendants.
        """
        image = validate_image(image)
        masks = np.asarray(masks, dtype=np.float64)
        if masks.ndim != 4 or masks.shape[1:] != image.shape:
            raise ValueError(
                f"expected masks of shape (B, *{image.shape}), got {masks.shape}"
            )
        count = masks.shape[0]
        if dirty_bounds is None:
            dirty_bounds = [None] * count
        if len(dirty_bounds) != count:
            raise ValueError(
                f"expected {count} dirty bounds, got {len(dirty_bounds)}"
            )
        delta_store: DeltaActivationStore | None = None
        if ancestry is not None and clean is not None:
            if len(ancestry) != count:
                raise ValueError(
                    f"expected {count} ancestry entries, got {len(ancestry)}"
                )
            delta_store = clean.delta
        predictions: list[Prediction | None] = [None] * count
        items: list[SpliceItem] = []
        # Per item: the fingerprint its spliced grids are stored under
        # (``None``: not stored) and the mask's own exact dirty box.
        stored: list[tuple[bytes | None, BBox]] = []
        dense: list[int] = []
        if clean is None:
            dense = list(range(count))
        else:
            plane = (image.shape[0], image.shape[1])
            for index in range(count):
                bbox = mask_nonzero_bbox(masks[index], within=dirty_bounds[index])
                if bbox_is_empty(bbox):
                    predictions[index] = clean.prediction
                    continue
                info = ancestry[index] if delta_store is not None else None
                outcome, payload = self._ancestor_splice(
                    masks[index], bbox, plane, delta_store, info
                )
                if outcome == "hit":
                    predictions[index] = payload
                    continue
                if outcome == "splice":
                    items.append((index, *payload))
                elif bbox_area_fraction(bbox, plane) <= self.incremental_dense_fraction:
                    items.append((index, bbox, clean.tensors, clean.prediction))
                else:
                    dense.append(index)
                    continue
                stored.append((info.get("fingerprint") if info else None, bbox))
        if dense:
            stacked = np.clip(image[None, ...] + masks[dense], 0.0, 255.0)
            for index, prediction in zip(dense, self.predict_batch(stacked)):
                predictions[index] = prediction
        if items:
            spliced, states = self._splice_batch(image, masks, items)
            for (index, *_), (fingerprint, bbox), prediction, state in zip(
                items, stored, spliced, states
            ):
                predictions[index] = prediction
                self._store_delta(
                    delta_store, fingerprint, masks[index], bbox, prediction, state
                )
        return predictions  # type: ignore[return-value]

    def _ancestor_splice(
        self,
        mask: np.ndarray,
        bbox: BBox,
        plane: tuple[int, int],
        delta_store: DeltaActivationStore | None,
        info: dict | None,
    ):
        """Route one mask against its ancestor's stored grids, if cheaper.

        Returns ``("hit", prediction)`` when the mask is bit-identical to
        the stored ancestor (nothing to recompute), ``("splice", (rel_bbox,
        tensors, fallback))`` when re-splicing the exact relative diff
        window into the ancestor's grids beats the clean-bundle splice, and
        ``("none", None)`` otherwise (no usable ancestor, or the relative
        window is not smaller than the mask's own dirty region).
        """
        if delta_store is None or info is None:
            return "none", None
        ancestor_key = info.get("ancestor")
        if ancestor_key is None:
            return "none", None
        entry = delta_store.get(ancestor_key)
        if entry is None:
            return "none", None
        # Outside both exact supports both masks are ±0, which the diff
        # treats as equal, so the union of the supports holds every change.
        rel_bbox = entry.diff_bbox(mask, bbox_union(bbox, entry.pixel_bbox))
        if bbox_is_empty(rel_bbox):
            return "hit", entry.prediction
        if (
            bbox_area(rel_bbox) <= bbox_area(bbox)
            and bbox_area_fraction(rel_bbox, plane) <= self.incremental_dense_fraction
        ):
            return "splice", (rel_bbox, entry.tensors, entry.prediction)
        return "none", None

    def _store_delta(
        self,
        delta_store: DeltaActivationStore | None,
        fingerprint: bytes | None,
        mask: np.ndarray,
        pixel_bbox: BBox,
        prediction: Prediction,
        state: dict | None,
    ) -> None:
        """Memoize one evaluated mask's spliced grids for its descendants.

        ``state`` is the architecture's pre-finalisation spliced grids (or
        ``None`` when the window touched no cell — such masks are not worth
        storing: descendants fall back to the clean splice).  Dense-routed
        masks are never stored either; their grids are not materialised.
        """
        if delta_store is None or fingerprint is None or state is None:
            return
        r0, r1, c0, c1 = pixel_bbox
        delta_store.put(
            fingerprint,
            DeltaActivations(
                mask_window=mask[r0:r1, c0:c1].copy(),
                pixel_bbox=pixel_bbox,
                prediction=prediction,
                tensors=state,
            ),
        )

    def _splice_batch(
        self,
        image: np.ndarray,
        masks: np.ndarray,
        items: list[SpliceItem],
    ) -> tuple[list[Prediction], list[dict | None]]:
        """Architecture hook: windowed recompute of sparse masks.

        Each item ``(index, window, source, fallback)`` asks for
        ``masks[index]`` applied to ``image`` with the pixel ``window``
        recomputed and spliced into the ``source`` grids — the clean
        bundle's tensors, an evaluated ancestor's stored grids or, for the
        temporal frame derivation, the previous frame's tensors (all carry
        the clean bundle's stage names) — and ``fallback`` is the
        prediction to return when the window touches no grid cell.
        Returns the per-item predictions plus the per-item
        *pre-finalisation* spliced grids (``None`` where the fallback was
        returned) for the caller to memoize.  Every prediction must be
        bit-identical to :meth:`predict` on the perturbed image.  Only
        reached when :meth:`clean_activations` returns a bundle; such
        detectors must override it.
        """
        raise NotImplementedError(
            f"{type(self).__name__} returns clean activations but does not "
            "implement _splice_batch"
        )

    def _decode(
        self, probabilities: np.ndarray, image_shape: tuple[int, int]
    ) -> Prediction:
        """Decode one (rows, cols, classes + 1) probability grid.

        Resolved through the :mod:`repro.detectors.decode` module attribute
        (not an imported name) so the decode-parity harness can swap in the
        reference loop for a whole attack run with one monkeypatch.
        """
        return cell_decode.decode_cell_probabilities(
            probabilities, self.config, image_shape
        )

    def _decode_batch(
        self, probabilities: np.ndarray, image_shape: tuple[int, int]
    ) -> list[Prediction]:
        """Decode a (B, rows, cols, classes + 1) stack of probability grids
        in one vectorised call; entry ``b`` is bit-identical to
        ``self._decode(probabilities[b], image_shape)``."""
        return cell_decode.decode_cell_probabilities_batch(
            probabilities, self.config, image_shape
        )

    @abc.abstractmethod
    def backbone_features(self, image: np.ndarray) -> np.ndarray:
        """Return the processed per-cell feature map (rows, cols, dim)."""

    def __call__(self, image: np.ndarray) -> Prediction:
        return self.predict(image)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.__class__.__name__}(seed={self.seed})"


def validate_image(image: np.ndarray) -> np.ndarray:
    """Check that ``image`` is an (L, W, 3) array and return it as float64."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError(f"expected an RGB image of shape (L, W, 3), got {image.shape}")
    return image


def validate_image_batch(images: np.ndarray) -> np.ndarray:
    """Check that ``images`` is a (B, L, W, 3) stack and return it as float64.

    A sequence of (L, W, 3) images of equal shape is stacked automatically.
    """
    images = np.asarray(images, dtype=np.float64)
    if images.ndim == 3 and images.shape[2] == 3:
        images = images[None, ...]
    if images.ndim != 4 or images.shape[3] != 3:
        raise ValueError(
            f"expected an RGB image batch of shape (B, L, W, 3), got {images.shape}"
        )
    return images
