"""Single-stage (YOLO-like) simulated detector.

The defining architectural property reproduced here is *locality*: the class
probabilities of a grid cell are computed from that cell's own features, a
small local smoothing over its immediate neighbourhood (the receptive field
of a stack of convolutions) and a deliberately weak global-context term
(mirroring image-level normalisation effects in real CNNs).  A perturbation
far away from an object therefore has only a very weak path through which it
can change the object's prediction — which is why the paper finds YOLOv5
comparatively robust to butterfly-effect attacks.
"""

from __future__ import annotations

import numpy as np

from repro.detection.prediction import Prediction
from repro.detectors.activation_cache import CleanActivations
from repro.detectors.base import (
    Detector,
    DetectorConfig,
    SpliceItem,
    validate_image,
    validate_image_batch,
)
from repro.detectors.prototypes import PrototypeBank
from repro.nn.conv import box_filter, box_filter_batch
from repro.nn.features import GridFeatureExtractor
from repro.nn.incremental import (
    BBox,
    bbox_is_empty,
    box_filter_window_channels,
    dilate_bbox,
    pixel_bbox_to_cell_bbox,
)


class SingleStageDetector(Detector):
    """Grid-cell detector with a local receptive field.

    Parameters
    ----------
    prototypes:
        Trained :class:`PrototypeBank` (see :mod:`repro.detectors.training`).
    config:
        Detector configuration.
    seed:
        Seed identifying this trained model instance.
    local_smoothing:
        Size (in cells) of the local box filter applied to cell features;
        models the receptive-field growth of stacked convolutions.
    global_context_weight:
        Weight of the image-level mean feature subtracted from every cell.
        Small but non-zero: real single-stage networks are not perfectly
        local either.
    """

    architecture = "single_stage"

    def __init__(
        self,
        prototypes: PrototypeBank,
        config: DetectorConfig | None = None,
        seed: int = 0,
        local_smoothing: int = 3,
        global_context_weight: float = 0.03,
    ) -> None:
        super().__init__(config, seed)
        if local_smoothing < 1:
            raise ValueError("local_smoothing must be >= 1")
        if global_context_weight < 0:
            raise ValueError("global_context_weight must be non-negative")
        self.prototypes = prototypes
        self.local_smoothing = local_smoothing
        self.global_context_weight = global_context_weight
        self.extractor = GridFeatureExtractor(cell=self.config.cell)

    def _smooth(self, features: np.ndarray) -> np.ndarray:
        """Per-channel local box smoothing of a (rows, cols, dim) grid."""
        return np.stack(
            [
                box_filter(features[:, :, d], self.local_smoothing)
                for d in range(features.shape[2])
            ],
            axis=-1,
        )

    def _finalize_features(
        self, features: np.ndarray, smoothed: np.ndarray | None
    ) -> np.ndarray:
        """Blend raw/smoothed features and subtract the global-context mean.

        Both terms are whole-grid elementwise/reduction operations, so the
        delta path can run them on a spliced grid and stay bit-identical to
        the full forward pass.  The mean runs over a C-ordered grid: its
        pairwise summation order follows the memory layout.
        """
        if smoothed is not None:
            # Blend raw and smoothed features: the cell itself dominates but
            # neighbours contribute (receptive field larger than one cell).
            features = 0.6 * features + 0.4 * smoothed
        if self.global_context_weight > 0:
            features = np.ascontiguousarray(features)
            global_mean = features.reshape(-1, features.shape[2]).mean(axis=0)
            features = features - self.global_context_weight * global_mean
        return features

    def backbone_features(self, image: np.ndarray) -> np.ndarray:
        """Local cell features: raw grid features, locally smoothed,
        minus a weak global-context mean."""
        image = validate_image(image)
        features = self.extractor(image)
        smoothed = self._smooth(features) if self.local_smoothing > 1 else None
        return self._finalize_features(features, smoothed)

    def cell_probabilities(self, image: np.ndarray) -> np.ndarray:
        """Per-cell class probabilities (rows, cols, num_classes + 1)."""
        return self.prototypes.probabilities(self.backbone_features(image))

    def predict(self, image: np.ndarray) -> Prediction:
        image = validate_image(image)
        probabilities = self.cell_probabilities(image)
        return self._decode(probabilities, (image.shape[0], image.shape[1]))

    def backbone_features_batch(self, images: np.ndarray) -> np.ndarray:
        """Batched :meth:`backbone_features`; returns (B, rows, cols, dim).

        Performs the same smoothing/context operations as the single-image
        path on a stacked feature tensor, so results per image are
        bit-identical.
        """
        images = validate_image_batch(images)
        features = self.extractor.batch(images)
        if self.local_smoothing > 1:
            smoothed = box_filter_batch(features, self.local_smoothing)
            features = 0.6 * features + 0.4 * smoothed
        if self.global_context_weight > 0:
            features = np.ascontiguousarray(features)
            flat = features.reshape(features.shape[0], -1, features.shape[3])
            global_mean = flat.mean(axis=1)
            features = features - self.global_context_weight * global_mean[:, None, None, :]
        return features

    def cell_probabilities_batch(self, images: np.ndarray) -> np.ndarray:
        """Batched per-cell class probabilities (B, rows, cols, classes + 1)."""
        return self.prototypes.probabilities(self.backbone_features_batch(images))

    def predict_batch(self, images: np.ndarray) -> list[Prediction]:
        """Vectorised batch prediction, processed in cache-friendly chunks."""
        images = validate_image_batch(images)
        image_shape = (images.shape[1], images.shape[2])
        chunk = max(1, int(self.batch_chunk))
        predictions: list[Prediction] = []
        for start in range(0, images.shape[0], chunk):
            probabilities = self.cell_probabilities_batch(images[start : start + chunk])
            predictions.extend(self._decode_batch(probabilities, image_shape))
        return predictions

    # ------------------------------------------------------------------
    # Incremental (dirty-region) inference
    # ------------------------------------------------------------------

    def clean_activations(self, image: np.ndarray) -> CleanActivations:
        """Cache the clean scene's raw and smoothed feature grids.

        The cached image is ``clip(image + 0, 0, 255)`` — exactly what a
        zero mask produces — so activations spliced against these tensors
        are bit-identical to the full forward pass on the perturbed image.
        """
        image = validate_image(image)
        clean_image = np.clip(image + 0.0, 0.0, 255.0)
        features = self.extractor(clean_image)
        smoothed = self._smooth(features) if self.local_smoothing > 1 else None
        probabilities = self.prototypes.probabilities(
            self._finalize_features(features, smoothed)
        )
        prediction = self._decode(probabilities, (image.shape[0], image.shape[1]))
        tensors = {"features": features}
        if smoothed is not None:
            tensors["smoothed"] = smoothed
        return CleanActivations(
            clean_image=clean_image, prediction=prediction, tensors=tensors
        )

    def _delta_feature_state(
        self,
        image: np.ndarray,
        mask: np.ndarray,
        pixel_bbox: BBox,
        source: dict[str, np.ndarray],
    ) -> dict[str, np.ndarray] | None:
        """Pre-finalisation ``features``/``smoothed`` grids after splicing
        the ``pixel_bbox`` window into ``source`` grids, or ``None`` when
        the window touches no grid cell.

        ``source`` is the clean bundle's tensors, an evaluated ancestor's
        stored grids (cross-generation reuse) or the previous frame's
        tensors (temporal derivation) — the splice is the same either way:
        recompute the feature extraction on the dirty cell window (pixel
        box dilated by the 1-pixel Sobel halo), splice it into the source
        raw grid, and recompute the local smoothing on the window dilated
        by the box-filter radius.  Cells outside the window read identical
        input pixels in the source and the perturbed image, so the spliced
        grids are bit-identical to a full recompute.
        """
        grid_shape = self.extractor.grid_shape(image)
        cell_bbox = pixel_bbox_to_cell_bbox(
            dilate_bbox(pixel_bbox, 1, (image.shape[0], image.shape[1])),
            self.config.cell,
            grid_shape,
        )
        if bbox_is_empty(cell_bbox):
            return None
        features = source["features"].copy()
        cr0, cr1, cc0, cc1 = cell_bbox
        features[cr0:cr1, cc0:cc1] = self.extractor.window_features(
            image, mask, cell_bbox
        )
        state = {"features": features}
        if self.local_smoothing > 1:
            if self.local_smoothing % 2 == 1:
                smoothed = source["smoothed"].copy()
                smooth_bbox = dilate_bbox(
                    cell_bbox, self.local_smoothing // 2, grid_shape
                )
                sr0, sr1, sc0, sc1 = smooth_bbox
                smoothed[sr0:sr1, sc0:sc1] = box_filter_window_channels(
                    features, self.local_smoothing, smooth_bbox
                )
                state["smoothed"] = smoothed
            else:
                # Even box sizes follow scipy's 'same'-mode alignment, which
                # the windowed kernels do not reproduce; the grid is tiny,
                # so recompute the smoothing stage whole-grid instead.
                state["smoothed"] = self._smooth(features)
        return state

    def _splice_batch(
        self,
        image: np.ndarray,
        masks: np.ndarray,
        items: list[SpliceItem],
    ) -> tuple[list[Prediction], list[dict | None]]:
        """Windowed recompute of sparse members against their source grids.

        The per-member splice runs in a loop (window sizes differ), then
        the whole-grid blend and global-context stages finish each grid and
        the prototype probabilities run once over the stacked grids —
        per-cell operations, so every grid is bit-identical to the full
        forward pass however items mix clean, ancestor and previous-frame
        sources.

        The temporal frame-to-frame derivation (:meth:`~repro.detectors.
        base.Detector.clean_activations_delta`) also routes here, with a
        *zero* mask and the previous frame's clean tensors as the source:
        ``clip(image + 0)`` is the new frame's clean image, so the splice
        over the inter-frame diff window yields the new frame's clean
        activations bit-exactly, and the returned state dicts use the same
        stage names (``features``/``smoothed``) as the clean bundle.
        """
        states = [
            self._delta_feature_state(image, masks[index], bbox, source)
            for index, bbox, source, _ in items
        ]
        live = [i for i, state in enumerate(states) if state is not None]
        predictions: list[Prediction] = [fallback for *_, fallback in items]
        if live:
            stacked = np.stack(
                [
                    self._finalize_features(
                        states[i]["features"], states[i].get("smoothed")
                    )
                    for i in live
                ],
                axis=0,
            )
            probabilities = self.prototypes.probabilities(stacked)
            image_shape = (image.shape[0], image.shape[1])
            decoded = self._decode_batch(probabilities, image_shape)
            for i, prediction in zip(live, decoded):
                predictions[i] = prediction
        return predictions, states
