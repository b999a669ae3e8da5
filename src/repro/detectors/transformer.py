"""Transformer (DETR-like) simulated detector.

The defining architectural property reproduced here is *global attention*:
before classification, every cell's features are mixed with the features of
every other cell through a content-dependent softmax attention matrix.  Any
pixel in the image can therefore influence any prediction — the mechanism
the paper conjectures makes transformer detectors more susceptible to
butterfly-effect attacks ("the attention mechanisms connecting two arbitrary
regions in an image").
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
from repro.nn.attention import MultiHeadSelfAttention, attention_rows
from repro.nn.features import CELL_FEATURE_DIM, GridFeatureExtractor
from repro.nn.incremental import (
    BBox,
    bbox_is_empty,
    dilate_bbox,
    pixel_bbox_to_cell_bbox,
)
from repro.nn.linear import Linear
from repro.nn.ops import grid_positional_encoding, layer_norm, softmax


class TransformerDetector(Detector):
    """Grid-token detector with global self-attention feature mixing.

    The forward pass is:

    1. extract raw per-cell features (the "patch embedding" input),
    2. embed them (seeded linear projection + 2-D positional encoding),
    3. run ``num_layers`` of multi-head self-attention to obtain contextual
       token embeddings,
    4. compute a content-dependent attention matrix from the contextual
       embeddings and use it to mix the *raw* cell features globally,
    5. classify the mixed features against the trained prototype bank and
       decode boxes exactly like the single-stage detector.

    Because step 4 mixes features across the whole image with softmax
    weights, a strong perturbation anywhere can capture attention mass from
    an object's cells and drag their mixed features away from the class
    prototype — changing class scores, box moments or both.

    Parameters
    ----------
    attention_mix:
        Weight ``α`` of the attention-mixed features; ``(1 - α)`` stays on
        the cell's own features.
    embed_dim:
        Dimension of the token embeddings used to compute attention.
    num_layers:
        Number of self-attention refinement layers.
    attention_sharpness:
        Multiplier on the attention logits; larger values concentrate
        attention on fewer cells.
    """

    architecture = "transformer"

    def __init__(
        self,
        prototypes: PrototypeBank,
        config: DetectorConfig | None = None,
        seed: int = 0,
        attention_mix: float = 0.45,
        embed_dim: int = 16,
        num_heads: int = 2,
        num_layers: int = 2,
        attention_sharpness: float = 2.0,
    ) -> None:
        super().__init__(config, seed)
        if not 0.0 <= attention_mix <= 1.0:
            raise ValueError("attention_mix must be in [0, 1]")
        if attention_sharpness <= 0:
            raise ValueError("attention_sharpness must be positive")
        if embed_dim <= 0 or embed_dim % 2:
            # The 2-D positional encoding splits the channels between rows
            # and columns.
            raise ValueError(f"embed_dim must be positive and even, got {embed_dim}")
        self.prototypes = prototypes
        self.attention_mix = attention_mix
        self.embed_dim = embed_dim
        self.attention_sharpness = attention_sharpness
        self.extractor = GridFeatureExtractor(cell=self.config.cell)

        rng = np.random.default_rng(seed)
        self.embedding = Linear(CELL_FEATURE_DIM, embed_dim, rng)
        self.layers = [
            MultiHeadSelfAttention(embed_dim, num_heads=num_heads, rng=rng)
            for _ in range(num_layers)
        ]
        self.query_proj = Linear(embed_dim, embed_dim, rng)
        self.key_proj = Linear(embed_dim, embed_dim, rng)
        self._positional_cache: dict[tuple[int, int], np.ndarray] = {}

    def _positional(self, rows: int, cols: int) -> np.ndarray:
        key = (rows, cols)
        if key not in self._positional_cache:
            self._positional_cache[key] = grid_positional_encoding(
                rows, cols, self.embed_dim
            )
        return self._positional_cache[key]

    def _mixing_inputs(
        self, raw: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Mixing query, key and temperature from raw cell features
        ``(..., rows, cols, dim)``.

        Works on single images and batches alike; leading axes are carried
        through all token operations unchanged, so batched results are
        bit-identical to the per-image computation.
        """
        rows, cols = raw.shape[-3], raw.shape[-2]
        flat = raw.reshape(raw.shape[:-3] + (rows * cols, raw.shape[-1]))
        tokens = self.embedding(flat)
        tokens = layer_norm(tokens + self._positional(rows, cols), axis=-1)
        for layer in self.layers:
            tokens = layer(tokens)
        temperature = np.sqrt(self.embed_dim) / self.attention_sharpness
        return self.query_proj(tokens), self.key_proj(tokens), temperature

    def attention_matrix(self, image: np.ndarray) -> np.ndarray:
        """Content-dependent (tokens, tokens) mixing attention of an image.

        The only place the full matrix is built: the forward pass applies
        the same weights one block of rows at a time.
        """
        image = validate_image(image)
        query, key, temperature = self._mixing_inputs(self.extractor(image))
        return softmax(query @ key.T / temperature, axis=-1)

    def _mix_features(self, raw: np.ndarray) -> np.ndarray:
        """Blend raw cell features with their attention-mixed counterpart."""
        rows, cols = raw.shape[-3], raw.shape[-2]
        flat_raw = raw.reshape(raw.shape[:-3] + (rows * cols, raw.shape[-1]))
        query, key, temperature = self._mixing_inputs(raw)
        # This module's ``softmax`` is resolved per call, so a profiler that
        # patches the name sees the mixing stage's normalisation.
        mixed = attention_rows(query, key, flat_raw, temperature, normalize=softmax)
        blended = (1.0 - self.attention_mix) * flat_raw + self.attention_mix * mixed
        return blended.reshape(raw.shape)

    def backbone_features(self, image: np.ndarray) -> np.ndarray:
        """Attention-mixed cell features (rows, cols, feature_dim)."""
        image = validate_image(image)
        return self._mix_features(self.extractor(image))

    def backbone_features_batch(self, images: np.ndarray) -> np.ndarray:
        """Batched :meth:`backbone_features`; returns (B, rows, cols, dim).

        One embedding/attention pass serves the whole stack; per-image
        results are bit-identical to the single-image path.
        """
        images = validate_image_batch(images)
        return self._mix_features(self.extractor.batch(images))

    def cell_probabilities(self, image: np.ndarray) -> np.ndarray:
        """Per-cell class probabilities (rows, cols, num_classes + 1)."""
        return self.prototypes.probabilities(self.backbone_features(image))

    def cell_probabilities_batch(self, images: np.ndarray) -> np.ndarray:
        """Batched per-cell class probabilities (B, rows, cols, classes + 1)."""
        return self.prototypes.probabilities(self.backbone_features_batch(images))

    def predict(self, image: np.ndarray) -> Prediction:
        image = validate_image(image)
        probabilities = self.cell_probabilities(image)
        return self._decode(probabilities, (image.shape[0], image.shape[1]))

    def predict_batch(self, images: np.ndarray) -> list[Prediction]:
        """Vectorised batch prediction, in :attr:`batch_chunk`-image chunks."""
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
        """Cache the clean scene's raw (pre-attention) patch tokens.

        Only the patch-embedding input — the raw per-cell feature grid — is
        cached: the attention stage mixes every token with every other one,
        so a perturbation anywhere invalidates the mixed features globally
        and attention must always be recomputed from the spliced grid.
        """
        image = validate_image(image)
        clean_image = np.clip(image + 0.0, 0.0, 255.0)
        raw = self.extractor(clean_image)
        probabilities = self.prototypes.probabilities(self._mix_features(raw))
        prediction = self._decode(probabilities, (image.shape[0], image.shape[1]))
        return CleanActivations(
            clean_image=clean_image, prediction=prediction, tensors={"raw": raw}
        )

    def _delta_raw_state(
        self,
        image: np.ndarray,
        mask: np.ndarray,
        pixel_bbox: BBox,
        source: dict[str, np.ndarray],
    ) -> np.ndarray | None:
        """Raw patch tokens after splicing the ``pixel_bbox`` window into a
        ``source`` raw grid (the clean bundle's, an evaluated ancestor's
        stored tokens or the previous frame's); ``None`` when no cell is
        touched.  Tokens outside the window read identical input pixels, so
        the spliced grid is bit-identical to a full extraction; the global
        attention stage is always recomputed from it.
        """
        grid_shape = self.extractor.grid_shape(image)
        cell_bbox = pixel_bbox_to_cell_bbox(
            dilate_bbox(pixel_bbox, 1, (image.shape[0], image.shape[1])),
            self.config.cell,
            grid_shape,
        )
        if bbox_is_empty(cell_bbox):
            return None
        raw = source["raw"].copy()
        cr0, cr1, cc0, cc1 = cell_bbox
        raw[cr0:cr1, cc0:cc1] = self.extractor.window_features(image, mask, cell_bbox)
        return raw

    def _decode_chunks(
        self, grids: np.ndarray, image_shape: tuple[int, int]
    ) -> list[Prediction]:
        """Attention mixing, head and decode over stacked raw grids in
        :attr:`delta_batch_chunk` chunks.  Attention carries the batch axis
        through every token operation unchanged, so per-grid results are
        bit-identical to the single-image path for every chunk size."""
        chunk = max(1, int(self.delta_batch_chunk))
        decoded: list[Prediction] = []
        for start in range(0, grids.shape[0], chunk):
            features = self._mix_features(grids[start : start + chunk])
            probabilities = self.prototypes.probabilities(features)
            decoded.extend(self._decode_batch(probabilities, image_shape))
        return decoded

    def _splice_batch(
        self,
        image: np.ndarray,
        masks: np.ndarray,
        items: list[SpliceItem],
    ) -> tuple[list[Prediction], list[dict | None]]:
        """Splice each member's dirty window, then batch the global stages.

        The local feature extraction runs per member on its own window (the
        window sizes differ); the global attention mixing and the
        classification head run over the stacked spliced grids.
        Cross-generation reuse skips re-extracting the ancestor's patch
        tokens — only the relative dirty window is spliced — but attention
        (the parity-capped part of the transformer path) is always
        recomputed from the full spliced grid, so per-grid results are
        bit-identical however items mix clean and ancestor sources.

        The temporal frame-to-frame derivation (:meth:`~repro.detectors.
        base.Detector.clean_activations_delta`) also routes here, with a
        *zero* mask and the previous frame's clean tensors as the source:
        ``clip(image + 0)`` is the new frame's clean image, so splicing the
        inter-frame diff window into the previous ``raw`` grid yields the
        new frame's clean activations bit-exactly, and the returned state
        dicts use the clean bundle's stage name (``raw``).
        """
        grids = [
            self._delta_raw_state(image, masks[index], bbox, source)
            for index, bbox, source, _ in items
        ]
        live = [i for i, grid in enumerate(grids) if grid is not None]
        predictions: list[Prediction] = [fallback for *_, fallback in items]
        if live:
            decoded = self._decode_chunks(
                np.stack([grids[i] for i in live], axis=0),
                (image.shape[0], image.shape[1]),
            )
            for i, prediction in zip(live, decoded):
                predictions[i] = prediction
        return predictions, [
            None if grid is None else {"raw": grid} for grid in grids
        ]
