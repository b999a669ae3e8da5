"""Grid (cell) feature extraction shared by both simulated detectors.

Both detector families pool the image into a grid of cells (the single-stage
detector's anchor grid, the transformer's patch tokens).  Each cell is
described by a small feature vector: mean RGB, per-channel standard
deviation and mean gradient magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.conv import block_mean, block_mean_std, halo_planes
from repro.nn.incremental import (
    BBox,
    bbox_is_empty,
    gradient_magnitude_window,
    reflected_span,
)

#: Number of features per cell produced by :class:`GridFeatureExtractor`.
CELL_FEATURE_DIM = 7


def cell_grid_shape(image_length: int, image_width: int, cell: int) -> tuple[int, int]:
    """Number of (rows, cols) of grid cells for an image and cell size."""
    if cell <= 0:
        raise ValueError("cell size must be positive")
    return image_length // cell, image_width // cell


def _cell_features(planes: np.ndarray, cell: int) -> np.ndarray:
    """Cell features of pixel planes ``(..., 3, h + 2, w + 2)`` with a halo.

    The planes carry the 1-pixel Sobel halo around the ``h x w`` pixels
    being pooled.  One block sum feeds both the mean and the standard
    deviation features, and the gradient is taken on the same planes;
    trailing rows/columns that fill no whole cell are dropped from the
    pooling.  Returns ``(..., h // cell, w // cell, 7)``.
    """
    mean_rgb, std_rgb = block_mean_std(planes[..., 1:-1, 1:-1], cell, axis=-2)
    grad = gradient_magnitude_window(np.moveaxis(planes, -3, -1))
    mean_grad = block_mean(grad, cell, axis=-2)
    # A C-ordered grid, as downstream reductions (the global-context mean)
    # sum in memory order.
    features = np.empty(mean_grad.shape + (CELL_FEATURE_DIM,))
    features[..., 0:3] = np.moveaxis(mean_rgb, -3, -1)
    features[..., 3:6] = np.moveaxis(std_rgb, -3, -1)
    features[..., 6] = mean_grad
    return features


@dataclass(frozen=True)
class GridFeatureExtractor:
    """Pools an image into per-cell feature vectors.

    Parameters
    ----------
    cell:
        Side length of one square cell in pixels.
    normalize:
        When True, pixel values are scaled by 1/255 before pooling so the
        features are in roughly unit range.
    """

    cell: int = 8
    normalize: bool = True

    def grid_shape(self, image: np.ndarray) -> tuple[int, int]:
        """Grid shape (rows, cols) for a given image."""
        return cell_grid_shape(image.shape[0], image.shape[1], self.cell)

    def cell_centers(self, image: np.ndarray) -> np.ndarray:
        """Pixel coordinates of every cell centre; shape (rows*cols, 2)."""
        rows, cols = self.grid_shape(image)
        row_centers = (np.arange(rows) + 0.5) * self.cell
        col_centers = (np.arange(cols) + 0.5) * self.cell
        grid_row, grid_col = np.meshgrid(row_centers, col_centers, indexing="ij")
        return np.stack([grid_row.ravel(), grid_col.ravel()], axis=1)

    def __call__(self, image: np.ndarray) -> np.ndarray:
        """Extract features; returns array of shape (rows, cols, 7)."""
        image = np.asarray(image, dtype=np.float64)
        if image.ndim != 3 or image.shape[2] != 3:
            raise ValueError(f"expected an RGB image (L, W, 3), got {image.shape}")
        if self.normalize:
            image = image / 255.0
        return _cell_features(halo_planes(image), self.cell)

    def flat(self, image: np.ndarray) -> np.ndarray:
        """Extract features flattened to (rows*cols, 7)."""
        features = self(image)
        return features.reshape(-1, features.shape[-1])

    def window_features(
        self, image: np.ndarray, mask: np.ndarray, cell_bbox: BBox
    ) -> np.ndarray:
        """Features of the ``cell_bbox`` cells of the perturbed image.

        Computes ``self(clip(image + mask, 0, 255))[cr0:cr1, cc0:cc1]``
        without materialising the full perturbed image, bit for bit — the
        property the incremental-inference parity suite enforces.  Only the
        cell-aligned pixel window plus the 1-pixel Sobel halo is built:

        * the in-frame part of the window is sliced from the image and the
          mask and perturbed there, ``clip(image + mask, 0, 255)`` (then
          ``/ 255`` when normalising).  The mask keeps its dtype (an
          ``int16`` genome) until the add promotes it to float64;
        * one ``np.pad(mode="symmetric")`` copies the result into
          contiguous ``(3, h + 2, w + 2)`` channel planes and reflects the
          halo where the window overshoots the frame (see
          :func:`~repro.nn.incremental.reflected_span`).  Reflection only
          copies values, so it commutes with the clip and the scaling;
        * the planes are pooled and filtered like a whole image
          (:func:`_cell_features`).
        """
        if bbox_is_empty(cell_bbox):
            return np.zeros((0, 0, CELL_FEATURE_DIM), dtype=np.float64)
        image = np.asarray(image, dtype=np.float64)
        mask = np.asarray(mask)
        cr0, cr1, cc0, cc1 = cell_bbox
        rows, row_pad, row_window = reflected_span(
            cr0 * self.cell - 1, cr1 * self.cell + 1, image.shape[0]
        )
        cols, col_pad, col_window = reflected_span(
            cc0 * self.cell - 1, cc1 * self.cell + 1, image.shape[1]
        )
        pixels = np.add(image[rows, cols], mask[rows, cols])
        np.clip(pixels, 0.0, 255.0, out=pixels)
        if self.normalize:
            pixels /= 255.0
        planes = np.pad(
            np.moveaxis(pixels, -1, 0), [(0, 0), row_pad, col_pad], mode="symmetric"
        )
        return _cell_features(planes[:, row_window, col_window], self.cell)

    def batch(self, images: np.ndarray) -> np.ndarray:
        """Extract features for a stack of images; returns (B, rows, cols, 7).

        The batched pooling and gradient filters perform the same per-image
        operations as :meth:`__call__`, so ``batch(images)[b]`` is
        bit-identical to ``self(images[b])`` — the property the population
        evaluation fast path relies on.
        """
        images = np.asarray(images, dtype=np.float64)
        if images.ndim != 4 or images.shape[3] != 3:
            raise ValueError(
                f"expected an RGB image batch (B, L, W, 3), got {images.shape}"
            )
        if self.normalize:
            images = images / 255.0
        return _cell_features(halo_planes(images), self.cell)
