"""Grid (cell) feature extraction shared by both simulated detectors.

Both detector families pool the image into a grid of cells (the single-stage
detector's anchor grid, the transformer's patch tokens).  Each cell is
described by a small feature vector: mean RGB, per-channel standard
deviation and mean gradient magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.conv import (
    avg_pool,
    avg_pool_batch,
    gradient_magnitude,
    std_pool,
    std_pool_batch,
)
from repro.nn.incremental import (
    BBox,
    bbox_is_empty,
    gather_window,
    gradient_magnitude_window,
)

#: Number of features per cell produced by :class:`GridFeatureExtractor`.
CELL_FEATURE_DIM = 7


def cell_grid_shape(image_length: int, image_width: int, cell: int) -> tuple[int, int]:
    """Number of (rows, cols) of grid cells for an image and cell size."""
    if cell <= 0:
        raise ValueError("cell size must be positive")
    return image_length // cell, image_width // cell


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
        mean_rgb = avg_pool(image, self.cell)
        std_rgb = std_pool(image, self.cell)
        grad = gradient_magnitude(image)
        mean_grad = avg_pool(grad, self.cell)[..., None]
        features = np.concatenate([mean_rgb, std_rgb, mean_grad], axis=-1)
        return features

    def flat(self, image: np.ndarray) -> np.ndarray:
        """Extract features flattened to (rows*cols, 7)."""
        features = self(image)
        return features.reshape(-1, features.shape[-1])

    def window_features(
        self, image: np.ndarray, mask: np.ndarray, cell_bbox: BBox
    ) -> np.ndarray:
        """Features of the ``cell_bbox`` cells of the perturbed image.

        Computes ``self(clip(image + mask, 0, 255))[cr0:cr1, cc0:cc1]``
        without materialising the full perturbed image: only the cell-aligned
        pixel window plus the 1-pixel Sobel halo is gathered (with symmetric
        reflection at image borders) and pushed through the same pooling and
        gradient operations, so the result is bit-identical to the full
        extraction — the property the incremental-inference parity suite
        enforces.  The mask keeps its dtype (an ``int16`` genome): only its
        gathered window is added to the float64 image window.
        """
        if bbox_is_empty(cell_bbox):
            return np.zeros((0, 0, CELL_FEATURE_DIM), dtype=np.float64)
        image = np.asarray(image, dtype=np.float64)
        mask = np.asarray(mask)
        cr0, cr1, cc0, cc1 = cell_bbox
        pr0, pr1 = cr0 * self.cell, cr1 * self.cell
        pc0, pc1 = cc0 * self.cell, cc1 * self.cell
        # One extra pixel on every side feeds the Sobel halo; the perturbed
        # values are built in-window from clip(image + mask), where the sum
        # promotes the mask window to float64.
        rows, cols = (pr0 - 1, pr1 + 1), (pc0 - 1, pc1 + 1)
        window = np.clip(
            gather_window(image, rows, cols) + gather_window(mask, rows, cols),
            0.0,
            255.0,
        )
        if self.normalize:
            window = window / 255.0
        interior = window[1:-1, 1:-1]
        mean_rgb = avg_pool(interior, self.cell)
        std_rgb = std_pool(interior, self.cell)
        grad = gradient_magnitude_window(window)
        mean_grad = avg_pool(grad, self.cell)[..., None]
        return np.concatenate([mean_rgb, std_rgb, mean_grad], axis=-1)

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
        mean_rgb = avg_pool_batch(images, self.cell)
        std_rgb = std_pool_batch(images, self.cell)
        grad = gradient_magnitude(images)
        mean_grad = avg_pool_batch(grad[..., None], self.cell)
        return np.concatenate([mean_rgb, std_rgb, mean_grad], axis=-1)
