"""Filter masks: the explicit perturbation encoding of the paper.

A filter mask is a signed perturbation ``δ`` of the same shape as the image
with values in ``[-255, 255]``.  Applying the mask means ``clip(img + δ,
0, 255)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.incremental import BBox, bbox_area, mask_nonzero_bbox

#: Bound of the signed perturbation range used throughout the paper.
MAX_PERTURBATION = 255.0


def apply_mask(
    image: np.ndarray, mask: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Apply a filter mask to an image and clip to the valid pixel range.

    ``out`` optionally receives the perturbed image in place (it must have
    the image's shape and float64 dtype), so population evaluation can
    reuse one scratch buffer instead of allocating a fresh copy per mask;
    the add/clip operations are identical either way.
    """
    image = np.asarray(image, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    if image.shape != mask.shape:
        raise ValueError(
            f"mask shape {mask.shape} does not match image shape {image.shape}"
        )
    if out is None:
        return np.clip(image + mask, 0.0, 255.0)
    if out.shape != image.shape or out.dtype != np.float64:
        raise ValueError(
            f"out buffer must be float64 of shape {image.shape}, "
            f"got {out.dtype} {out.shape}"
        )
    np.add(image, mask, out=out)
    return np.clip(out, 0.0, 255.0, out=out)


def mask_array(values: np.ndarray) -> np.ndarray:
    """``values`` in a mask's storage dtype: ``int16`` as given, else float64.

    An ``int16`` array (an attack genome, see
    :func:`~repro.core.attack.constrain_mask`) is returned as is, with no
    copy; any other input is converted to float64 (no copy when it already
    is float64).
    """
    array = np.asarray(values)
    if array.dtype == np.int16:
        return array
    return array.astype(np.float64, copy=False)


@dataclass
class FilterMask:
    """A perturbation mask with convenience accessors.

    The values keep the paper's integer encoding when they come as one: an
    ``int16`` array (every attack's genome) is stored as given — no copy,
    no float64 conversion, a quarter of the float64 bytes — and any other
    input becomes float64 (:func:`mask_array`).  The accessors follow the
    stored dtype (``per_pixel_max`` of an ``int16`` mask is ``int16``); the
    norms are floats either way.  Wrapped arrays are shared, not copied:
    the values must not be mutated in place afterwards.

    Attributes
    ----------
    values:
        Signed perturbation array of shape (L, W, 3) in ``[-255, 255]``,
        ``int16`` or float64.
    """

    values: np.ndarray
    _nonzero_bbox: BBox | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.values = mask_array(self.values)
        if self.values.ndim != 3 or self.values.shape[2] != 3:
            raise ValueError(
                f"a filter mask must have shape (L, W, 3), got {self.values.shape}"
            )

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.values.shape  # type: ignore[return-value]

    @property
    def l1_norm(self) -> float:
        """Sum of absolute perturbation values."""
        return float(np.sum(np.abs(self.values)))

    @property
    def l2_norm(self) -> float:
        """Euclidean norm of the perturbation (the paper's obj_intensity)."""
        return float(np.linalg.norm(self.values.ravel(), ord=2))

    @property
    def linf_norm(self) -> float:
        """Largest absolute perturbation value."""
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

    @property
    def per_pixel_max(self) -> np.ndarray:
        """Largest absolute perturbation over the RGB channels, shape (L, W).

        This is ``δ_abs^max`` of Algorithm 2 (line 20).
        """
        return np.max(np.abs(self.values), axis=2)

    @property
    def perturbed_pixel_count(self) -> int:
        """Number of pixels with a non-zero perturbation in any channel."""
        return int(np.count_nonzero(self.per_pixel_max))

    @property
    def is_zero(self) -> bool:
        return self.perturbed_pixel_count == 0

    def nonzero_bbox(self) -> BBox:
        """Half-open ``(r0, r1, c0, c1)`` box of the perturbed pixels.

        The exact bounding box of the pixels with a nonzero value in any
        channel — the *dirty region* the incremental inference path
        recomputes.  Computed once and cached; the mask values must not be
        mutated in place afterwards (use :meth:`clipped`/:meth:`rounded`,
        which return fresh masks).  Returns ``(0, 0, 0, 0)`` for the zero
        mask.
        """
        if self._nonzero_bbox is None:
            self._nonzero_bbox = mask_nonzero_bbox(self.values)
        return self._nonzero_bbox

    @property
    def sparsity(self) -> float:
        """Fraction of image pixels inside the dirty bounding box.

        0 for the zero mask, 1 when the nonzero support spans the whole
        image; the incremental path uses it to decide between the windowed
        and the dense batched forward pass.
        """
        total = self.values.shape[0] * self.values.shape[1]
        if total == 0:
            return 0.0
        return bbox_area(self.nonzero_bbox()) / float(total)

    def apply(self, image: np.ndarray) -> np.ndarray:
        """Return the perturbed image ``clip(img + δ, 0, 255)``."""
        return apply_mask(image, self.values)

    def clipped(self, max_value: float = MAX_PERTURBATION) -> "FilterMask":
        """Return a copy clipped to ``[-max_value, max_value]``."""
        return FilterMask(np.clip(self.values, -max_value, max_value))

    def rounded(self) -> "FilterMask":
        """Return a copy rounded to integer values (the paper's encoding)."""
        return FilterMask(np.round(self.values))

    @staticmethod
    def zeros(shape: tuple[int, int, int]) -> "FilterMask":
        """The all-zero mask (keeps the original image)."""
        return FilterMask(np.zeros(shape, dtype=np.float64))

    @staticmethod
    def random_gaussian(
        shape: tuple[int, int, int],
        sigma: float,
        rng: np.random.Generator | int | None = None,
        max_value: float = MAX_PERTURBATION,
    ) -> "FilterMask":
        """A Gaussian random mask clipped to the valid range."""
        if rng is None or isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(rng if rng is not None else 0)
        return FilterMask(np.clip(rng.normal(0.0, sigma, size=shape), -max_value, max_value))
