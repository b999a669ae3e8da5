"""Spatial constraints on where a filter mask may perturb.

The paper's evaluation "adds a restriction where the perturbations are only
applied to the right-hand side of the images ... by forcing filters to have
zeros in the left half".  A :class:`Region` encodes such a restriction as
an axis-aligned pixel box; the boolean pixel mask and the projection that
zeroes the mask outside the allowed region both derive from it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.nn.incremental import EMPTY_BBOX, BBox


class Region(abc.ABC):
    """Abstract perturbable region of an image: one axis-aligned box."""

    @abc.abstractmethod
    def allowed_box(self, image_length: int, image_width: int) -> BBox:
        """Half-open ``(r0, r1, c0, c1)`` box where perturbation is allowed.

        Clipped to the image; :data:`~repro.nn.incremental.EMPTY_BBOX` when
        no pixel is allowed.
        """

    def pixel_mask(self, image_length: int, image_width: int) -> np.ndarray:
        """Boolean array (L, W): True where perturbation is allowed."""
        mask = np.zeros((image_length, image_width), dtype=bool)
        r0, r1, c0, c1 = self.allowed_box(image_length, image_width)
        mask[r0:r1, c0:c1] = True
        return mask

    def project(self, mask: np.ndarray) -> np.ndarray:
        """Zero the perturbation outside the allowed region.

        Returns a fresh array (callers may modify it in place) with zeros
        (``+0.0`` for floats) written outside the box by four slice
        assignments.  An ``int16`` mask (an attack genome) keeps its dtype;
        every other input is converted to float64.
        """
        mask = np.asarray(mask)
        projected = mask.copy() if mask.dtype == np.int16 else mask.astype(np.float64)
        r0, r1, c0, c1 = self.allowed_box(projected.shape[0], projected.shape[1])
        projected[:r0] = 0
        projected[r1:] = 0
        projected[r0:r1, :c0] = 0
        projected[r0:r1, c1:] = 0
        return projected

    def allowed_fraction(self, image_length: int, image_width: int) -> float:
        """Fraction of pixels where perturbation is allowed."""
        allowed = self.pixel_mask(image_length, image_width)
        return float(allowed.mean())


@dataclass(frozen=True)
class FullImageRegion(Region):
    """No restriction: the whole image may be perturbed."""

    def allowed_box(self, image_length: int, image_width: int) -> BBox:
        return (0, image_length, 0, image_width)


@dataclass(frozen=True)
class HalfImageRegion(Region):
    """Only the left or right half of the image may be perturbed.

    ``half="right"`` reproduces the paper's evaluation protocol (objects on
    the left stay untouched; errors appearing there are butterfly effects).
    """

    half: str = "right"

    def __post_init__(self) -> None:
        if self.half not in ("left", "right"):
            raise ValueError(f"half must be 'left' or 'right', got {self.half!r}")

    def allowed_box(self, image_length: int, image_width: int) -> BBox:
        middle = image_width // 2
        if self.half == "right":
            return (0, image_length, middle, image_width)
        return (0, image_length, 0, middle)


@dataclass(frozen=True)
class RectangleRegion(Region):
    """An axis-aligned rectangular window that may be perturbed.

    Coordinates follow the repository convention: ``x`` spans image rows
    (length) and ``y`` spans image columns (width).  The bounds are
    half-open pixel indices.
    """

    x_min: int
    y_min: int
    x_max: int
    y_max: int

    def __post_init__(self) -> None:
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise ValueError("rectangle bounds are empty or inverted")

    def allowed_box(self, image_length: int, image_width: int) -> BBox:
        x_lo, x_hi = max(0, self.x_min), min(image_length, self.x_max)
        y_lo, y_hi = max(0, self.y_min), min(image_width, self.y_max)
        if x_hi <= x_lo or y_hi <= y_lo:
            return EMPTY_BBOX
        return (x_lo, x_hi, y_lo, y_hi)


def region_from_name(name: str) -> Region:
    """Build a region from a short name: ``"full"``, ``"left"`` or ``"right"``."""
    lowered = name.lower()
    if lowered in ("full", "all", "everywhere"):
        return FullImageRegion()
    if lowered in ("left", "left_half"):
        return HalfImageRegion("left")
    if lowered in ("right", "right_half"):
        return HalfImageRegion("right")
    raise ValueError(f"unknown region name: {name!r}")
