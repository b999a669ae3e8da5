"""Dirty-region geometry and windowed filter kernels.

The incremental-inference subsystem recomputes detector activations only
inside the *dirty region* of a perturbed image — the nonzero bounding box
of the filter mask, dilated by the receptive field of each stage — and
splices the result into cached clean-scene activations.  This module holds
the two ingredients that make the splice bit-identical to a full forward
pass:

* **bbox geometry** — half-open pixel/cell bounding boxes ``(r0, r1, c0,
  c1)``, dilation by a filter radius, pixel→cell conversion, unions;
* **windowed kernels** — variants of :func:`~repro.nn.conv.box_filter`,
  the Sobel gradient magnitude and the block pools that compute only an
  output window, with explicit halo handling: the input window is gathered
  with symmetric-reflection indices so boundary behaviour matches
  ``np.pad(..., mode="symmetric")``, and the shifted-sum accumulation
  visits the kernel taps in exactly the same order as
  :func:`repro.nn.conv._convolve_same_symm`.  Per-element floating-point
  operations are therefore identical to the full-image filters — the
  property the ``predict_delta`` parity suite enforces.
"""

from __future__ import annotations

import numpy as np

#: A half-open bounding box ``(row_lo, row_hi, col_lo, col_hi)``.
BBox = tuple[int, int, int, int]

#: The empty bounding box (no dirty pixels).
EMPTY_BBOX: BBox = (0, 0, 0, 0)


def bbox_is_empty(bbox: BBox | None) -> bool:
    """True when the box covers no pixels (``None`` counts as unknown, not empty)."""
    if bbox is None:
        return False
    r0, r1, c0, c1 = bbox
    return r1 <= r0 or c1 <= c0


def bbox_area(bbox: BBox | None) -> int:
    """Number of pixels covered by the box (0 for empty boxes)."""
    if bbox is None or bbox_is_empty(bbox):
        return 0
    r0, r1, c0, c1 = bbox
    return (r1 - r0) * (c1 - c0)


def bbox_union(first: BBox | None, second: BBox | None) -> BBox | None:
    """Smallest box containing both; ``None`` (unknown extent) is absorbing."""
    if first is None or second is None:
        return None
    if bbox_is_empty(first):
        return second
    if bbox_is_empty(second):
        return first
    return (
        min(first[0], second[0]),
        max(first[1], second[1]),
        min(first[2], second[2]),
        max(first[3], second[3]),
    )


def bbox_intersection(first: BBox | None, second: BBox | None) -> BBox | None:
    """Largest box contained in both; ``None`` (unknown extent) is neutral.

    Returns :data:`EMPTY_BBOX` for disjoint boxes.
    """
    if first is None:
        return second
    if second is None:
        return first
    if bbox_is_empty(first) or bbox_is_empty(second):
        return EMPTY_BBOX
    r0, r1 = max(first[0], second[0]), min(first[1], second[1])
    c0, c1 = max(first[2], second[2]), min(first[3], second[3])
    if r1 <= r0 or c1 <= c0:
        return EMPTY_BBOX
    return (r0, r1, c0, c1)


def bbox_area_fraction(bbox: BBox | None, shape: tuple[int, int]) -> float:
    """Fraction of a ``shape``-sized plane covered by the box (1.0 for ``None``)."""
    if bbox is None:
        return 1.0
    total = shape[0] * shape[1]
    if total <= 0:
        return 1.0
    return bbox_area(bbox) / float(total)


def dilate_bbox(bbox: BBox, radius: int, shape: tuple[int, int]) -> BBox:
    """Grow a box by ``radius`` on every side, clipped to ``shape``."""
    if bbox_is_empty(bbox):
        return EMPTY_BBOX
    r0, r1, c0, c1 = bbox
    return (
        max(0, r0 - radius),
        min(shape[0], r1 + radius),
        max(0, c0 - radius),
        min(shape[1], c1 + radius),
    )


def pixel_bbox_to_cell_bbox(bbox: BBox, cell: int, grid_shape: tuple[int, int]) -> BBox:
    """Cells (half-open) overlapping a pixel box, clipped to the cell grid.

    Pixels beyond the trimmed grid (trailing rows/columns that do not fill a
    whole cell) belong to no cell, so a box entirely inside that margin maps
    to the empty box.
    """
    if bbox_is_empty(bbox):
        return EMPTY_BBOX
    r0, r1, c0, c1 = bbox
    cr0 = min(r0 // cell, grid_shape[0])
    cr1 = min(-(-r1 // cell), grid_shape[0])
    cc0 = min(c0 // cell, grid_shape[1])
    cc1 = min(-(-c1 // cell), grid_shape[1])
    if cr1 <= cr0 or cc1 <= cc0:
        return EMPTY_BBOX
    return (cr0, cr1, cc0, cc1)


def support_bbox(plane: np.ndarray, origin: tuple[int, int] = (0, 0)) -> BBox:
    """Half-open box of the True pixels of a 2-D boolean plane.

    ``origin`` is the frame position of the plane's top-left pixel, so a
    scan of a cropped window reports frame coordinates.  Returns
    :data:`EMPTY_BBOX` when no pixel is set.
    """
    rows = np.flatnonzero(plane.any(axis=1))
    if rows.size == 0:
        return EMPTY_BBOX
    cols = np.flatnonzero(plane.any(axis=0))
    off_r, off_c = origin
    return (
        off_r + int(rows[0]),
        off_r + int(rows[-1]) + 1,
        off_c + int(cols[0]),
        off_c + int(cols[-1]) + 1,
    )


def channel_planes(array: np.ndarray) -> list[np.ndarray]:
    """The per-channel ``(H, W)`` views of a 2-D or ``(H, W, C)`` array.

    Per-pixel reductions over the channels are written as elementwise
    operations on these views instead of a reduction along the short
    trailing axis, which costs more than the arithmetic itself.
    """
    if array.ndim == 2:
        return [array]
    return [array[..., channel] for channel in range(array.shape[2])]


def channels_differ(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """``(H, W)`` plane: True where two windows differ (``!=``) in any channel.

    Float semantics: ``x`` and ``-x`` differ, ``-0.0`` and ``+0.0`` do not,
    and NaN differs from everything.
    """
    pairs = zip(channel_planes(first), channel_planes(second))
    a, b = next(pairs)
    differ = a != b
    for a, b in pairs:
        differ |= a != b
    return differ


def mask_nonzero_bbox(mask: np.ndarray, within: BBox | None = None) -> BBox:
    """Exact bounding box of the pixels with a nonzero value in any channel.

    ``within`` restricts the scan to a window known to contain every
    nonzero pixel (e.g. an exact box the caller already computed); the
    result is identical to the full scan but costs only O(window).
    Returns :data:`EMPTY_BBOX` for all-zero masks.

    The channels are OR-ed as ``uint64`` words and the sign bit is shifted
    out, so a pixel counts exactly when some channel is ``!= 0`` — ``-0.0``
    is zero, NaN is not.  Other dtypes are converted to float64 first.
    """
    if bbox_is_empty(within):
        return EMPTY_BBOX
    window, origin = np.asarray(mask, dtype=np.float64), (0, 0)
    if within is not None:
        r0, r1, c0, c1 = within
        window, origin = window[r0:r1, c0:c1], (r0, c0)
    planes = channel_planes(window.view(np.uint64))
    merged = planes[0].copy()
    for plane in planes[1:]:
        merged |= plane
    merged <<= 1
    return support_bbox(merged != 0, origin)


def masks_differ_bbox(first: np.ndarray, second: np.ndarray) -> BBox:
    """Exact bounding box of the pixels where two masks differ in any channel.

    The relative dirty region of a child mask against an ancestor: splicing
    only this window (dilated by the receptive field) into the ancestor's
    activation grids reproduces the child's grids bit for bit.  Returns
    :data:`EMPTY_BBOX` for identical masks.
    """
    first = np.asarray(first)
    second = np.asarray(second)
    if first.shape != second.shape:
        raise ValueError(
            f"mask shapes differ: {first.shape} vs {second.shape}"
        )
    return support_bbox(channels_differ(first, second))


def frames_differ_bbox(previous: np.ndarray, current: np.ndarray) -> BBox:
    """Exact bounding box of the pixels where two video frames differ.

    The inter-frame dirty region of the streaming workload: splicing only
    this window (dilated by the receptive field) into the previous frame's
    clean activation grids reproduces the current frame's grids bit for
    bit — the frame delta is a dirty region like any mask.  Returns
    :data:`EMPTY_BBOX` for identical frames.
    """
    return masks_differ_bbox(previous, current)


def reflect_indices(start: int, stop: int, size: int) -> np.ndarray:
    """Indices ``start..stop`` mapped into ``[0, size)`` by symmetric reflection.

    Reproduces ``np.pad(a, pad, mode="symmetric")`` for arbitrary overshoot
    (including windows wider than the array), so gathering ``a[indices]``
    equals slicing the symmetrically padded array.
    """
    if size <= 0:
        raise ValueError("size must be positive")
    indices = np.arange(start, stop)
    period = 2 * size
    indices = np.mod(indices, period)
    return np.where(indices >= size, period - 1 - indices, indices)


def gather_window(array: np.ndarray, row_range: tuple[int, int], col_range: tuple[int, int]) -> np.ndarray:
    """Window of ``array`` over possibly out-of-bounds row/col ranges.

    Out-of-bounds positions are filled by symmetric reflection, matching the
    boundary handling of the full-image filters.  Works on 2-D ``(H, W)``
    and 3-D ``(H, W, C)`` arrays.  Fully in-bounds windows take a plain
    slicing fast path (a view — no copy); the elements are identical either
    way.
    """
    r0, r1 = row_range
    c0, c1 = col_range
    if 0 <= r0 and r1 <= array.shape[0] and 0 <= c0 and c1 <= array.shape[1]:
        return array[r0:r1, c0:c1]
    rows = reflect_indices(r0, r1, array.shape[0])
    cols = reflect_indices(c0, c1, array.shape[1])
    return array[np.ix_(rows, cols)]


def _convolve_valid_prepadded(stack: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Valid-mode convolution of a window that already includes its halo.

    ``stack`` has ``kernel//2`` halo elements on every side of the last two
    axes; the output drops the halo.  The accumulation visits the flipped
    kernel taps in the same (row, column) order and with the same
    zero-weight skipping as :func:`repro.nn.conv._convolve_same_symm`, so a
    gathered window produces bit-identical values to slicing the
    full-image result.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    kh, kw = kernel.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError("kernel side lengths must be odd")
    height = stack.shape[-2] - (kh - 1)
    width = stack.shape[-1] - (kw - 1)
    if height <= 0 or width <= 0:
        raise ValueError("window smaller than the kernel halo")
    flipped = kernel[::-1, ::-1]
    out = np.zeros(stack.shape[:-2] + (height, width), dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            weight = flipped[i, j]
            if weight == 0.0:
                continue
            out += weight * stack[..., i : i + height, j : j + width]
    return out


def convolve_window_symm(array: np.ndarray, kernel: np.ndarray, bbox: BBox) -> np.ndarray:
    """The ``bbox`` window of ``_convolve_same_symm(array, kernel)``.

    ``array`` is 2-D; the halo needed by the kernel is gathered around the
    window with symmetric reflection at the array borders.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    r0, r1, c0, c1 = bbox
    pad_r, pad_c = kernel.shape[0] // 2, kernel.shape[1] // 2
    window = gather_window(array, (r0 - pad_r, r1 + pad_r), (c0 - pad_c, c1 + pad_c))
    return _convolve_valid_prepadded(window, kernel)


def box_filter_window(array: np.ndarray, size: int, bbox: BBox) -> np.ndarray:
    """The ``bbox`` window of the odd-sized :func:`repro.nn.conv.box_filter`.

    Only odd sizes are supported — they are the receptive-field path used
    by the detectors' smoothing stacks; even sizes route through scipy's
    ``convolve2d`` alignment and are recomputed whole-grid instead (the
    grids are tiny).
    """
    if size <= 0:
        raise ValueError("size must be positive")
    if size % 2 == 0:
        raise ValueError("box_filter_window supports odd sizes only")
    kernel = np.ones((size, size), dtype=np.float64) / (size * size)
    return convolve_window_symm(array, kernel, bbox)


def box_filter_window_channels(features: np.ndarray, size: int, bbox: BBox) -> np.ndarray:
    """The ``bbox`` window of per-channel odd-sized box filtering of a grid.

    Equivalent to stacking ``box_filter(features[:, :, d], size)[bbox]``
    over the channels of an ``(H, W, C)`` feature grid — the single-stage
    detector's local-smoothing stage — computed on the gathered window only.
    The channel axis rides through :func:`_convolve_valid_prepadded` as a
    leading axis, so the accumulation per channel is identical to the 2-D
    filter and the result is bit-exact against the full-grid slice.
    """
    if size <= 0:
        raise ValueError("size must be positive")
    if size % 2 == 0:
        raise ValueError("box_filter_window_channels supports odd sizes only")
    kernel = np.ones((size, size), dtype=np.float64) / (size * size)
    r0, r1, c0, c1 = bbox
    pad = size // 2
    window = gather_window(features, (r0 - pad, r1 + pad), (c0 - pad, c1 + pad))
    leading = np.moveaxis(window, -1, -3)
    return np.moveaxis(_convolve_valid_prepadded(leading, kernel), -3, -1)


#: Sobel kernels, re-exported here to keep the windowed path self-contained.
_SOBEL_ROW = np.array([[-1, -2, -1], [0, 0, 0], [1, 2, 1]], dtype=np.float64)


def gradient_magnitude_window(window_with_halo: np.ndarray) -> np.ndarray:
    """Sobel gradient magnitude of a window carrying a 1-pixel halo.

    ``window_with_halo`` is an ``(h + 2, w + 2, C)`` pixel window whose halo
    was gathered with :func:`gather_window`; the result is the ``(h, w)``
    channel-summed gradient magnitude, bit-identical to the corresponding
    window of :func:`repro.nn.conv.gradient_magnitude` on the full image.
    """
    leading = np.moveaxis(window_with_halo, -1, -3)
    grad_row = _convolve_valid_prepadded(leading, _SOBEL_ROW).sum(axis=-3)
    grad_col = _convolve_valid_prepadded(leading, _SOBEL_ROW.T).sum(axis=-3)
    return np.hypot(grad_row, grad_col)
