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
  output window, with explicit halo handling: the input window is sliced
  from the array and its out-of-frame part reflected with
  ``np.pad(..., mode="symmetric")``, exactly the padding of the full-image
  filters, and the shifted-sum accumulation is the full-image filters' own
  tap loop, :func:`repro.nn.conv._convolve_valid_prepadded`.  Per-element
  floating-point operations are therefore identical to the full-image
  filters — the property the ``predict_delta`` parity suite enforces.
"""

from __future__ import annotations

import numpy as np

from repro.nn.conv import _convolve_valid_prepadded, sobel_planes

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


def byte_support_bbox(array: np.ndarray) -> BBox:
    """Exact box of the pixels whose *bytes* are nonzero in some channel.

    Every byte outside the box is zero, so the box, the array's dtype and
    shape and the box's bytes determine the array bit for bit: the
    genome-key digest (``NSGAII._genome_key``) and the journal's mask codec
    (:func:`repro.io.serialization.mask_to_jsonable`) both rest on this.
    Unlike :func:`mask_nonzero_bbox` a float ``-0.0`` counts as set.
    Works on 2-D and ``(H, W, C)`` arrays of any 1-, 2-, 4- or 8-byte
    dtype; returns :data:`EMPTY_BBOX` when every byte is zero.
    """
    array = np.asarray(array)
    planes = channel_planes(array.view(f"u{array.itemsize}"))
    occupied = planes[0].copy()
    for plane in planes[1:]:
        occupied |= plane
    return support_bbox(occupied != 0)


def mask_nonzero_bbox(mask: np.ndarray, within: BBox | None = None) -> BBox:
    """Exact bounding box of the pixels with a nonzero value in any channel.

    ``within`` restricts the scan to a window known to contain every
    nonzero pixel (e.g. an exact box the caller already computed); the
    result is identical to the full scan but costs only O(window).
    Returns :data:`EMPTY_BBOX` for all-zero masks.

    A pixel counts exactly when some channel is ``!= 0``, compared in the
    mask's own dtype (an ``int16`` genome is scanned as stored): for floats
    ``-0.0`` is zero and NaN is not.
    """
    if bbox_is_empty(within):
        return EMPTY_BBOX
    window, origin = np.asarray(mask), (0, 0)
    if within is not None:
        r0, r1, c0, c1 = within
        window, origin = window[r0:r1, c0:c1], (r0, c0)
    planes = channel_planes(window)
    merged = planes[0] != 0
    for plane in planes[1:]:
        merged |= plane != 0
    return support_bbox(merged, origin)


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


def reflected_span(start: int, stop: int, size: int) -> tuple[slice, tuple[int, int], slice]:
    """How symmetric padding rebuilds positions ``start..stop`` of an axis.

    Returns ``(source, pad, window)`` such that, for an axis ``a`` of
    length ``size``, ``np.pad(a[source], pad, mode="symmetric")[window]``
    equals ``a`` at positions ``start..stop`` with every out-of-range
    position reflected symmetrically (``-1`` reads ``0``, ``size`` reads
    ``size - 1``, and so on with period ``2 * size``).  ``source`` reaches
    as far into the axis as the reflected overshoot does, so the padding
    never mirrors a partial source; for an in-range span it is the span
    itself and ``pad`` is ``(0, 0)``.
    """
    if size <= 0:
        raise ValueError("size must be positive")
    lo = max(0, min(start, 2 * size - stop))
    hi = min(size, max(stop, -start))
    pad = (max(0, -start), max(0, stop - size))
    offset = start + pad[0] - lo
    return slice(lo, hi), pad, slice(offset, offset + stop - start)


def gather_window(array: np.ndarray, row_range: tuple[int, int], col_range: tuple[int, int]) -> np.ndarray:
    """Window of ``array`` over possibly out-of-bounds row/col ranges.

    Out-of-bounds positions are filled by symmetric reflection, matching the
    boundary handling of the full-image filters.  Works on 2-D ``(H, W)``
    and 3-D ``(H, W, C)`` arrays.  The in-frame part is sliced and the
    overshoot reflected with one ``np.pad(mode="symmetric")`` (see
    :func:`reflected_span`), so no fancy-index gather runs; fully in-bounds
    windows are a plain slice (a view — no copy).  The elements are
    identical either way.
    """
    rows, row_pad, row_window = reflected_span(*row_range, array.shape[0])
    cols, col_pad, col_window = reflected_span(*col_range, array.shape[1])
    source = array[rows, cols]
    if row_pad == col_pad == (0, 0):
        return source
    pad = [row_pad, col_pad] + [(0, 0)] * (array.ndim - 2)
    return np.pad(source, pad, mode="symmetric")[row_window, col_window]


def convolve_window_symm(array: np.ndarray, kernel: np.ndarray, bbox: BBox) -> np.ndarray:
    """The ``bbox`` window of ``_convolve_same_symm(array, kernel)``.

    ``array`` is 2-D; the halo needed by the kernel is gathered around the
    window with symmetric reflection at the array borders and the window
    runs through the full-image filters' tap loop.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    r0, r1, c0, c1 = bbox
    pad_r, pad_c = kernel.shape[0] // 2, kernel.shape[1] // 2
    window = gather_window(array, (r0 - pad_r, r1 + pad_r), (c0 - pad_c, c1 + pad_c))
    return _convolve_valid_prepadded(window, (kernel,))[0]


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
    The channel axis rides through the tap loop as a leading axis, so the
    accumulation per channel is identical to the 2-D filter and the result
    is bit-exact against the full-grid slice.
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
    return np.moveaxis(_convolve_valid_prepadded(leading, (kernel,))[0], -3, -1)


def gradient_magnitude_window(window_with_halo: np.ndarray) -> np.ndarray:
    """Sobel gradient magnitude of a window carrying a 1-pixel halo.

    ``window_with_halo`` is an ``(..., h + 2, w + 2, C)`` pixel window whose
    halo was gathered with :func:`gather_window`; the result is the
    ``(..., h, w)`` channel-summed gradient magnitude, bit-identical to the
    corresponding window of :func:`repro.nn.conv.gradient_magnitude` on the
    full image.  The window is copied once into contiguous ``(C, h + 2,
    w + 2)`` planes — no copy at all when it already is a channel-last view
    of such planes — and both Sobel kernels run through the full-image
    filters' tap loop (:func:`repro.nn.conv.sobel_planes`).
    """
    planes = np.ascontiguousarray(np.moveaxis(window_with_halo, -1, -3))
    grad_row, grad_col = sobel_planes(planes)
    return np.hypot(grad_row, grad_col)
