"""2-D convolution, pooling and gradient filters (pure NumPy).

Every filter here has two entry points sharing one implementation:

* the classic single-image form (2-D ``(H, W)`` or 3-D ``(H, W, C)``), and
* a batched form over a stack of images ``(B, H, W[, C])``.

The batched forms exist for the population-evaluation fast path (see
:meth:`repro.nn.features.GridFeatureExtractor.batch`): evaluating a whole
NSGA-II population stacks all perturbed images into one array and runs each
filter once.  Both forms perform the same floating-point operations in the
same order per image, so batched results are bit-identical to looping the
single-image form — a property the parity test suite enforces.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import convolve2d


def conv2d(image: np.ndarray, kernel: np.ndarray, mode: str = "same") -> np.ndarray:
    """2-D convolution of a single-channel image with a kernel.

    Multi-channel images are convolved channel-wise and the results summed,
    mirroring a convolution layer with a single output channel.
    """
    image = np.asarray(image, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    if image.ndim == 2:
        return convolve2d(image, kernel, mode=mode, boundary="symm")
    if image.ndim == 3:
        channels = [
            convolve2d(image[:, :, c], kernel, mode=mode, boundary="symm")
            for c in range(image.shape[2])
        ]
        return np.sum(channels, axis=0)
    raise ValueError(f"expected a 2-D or 3-D image, got shape {image.shape}")


def _convolve_valid_prepadded(
    stack: np.ndarray, kernels: tuple[np.ndarray, ...]
) -> list[np.ndarray]:
    """Valid-mode convolutions of a stack that already carries its halo.

    The one tap loop behind every odd-sized filter in :mod:`repro.nn`: the
    full-image filters pad first (:func:`_convolve_same_symm`), the windowed
    kernels of :mod:`repro.nn.incremental` gather a window with its halo.
    ``stack`` has ``k // 2`` halo elements on every side of its last two
    axes; each output drops them.  Returns one output per kernel.

    Each output starts at zero and the flipped taps are added in (row,
    column) order, skipping zero weights.  A tap adds its shifted slice
    straight into the output, with no temporary per tap: a ``+1`` tap adds
    the slice and a ``-1`` tap subtracts it (``1.0 * x`` and ``-1.0 * x``
    are exact, and ``out - x`` is ``out + (-x)``).  Any other weight ``w``
    adds or subtracts a slice of ``|w| * stack``, built once per magnitude
    and shared by every kernel in the call — one doubled plane serves all
    four ``±2`` Sobel taps — and ``-(|w| * x)`` is ``w * x`` exactly.  Every
    element therefore sees the same products and the same sums in the same
    order whatever the extent of the stack, which is what lets a window of
    an image reproduce the slice of the full-image filter bit for bit.
    """
    scaled = {1.0: stack}
    outputs = []
    for kernel in kernels:
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
                weight = float(flipped[i, j])
                if weight == 0.0:
                    continue
                magnitude = abs(weight)
                if magnitude not in scaled:
                    scaled[magnitude] = magnitude * stack
                tap = scaled[magnitude][..., i : i + height, j : j + width]
                if weight > 0.0:
                    out += tap
                else:
                    out -= tap
        outputs.append(out)
    return outputs


def _convolve_same_symm(stack: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Convolution over the last two axes with symmetric boundary handling.

    ``stack`` may have any number of leading (batch/channel) axes; the
    kernel must have odd side lengths.  The stack is padded with
    ``np.pad(mode="symmetric")`` and run through the one tap loop,
    :func:`_convolve_valid_prepadded`, which vectorises across the leading
    axes while keeping the per-element operation order independent of the
    batch size.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    kh, kw = kernel.shape
    pad = [(0, 0)] * (stack.ndim - 2) + [(kh // 2, kh // 2), (kw // 2, kw // 2)]
    padded = np.pad(stack, pad, mode="symmetric")
    return _convolve_valid_prepadded(padded, (kernel,))[0]


def _channels_leading(image: np.ndarray) -> np.ndarray:
    """Move a trailing channel axis in front of the two spatial axes."""
    return np.moveaxis(image, -1, -3)


def box_filter(image: np.ndarray, size: int = 3) -> np.ndarray:
    """Mean filter with a ``size x size`` box kernel."""
    if size <= 0:
        raise ValueError("size must be positive")
    kernel = np.ones((size, size), dtype=np.float64) / (size * size)
    if size % 2 == 0:
        return conv2d(image, kernel)
    image = np.asarray(image, dtype=np.float64)
    if image.ndim == 2:
        return _convolve_same_symm(image, kernel)
    if image.ndim == 3:
        return _convolve_same_symm(_channels_leading(image), kernel).sum(axis=0)
    raise ValueError(f"expected a 2-D or 3-D image, got shape {image.shape}")


def box_filter_batch(stack: np.ndarray, size: int = 3) -> np.ndarray:
    """Batched mean filter over the two *middle* axes of ``(B, H, W, C)``.

    Unlike :func:`box_filter` the channels are filtered independently (no
    channel summing): the single-stage detector smooths each feature map on
    its own.  Equivalent to ``box_filter(stack[b, :, :, c])`` per slice.
    """
    if size <= 0:
        raise ValueError("size must be positive")
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 4:
        raise ValueError(f"expected a (B, H, W, C) stack, got shape {stack.shape}")
    if size % 2 == 0:
        # Even kernels keep the scipy 'same'-mode alignment of the single
        # slice path; loop the slices so both paths stay bit-identical.
        return np.stack(
            [
                np.stack(
                    [box_filter(stack[b, :, :, c], size) for c in range(stack.shape[3])],
                    axis=-1,
                )
                for b in range(stack.shape[0])
            ],
            axis=0,
        )
    kernel = np.ones((size, size), dtype=np.float64) / (size * size)
    filtered = _convolve_same_symm(_channels_leading(stack), kernel)
    return np.moveaxis(filtered, -3, -1)


#: The Sobel row-derivative kernel; the column kernel is its transpose.
_SOBEL_ROW = np.array([[-1, -2, -1], [0, 0, 0], [1, 2, 1]], dtype=np.float64)

#: The (d/drow, d/dcol) Sobel kernel pair, in the order the gradients return.
_SOBEL_KERNELS = (_SOBEL_ROW, _SOBEL_ROW.T)


def halo_planes(pixels: np.ndarray) -> np.ndarray:
    """Contiguous channel planes of ``(..., H, W, C)`` pixels with a 1-pixel halo.

    Returns ``(..., C, H + 2, W + 2)``: the channel axis moves in front of
    the two spatial axes and the border is reflected with
    ``np.pad(mode="symmetric")``, in one copy.  This is the input layout of
    :func:`sobel_planes`.
    """
    planes = _channels_leading(pixels)
    pad = [(0, 0)] * (planes.ndim - 2) + [(1, 1), (1, 1)]
    return np.pad(planes, pad, mode="symmetric")


def sobel_planes(planes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Channel-summed Sobel gradients of planes that carry a 1-pixel halo.

    ``planes`` is ``(..., C, h + 2, w + 2)`` (contiguous channel planes are
    fastest); returns the ``(..., h, w)`` row and column gradients, each the
    sum over the ``C`` axis of the per-channel valid convolutions.  Both
    kernels run through one :func:`_convolve_valid_prepadded` call, so one
    doubled copy of the planes serves their four ``±2`` taps.
    """
    grad_row, grad_col = _convolve_valid_prepadded(planes, _SOBEL_KERNELS)
    return grad_row.sum(axis=-3), grad_col.sum(axis=-3)


def sobel_gradients(image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sobel gradients (d/drow, d/dcol) of an image (channels summed).

    Accepts 2-D ``(H, W)``, 3-D ``(H, W, C)`` and batched 4-D
    ``(B, H, W, C)`` input; the batched form returns ``(B, H, W)`` arrays
    bit-identical to calling the single-image form per slice.  The image is
    padded once, symmetrically, for both kernels.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim == 2:
        padded = np.pad(image, 1, mode="symmetric")
        grad_row, grad_col = _convolve_valid_prepadded(padded, _SOBEL_KERNELS)
        return grad_row, grad_col
    if image.ndim == 3 or image.ndim == 4:
        return sobel_planes(halo_planes(image))
    raise ValueError(f"expected a 2-D, 3-D or batched 4-D image, got {image.shape}")


def gradient_magnitude(image: np.ndarray) -> np.ndarray:
    """Magnitude of the Sobel gradient (batched input supported)."""
    grad_row, grad_col = sobel_gradients(image)
    return np.hypot(grad_row, grad_col)


def _pooled_axes(array: np.ndarray, axis: int) -> tuple[int, tuple[slice, ...]]:
    """The (non-negative) row axis of a pooling and the index prefix before it."""
    axis = axis % array.ndim
    if axis + 1 >= array.ndim:
        raise ValueError(f"pooling needs two axes from axis {axis}, got {array.shape}")
    return axis, (slice(None),) * axis


def _trim_to_cells(array: np.ndarray, cell: int, axis: int = 0) -> np.ndarray:
    """Drop trailing rows/columns that do not fill a whole ``cell`` block.

    Rows lie along ``axis`` and columns along ``axis + 1``.
    """
    if cell <= 0:
        raise ValueError("cell must be positive")
    axis, lead = _pooled_axes(array, axis)
    rows = (array.shape[axis] // cell) * cell
    cols = (array.shape[axis + 1] // cell) * cell
    if rows == 0 or cols == 0:
        raise ValueError("image smaller than one pooling cell")
    return array[lead + (slice(0, rows), slice(0, cols))]


def _block_sum(trimmed: np.ndarray, cell: int, axis: int = 0) -> np.ndarray:
    """Sum over non-overlapping ``cell x cell`` blocks of axes ``axis, axis + 1``.

    Accumulates in two fixed-order stages — first the ``cell`` column
    offsets, then the ``cell`` row offsets — so the python-loop overhead is
    ``2 * cell`` iterations instead of ``cell**2``.  Every add is
    elementwise over the block grid, so the per-element accumulation
    sequence is independent of the array extent and of the axes around the
    pooled pair — pooling a window of an image is bit-identical to slicing
    the pooled full image, and a batch or a channel-planes layout pools
    exactly like the single image, the properties the incremental
    (dirty-region) inference path and the batched path rely on.
    """
    axis, lead = _pooled_axes(trimmed, axis)
    shape = list(trimmed.shape)
    shape[axis + 1] //= cell
    cols = np.zeros(shape, dtype=np.float64)
    for j in range(cell):
        cols += trimmed[lead + (slice(None), slice(j, None, cell))]
    shape[axis] //= cell
    out = np.zeros(shape, dtype=np.float64)
    for i in range(cell):
        out += cols[lead + (slice(i, None, cell),)]
    return out


def block_mean(array: np.ndarray, cell: int, axis: int = 0) -> np.ndarray:
    """Mean over non-overlapping ``cell x cell`` blocks of axes ``axis, axis + 1``.

    Trailing rows/columns that do not fill a whole cell are dropped; every
    other axis rides along.  The kernel behind :func:`avg_pool` and
    :func:`avg_pool_batch`.
    """
    trimmed = _trim_to_cells(np.asarray(array, dtype=np.float64), cell, axis)
    return _block_sum(trimmed, cell, axis) / float(cell * cell)


def block_mean_std(
    array: np.ndarray, cell: int, axis: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Block means and standard deviations sharing one block sum.

    Same blocks and trimming as :func:`block_mean`, whose result is the
    first element.  The deviations from the block mean are squared in place
    and accumulated in the same fixed column-then-row order, so windowed
    pooling matches sliced full-image pooling bit for bit.  The kernel
    behind :func:`std_pool` and :func:`std_pool_batch`.
    """
    trimmed = _trim_to_cells(np.asarray(array, dtype=np.float64), cell, axis)
    axis, lead = _pooled_axes(trimmed, axis)
    norm = float(cell * cell)
    mean = _block_sum(trimmed, cell, axis) / norm
    mean_rows = np.repeat(mean, cell, axis=axis)
    sq_cols = np.zeros_like(mean_rows)
    for j in range(cell):
        deviation = trimmed[lead + (slice(None), slice(j, None, cell))] - mean_rows
        deviation *= deviation
        sq_cols += deviation
    squares = np.zeros_like(mean)
    for i in range(cell):
        squares += sq_cols[lead + (slice(i, None, cell),)]
    squares /= norm
    return mean, np.sqrt(squares, out=squares)


def _check_ndim(array: np.ndarray, ndims: tuple[int, ...], what: str) -> np.ndarray:
    """``array`` as float64, or a ValueError unless its ndim is in ``ndims``."""
    array = np.asarray(array, dtype=np.float64)
    if array.ndim not in ndims:
        raise ValueError(f"expected {what}, got shape {array.shape}")
    return array


def avg_pool(image: np.ndarray, cell: int) -> np.ndarray:
    """Average-pool an image over non-overlapping ``cell x cell`` blocks.

    Trailing rows/columns that do not fill a whole cell are dropped.  Works
    on 2-D (H, W) and 3-D (H, W, C) arrays; returns (H//cell, W//cell[, C]).
    """
    return block_mean(_check_ndim(image, (2, 3), "a 2-D or 3-D image"), cell)


def avg_pool_batch(stack: np.ndarray, cell: int) -> np.ndarray:
    """Average-pool a batch ``(B, H, W, C)`` over ``cell x cell`` blocks.

    Returns ``(B, H//cell, W//cell, C)``; bit-identical to applying
    :func:`avg_pool` to every batch element.
    """
    return block_mean(_check_ndim(stack, (4,), "a (B, H, W, C) stack"), cell, axis=1)


def std_pool_batch(stack: np.ndarray, cell: int) -> np.ndarray:
    """Per-cell standard deviation over a batch ``(B, H, W, C)``."""
    stack = _check_ndim(stack, (4,), "a (B, H, W, C) stack")
    return block_mean_std(stack, cell, axis=1)[1]


def std_pool(image: np.ndarray, cell: int) -> np.ndarray:
    """Per-cell standard deviation over non-overlapping blocks.

    Same fixed-order block accumulation as :func:`avg_pool`, so windowed
    pooling matches sliced full-image pooling bit for bit.
    """
    return block_mean_std(_check_ndim(image, (2, 3), "a 2-D or 3-D image"), cell)[1]
