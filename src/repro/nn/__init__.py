"""Minimal neural-network substrate in pure NumPy.

The simulated detectors in :mod:`repro.detectors` are built from these
primitives.  Only the forward pass is needed — the attack is black-box — so
this package implements inference-time operators: activation functions,
layer normalisation, 2-D convolution / pooling, grid (cell) feature
extraction, positional encodings and multi-head self-attention.
"""

from repro.nn.ops import (
    layer_norm,
    log_softmax,
    positional_encoding,
    relu,
    sigmoid,
    softmax,
)
from repro.nn.conv import (
    avg_pool,
    avg_pool_batch,
    box_filter,
    box_filter_batch,
    conv2d,
    gradient_magnitude,
    sobel_gradients,
    std_pool,
    std_pool_batch,
)
from repro.nn.features import GridFeatureExtractor, cell_grid_shape
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.incremental import (
    BBox,
    bbox_area,
    bbox_intersection,
    bbox_is_empty,
    bbox_union,
    box_filter_window,
    dilate_bbox,
    gather_window,
    mask_nonzero_bbox,
    pixel_bbox_to_cell_bbox,
)
from repro.nn.linear import Linear

__all__ = [
    "BBox",
    "bbox_area",
    "bbox_intersection",
    "bbox_is_empty",
    "bbox_union",
    "box_filter_window",
    "dilate_bbox",
    "gather_window",
    "mask_nonzero_bbox",
    "pixel_bbox_to_cell_bbox",
    "layer_norm",
    "log_softmax",
    "positional_encoding",
    "relu",
    "sigmoid",
    "softmax",
    "avg_pool",
    "avg_pool_batch",
    "box_filter",
    "box_filter_batch",
    "conv2d",
    "gradient_magnitude",
    "sobel_gradients",
    "std_pool",
    "std_pool_batch",
    "GridFeatureExtractor",
    "cell_grid_shape",
    "MultiHeadSelfAttention",
    "Linear",
]
