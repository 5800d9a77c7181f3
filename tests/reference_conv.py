"""Reference conv lowering and composed normaliser (test-only).

These are the implementations ``repro.autograd.ops`` shipped before the
strided kernels and the fused ``standardize`` node: CS231n fancy-index
``im2col``, ``np.add.at`` ``col2im``, and the ``mean → sub → mul → mean →
add → pow → div`` chain built from primitive autograd nodes.  They define
the bits the production kernels must reproduce — values, sign bits,
strides and contiguity flags — and are compared against them by
``tests/property/test_property_conv.py``.
"""

from typing import Sequence, Tuple

import numpy as np

from repro.autograd import Tensor


def _im2col_indices(x_shape, kh: int, kw: int, stride: int, padding: int):
    _, channels, height, width = x_shape
    out_h = (height + 2 * padding - kh) // stride + 1
    out_w = (width + 2 * padding - kw) // stride + 1

    i0 = np.repeat(np.arange(kh), kw)
    i0 = np.tile(i0, channels)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kw), kh * channels)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(channels), kh * kw).reshape(-1, 1)
    return (k, i, j), out_h, out_w


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Unfold ``x`` (N,C,H,W) into columns of shape (C*kh*kw, out_h*out_w*N)."""
    x_shape = x.shape
    if padding > 0:
        x = np.pad(
            x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant"
        )
    (k, i, j), _, _ = _im2col_indices(x_shape, kh, kw, stride, padding)
    cols = x[:, k, i, j]  # (N, C*kh*kw, out_h*out_w)
    return cols.transpose(1, 2, 0).reshape(kh * kw * x.shape[1], -1)


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Adjoint of :func:`im2col` — scatter-add columns back to (N,C,H,W)."""
    n, channels, height, width = x_shape
    padded_h, padded_w = height + 2 * padding, width + 2 * padding
    x_padded = np.zeros((n, channels, padded_h, padded_w), dtype=cols.dtype)
    (k, i, j), out_h, out_w = _im2col_indices(x_shape, kh, kw, stride, padding)
    cols_reshaped = cols.reshape(channels * kh * kw, out_h * out_w, n).transpose(2, 0, 1)
    np.add.at(x_padded, (slice(None), k, i, j), cols_reshaped)
    if padding == 0:
        return x_padded
    return x_padded[:, :, padding:-padding, padding:-padding]


def standardize(
    x: Tensor, axes: Sequence[int], eps: float
) -> Tuple[Tensor, np.ndarray, np.ndarray]:
    """The composed normalise chain, node for node as the layers wrote it."""
    axes = tuple(axes)
    mu = x.mean(axis=axes, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=axes, keepdims=True)
    x_hat = centered / ((var + eps) ** 0.5)
    return x_hat, mu.data, var.data
