"""Reference conv lowering and composed normaliser (test-only).

These are the implementations ``repro.autograd.ops`` shipped before the
strided kernels and the fused ``standardize`` node: CS231n fancy-index
``im2col``, ``np.add.at`` ``col2im``, and the ``mean → sub → mul → mean →
add → pow → div`` chain built from primitive autograd nodes.  They define
the bits the production kernels must reproduce — values, sign bits,
strides and contiguity flags — and are compared against them by
``tests/property/test_property_conv.py``.

:func:`conv2d_serial` / :func:`conv2d_stacked` are the two convolutions
(``conv2d`` / ``fleet_conv2d``) the package carried before the
rank-generic ``conv2d``; they lower through the *production*
``im2col`` / ``col2im`` and are compared against the merged op by
``tests/property/test_property_kernels.py``.
"""

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.autograd import Tensor, as_tensor
from repro.autograd import ops as _ops


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


def conv2d_serial(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2D cross-correlation (the deep-learning "convolution").

    Shapes: ``x`` (N, C_in, H, W), ``weight`` (C_out, C_in, kh, kw),
    ``bias`` (C_out,).  Output: (N, C_out, H_out, W_out).
    """
    x, weight = as_tensor(x), as_tensor(weight)
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"channel mismatch: input {c_in} vs weight {c_in_w}")

    cols = _ops.im2col(x.data, kh, kw, stride, padding)  # (C_in*kh*kw, L*N)
    w_rows = weight.data.reshape(c_out, -1)  # (C_out, C_in*kh*kw)
    out = w_rows @ cols  # (C_out, L*N)
    out_h = _ops._conv_output_size(h, kh, stride, padding)
    out_w = _ops._conv_output_size(w, kw, stride, padding)
    # Normalise to C order: the transpose view's batch-minor layout would
    # otherwise propagate through every downstream elementwise op, and
    # BLAS bit patterns depend on operand orientation — the classifier
    # GEMM on a batch-minor activation rounds differently than on a
    # C-contiguous one.  One copy here keeps serial and replica-batched
    # (fleet) forwards on identical layouts, hence identical bits.
    out = np.ascontiguousarray(out.reshape(c_out, out_h, out_w, n).transpose(3, 0, 1, 2))
    if bias is not None:
        out = out + bias.data.reshape(1, c_out, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray) -> None:
        g_mat = np.asarray(g).transpose(1, 2, 3, 0).reshape(c_out, -1)
        if bias is not None:
            bias._accumulate(g_mat.sum(axis=1))
        weight._accumulate((g_mat @ cols.T).reshape(weight.shape))
        if x.requires_grad:  # the stem conv's input is data: nothing to scatter
            grad_cols = w_rows.T @ g_mat
            x._accumulate(_ops.col2im(grad_cols, x.shape, kh, kw, stride, padding))

    return Tensor._make(out, parents, backward)


def conv2d_stacked(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """Replica-batched 2D cross-correlation.

    ``weight`` carries a leading replica axis: (D, C_out, C_in, kh, kw),
    ``bias`` (D, C_out), and ``x`` is (D, N, C_in, H, W) — one batch per
    replica.  Output: (D, N, C_out, H_out, W_out).

    Each replica's slice goes through the *same* im2col lowering
    and GEMM as :func:`conv2d_serial`; the batch is realised as one
    ``np.matmul`` over the leading axis, which computes per-slice — so
    results are bitwise identical to looping :func:`conv2d_serial` per replica.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    if weight.ndim != 5:
        raise ValueError(f"expected (D, C_out, C_in, kh, kw) weight, got {weight.shape}")
    d, c_out, c_in_w, kh, kw = weight.shape
    if x.ndim != 5:
        raise ValueError(f"expected (D, N, C_in, H, W) input, got shape {x.shape}")
    d_x, n, c_in, h, w = x.shape
    if d_x != d:
        raise ValueError(f"replica mismatch: input {d_x} vs weight {d}")
    if c_in != c_in_w:
        raise ValueError(f"channel mismatch: input {c_in} vs weight {c_in_w}")

    cols = np.stack(
        [_ops.im2col(x.data[k], kh, kw, stride, padding) for k in range(d)]
    )  # (D, C_in*kh*kw, L*N)
    w_rows = weight.data.reshape(d, c_out, -1)  # (D, C_out, C_in*kh*kw)
    out = w_rows @ cols  # (D, C_out, L*N)
    out_h = _ops._conv_output_size(h, kh, stride, padding)
    out_w = _ops._conv_output_size(w, kw, stride, padding)
    # Same C-order normalisation as conv2d (layout parity contract).
    out = np.ascontiguousarray(
        out.reshape(d, c_out, out_h, out_w, n).transpose(0, 4, 1, 2, 3)
    )
    if bias is not None:
        out = out + bias.data.reshape(d, 1, c_out, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray) -> None:
        g_mat = np.asarray(g).transpose(0, 2, 3, 4, 1).reshape(d, c_out, -1)
        if bias is not None:
            bias._accumulate(g_mat.sum(axis=2))
        weight._accumulate((g_mat @ cols.transpose(0, 2, 1)).reshape(weight.shape))
        if not x.requires_grad:
            return
        grad_cols = w_rows.transpose(0, 2, 1) @ g_mat  # (D, C_in*kh*kw, L*N)
        x_shape = (n, c_in, h, w)
        x._accumulate(
            np.stack(
                [
                    _ops.col2im(grad_cols[k], x_shape, kh, kw, stride, padding)
                    for k in range(d)
                ]
            )
        )

    return Tensor._make(out, parents, backward)
