"""Structured autograd ops: convolution, pooling, normalisation, fused losses.

These operations are implemented directly (forward + hand-derived backward)
rather than composed from arithmetic primitives, both for speed (im2col
convolution) and numerical stability (fused log-softmax cross-entropy).
All follow the NCHW layout convention used by the model zoo.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.autograd.tensor import Tensor, as_tensor, unbroadcast


# --------------------------------------------------------------------- #
# im2col / col2im machinery (strided windows, no index arrays)
#
# Layout contracts — downstream GEMMs and reductions round by operand
# layout, so these are part of the bitwise-trajectory contract and are
# pinned against the fancy-index reference in
# tests/property/test_property_conv.py:
#   * the cols matrix is C-contiguous (C*kh*kw, L*N), rows ordered
#     (c, i, j), columns (out_y, out_x, n);
#   * col2im adds the kernel offsets (i, j) in ascending order per pixel;
#   * the returned input gradient is an (N, C, Hp, Wp) C-order array
#     (its interior view when padding > 0).
# --------------------------------------------------------------------- #
def _conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    if stride < 1 or padding < 0:
        raise ValueError(
            f"convolution requires stride >= 1 and padding >= 0, "
            f"got stride {stride}, padding {padding}"
        )
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution output size would be {out} "
            f"(input {size}, kernel {kernel}, stride {stride}, padding {padding})"
        )
    return out


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Unfold ``x`` (N,C,H,W) into columns of shape (C*kh*kw, out_h*out_w*N)."""
    n, channels, height, width = x.shape
    out_h = _conv_output_size(height, kh, stride, padding)
    out_w = _conv_output_size(width, kw, stride, padding)
    # Batch-minor padded buffer: every window row is then a contiguous
    # run of ``N`` (or ``out_w * N`` at stride 1) scalars in the copy below.
    padded = np.zeros(
        (channels, height + 2 * padding, width + 2 * padding, n), dtype=x.dtype
    )
    padded[:, padding : padding + height, padding : padding + width, :] = x.transpose(
        1, 2, 3, 0
    )
    windows = sliding_window_view(padded, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    # (C, out_h, out_w, N, kh, kw) -> (C, kh, kw, out_h, out_w, N), copied
    # into a fresh buffer: a bare reshape may return a strided view in
    # degenerate geometries, and the GEMMs must read C-contiguous columns.
    cols = np.empty((channels, kh, kw, out_h, out_w, n), dtype=x.dtype)
    cols[...] = windows.transpose(0, 4, 5, 1, 2, 3)
    return cols.reshape(channels * kh * kw, out_h * out_w * n)


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
    out_h = _conv_output_size(height, kh, stride, padding)
    out_w = _conv_output_size(width, kw, stride, padding)
    padded_h, padded_w = height + 2 * padding, width + 2 * padding
    acc = np.zeros((channels, padded_h, padded_w, n), dtype=cols.dtype)
    taps = cols.reshape(channels, kh, kw, out_h, out_w, n)
    span_h, span_w = stride * (out_h - 1) + 1, stride * (out_w - 1) + 1
    # One strided slice-add per kernel offset.  A pixel receives at most
    # one term per offset, so ascending (i, j) fixes its summation order.
    for i in range(kh):
        for j in range(kw):
            acc[:, i : i + span_h : stride, j : j + span_w : stride, :] += taps[:, i, j]
    x_padded = np.empty((n, channels, padded_h, padded_w), dtype=cols.dtype)
    x_padded[...] = acc.transpose(3, 0, 1, 2)
    if padding == 0:
        return x_padded
    return x_padded[:, :, padding:-padding, padding:-padding]


# --------------------------------------------------------------------- #
# Convolution
# --------------------------------------------------------------------- #
# GEMM output (..., C_out, out_h, out_w, N) <-> activation layout
# (..., N, C_out, out_h, out_w), indexed by the count of leading replica
# axes.  Spelled out: a ``moveaxis`` per conv is visible on small images.
_BATCH_FIRST = ((3, 0, 1, 2), (0, 4, 1, 2, 3))
_BATCH_LAST = ((1, 2, 3, 0), (0, 2, 3, 4, 1))


def _per_replica(lower, stacked: int, array: np.ndarray, *geometry) -> np.ndarray:
    """``im2col`` / ``col2im`` on one model's array, or on each replica's
    slice and stacked — the only rank branch of :func:`conv2d`."""
    if stacked:
        return np.stack([lower(slab, *geometry) for slab in array])
    return lower(array, *geometry)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2D cross-correlation (the deep-learning "convolution").

    One model: ``x`` (N, C_in, H, W), ``weight`` (C_out, C_in, kh, kw),
    ``bias`` (C_out,); output (N, C_out, H_out, W_out).  A replica stack
    (the fleet handler): every operand carries a leading ``D`` axis —
    ``x`` (D, N, C_in, H, W), one batch per replica, ``weight``
    (D, C_out, C_in, kh, kw), ``bias`` (D, C_out).  A shared ``(N, ...)``
    batch under a stacked weight is rejected, never broadcast.

    Each replica's slice goes through the same im2col lowering and GEMM
    as a lone model: the stack is realised as one ``np.matmul`` over the
    leading axis, which computes per slice, so a stacked call is bitwise
    the per-replica loop.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    stacked = weight.ndim - 4  # leading replica axes: 0, or 1 for a stack
    lead = weight.shape[:stacked]
    if stacked not in (0, 1) or x.ndim != weight.ndim or x.shape[:stacked] != lead:
        raise ValueError(
            "expected (N, C_in, H, W) input with a (C_out, C_in, kh, kw) weight, or "
            "(D, N, C_in, H, W) with a (D, C_out, C_in, kh, kw) stack; "
            f"got {x.shape} with {weight.shape}"
        )
    n, c_in, h, w = x.shape[stacked:]
    c_out, c_in_w, kh, kw = weight.shape[stacked:]
    if c_in != c_in_w:
        raise ValueError(f"channel mismatch: input {c_in} vs weight {c_in_w}")

    cols = _per_replica(im2col, stacked, x.data, kh, kw, stride, padding)
    w_rows = weight.data.reshape(lead + (c_out, -1))  # (..., C_out, C_in*kh*kw)
    out = w_rows @ cols  # (..., C_out, L*N) from cols (..., C_in*kh*kw, L*N)
    out_h = _conv_output_size(h, kh, stride, padding)
    out_w = _conv_output_size(w, kw, stride, padding)
    # Normalise to C order: the transpose view's batch-minor layout would
    # otherwise propagate through every downstream elementwise op, and
    # BLAS bit patterns depend on operand orientation — the classifier
    # GEMM on a batch-minor activation rounds differently than on a
    # C-contiguous one.  One copy here keeps lone and stacked forwards on
    # identical layouts, hence identical bits.
    out = np.ascontiguousarray(
        out.reshape(lead + (c_out, out_h, out_w, n)).transpose(_BATCH_FIRST[stacked])
    )
    if bias is not None:
        out = out + bias.data.reshape(lead + (1, c_out, 1, 1))

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray) -> None:
        g_mat = (
            np.asarray(g).transpose(_BATCH_LAST[stacked]).reshape(lead + (c_out, -1))
        )
        if bias is not None:
            bias._accumulate(g_mat.sum(axis=-1))
        weight._accumulate((g_mat @ cols.swapaxes(-1, -2)).reshape(weight.shape))
        if not x.requires_grad:  # the stem conv's input is data: nothing to scatter
            return
        grad_cols = w_rows.swapaxes(-1, -2) @ g_mat  # (..., C_in*kh*kw, L*N)
        x._accumulate(
            _per_replica(
                col2im, stacked, grad_cols, (n, c_in, h, w), kh, kw, stride, padding
            )
        )

    return Tensor._make(out, parents, backward)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.mT + bias`` as ONE autograd node, any rank.

    ``weight`` is ``(out, in)`` (:class:`~repro.nn.layers.Linear`) or a
    replica stack ``(D, out, in)`` (the fleet handler), ``bias`` is
    ``weight.shape[:-1]``, and ``x`` is ``(..., N, in)`` — a stacked
    ``(D, N, in)`` activation or a shared ``(N, in)`` batch that
    broadcasts across replicas.  Forward and backward issue the NumPy
    calls of the composed ``transpose -> matmul -> broadcast add`` chain
    (kept as ``tests/reference_autograd.py``), so outputs and gradients
    are bitwise identical to it per slice.  Two rules are part of that
    contract: the bias gradient reduces the batch axis *unconditionally*
    — a generic broadcast add would skip the reduction at ``N == 1``
    (shapes already match) and leak ``-0.0`` sign bits that the rank-1
    bias of the composed chain always normalises away — and the input
    gradient ``g @ weight`` is computed only when ``x`` carries one: for
    the data batch entering the first layer it is the largest GEMM of
    the step, and nothing would read it.

    The weight gradient ``(x.mT @ g).mT`` is **written where it lives**:
    when the weight's bound grad storage may be overwritten
    (:meth:`~repro.autograd.Tensor._grad_write_target`: no gradient yet,
    or a view its owner just zero-filled) the GEMM's ``out`` is the
    transposed grad-arena view itself.  NumPy serves an F-ordered
    ``out`` by the transpose identity — as the C-ordered GEMM
    ``g.mT @ x`` straight into the view, bit-equal to the transposed
    product — and GEMM output carries no ``-0.0`` (sums of all-zero
    products come out ``+0.0``:
    ``test_gemm_output_has_no_negative_zero``), so overwriting zeros
    equals adding to them.  Everything else — a weight that must
    accumulate (unbound, used twice in one graph, a second
    ``backward()`` without ``zero_grad``) or an ``x`` with extra leading
    axes, whose gradient reduces through :func:`unbroadcast` — keeps the
    composed chain's transposed expression and ``_accumulate``.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    bias = as_tensor(bias) if bias is not None else None
    xd, wd = x.data, weight.data
    if xd.ndim < 2 or wd.ndim < 2 or xd.shape[-1] != wd.shape[-1]:
        raise ValueError(
            f"expected (..., N, in) @ (..., out, in), got {xd.shape} @ {wd.shape}"
        )
    if bias is not None and bias.data.shape != wd.shape[:-1]:
        raise ValueError(
            f"bias shape {bias.data.shape} does not match weight {wd.shape}"
        )
    out = xd @ wd.swapaxes(-1, -2)
    if bias is not None:
        out += bias.data[..., None, :]
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(unbroadcast(g @ wd, xd.shape))
        target = (
            weight._grad_write_target() if g.shape[:-2] == wd.shape[:-2] else None
        )
        if target is not None:
            np.matmul(xd.swapaxes(-1, -2), g, out=target.swapaxes(-1, -2))
        else:
            weight._accumulate(
                unbroadcast((xd.swapaxes(-1, -2) @ g).swapaxes(-1, -2), wd.shape)
            )
        if bias is not None:
            bias._accumulate(unbroadcast(g.sum(axis=-2), bias.data.shape))

    return Tensor._make(out, parents, backward)


# --------------------------------------------------------------------- #
# Pooling
# --------------------------------------------------------------------- #
def _check_pool_shape(h: int, w: int, kernel: int) -> None:
    if h % kernel or w % kernel:
        raise ValueError(
            f"pooling requires spatial dims divisible by kernel={kernel}, got ({h},{w})"
        )


def max_pool2d(x: Tensor, kernel: int = 2) -> Tensor:
    """Non-overlapping max pooling (stride == kernel).

    The model zoo uses 2x2/stride-2 pooling exclusively (as ResNet/VGG do),
    so only the non-overlapping case is implemented; it admits a fast
    reshape-based kernel.
    """
    x = as_tensor(x)
    n, c, h, w = x.shape
    _check_pool_shape(h, w, kernel)
    oh, ow = h // kernel, w // kernel
    reshaped = x.data.reshape(n, c, oh, kernel, ow, kernel)
    out = reshaped.max(axis=(3, 5))

    def backward(g: np.ndarray) -> None:
        # Route gradients to exactly one (the first) max per window, matching
        # the deterministic tie-breaking of cuDNN/PyTorch pooling.  The
        # routing mask is built here so no-grad evaluation never pays it.
        windows = reshaped.transpose(0, 1, 2, 4, 3, 5).reshape(
            n, c, oh, ow, kernel * kernel
        )
        first = np.zeros_like(windows)
        idx = windows.argmax(axis=-1)
        np.put_along_axis(first, idx[..., None], 1.0, axis=-1)
        first = first.reshape(n, c, oh, ow, kernel, kernel).transpose(0, 1, 2, 4, 3, 5)
        g = np.asarray(g)[:, :, :, None, :, None]
        x._accumulate((first * g).reshape(n, c, h, w))

    return Tensor._make(out, (x,), backward)


def avg_pool2d(x: Tensor, kernel: int = 2) -> Tensor:
    """Non-overlapping average pooling (stride == kernel)."""
    x = as_tensor(x)
    n, c, h, w = x.shape
    _check_pool_shape(h, w, kernel)
    reshaped = x.data.reshape(n, c, h // kernel, kernel, w // kernel, kernel)
    out = reshaped.mean(axis=(3, 5))
    scale = 1.0 / (kernel * kernel)

    def backward(g: np.ndarray) -> None:
        g = np.asarray(g)[:, :, :, None, :, None] * scale
        grad = np.broadcast_to(g, (n, c, h // kernel, kernel, w // kernel, kernel))
        x._accumulate(grad.reshape(n, c, h, w))

    return Tensor._make(out, (x,), backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over the spatial dimensions: (N,C,H,W) -> (N,C)."""
    x = as_tensor(x)
    n, c, h, w = x.shape
    out = x.data.mean(axis=(2, 3))
    scale = 1.0 / (h * w)

    def backward(g: np.ndarray) -> None:
        g = np.asarray(g)[:, :, None, None] * scale
        x._accumulate(np.broadcast_to(g, x.shape).copy())

    return Tensor._make(out, (x,), backward)


# --------------------------------------------------------------------- #
# Concatenation
# --------------------------------------------------------------------- #
def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along an existing axis with gradient support."""
    tensors = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray) -> None:
        g = np.asarray(g)
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * g.ndim
            index[axis] = slice(start, stop)
            tensor._accumulate(g[tuple(index)])

    return Tensor._make(out, tuple(tensors), backward)


# --------------------------------------------------------------------- #
# Normalisation
# --------------------------------------------------------------------- #
def standardize(
    x: Tensor, axes: Sequence[int], eps: float
) -> Tuple[Tensor, np.ndarray, np.ndarray]:
    """Zero-mean / unit-variance ``x`` over ``axes`` as ONE autograd node.

    Returns ``(x_hat, mu, var)``: the normalised tensor plus the biased
    statistics as plain ``keepdims`` arrays (BatchNorm folds them into its
    running buffers; they carry no gradient of their own).  Shared by
    BatchNorm2d, GroupNorm and their replica-batched fleet handlers — the
    reduction axes are the only thing that differs between them.

    Forward and backward issue the NumPy calls of the composed chain
    ``mean -> sub -> mul -> mean -> add -> pow -> div`` in that chain's
    order, so results are bitwise identical to it (pinned against the
    composed reference in ``tests/property/test_property_conv.py``): the
    centred gradient is ``g/sd``, then the variance term twice; both
    statistics reduce through :func:`unbroadcast`, which skips axes that
    are already size 1; ``x`` receives the direct term before the mean
    term.
    """
    x = as_tensor(x)
    axes = tuple(a % x.ndim for a in axes)
    inv_count = 1.0 / int(np.prod([x.shape[a] for a in axes]))
    mu = x.data.sum(axis=axes, keepdims=True) * inv_count
    centered = x.data - mu
    var = (centered * centered).sum(axis=axes, keepdims=True) * inv_count
    var_eps = var + eps
    sd = var_eps**0.5
    x_hat = centered / sd

    def backward(g: np.ndarray) -> None:
        g_centered = g / sd
        g_sd = unbroadcast(-g * centered / (sd**2), sd.shape)
        g_var = g_sd * 0.5 * var_eps ** (0.5 - 1)
        term = (g_var * inv_count) * centered
        g_centered += term
        g_centered += term
        x._accumulate(g_centered)
        g_mu = unbroadcast(-g_centered, mu.shape)
        x._accumulate(np.broadcast_to(g_mu * inv_count, x.shape))

    return Tensor._make(x_hat, (x,), backward), mu, var


# --------------------------------------------------------------------- #
# Softmax cross-entropy (numerically stable, fused)
# --------------------------------------------------------------------- #
def _log_softmax_data(logits: np.ndarray, axis: int) -> np.ndarray:
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def softmax_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``logits`` and integer ``targets``.

    ``logits`` (N, C) with ``targets`` (N,) gives the scalar batch mean;
    a replica stack ``(D, N, C)`` with ``(D, N)`` targets gives a ``(D,)``
    tensor whose d-th entry is exactly the scalar replica d would get
    alone — the log-softmax shift/normalise and the picked-NLL mean
    reduce along the same trailing axes per slice.  ``backward`` takes a
    matching output gradient (a scalar, or ``(D,)`` — ones for D
    independent losses).

    Fused implementation: the backward pass is the classic
    ``(softmax - one_hot) * (g / N)``, avoiding the catastrophic
    cancellation a composed log→mul→sum graph would suffer for confident
    predictions.
    """
    logits = as_tensor(logits)
    targets = np.asarray(targets)
    if targets.dtype.kind == "f":
        targets = targets.astype(np.int64)
    if logits.ndim not in (2, 3) or targets.shape != logits.shape[:-1]:
        raise ValueError(
            "expected (N, C) logits with (N,) targets or (D, N, C) with (D, N), "
            f"got {logits.shape} with {targets.shape}"
        )
    lead, n = logits.shape[:-2], logits.shape[-2]
    log_probs = _log_softmax_data(logits.data, axis=-1)
    # One index serves the gather and the scatter: sample r picks its class.
    picked = (np.arange(n), targets)
    if lead:
        picked = (np.arange(lead[0])[:, None],) + picked
    nll = -log_probs[picked].mean(axis=-1)

    def backward(g: np.ndarray) -> None:
        scale = np.asarray(g, dtype=np.float64).reshape(lead)
        # exp is deferred to here so no-grad evaluation never pays it.
        grad = np.exp(log_probs)
        grad[picked] -= 1.0
        grad *= (scale / n)[..., None, None]
        logits._accumulate(grad)

    return Tensor._make(np.asarray(nll), (logits,), backward)
