"""Structured autograd ops: convolution, pooling, normalisation, fused losses.

These operations are implemented directly (forward + hand-derived backward)
rather than composed from arithmetic primitives, both for speed (im2col
convolution) and numerical stability (fused log-softmax cross-entropy).
All follow the NCHW layout convention used by the model zoo.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

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
#   * col2im adds the kernel offsets (i, j) in ascending order per pixel,
#     into a sum that starts at +0.0;
#   * the returned input gradient is an (N, C, Hp, Wp) C-order array
#     (its interior view when padding > 0).
#
# col2im meets the second rule with whole-buffer shifted adds: every
# pixel receives one term per offset, the real one or a +0.0 from a
# cell no tap wrote.  Adding +0.0 changes no bit of a running sum that
# started at +0.0: in round-to-nearest a sum is -0.0 only when both
# addends are, so such a sum is never -0.0, and x + 0.0 == x bitwise
# for every other x.
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
    # The (C, kh, kw, out_h, out_w, N) window view, built directly on the
    # buffer (NumPy bounds-checks it against the buffer's size), copied
    # into a fresh buffer: the GEMMs must read C-contiguous columns.
    s_c, s_h, s_w, s_n = padded.strides
    windows = np.ndarray(
        (channels, kh, kw, out_h, out_w, n),
        dtype=x.dtype,
        buffer=padded,
        strides=(s_c, s_h, s_w, stride * s_h, stride * s_w, s_n),
    )
    cols = np.empty((channels, kh, kw, out_h, out_w, n), dtype=x.dtype)
    cols[...] = windows
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
    span_h, span_w = stride * (out_h - 1) + 1, stride * (out_w - 1) + 1
    # Each tap (i, j) in turn on one (C, Hp, Wp, N) plane at offset
    # (0, 0): its values in the strided cells, +0.0 in exactly the cells
    # no tap writes (zeroed once: every tap writes the same cells).
    plane = np.empty((channels, padded_h, padded_w, n), dtype=cols.dtype)
    plane[:, span_h:] = 0.0
    plane[:, :span_h, span_w:] = 0.0
    for r in range(1, stride):
        plane[:, r:span_h:stride, :span_w] = 0.0
        plane[:, :span_h:stride, r:span_w:stride] = 0.0
    cells = plane[:, :span_h:stride, :span_w:stride]
    taps = cols.reshape(channels, kh, kw, out_h, out_w, n)
    # Shifting the plane by (i, j) pixels is one contiguous 1-D add: a
    # written cell never crosses a row, so only zeros wrap across rows
    # and channels.  Ascending (i, j) order, from +0.0 (layout contracts).
    flat = plane.reshape(-1)
    size = flat.size
    acc = np.zeros(size, dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            cells[...] = taps[:, i, j]
            shift = (i * padded_w + j) * n
            acc[shift:] += flat[: size - shift]
    acc = acc.reshape(channels, padded_h, padded_w, n)
    x_padded = np.empty((n, channels, padded_h, padded_w), dtype=cols.dtype)
    x_padded[...] = acc.transpose(3, 0, 1, 2)
    if padding == 0:
        return x_padded
    return x_padded[:, :, padding:-padding, padding:-padding]


# --------------------------------------------------------------------- #
# Convolution
# --------------------------------------------------------------------- #
def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2D cross-correlation (the deep-learning "convolution").

    ``x`` (N, C_in, H, W), ``weight`` (C_out, C_in, kh, kw), ``bias``
    (C_out,); output (N, C_out, H_out, W_out): one im2col lowering and
    one GEMM each way.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    if x.ndim != 4 or weight.ndim != 4:
        raise ValueError(
            "expected (N, C_in, H, W) input with a (C_out, C_in, kh, kw) weight; "
            f"got {x.shape} with {weight.shape}"
        )
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"channel mismatch: input {c_in} vs weight {c_in_w}")

    cols = im2col(x.data, kh, kw, stride, padding)
    w_rows = weight.data.reshape((c_out, -1))  # (C_out, C_in*kh*kw)
    out = w_rows @ cols  # (C_out, L*N) from cols (C_in*kh*kw, L*N)
    out_h = _conv_output_size(h, kh, stride, padding)
    out_w = _conv_output_size(w, kw, stride, padding)
    # Normalise to C order: the transpose view's batch-minor layout would
    # otherwise propagate through every downstream elementwise op, and
    # BLAS bit patterns depend on operand orientation — the classifier
    # GEMM on a batch-minor activation rounds differently than on a
    # C-contiguous one.  Spelled-out transposes, not ``moveaxis``: a
    # per-conv ``moveaxis`` is visible on small images.
    out = np.ascontiguousarray(
        out.reshape((c_out, out_h, out_w, n)).transpose((3, 0, 1, 2))
    )
    if bias is not None:
        out = out + bias.data.reshape((1, c_out, 1, 1))

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray) -> None:
        g_mat = np.asarray(g).transpose((1, 2, 3, 0)).reshape((c_out, -1))
        if bias is not None:
            bias._accumulate(g_mat.sum(axis=-1))
        weight._accumulate((g_mat @ cols.swapaxes(-1, -2)).reshape(weight.shape))
        if not x.requires_grad:  # the stem conv's input is data: nothing to scatter
            return
        grad_cols = w_rows.swapaxes(-1, -2) @ g_mat  # (C_in*kh*kw, L*N)
        x._accumulate(col2im(grad_cols, (n, c_in, h, w), kh, kw, stride, padding))

    return Tensor._make(out, parents, backward)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.mT + bias`` as ONE autograd node, any rank.

    ``weight`` is ``(out, in)`` (:class:`~repro.nn.layers.Linear`) or a
    replica stack ``(D, out, in)`` (a stacked fleet leaf), ``bias`` is
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
        write_weight_grad(weight, xd, g)
        if bias is not None:
            write_bias_grad(bias, unbroadcast(g.sum(axis=-2), bias.data.shape))

    return Tensor._make(out, parents, backward)


def write_weight_grad(weight: Tensor, xd: np.ndarray, g: np.ndarray) -> None:
    """Give ``weight`` the gradient ``(xd.mT @ g).mT`` of ``x @ W.mT``.

    The two paths of :func:`linear`'s contract, and the only two: the
    GEMM with the transposed write target as ``out`` (see
    :meth:`~repro.autograd.Tensor._grad_write_target`), or the composed
    chain's transposed expression through ``_accumulate`` — reduced by
    :func:`unbroadcast` when ``g`` carries leading axes the weight does
    not.  The replica-batched layer plan (:mod:`repro.nn.fleet`) writes
    its weight gradients through here as well.
    """
    wd = weight.data
    target = weight._grad_write_target() if g.shape[:-2] == wd.shape[:-2] else None
    if target is not None:
        np.matmul(xd.swapaxes(-1, -2), g, out=target.swapaxes(-1, -2))
    else:
        weight._accumulate(
            unbroadcast((xd.swapaxes(-1, -2) @ g).swapaxes(-1, -2), wd.shape)
        )


def write_bias_grad(bias: Tensor, grad: np.ndarray) -> None:
    """Give ``bias`` the (already reduced) gradient ``grad``, writing bound
    storage in place.

    Any write target of
    :meth:`~repro.autograd.Tensor._grad_write_target` — a first
    accumulation or a live view known to hold zeros — receives ``grad +
    0.0``: the bits of ``0.0 + grad``, so the view's prior contents and
    the bias's liveness never matter (a ``-0.0`` in ``grad`` is stored
    as ``+0.0`` either way).  Anything else accumulates.  On NumPy 2.4.6
    an axis sum never returns ``-0.0`` (the reduction starts from
    ``+0.0``, even over a dead ReLU unit's all-``-0.0`` column), so there
    this equals ``bias._accumulate(grad)``; the ``+ 0.0`` keeps a
    batched step over rows of mixed liveness bitwise the per-device
    loop on a NumPy whose sum can.
    """
    target = bias._grad_write_target()
    if target is None:
        bias._accumulate(grad)
    else:
        np.add(grad, 0.0, out=target)


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
def normalize(
    x: Tensor,
    weight: Tensor,
    bias: Tensor,
    eps: float,
    groups: Optional[int] = None,
) -> Tuple[Tensor, np.ndarray, np.ndarray]:
    """Training-mode BatchNorm (``groups=None``) or GroupNorm as ONE
    autograd node: ``gamma * x_hat + beta`` over NCHW ``x``.

    BatchNorm standardises each channel over (N, H, W); GroupNorm each
    sample's ``groups`` channel groups over (C/groups, H, W).  ``weight``
    and ``bias`` are the per-channel ``(C,)`` affine parameters.
    Returns ``(out, mu, var)``: the output plus the biased statistics as
    plain ``keepdims`` arrays of the reduced layout (BatchNorm folds them
    into its running buffers; they carry no gradient of their own).

    The forward issues the NumPy calls of the composed chain the layers
    once built — ``[reshape] -> mean -> sub -> mul -> mean -> add -> pow
    -> div -> [reshape] -> mul(gamma) -> add(beta)``, kept as
    ``tests/reference_conv.py`` — so ``out``, ``mu`` and ``var`` are
    bitwise the chain's.  The backward is the closed form, not the
    chain's replay, so gradients agree with the chain within a stated
    ulp-scaled tolerance (both pinned in
    ``tests/property/test_property_conv.py``).  With ``m`` the count one
    statistic covers, ``sd = sqrt(var + eps)`` and ``g_hat = g * gamma``,
    the input gradient is ``(g_hat - mean(g_hat) - x_hat *
    mean(g_hat * x_hat)) / sd``.  Its op order is fixed:

    1. ``gx = g * x_hat``, then the two reductions ``sum_g = sum(g)``
       and ``sum_gx = sum(gx)`` — per channel over (N, H, W) for
       BatchNorm, per sample and channel over (H, W) for GroupNorm.
    2. ``bias`` receives ``sum_g`` and ``weight`` ``sum_gx`` (GroupNorm:
       summed over N).
    3. Per statistic, with ``k = gamma / sd`` per channel: BatchNorm
       ``a = k * sum_gx * (1/m)``, ``b = k * sum_g * (1/m)``; GroupNorm
       ``a = (sum over the group's channels of gamma * sum_gx) / sd *
       (1/m)``, ``b`` likewise from ``sum_g``, each repeated over the
       group's channels.  Every product evaluates left to right.
    4. ``dx = k * g``, ``dx -= x_hat * a`` (the product into ``gx``'s
       buffer), ``dx -= b``, and ``x`` receives ``dx`` in ONE
       accumulation, so a second consumer of ``x`` sees the same bytes
       in either order.
    """
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    n, c, h, w = x.shape
    if groups is None:
        data, axes = x.data, (0, 2, 3)
    else:
        data, axes = x.data.reshape((n, groups, (c // groups) * h * w)), (2,)
    inv_count = 1.0 / math.prod(data.shape[a] for a in axes)
    mu = data.sum(axis=axes, keepdims=True) * inv_count
    centered = data - mu
    var = (centered * centered).sum(axis=axes, keepdims=True) * inv_count
    sd = (var + eps) ** 0.5
    x_hat = (centered / sd).reshape(x.shape)
    gamma = weight.data.reshape((1, c, 1, 1))
    out = gamma * x_hat
    out += bias.data.reshape((1, c, 1, 1))

    def backward(g: np.ndarray) -> None:
        gx = g * x_hat
        if groups is None:
            sum_g, sum_gx = g.sum(axis=(0, 2, 3)), gx.sum(axis=(0, 2, 3))
            grad_bias, grad_weight = sum_g, sum_gx
            k = weight.data / sd.reshape(c)
            a, b = k * sum_gx * inv_count, k * sum_g * inv_count
        else:
            sum_g, sum_gx = g.sum(axis=(2, 3)), gx.sum(axis=(2, 3))
            grad_bias, grad_weight = sum_g.sum(axis=0), sum_gx.sum(axis=0)
            group_sd = sd.reshape(n, groups)

            def per_channel(per_group: np.ndarray) -> np.ndarray:
                return np.repeat(per_group, c // groups, axis=1)

            def group_term(sums: np.ndarray) -> np.ndarray:
                per_group = (weight.data * sums).reshape(n, groups, -1).sum(axis=2)
                return per_channel(per_group / group_sd * inv_count)

            k = weight.data / per_channel(group_sd)
            a, b = group_term(sum_gx), group_term(sum_g)
        if bias.requires_grad:
            bias._accumulate(grad_bias)
        if weight.requires_grad:
            weight._accumulate(grad_weight)
        if not x.requires_grad:
            return
        stat = (-1, c, 1, 1)
        dx = g * k.reshape(stat)
        dx -= np.multiply(x_hat, a.reshape(stat), out=gx)
        dx -= b.reshape(stat)
        x._accumulate(dx)

    return Tensor._make(out, (x, weight, bias), backward), mu, var


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
