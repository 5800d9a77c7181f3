"""Reverse-mode automatic differentiation on NumPy arrays.

This subpackage is the lowest layer of the substrate that replaces PyTorch
in the HADFL reproduction (see DESIGN.md, Sec. 2).  It provides:

* :class:`~repro.autograd.tensor.Tensor` — an ndarray wrapper that records a
  computation graph and supports ``backward()``.
* :mod:`~repro.autograd.ops` — structured ops that do not decompose nicely
  into arithmetic primitives (convolution, pooling, fused softmax
  cross-entropy, padding, concatenation).
* :func:`~repro.autograd.gradcheck.gradcheck` — central-difference gradient
  verification used throughout the test suite.
"""

from repro.autograd.tensor import (
    Tensor,
    as_tensor,
    is_grad_enabled,
    no_grad,
    set_grad_enabled,
)
from repro.autograd.ops import (
    avg_pool2d,
    concatenate,
    conv2d,
    linear,
    log_softmax,
    max_pool2d,
    pad2d,
    softmax,
    softmax_cross_entropy,
    standardize,
)
from repro.autograd.gradcheck import gradcheck, numerical_gradient

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "set_grad_enabled",
    "is_grad_enabled",
    "conv2d",
    "linear",
    "max_pool2d",
    "avg_pool2d",
    "pad2d",
    "concatenate",
    "softmax",
    "log_softmax",
    "softmax_cross_entropy",
    "standardize",
    "gradcheck",
    "numerical_gradient",
]
