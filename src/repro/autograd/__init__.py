"""Reverse-mode automatic differentiation on NumPy arrays.

This subpackage is the lowest layer of the substrate that replaces PyTorch
in the HADFL reproduction (NumPy is the only dependency; README,
"Install").  It provides:

* :class:`~repro.autograd.tensor.Tensor` — an ndarray wrapper that records a
  computation graph and supports ``backward()``.
* :mod:`~repro.autograd.ops` — structured ops that do not decompose nicely
  into arithmetic primitives (convolution, pooling, normalisation, fused
  softmax cross-entropy, concatenation).
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
    max_pool2d,
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
    "concatenate",
    "softmax_cross_entropy",
    "standardize",
    "gradcheck",
    "numerical_gradient",
]
