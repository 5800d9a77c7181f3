"""2D convolution layer wrapping :func:`repro.autograd.conv2d`."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import Tensor, conv2d
from repro.nn import init
from repro.nn.module import Module, Parameter


class Conv2d(Module):
    """Cross-correlation layer with square kernels (NCHW layout).

    Matches the constructor shape of ``torch.nn.Conv2d`` for the subset the
    ResNet/VGG builders need: square kernel, single stride, symmetric
    padding, optional bias (disabled before BatchNorm, as is conventional).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if stride < 1 or padding < 0:
            raise ValueError(
                f"Conv2d requires stride >= 1 and padding >= 0, "
                f"got stride {stride}, padding {padding}"
            )
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_normal(shape, rng=rng), name="weight")
        if bias:
            self.bias = Parameter(init.zeros((out_channels,)), name="bias")
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, "
            f"k={self.kernel_size}, s={self.stride}, p={self.padding})"
        )
