"""Pooling layers wrapping the autograd pooling ops."""

from __future__ import annotations

from repro.autograd import Tensor, max_pool2d
from repro.autograd.ops import global_avg_pool2d
from repro.nn.module import Module


class MaxPool2d(Module):
    """Non-overlapping max pooling (stride == kernel)."""

    def __init__(self, kernel_size: int = 2):
        super().__init__()
        self.kernel_size = kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return max_pool2d(x, self.kernel_size)

    def __repr__(self) -> str:
        return f"MaxPool2d({self.kernel_size})"


class GlobalAvgPool2d(Module):
    """Spatial global average pooling: (N, C, H, W) -> (N, C)."""

    def forward(self, x: Tensor) -> Tensor:
        return global_avg_pool2d(x)
