"""A small two-stage CNN: the mid-cost model for integration tests."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import Tensor
from repro.nn.conv import Conv2d
from repro.nn.layers import Flatten, Linear, ReLU, Sequential
from repro.nn.norm import BatchNorm2d
from repro.nn.pooling import MaxPool2d
from repro.nn.module import Module


class SimpleCNN(Module):
    """conv-bn-relu-pool ×2 followed by a linear classifier.

    Works on any square input whose side is divisible by 4 (two 2×2
    pools); defaults match the 16×16 synthetic CIFAR stand-in.
    """

    def __init__(
        self,
        in_channels: int = 3,
        num_classes: int = 10,
        image_size: int = 16,
        width: int = 8,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        if image_size % 4:
            raise ValueError("image_size must be divisible by 4")
        self.features = Sequential(
            Conv2d(in_channels, width, 3, padding=1, bias=False, rng=rng),
            BatchNorm2d(width),
            ReLU(),
            MaxPool2d(2),
            Conv2d(width, width * 2, 3, padding=1, bias=False, rng=rng),
            BatchNorm2d(width * 2),
            ReLU(),
            MaxPool2d(2),
        )
        flat = width * 2 * (image_size // 4) ** 2
        self.classifier = Sequential(Flatten(), Linear(flat, num_classes, rng=rng))

    def forward(self, x: Tensor) -> Tensor:
        return self.classifier(self.features(x))
