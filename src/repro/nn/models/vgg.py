"""VGG family (Simonyan & Zisserman, 2014) with BatchNorm.

``vgg16`` follows the canonical 13-conv + 3-FC configuration "D" adapted
to small inputs (single-FC classifier head on the pooled features, the
usual CIFAR-10 adaptation).  ``vgg_mini`` preserves the conv-conv-pool
rhythm at reduced width/depth for the NumPy substrate.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.autograd import Tensor
from repro.nn.conv import Conv2d
from repro.nn.layers import Dropout, Flatten, Linear, ReLU, Sequential
from repro.nn.norm import BatchNorm2d
from repro.nn.pooling import MaxPool2d
from repro.nn.module import Module

# Configuration strings: integers are conv widths, "M" is 2x2 max-pool.
CFG_VGG11 = (64, "M", 128, "M", 256, 256, "M", 512, 512, "M", 512, 512, "M")
CFG_VGG16 = (
    64, 64, "M",
    128, 128, "M",
    256, 256, 256, "M",
    512, 512, 512, "M",
    512, 512, 512, "M",
)
CFG_MINI = (8, "M", 16, "M", 32, "M")


class VGG(Module):
    """Plain convolutional stack from a width/pool configuration.

    Parameters
    ----------
    cfg:
        Sequence of conv widths and "M" pool markers.
    image_size:
        Input side length; must be divisible by ``2**num_pools`` so the
        flattened feature size is well defined.
    dropout:
        Classifier dropout probability (0 disables).
    """

    def __init__(
        self,
        cfg: Sequence[Union[int, str]] = CFG_VGG16,
        num_classes: int = 10,
        in_channels: int = 3,
        image_size: int = 32,
        batch_norm: bool = True,
        dropout: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        layers = []
        channels = in_channels
        num_pools = 0
        for item in cfg:
            if item == "M":
                layers.append(MaxPool2d(2))
                num_pools += 1
            else:
                width = int(item)
                layers.append(
                    Conv2d(channels, width, 3, padding=1, bias=not batch_norm, rng=rng)
                )
                if batch_norm:
                    layers.append(BatchNorm2d(width))
                layers.append(ReLU())
                channels = width
        if image_size % (2**num_pools):
            raise ValueError(
                f"image_size {image_size} not divisible by 2**{num_pools} pools"
            )
        final_side = image_size // (2**num_pools)
        self.features = Sequential(*layers)
        head = [Flatten()]
        if dropout > 0:
            head.append(Dropout(dropout, rng=rng))
        head.append(Linear(channels * final_side * final_side, num_classes, rng=rng))
        self.classifier = Sequential(*head)
        self.num_classes = num_classes

    def forward(self, x: Tensor) -> Tensor:
        return self.classifier(self.features(x))


def vgg11(
    num_classes: int = 10,
    in_channels: int = 3,
    image_size: int = 32,
    rng: Optional[np.random.Generator] = None,
) -> VGG:
    return VGG(CFG_VGG11, num_classes, in_channels, image_size, rng=rng)


def vgg16(
    num_classes: int = 10,
    in_channels: int = 3,
    image_size: int = 32,
    rng: Optional[np.random.Generator] = None,
) -> VGG:
    """The paper's VGG-16 (configuration D with BatchNorm)."""
    return VGG(CFG_VGG16, num_classes, in_channels, image_size, rng=rng)


def vgg_mini(
    num_classes: int = 10,
    in_channels: int = 3,
    image_size: int = 16,
    rng: Optional[np.random.Generator] = None,
) -> VGG:
    """Rhythm-faithful small VGG for 16 px inputs."""
    return VGG(CFG_MINI, num_classes, in_channels, image_size, rng=rng)
