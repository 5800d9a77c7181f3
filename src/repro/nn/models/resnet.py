"""ResNet family (He et al., CVPR 2016) with CIFAR-style stems.

``resnet18`` reproduces the architecture the paper trains (BasicBlock,
stage plan [2,2,2,2], base width 64, 3×3 stem — the standard CIFAR-10
adaptation).  ``resnet_mini`` keeps the exact topology but shrinks width
and depth so the pure-NumPy substrate trains it in seconds.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.autograd import Tensor
from repro.nn.conv import Conv2d
from repro.nn.layers import Identity, Linear, ReLU, Sequential
from repro.nn.norm import BatchNorm2d, make_norm
from repro.nn.pooling import GlobalAvgPool2d
from repro.nn.module import Module


def _conv_bn(
    in_channels: int,
    out_channels: int,
    kernel: int,
    stride: int,
    padding: int,
    rng: Optional[np.random.Generator],
    norm: str = "batch",
) -> Sequential:
    return Sequential(
        Conv2d(
            in_channels,
            out_channels,
            kernel,
            stride=stride,
            padding=padding,
            bias=False,
            rng=rng,
        ),
        make_norm(norm, out_channels),
    )


class BasicBlock(Module):
    """Two 3×3 conv-bn pairs with an identity (or projection) shortcut."""

    expansion = 1

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        rng: Optional[np.random.Generator] = None,
        norm: str = "batch",
    ):
        super().__init__()
        self.conv1 = _conv_bn(in_channels, out_channels, 3, stride, 1, rng, norm)
        self.relu = ReLU()
        self.conv2 = _conv_bn(out_channels, out_channels, 3, 1, 1, rng, norm)
        if stride != 1 or in_channels != out_channels:
            self.shortcut = _conv_bn(in_channels, out_channels, 1, stride, 0, rng, norm)
        else:
            self.shortcut = Identity()

    def forward(self, x: Tensor) -> Tensor:
        out = self.relu(self.conv1(x))
        out = self.conv2(out)
        return self.relu(out + self.shortcut(x))


class ResNet(Module):
    """Configurable BasicBlock ResNet for small images.

    Parameters
    ----------
    stage_blocks:
        Number of residual blocks per stage; stage ``i > 0`` starts with a
        stride-2 block and doubles the channel count.
    base_channels:
        Channel width of the first stage (64 for the paper's ResNet-18).
    num_classes, in_channels:
        Task shape.
    rng:
        Generator for deterministic initialisation.
    """

    def __init__(
        self,
        stage_blocks: Sequence[int] = (2, 2, 2, 2),
        base_channels: int = 64,
        num_classes: int = 10,
        in_channels: int = 3,
        rng: Optional[np.random.Generator] = None,
        norm: str = "batch",
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.stem = Sequential(
            Conv2d(in_channels, base_channels, 3, stride=1, padding=1, bias=False, rng=rng),
            make_norm(norm, base_channels),
            ReLU(),
        )
        stages = []
        channels = base_channels
        in_ch = base_channels
        for stage_index, blocks in enumerate(stage_blocks):
            stride = 1 if stage_index == 0 else 2
            for block_index in range(blocks):
                stages.append(
                    BasicBlock(
                        in_ch,
                        channels,
                        stride=stride if block_index == 0 else 1,
                        rng=rng,
                        norm=norm,
                    )
                )
                in_ch = channels
            channels *= 2
        self.stages = Sequential(*stages)
        self.pool = GlobalAvgPool2d()
        self.fc = Linear(in_ch, num_classes, rng=rng)
        self.num_classes = num_classes

    def forward(self, x: Tensor) -> Tensor:
        out = self.stem(x)
        out = self.stages(out)
        out = self.pool(out)
        return self.fc(out)


def resnet18(
    num_classes: int = 10,
    in_channels: int = 3,
    rng: Optional[np.random.Generator] = None,
) -> ResNet:
    """The paper's ResNet-18 (CIFAR stem, ~11M parameters at width 64)."""
    return ResNet((2, 2, 2, 2), 64, num_classes, in_channels, rng)


def resnet_mini(
    num_classes: int = 10,
    in_channels: int = 3,
    base_channels: int = 8,
    rng: Optional[np.random.Generator] = None,
    norm: str = "batch",
) -> ResNet:
    """Topology-faithful small ResNet (two stages) for 8–16 px inputs."""
    return ResNet((1, 1), base_channels, num_classes, in_channels, rng, norm)
