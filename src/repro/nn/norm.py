"""Normalisation layers: BatchNorm2d and GroupNorm.

BatchNorm is what the paper's ResNet/VGG use; GroupNorm is provided for
the non-IID extension — batch statistics computed on label-skewed local
shards diverge across federated devices (a well-known FL failure mode),
whereas GroupNorm normalises per sample and carries no running buffers
to aggregate.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor, standardize
from repro.nn.module import Module, Parameter


class BatchNorm2d(Module):
    """BatchNorm over (N, H, W) per channel, with running-stat buffers.

    Training mode normalises with batch statistics (the backward pass
    flows through them inside the fused ``standardize`` node); eval mode
    uses the exponential running estimates.  Running stats are registered as
    buffers, so federated aggregation averages them alongside weights —
    the behaviour FedAvg implementations adopt for BN models.
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(np.ones(num_features), name="weight")
        self.bias = Parameter(np.zeros(num_features), name="bias")
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects NCHW input, got shape {x.shape}")
        c = self.num_features
        if self.training:
            x_hat, mu, var = standardize(x, (0, 2, 3), self.eps)
            m = self.momentum
            self.set_buffer(
                "running_mean",
                (1 - m) * self._buffers["running_mean"] + m * mu.reshape(c),
            )
            # PyTorch stores the *unbiased* variance in running_var.
            count = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]
            correction = count / max(count - 1, 1)
            self.set_buffer(
                "running_var",
                (1 - m) * self._buffers["running_var"]
                + m * var.reshape(c) * correction,
            )
        else:
            mean = self._buffers["running_mean"].reshape(1, c, 1, 1)
            var = self._buffers["running_var"].reshape(1, c, 1, 1)
            x_hat = (x - Tensor(mean)) * Tensor(1.0 / np.sqrt(var + self.eps))
        gamma = self.weight.reshape(1, c, 1, 1)
        beta = self.bias.reshape(1, c, 1, 1)
        return gamma * x_hat + beta

    def __repr__(self) -> str:
        return f"BatchNorm2d({self.num_features})"


class GroupNorm(Module):
    """Group normalisation (Wu & He, 2018) over NCHW inputs.

    Channels are split into ``num_groups``; each sample's statistics are
    computed per group over (channels/groups, H, W).  Batch-size- and
    data-distribution-independent: the federated-friendly normaliser.
    """

    def __init__(self, num_groups: int, num_channels: int, eps: float = 1e-5):
        super().__init__()
        if num_groups < 1:
            raise ValueError(f"num_groups must be >= 1, got {num_groups}")
        if num_channels % num_groups:
            raise ValueError(
                f"num_channels ({num_channels}) must be divisible by "
                f"num_groups ({num_groups})"
            )
        self.num_groups = num_groups
        self.num_channels = num_channels
        self.eps = eps
        self.weight = Parameter(np.ones(num_channels), name="weight")
        self.bias = Parameter(np.zeros(num_channels), name="bias")

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"GroupNorm expects NCHW input, got shape {x.shape}")
        n, c, h, w = x.shape
        if c != self.num_channels:
            raise ValueError(
                f"expected {self.num_channels} channels, got {c}"
            )
        grouped = x.reshape(n, self.num_groups, (c // self.num_groups) * h * w)
        x_hat = standardize(grouped, (2,), self.eps)[0].reshape(n, c, h, w)
        gamma = self.weight.reshape(1, c, 1, 1)
        beta = self.bias.reshape(1, c, 1, 1)
        return gamma * x_hat + beta

    def __repr__(self) -> str:
        return f"GroupNorm({self.num_groups}, {self.num_channels})"


def make_norm(kind: str, channels: int) -> Module:
    """Factory used by the model builders: ``"batch"`` or ``"group"``.

    Group count follows the common convention min(8, channels) clipped to
    a divisor of the channel count.
    """
    if kind == "batch":
        return BatchNorm2d(channels)
    if kind == "group":
        groups = min(8, channels)
        while channels % groups:
            groups -= 1
        return GroupNorm(groups, channels)
    raise ValueError(f"unknown norm kind {kind!r}; use 'batch' or 'group'")
