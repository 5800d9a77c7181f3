"""Multi-layer perceptron, the fastest model for CI-scale experiments."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.autograd import Tensor
from repro.nn.layers import Linear, ReLU, Sequential
from repro.nn.module import Module


class MLP(Module):
    """Fully-connected ReLU network.

    Parameters
    ----------
    in_features:
        Flattened input dimensionality (images are flattened internally).
    hidden:
        Sizes of the hidden layers; may be empty for a linear model.
    num_classes:
        Output dimensionality (logits).
    rng:
        Generator for deterministic initialisation.
    """

    def __init__(
        self,
        in_features: int,
        hidden: Sequence[int] = (64, 64),
        num_classes: int = 10,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        layers = []
        previous = in_features
        for width in hidden:
            layers.append(Linear(previous, width, rng=rng))
            layers.append(ReLU())
            previous = width
        layers.append(Linear(previous, num_classes, rng=rng))
        self.net = Sequential(*layers)
        self.in_features = in_features
        self.num_classes = num_classes

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim > 2:
            x = x.flatten_batch()
        return self.net(x)
