"""Core layers: Linear, activations, Dropout, Flatten, Sequential."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.autograd import Tensor, linear
from repro.nn import init
from repro.nn.module import Module, Parameter


class Linear(Module):
    """Affine map ``y = x W^T + b`` with Kaiming-uniform initialisation."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.kaiming_uniform((out_features, in_features), rng=rng), name="weight"
        )
        if bias:
            self.bias = Parameter(init.zeros((out_features,)), name="bias")
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features})"


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class LeakyReLU(Module):
    def __init__(self, negative_slope: float = 0.01):
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return x.leaky_relu(self.negative_slope)


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x


class Dropout(Module):
    """Inverted dropout; active only in training mode.

    The mask is drawn from the module's own RNG so that runs are
    reproducible given a seed and independent of global NumPy state.
    """

    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        # repro: allow[det-unseeded-rng] a fixed fallback seed would correlate dropout masks
        self._rng = rng or np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = (self._rng.random(x.shape) < keep) / keep
        return x * Tensor(mask)


class Flatten(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.flatten_batch()


class Sequential(Module):
    """Container applying child modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._order = []
        for index, module in enumerate(modules):
            name = f"m{index}"
            setattr(self, name, module)
            self._order.append(name)

    def append(self, module: Module) -> "Sequential":
        name = f"m{len(self._order)}"
        setattr(self, name, module)
        self._order.append(name)
        return self

    def __iter__(self):
        return (getattr(self, name) for name in self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, index: int) -> Module:
        return getattr(self, self._order[index])

    def forward(self, x: Tensor) -> Tensor:
        for name in self._order:
            x = getattr(self, name)(x)
        return x
