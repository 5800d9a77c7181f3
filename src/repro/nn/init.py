"""Weight initialisation schemes (Kaiming / constants).

All initialisers take an explicit ``rng`` so that model construction is
fully deterministic given a seed — a requirement for the federated
experiments, where every device must start from the *same* initial model
(HADFL workflow step 1: "synchronize the initial models w_k = w(0)").
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def _fan_in(shape: Tuple[int, ...]) -> int:
    if len(shape) == 2:  # Linear: (out, in)
        return shape[1]
    if len(shape) == 4:  # Conv2d: (out, in, kh, kw)
        return shape[1] * (shape[2] * shape[3])
    return int(np.prod(shape))


def kaiming_normal(
    shape: Tuple[int, ...], rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """He initialisation for ReLU networks: N(0, sqrt(2/fan_in))."""
    rng = rng or np.random.default_rng()
    fan_in = _fan_in(shape)
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape)


def kaiming_uniform(
    shape: Tuple[int, ...], rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    rng = rng or np.random.default_rng()
    fan_in = _fan_in(shape)
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape)


def ones(shape: Tuple[int, ...]) -> np.ndarray:
    return np.ones(shape)
