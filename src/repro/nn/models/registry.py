"""Name-based model registry used by experiment configurations.

Experiment configs refer to models by string (e.g. ``"resnet_mini"``) so
runs are fully describable by plain data; the registry maps those names to
builder callables.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

from repro.nn.module import Module

# repro: allow[fork-module-state] populated once at import, read-only after
_REGISTRY: Dict[str, Callable[..., Module]] = {}


def build_model(name: str, **kwargs) -> Module:
    """Instantiate a registered model by name."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown model {name!r}; available: {sorted(_REGISTRY)}")
    return _REGISTRY[name](**kwargs)


def available_models() -> List[str]:
    return sorted(_REGISTRY)


def _populate_defaults() -> None:
    # Imported lazily to avoid a registration cycle at package import.
    from repro.nn.models.mlp import MLP
    from repro.nn.models.simple_cnn import SimpleCNN
    from repro.nn.models.resnet import resnet18, resnet_mini
    from repro.nn.models.vgg import vgg11, vgg16, vgg_mini

    defaults = {
        "mlp": lambda num_classes=10, in_features=48, rng=None, **kw: MLP(
            in_features=in_features, num_classes=num_classes, rng=rng, **kw
        ),
        "simple_cnn": SimpleCNN,
        "resnet18": resnet18,
        "resnet_mini": resnet_mini,
        "vgg11": vgg11,
        "vgg16": vgg16,
        "vgg_mini": vgg_mini,
    }
    _REGISTRY.update(defaults)


_populate_defaults()
