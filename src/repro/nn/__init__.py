"""Neural-network layers and models on top of :mod:`repro.autograd`.

The public surface mirrors a small subset of ``torch.nn`` so the HADFL
training code reads naturally to anyone familiar with the paper's PyTorch
setting: ``Module``, ``Linear``, ``Conv2d``, ``BatchNorm2d``, pooling,
``Sequential``, cross-entropy loss, and a model zoo with the paper's two
architectures (ResNet-18, VGG-16) plus scaled-down variants.
"""

from repro.nn.module import Module, Parameter
from repro.nn.layers import (
    Dropout,
    Flatten,
    Identity,
    Linear,
    ReLU,
    Sequential,
)
from repro.nn.conv import Conv2d
from repro.nn.norm import BatchNorm2d, GroupNorm, make_norm
from repro.nn.pooling import GlobalAvgPool2d, MaxPool2d
from repro.nn.losses import CrossEntropyLoss, accuracy
from repro.nn import init, models

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "ReLU",
    "Dropout",
    "Flatten",
    "Identity",
    "Sequential",
    "Conv2d",
    "BatchNorm2d",
    "GroupNorm",
    "make_norm",
    "MaxPool2d",
    "GlobalAvgPool2d",
    "CrossEntropyLoss",
    "accuracy",
    "init",
    "models",
]
