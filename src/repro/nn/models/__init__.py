"""Model zoo: the paper's two CNNs (ResNet-18, VGG-16) + small variants.

``resnet18``/``vgg16`` reproduce the architectures evaluated in the paper
(CIFAR-style stems).  ``resnet_mini``/``vgg_mini``/``SimpleCNN``/``MLP``
are width/depth-reduced builds for the pure-NumPy substrate, used by the
test suite and default benchmark configurations: full-size models train
too slowly on a pure-NumPy substrate for either.
"""

from repro.nn.models.mlp import MLP
from repro.nn.models.simple_cnn import SimpleCNN
from repro.nn.models.resnet import BasicBlock, ResNet, resnet18, resnet_mini
from repro.nn.models.vgg import VGG, vgg11, vgg16, vgg_mini
from repro.nn.models.registry import build_model, available_models

__all__ = [
    "MLP",
    "SimpleCNN",
    "BasicBlock",
    "ResNet",
    "resnet18",
    "resnet_mini",
    "VGG",
    "vgg11",
    "vgg16",
    "vgg_mini",
    "build_model",
    "available_models",
]
