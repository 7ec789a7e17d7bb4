"""NumPy CNN inference engine (forward pass only)."""

from .factory import FAMILY_SPECS, available_architectures, build_model
from .layers import (
    BatchNorm2D,
    Conv2D,
    Flatten,
    GlobalAvgPool,
    Layer,
    Linear,
    MaxPool2D,
    ReLU,
    Softmax,
    im2col,
)
from .network import Network

__all__ = [
    "FAMILY_SPECS",
    "available_architectures",
    "build_model",
    "BatchNorm2D",
    "Conv2D",
    "Flatten",
    "GlobalAvgPool",
    "Layer",
    "Linear",
    "MaxPool2D",
    "ReLU",
    "Softmax",
    "im2col",
    "Network",
]
