"""Builders for miniature versions of the Table I architectures.

The paper's workload uses 22 torchvision CNNs.  We cannot ship torchvision,
so each Table I name maps to a miniature sequential CNN whose *relative*
depth/width mirrors the family (squeezenet light → vgg19 heavy).  The nets
actually run — examples classify synthetic images with them, and the
wall-clock profiler measures their real forward-pass latencies.
"""

from __future__ import annotations

import numpy as np

from .layers import (
    BatchNorm2D,
    Conv2D,
    Flatten,
    GlobalAvgPool,
    Linear,
    MaxPool2D,
    ReLU,
)
from .network import Network

__all__ = [
    "build_model",
    "FAMILY_SPECS",
    "available_architectures",
]

#: (base_width, num_blocks, use_batchnorm) per Table I architecture.  Width
#: and depth grow with the family's real size so relative compute ranks the
#: same way the real models do.
FAMILY_SPECS: dict[str, tuple[int, int, bool]] = {
    "squeezenet1.1": (8, 2, False),
    "resnet18": (8, 3, True),
    "resnet34": (10, 3, True),
    "squeezenet1.0": (10, 2, False),
    "alexnet": (12, 2, False),
    "resnext50.32x4d": (12, 3, True),
    "densenet121": (12, 4, True),
    "densenet169": (14, 4, True),
    "densenet201": (14, 5, True),
    "resnet50": (16, 3, True),
    "resnet101": (16, 4, True),
    "resnet152": (16, 5, True),
    "densenet161": (18, 4, True),
    "inception.v3": (20, 4, True),
    "resnext101.32x8d": (20, 5, True),
    "vgg11": (24, 3, False),
    "wideresnet502": (28, 3, True),
    "wideresnet1012": (28, 4, True),
    "vgg13": (28, 4, False),
    "vgg16": (32, 4, False),
    "vgg16.bn": (32, 4, True),
    "vgg19": (32, 5, False),
}


def available_architectures() -> list[str]:
    return list(FAMILY_SPECS)


def build_model(
    architecture: str,
    *,
    num_classes: int = 10,
    in_channels: int = 3,
    input_size: int = 32,
    seed: int = 0,
) -> Network:
    """Build the miniature network for a Table I architecture name.

    Weights are random but deterministic in ``seed`` — inference output is
    meaningless semantically (like any untrained net) but fully reproducible,
    which is what the scheduling experiments need.  ``input_size`` is the
    expected spatial resolution; down-sampling stops once feature maps reach
    1×1 so deep families still accept small (e.g. 28×28 MNIST) inputs.
    """
    if architecture not in FAMILY_SPECS:
        raise KeyError(
            f"unknown architecture {architecture!r}; known: {sorted(FAMILY_SPECS)}"
        )
    if input_size < 1:
        raise ValueError("input_size must be positive")
    width, blocks, use_bn = FAMILY_SPECS[architecture]
    rng = np.random.default_rng(seed)
    layers = []
    channels = in_channels
    size = input_size
    for b in range(blocks):
        out = width * (2**b)
        layers.append(Conv2D(channels, out, 3, padding=1, rng=rng))
        if use_bn:
            layers.append(BatchNorm2D(out))
        layers.append(ReLU())
        if size >= 2:
            layers.append(MaxPool2D(2))
            size //= 2
        channels = out
    layers.append(GlobalAvgPool())
    layers.append(Flatten())
    layers.append(Linear(channels, num_classes, rng=rng))
    return Network(architecture, layers)
