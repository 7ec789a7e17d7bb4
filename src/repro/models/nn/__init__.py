"""NumPy CNN inference engine (forward pass only)."""

from ... import _lazy_exports

_EXPORTS = {
    "FAMILY_SPECS": ".factory",
    "available_architectures": ".factory",
    "build_model": ".factory",
    "BatchNorm2D": ".layers",
    "Conv2D": ".layers",
    "Flatten": ".layers",
    "GlobalAvgPool": ".layers",
    "Layer": ".layers",
    "Linear": ".layers",
    "MaxPool2D": ".layers",
    "ReLU": ".layers",
    "Softmax": ".layers",
    "im2col": ".layers",
    "Network": ".network",
}

__all__ = [*_EXPORTS]
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
