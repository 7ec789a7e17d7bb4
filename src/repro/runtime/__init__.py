"""Runtime assembly: configuration and the FaaSCluster facade."""

from .config import (
    DEFAULT_STREAMING_COMPACT_KEEP,
    SystemConfig,
    streaming_config,
)
from .system import FaaSCluster

__all__ = [
    "DEFAULT_STREAMING_COMPACT_KEEP",
    "SystemConfig",
    "FaaSCluster",
    "streaming_config",
]
