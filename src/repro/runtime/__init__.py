"""Runtime assembly: configuration and the FaaSCluster facade."""

from .. import _lazy_exports

_EXPORTS = {
    "DEFAULT_STREAMING_COMPACT_KEEP": ".config",
    "SystemConfig": ".config",
    "FaaSCluster": ".system",
    "streaming_config": ".config",
}

__all__ = [*_EXPORTS]
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
