"""Discrete-event simulation kernel (clock, events, timers)."""

from .. import _lazy_exports

_EXPORTS = {
    "Event": ".engine",
    "SimError": ".engine",
    "Simulator": ".engine",
    "PeriodicTimer": ".resources",
}

__all__ = [*_EXPORTS]
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
