"""Simulation-time primitives shared by the FaaS components.

Deliberately simple: a periodic timer, used by the autoscaler and the
metric samplers.  GPU SM-utilization accounting (paper §V-C) lives on the
device itself (:class:`~repro.cluster.gpu.GPUDevice`), the one owner of a
GPU's state.
"""

from __future__ import annotations

from typing import Any, Callable

from .engine import Event, Simulator

__all__ = ["PeriodicTimer"]


class PeriodicTimer:
    """Calls ``fn()`` every ``period`` seconds of simulated time."""

    def __init__(self, sim: Simulator, period: float, fn: Callable[[], Any]) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        self._sim = sim
        self._period = period
        self._fn = fn
        self._event: Event | None = None
        self._stopped = True

    def start(self) -> None:
        if not self._stopped:
            return
        self._stopped = False
        self._event = self._sim.schedule(self._period, self._tick)

    def stop(self) -> None:
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _tick(self) -> None:
        if self._stopped:
            return
        self._fn()
        self._event = self._sim.schedule(self._period, self._tick)
