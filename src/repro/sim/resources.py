"""Simulation-time primitives shared by the FaaS components.

These are deliberately simple: a periodic timer (used by the autoscaler and
metric samplers) and a busy-interval tracker (used for GPU SM-utilization
accounting, paper §V-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from .engine import Event, Simulator

__all__ = ["PeriodicTimer", "IntervalAccumulator"]


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


@dataclass(slots=True)
class IntervalAccumulator:
    """Accumulates time spent in named states.

    Used to account for the fraction of wall time a GPU spends in
    inference (SM busy), loading (PCIe busy, SM idle), and idle.  States
    are arbitrary hashable labels; the GPU device passes its state enum's
    interned *value strings* (read via ``_value_`` — both ``Enum.value``
    and ``Enum.__hash__`` are Python-level and showed up on the
    per-transition path).  The current state is open-ended until
    :meth:`switch` or :meth:`close`.
    """

    sim: Simulator
    state: Any = "idle"
    totals: dict[Any, float] = field(default_factory=dict)
    _since: float = 0.0
    _started: bool = False

    def start(self, state: str = "idle") -> None:
        self.state = state
        self._since = self.sim.now
        self._started = True

    def switch(self, state: str) -> None:
        """Close the current state interval and open a new one."""
        if not self._started:
            self.start(state)
            return
        now = self.sim._now  # hot path: one read, no property call
        elapsed = now - self._since
        if elapsed > 0:
            self.totals[self.state] = self.totals.get(self.state, 0.0) + elapsed
        self.state = state
        self._since = now

    def close(self) -> dict[str, float]:
        """Finalize the open interval and return a copy of the totals."""
        if self._started:
            self.switch(self.state)
        return dict(self.totals)

    def total(self, state: str, *, include_open: bool = True) -> float:
        """Total time spent in ``state`` so far."""
        t = self.totals.get(state, 0.0)
        if include_open and self._started and self.state == state:
            t += self.sim.now - self._since
        return t

    def fraction(self, state: str, horizon: float | None = None) -> float:
        """Fraction of elapsed time (or ``horizon``) spent in ``state``."""
        elapsed = horizon if horizon is not None else self.sim.now
        if elapsed <= 0:
            return 0.0
        return self.total(state) / elapsed
