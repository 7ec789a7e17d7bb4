"""A per-state interval accumulator: the reference for a GPU's SM time.

:class:`~repro.cluster.gpu.GPUDevice` keeps its own per-state seconds,
closed in line on every transition.  This is the same bookkeeping written
as a general state-interval tracker; ``tests/cluster/
test_cluster_state_properties.py`` switches one alongside every device and
requires ``GPUDevice.time_in`` to equal :meth:`IntervalAccumulator.total`
for every state after every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.sim import Simulator

__all__ = ["IntervalAccumulator"]


@dataclass(slots=True)
class IntervalAccumulator:
    """Accumulates time spent in named states.

    States are arbitrary hashable labels.  The current state is
    open-ended until :meth:`switch` or :meth:`close`.
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
        now = self.sim.now
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
