"""Timeline sampling: time-series views of a running experiment.

The paper's figures report end-of-run aggregates; operators of the real
system also need the *evolution* — queue depths, instantaneous GPU states,
per-interval cache hit rates.  :class:`TimelineProbe` rides the
simulator's post-event hook and records one row whenever the clock crosses
a period boundary, injecting **no events of its own**.  A probed run's
event stream — and therefore its DecisionLog, metrics, and final clock —
is identical to an unprobed one, and a drain-to-empty ``run()`` still
terminates (a :class:`~repro.sim.PeriodicTimer` would reschedule itself
forever).  Each snapshot reads the collector's running counters, so it is
O(GPUs).  The sweep orchestrator (:mod:`repro.experiments.sweep`) persists
one probe matrix per cell.

Memory stays **bounded** when asked: pass ``max_samples`` (an even
budget) and, whenever the row count hits it, the series is decimated —
every other row is dropped and the sampling period doubles, so the kept
rows still sit exactly on the (new, coarser) period boundaries.  A run of
any length then holds between ``max_samples/2`` and ``max_samples`` rows,
trading resolution for flat RSS — the timeline analogue of the metrics
collector's histogram fold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster.gpu import GPUState

__all__ = ["TimelineSample", "TimelineProbe", "TIMELINE_FIELDS"]

#: public row schema of :class:`TimelineProbe` (persisted per cell by the
#: sweep store)
TIMELINE_FIELDS = (
    "time_s",
    "global_queue_depth",
    "local_queue_depth",
    "gpus_idle",
    "gpus_loading",
    "gpus_inferring",
    "completed_requests",
    "cumulative_misses",
)


def _capture_row(system, time_s: float) -> tuple:
    """One :data:`TIMELINE_FIELDS` row, stamped at ``time_s``."""
    idle = loading = inferring = 0
    for g in system.cluster.gpus:
        state = g.state
        if state is GPUState.IDLE:
            idle += 1
        elif state is GPUState.LOADING:
            loading += 1
        elif state is GPUState.INFERRING:
            inferring += 1
    metrics = system.metrics
    return (
        time_s,
        len(system.scheduler.global_queue),
        system.scheduler.local_queues.total(),
        idle,
        loading,
        inferring,
        metrics.completed_count,   # running counters: O(1) instead of
        metrics.miss_count,        # rescanning the completed list
    )


@dataclass(frozen=True)
class TimelineSample:
    """One snapshot of system state."""

    time_s: float
    global_queue_depth: int
    local_queue_depth: int
    gpus_idle: int
    gpus_loading: int
    gpus_inferring: int
    completed_requests: int
    cumulative_misses: int


class TimelineProbe:
    """Event-driven timeline sampler that perturbs nothing.

    Registered on the simulator's post-event hook: after every event the
    probe checks whether the clock crossed one or more period boundaries
    and, if so, records one row per boundary (stamped at the boundary time,
    reading the state at the first event at-or-after it).  Because no sim
    events are injected, the probed run is bit-identical to an unprobed
    one — which is what lets the sweep orchestrator persist a timeline
    matrix for every cell while still guaranteeing byte-identical
    summaries between probed (sweep) and direct (:func:`~repro.
    experiments.runner.run_experiment`) execution.

    The row schema is :data:`TIMELINE_FIELDS`.
    """

    def __init__(
        self, system, *, period_s: float = 5.0, max_samples: int | None = None
    ) -> None:
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        self.system = system
        self.period_s = period_s
        if max_samples is not None and (max_samples < 2 or max_samples % 2):
            raise ValueError("max_samples must be an even number >= 2")
        self.max_samples = max_samples
        self._rows: list[tuple] = []
        self._next = system.sim.now + period_s
        self._unsubscribe = system.sim.subscribe_post_event(self._on_event)

    def _on_event(self) -> None:
        now = self.system.sim.now
        while now >= self._next:
            self._rows.append(_capture_row(self.system, self._next))
            self._next += self.period_s
            if self.max_samples is not None and len(self._rows) == self.max_samples:
                # row k is at boundary (k+1)·period, so odd indices are
                # the even multiples — the boundaries of the doubled period
                self._rows = self._rows[1::2]
                self.period_s *= 2.0
                self._next = self._rows[-1][0] + self.period_s

    def stop(self) -> None:
        """Detach from the simulator (idempotent)."""
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def fields(self) -> tuple[str, ...]:
        return TIMELINE_FIELDS

    @property
    def samples(self) -> list[TimelineSample]:
        """Snapshots as objects, for drill-down."""
        return [TimelineSample(*row) for row in self._rows]

    def matrix(self) -> list[list[float]]:
        """Rows as plain floats (JSON-ready; one list per sample)."""
        return [[float(v) for v in row] for row in self._rows]

    def to_numpy(self) -> np.ndarray:
        """Rows as one ``(samples, fields)`` float64 matrix."""
        if not self._rows:
            return np.empty((0, len(TIMELINE_FIELDS)), dtype=np.float64)
        return np.asarray(self._rows, dtype=np.float64)
