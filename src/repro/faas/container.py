"""Function containers: build, cold start, warm replicas.

The FaaS platform "builds the function by creating a running container that
installs the required resources written in the template" (§II-A).  We model
the build once per function and a per-replica cold start; the autoscaler
grows and shrinks the warm replica pool.
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable

from ..sim import Simulator
from .spec import FunctionSpec

__all__ = ["ContainerState", "Container", "ContainerPool", "DEFAULT_COLD_START_S"]

#: replica cold-start latency (image pull + container create + watchdog boot)
DEFAULT_COLD_START_S = 0.5
#: one-time image build latency at registration
DEFAULT_BUILD_S = 2.0

_container_ids = itertools.count(1)


class ContainerState(enum.Enum):
    STARTING = "starting"
    IDLE = "idle"        # warm, ready for an invocation
    BUSY = "busy"        # running the function handler
    STOPPED = "stopped"


class Container:
    """One replica of a function's container."""

    def __init__(self, sim: Simulator, spec: FunctionSpec) -> None:
        self.sim = sim
        self.spec = spec
        self.container_id = f"{spec.name}-{next(_container_ids)}"
        self.state = ContainerState.STARTING
        self.started_at = sim.now
        self.handled = 0

    def mark_ready(self) -> None:
        if self.state is not ContainerState.STARTING:
            raise RuntimeError(f"{self.container_id} cannot become ready from {self.state}")
        self.state = ContainerState.IDLE

    def acquire(self) -> None:
        if self.state is not ContainerState.IDLE:
            raise RuntimeError(f"{self.container_id} is not idle")
        self.state = ContainerState.BUSY

    def release(self) -> None:
        if self.state is not ContainerState.BUSY:
            raise RuntimeError(f"{self.container_id} is not busy")
        self.state = ContainerState.IDLE
        self.handled += 1

    def stop(self) -> None:
        self.state = ContainerState.STOPPED


class ContainerPool:
    """All replicas of one function, with cold-start dynamics."""

    def __init__(
        self,
        sim: Simulator,
        spec: FunctionSpec,
        *,
        cold_start_s: float = DEFAULT_COLD_START_S,
        build_s: float = DEFAULT_BUILD_S,
    ) -> None:
        self.sim = sim
        self.spec = spec
        self.cold_start_s = cold_start_s
        self.build_s = build_s
        self.containers: list[Container] = []
        self.built = False
        self._build_done_at: float | None = None
        self._waiters: list[Callable[[Container], None]] = []

    # ------------------------------------------------------------------
    def build(self, on_done: Callable[[], None] | None = None) -> None:
        """One-time image build; replicas can only start afterwards."""
        if self.built:
            if on_done:
                on_done()
            return

        def _done() -> None:
            self.built = True
            self._build_done_at = self.sim.now
            if on_done:
                on_done()

        self.sim.schedule(self.build_s, _done)

    def scale_to(self, replicas: int) -> None:
        """Start or stop replicas toward the target count."""
        if replicas < 0:
            raise ValueError("replicas cannot be negative")
        if not self.built:
            raise RuntimeError(f"{self.spec.name}: build the image before scaling")
        replicas = max(self.spec.min_replicas, min(replicas, self.spec.max_replicas))
        alive = [c for c in self.containers if c.state is not ContainerState.STOPPED]
        if len(alive) < replicas:
            for _ in range(replicas - len(alive)):
                self._start_one()
        elif len(alive) > replicas:
            # stop idle replicas first; never kill a busy one
            for c in alive:
                if len(alive) <= replicas:
                    break
                if c.state is ContainerState.IDLE:
                    c.stop()
                    alive.remove(c)

    def _start_one(self) -> Container:
        c = Container(self.sim, self.spec)
        self.containers.append(c)

        def _ready() -> None:
            c.mark_ready()
            # serve any invocation that was waiting for a warm replica
            while self._waiters and c.state is ContainerState.IDLE:
                waiter = self._waiters.pop(0)
                waiter(c)

        self.sim.schedule(self.cold_start_s, _ready)
        return c

    # ------------------------------------------------------------------
    def acquire(self, on_ready: Callable[[Container], None]) -> None:
        """Hand an idle replica to ``on_ready``, cold-starting if needed."""
        for c in self.containers:
            if c.state is ContainerState.IDLE:
                on_ready(c)
                return
        self._waiters.append(on_ready)
        starting = sum(1 for c in self.containers if c.state is ContainerState.STARTING)
        if len(self._waiters) > starting:
            self._start_one()

    # ------------------------------------------------------------------
    def replica_count(self) -> int:
        return sum(1 for c in self.containers if c.state is not ContainerState.STOPPED)

    def idle_count(self) -> int:
        return sum(1 for c in self.containers if c.state is ContainerState.IDLE)
