"""GPU processes: long-lived model hosts.

The paper's GPU Manager runs one GPU process per model (§III-C, §VI): the
process uploads its model when it starts and then serves inference requests
for that model until the Cache Manager evicts the model, at which point the
GPU Manager kills the process.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .gpu import GPUDevice

__all__ = ["ProcessState", "GPUProcess"]


class ProcessState(enum.Enum):
    """Lifecycle of a GPU process."""

    STARTING = "starting"  # spawned; model upload in flight
    READY = "ready"        # model resident; waiting for inputs
    RUNNING = "running"    # executing an inference batch
    KILLED = "killed"      # evicted; memory released


@dataclass(slots=True)
class GPUProcess:
    """A process pinned to one model instance on one GPU.

    Attributes
    ----------
    model_instance:
        Cache-item identity (a unique deployed function's model).  Two
        functions that happen to use the same architecture still get
        distinct processes and distinct cache items (DESIGN.md §5.2).
    occupied_mb:
        GPU memory held while alive — the Table I "occupation size", i.e.
        weights + activations head-room for the fixed batch size of 32.
    """

    model_instance: str
    occupied_mb: float
    gpu_id: str
    state: ProcessState = ProcessState.STARTING
    started_at: float = 0.0
    ready_at: float | None = None
    killed_at: float | None = None
    served_requests: int = 0

    def mark_ready(self, now: float) -> None:
        if self.state is not ProcessState.STARTING:
            raise RuntimeError(f"{self.model_instance} on {self.gpu_id} cannot become ready from {self.state}")
        self.state = ProcessState.READY
        self.ready_at = now

    def mark_running(self) -> None:
        if self.state is not ProcessState.READY:
            raise RuntimeError(f"{self.model_instance} on {self.gpu_id} cannot run from {self.state}")
        self.state = ProcessState.RUNNING

    def mark_done(self) -> None:
        if self.state is not ProcessState.RUNNING:
            raise RuntimeError(f"{self.model_instance} on {self.gpu_id} is not running")
        self.state = ProcessState.READY
        self.served_requests += 1

    def kill(self, now: float) -> None:
        if self.state is ProcessState.KILLED:
            return
        self.state = ProcessState.KILLED
        self.killed_at = now

    @property
    def alive(self) -> bool:
        return self.state is not ProcessState.KILLED
