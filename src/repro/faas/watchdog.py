"""The Watchdog: per-container function supervisor.

§II-A: "The Watchdog receives the invocation request from the Gateway,
executes the function with the given input, returns the response from the
function to the Gateway, and stores the status and metrics of the function
invocation, such as execution latency, to Datastore."

For GPU-enabled inference functions the execution step is: run the
function's ``preprocess`` on the container, call the intercepted model
handle (which routes through Scheduler → GPU Manager), then ``postprocess``
and respond.  Plain functions run their handler for a simulated CPU time.

GPU-backend liveness
--------------------
The per-container Watchdog above supervises *functions*; the GPU
*backends* are supervised by the lease-backed :class:`HealthWatchdog`
(re-exported here from :mod:`repro.chaos.health`, where it lives to stay
clear of the faas ↔ runtime import cycle).  Historically a GPU Manager's
expired lease only deleted its Datastore keys — the Scheduler kept
dispatching to the dead backend.  The health watchdog closes that gap:
each GPU's ``gpu/health/<gpu_id>`` key rides a TTL lease refreshed by a
heartbeat loop, and a lease *expiry* (missed heartbeats) now escalates
through ``FaaSCluster.fail_gpu`` — the GPU is marked unschedulable, its
in-flight and locally-queued work is re-queued, and its cache locations
are withdrawn — then self-heals via ``recover_gpu`` when heartbeats
resume.  ``FaaSCluster`` builds it automatically whenever a fault plan is
active (``SystemConfig(fault_profile=...)``).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from ..chaos.health import HealthWatchdog
from ..datastore.client import Datastore
from ..sim import Simulator
from .container import Container
from .interceptor import GPUModelHandle
from .spec import FunctionSpec

__all__ = ["Invocation", "InvocationStatus", "Watchdog", "HealthWatchdog"]


class InvocationStatus(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"


@dataclass
class Invocation:
    """One end-user call of a function through the Gateway."""

    function: str
    payload: Any
    submitted_at: float
    #: minted by the Gateway that accepted the call
    invocation_id: int
    status: InvocationStatus = InvocationStatus.PENDING
    response: Any = None
    error: str | None = None
    completed_at: float | None = None
    on_response: Callable[["Invocation"], None] | None = None

    @property
    def latency(self) -> float:
        if self.completed_at is None:
            raise RuntimeError(f"invocation {self.invocation_id} has not completed")
        return self.completed_at - self.submitted_at

    def _finish(self, status: InvocationStatus, now: float) -> None:
        self.status = status
        self.completed_at = now
        if self.on_response is not None:
            self.on_response(self)


class Watchdog:
    """Executes invocations on one function's containers."""

    def __init__(
        self,
        sim: Simulator,
        spec: FunctionSpec,
        *,
        datastore: Datastore,
        model_handle: GPUModelHandle | None = None,
    ) -> None:
        if spec.is_inference and model_handle is None:
            raise ValueError(f"{spec.name}: inference functions need a model handle")
        self.sim = sim
        self.spec = spec
        self.datastore = datastore
        self.model_handle = model_handle
        self.completed = 0
        self.failed = 0
        #: bounded textual log, like `faas-cli logs <fn>`
        self._logs: deque[str] = deque(maxlen=1000)

    def log(self, message: str) -> None:
        self._logs.append(f"[{self.sim.now:10.3f}] {self.spec.name}: {message}")

    def logs(self, tail: int | None = None) -> list[str]:
        lines = list(self._logs)
        return lines if tail is None else lines[-tail:]

    # ------------------------------------------------------------------
    def handle(self, invocation: Invocation, container: Container) -> None:
        """Run ``invocation`` on ``container`` (which must be warm)."""
        container.acquire()
        invocation.status = InvocationStatus.RUNNING
        self.log(f"invocation {invocation.invocation_id} started on {container.container_id}")
        if self.spec.is_inference:
            self.sim.schedule(
                self.spec.handler_time_s, self._run_inference, invocation, container
            )
        else:
            self.sim.schedule(
                self.spec.handler_time_s, self._run_plain, invocation, container
            )

    # ------------------------------------------------------------------
    def _run_inference(self, invocation: Invocation, container: Container) -> None:
        batch = invocation.payload
        if self.spec.preprocess is not None:
            try:
                batch = self.spec.preprocess(batch)
            except Exception as exc:  # noqa: BLE001 - function errors are data
                self._fail(invocation, container, f"preprocess: {exc}")
                return
        assert self.model_handle is not None

        def _on_result(request) -> None:
            response = request.result
            if self.spec.postprocess is not None:
                try:
                    response = self.spec.postprocess(request.result)
                except Exception as exc:  # noqa: BLE001
                    self._fail(invocation, container, f"postprocess: {exc}")
                    return
            self._succeed(invocation, container, response)

        self.model_handle(
            batch,
            batch_size=self.spec.batch_size,
            on_result=_on_result,
        )

    def _run_plain(self, invocation: Invocation, container: Container) -> None:
        if self.spec.handler is None:
            self._fail(invocation, container, "no handler registered")
            return
        try:
            response = self.spec.handler(invocation.payload)
        except Exception as exc:  # noqa: BLE001
            self._fail(invocation, container, str(exc))
            return
        self._succeed(invocation, container, response)

    # ------------------------------------------------------------------
    def _succeed(self, invocation: Invocation, container: Container, response: Any) -> None:
        container.release()
        invocation.response = response
        invocation._finish(InvocationStatus.SUCCEEDED, self.sim.now)
        self.completed += 1
        self.log(
            f"invocation {invocation.invocation_id} succeeded "
            f"({invocation.latency:.3f}s)"
        )
        self._record(invocation, container)

    def _fail(self, invocation: Invocation, container: Container, error: str) -> None:
        container.release()
        invocation.error = error
        invocation._finish(InvocationStatus.FAILED, self.sim.now)
        self.failed += 1
        self.log(f"invocation {invocation.invocation_id} FAILED: {error}")
        self._record(invocation, container)

    def _record(self, invocation: Invocation, container: Container) -> None:
        # runs inside a simulator event: this put rides the invocation-completion action's single transaction
        # (one live key per function, the latest invocation wins: MVCC history keeps the earlier ones)
        self.datastore.put(
            f"fn/metrics/{self.spec.name}",
            {
                "invocation": invocation.invocation_id,
                "status": invocation.status.value,
                "latency_s": invocation.latency,
                "container": container.container_id,
                "error": invocation.error,
            },
        )
