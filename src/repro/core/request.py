"""Inference requests and their lifecycle records.

An :class:`InferenceRequest` is what flows Gateway → Scheduler → GPU
Manager → response.  It carries the registered function's identity, the
model instance it needs, and the input batch; the runtime stamps every
lifecycle timestamp onto it, so the metrics layer can compute each of the
paper's evaluation quantities (latency, miss ratio, false misses) directly
from completed requests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from ..models.profiles import PAPER_BATCH_SIZE, ModelInstance

__all__ = ["RequestState", "InferenceRequest"]


class RequestState(enum.Enum):
    QUEUED = "queued"          # waiting in the global queue
    LOCAL_QUEUED = "local"     # moved to a busy GPU's local queue (Alg. 2 line 12)
    DISPATCHED = "dispatched"  # assigned to a GPU; loading or inferring
    COMPLETED = "completed"
    LOST = "lost"              # dropped: stranded in a queue when the replay drains


@dataclass(slots=True)
class InferenceRequest:
    """One function invocation that needs GPU inference.

    ``slots=True``: the runtime stamps and re-reads these fields on every
    queue move, dispatch, and completion, so attribute access is hot.
    """

    function_name: str
    model: ModelInstance
    arrival_time: float
    #: minted by the code that builds it: a workload numbers its rows 1..n,
    #: a gateway model handle draws from its system's ``request_ids``
    request_id: int
    batch_size: int = PAPER_BATCH_SIZE
    payload: Any = None
    #: relative SLA: the function should respond within this many seconds
    #: of arrival (None = best effort).  §I: production inference "have
    #: stringent latency requirements".
    sla_s: float | None = None

    # -- lifecycle stamps (filled by the runtime) -----------------------
    state: RequestState = RequestState.QUEUED
    gpu_id: str | None = None
    #: (server IP, CUDA device name) shipped with the dispatch (§III-B)
    gpu_address: tuple[str, str] | None = None
    dispatched_at: float | None = None
    exec_start_at: float | None = None
    completed_at: float | None = None

    # -- scheduling outcome ---------------------------------------------
    cache_hit: bool | None = None
    #: miss although the model was resident on *some other* GPU at decision
    #: time (paper §V-D's "false miss")
    false_miss: bool = False
    #: times the request was re-queued after a GPU failure
    retries: int = 0
    result: Any = None

    #: cache-item identity: the model *instance*, not the architecture
    #: (read ~7 times per request on the hot path, so a slot filled once;
    #: ``model`` is not reassigned after construction)
    model_id: str = field(init=False, repr=False, compare=False)

    # -- O3 visit accounting (Alg. 1 line 15) ---------------------------
    #: times the O3 dispatch skipped this request; a visit-tracking
    #: GlobalQueue owns the count while holding it, settles it here lazily
    #: and exactly on removal (``GlobalQueue.visits`` reads it live)
    visits: int = field(default=0, init=False, repr=False, compare=False)

    # -- global-queue position, owned by the GlobalQueue holding it ------
    #: ``slot``: its index there (-1 in none); ``cov0``: the bump
    #: counter's cover of the slot at attach; ``o3_phase``: unattached
    #: tail, attached or starved; ``regular``: no request behind it has
    #: been skipped more often
    slot: int = field(default=-1, init=False, repr=False, compare=False)
    cov0: int = field(default=0, init=False, repr=False, compare=False)
    o3_phase: int = field(default=0, init=False, repr=False, compare=False)
    regular: bool = field(default=True, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.model_id = self.model.instance_id
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.arrival_time < 0:
            raise ValueError("arrival_time cannot be negative")
        if self.sla_s is not None and self.sla_s <= 0:
            raise ValueError("sla_s must be positive when set")

    @property
    def met_sla(self) -> bool | None:
        """Whether the completed request met its SLA (None when no SLA)."""
        if self.sla_s is None:
            return None
        return self.latency <= self.sla_s

    def reset_for_retry(self) -> None:
        """Return the request to a clean QUEUED state after a GPU failure.

        Arrival time and O3 ``visits`` are preserved (fairness); everything
        the failed execution stamped is cleared.
        """
        if self.state in (RequestState.COMPLETED, RequestState.LOST):
            raise RuntimeError(
                f"request {self.request_id} already {self.state.value}"
            )
        self.state = RequestState.QUEUED
        self.gpu_id = None
        self.gpu_address = None
        self.dispatched_at = None
        self.exec_start_at = None
        self.cache_hit = None
        self.false_miss = False
        self.retries += 1

    @property
    def latency(self) -> float:
        """End-to-end function latency (the paper's primary metric)."""
        if self.completed_at is None:
            raise RuntimeError(f"request {self.request_id} has not completed")
        return self.completed_at - self.arrival_time

    @property
    def queueing_delay(self) -> float:
        if self.dispatched_at is None:
            raise RuntimeError(f"request {self.request_id} was never dispatched")
        return self.dispatched_at - self.arrival_time

    @property
    def service_time(self) -> float:
        """Dispatch-to-completion time (load, if any, plus inference)."""
        if self.completed_at is None or self.dispatched_at is None:
            raise RuntimeError(f"request {self.request_id} has not completed")
        return self.completed_at - self.dispatched_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Req {self.request_id} fn={self.function_name} model={self.model_id} "
            f"{self.state.value}>"
        )
