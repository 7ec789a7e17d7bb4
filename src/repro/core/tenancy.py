"""Multi-tenant isolation on GPU resources (paper §VI).

The paper sketches three isolation levers against bad actors:

* "limiting the number of GPU processes that each tenant can use",
* "limiting the GPU time share ... that a tenant can use",
* "limiting the ... memory space share that a tenant can use".

:class:`TenancyController` implements all three as admission checks the
Scheduler consults before dispatching a request, charged to the model's
tenant.  A request whose tenant is over quota simply stays in the global
queue until the tenant's usage drops.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..models.profiles import ModelInstance
from ..sim import Simulator
from .request import InferenceRequest

__all__ = ["TenantQuota", "TenancyController"]


@dataclass(frozen=True)
class TenantQuota:
    """Limits for one tenant; ``None`` disables a dimension."""

    max_processes: int | None = None       # concurrent GPU processes
    max_memory_fraction: float | None = None  # share of total GPU memory
    max_time_fraction: float | None = None    # share of total GPU time

    def __post_init__(self) -> None:
        if self.max_processes is not None and self.max_processes < 0:
            raise ValueError("max_processes cannot be negative")
        for frac in (self.max_memory_fraction, self.max_time_fraction):
            if frac is not None and not 0.0 <= frac <= 1.0:
                raise ValueError("fractions must be within [0, 1]")


class TenancyController:
    """Tracks per-tenant usage and answers admission checks."""

    def __init__(
        self,
        sim: Simulator,
        *,
        quotas: dict[str, TenantQuota] | None = None,
        total_memory_mb: float,
        num_gpus: int,
        cache=None,
    ) -> None:
        """``cache`` (optional) is a CacheManager-like object exposing
        ``cached_anywhere(model_id)``; with it, requests whose model is
        already resident somewhere are admitted even at the process limit
        (they will be served as cache hits and start no new process).
        Without it the controller is conservative and blocks them too."""
        if total_memory_mb <= 0 or num_gpus <= 0:
            raise ValueError("cluster capacity must be positive")
        self.sim = sim
        self.quotas = dict(quotas or {})
        self.total_memory_mb = total_memory_mb
        self.num_gpus = num_gpus
        self._cache = cache
        self._tenant_of_model: dict[str, str] = {}
        self._model_size: dict[str, float] = {}
        self._processes: dict[str, int] = {}      # tenant -> resident process count
        self._memory_mb: dict[str, float] = {}    # tenant -> resident MB
        self._gpu_time_s: dict[str, float] = {}   # tenant -> cumulative busy seconds
        #: (gpu, model) loads reserved at dispatch time but not yet reported
        #: loaded — closes the window where concurrent dispatches could
        #: overshoot a quota before their "load" cache events arrive
        self._pending_loads: set[tuple[str, str]] = set()
        #: quota'd tenants whose process count has reached their cap
        self._at_cap = {t for t, q in self.quotas.items() if q.max_processes == 0}
        self._shares = any(
            q.max_memory_fraction is not None or q.max_time_fraction is not None
            for q in self.quotas.values()
        )
        #: whether any check can refuse: a share is set, or a tenant sits
        #: at its process cap (kept current by ``_charge``)
        self.may_refuse = self._shares or bool(self._at_cap)

    # ------------------------------------------------------------------
    # Registration and accounting hooks
    # ------------------------------------------------------------------
    def register_instance(self, instance: ModelInstance) -> None:
        """Teach the controller which tenant owns a model instance."""
        self._tenant_of_model[instance.instance_id] = instance.tenant
        self._model_size[instance.instance_id] = instance.occupied_mb

    def on_dispatch(self, request: InferenceRequest) -> None:
        """GPU Manager hook: a dispatch that will load a model reserves the
        tenant's process/memory budget immediately.  A model's first miss
        registers it, so quotas bind on every entry point, not only on
        models deployed through ``FaaSCluster.register_model``."""
        if request.cache_hit is not False:
            return
        model_id = request.model_id
        tenant = self._tenant_of_model.get(model_id)
        if tenant is None:
            self.register_instance(request.model)
            tenant = request.model.tenant
        self._pending_loads.add((request.gpu_id, model_id))
        self._charge(tenant, 1, self._model_size[model_id])

    def on_load_aborted(self, gpu_id: str, model_id: str) -> None:
        """Release a dispatch-time reservation whose load never completed
        (the target GPU failed mid-upload)."""
        if (gpu_id, model_id) not in self._pending_loads:
            return
        self._pending_loads.discard((gpu_id, model_id))
        tenant = self._tenant_of_model.get(model_id)
        if tenant is None:
            return
        self._charge(tenant, -1, -self._model_size[model_id])

    def on_cache_event(self, kind: str, gpu_id: str, model_id: str, now: float) -> None:
        """CacheManager observer: track per-tenant processes and memory."""
        tenant = self._tenant_of_model.get(model_id)
        if tenant is None:
            return
        size = self._model_size[model_id]
        if kind == "load":
            if (gpu_id, model_id) in self._pending_loads:
                self._pending_loads.discard((gpu_id, model_id))  # reserved at dispatch
                return
            self._charge(tenant, 1, size)
        elif kind == "evict":
            self._charge(tenant, -1, -size)

    def _charge(self, tenant: str, processes: int, memory_mb: float) -> None:
        """Move ``tenant``'s process count and resident memory (neither
        below zero) and keep :attr:`may_refuse` current."""
        count = self._processes[tenant] = max(0, self._processes.get(tenant, 0) + processes)
        self._memory_mb[tenant] = max(0.0, self._memory_mb.get(tenant, 0.0) + memory_mb)
        quota = self.quotas.get(tenant)
        if quota is None or quota.max_processes is None:
            return
        if count >= quota.max_processes:
            self._at_cap.add(tenant)
        else:
            self._at_cap.discard(tenant)
        self.may_refuse = self._shares or bool(self._at_cap)

    def on_request_complete(self, request: InferenceRequest) -> None:
        """Charge the request's service time against its model's tenant."""
        tenant = request.model.tenant
        self._gpu_time_s[tenant] = self._gpu_time_s.get(tenant, 0.0) + request.service_time

    # ------------------------------------------------------------------
    # Admission check (consulted by the Scheduler)
    # ------------------------------------------------------------------
    def allows(self, request: InferenceRequest, *, will_load: bool | None = None) -> bool:
        """Admission check.

        ``will_load`` tells the controller whether the candidate dispatch
        would start a new GPU process (the Scheduler knows: the target GPU
        either caches the model or not).  ``None`` falls back to a
        conservative heuristic: a new process is assumed unless the model
        is known to be resident somewhere.
        """
        tenant = request.model.tenant
        quota = self.quotas.get(tenant)
        if quota is None:
            return True
        if will_load is not None:
            may_start_process = will_load
        else:
            may_start_process = not (
                self._cache is not None and self._cache.cached_anywhere(request.model_id)
            )
        if quota.max_processes is not None and may_start_process:
            if self._processes.get(tenant, 0) >= quota.max_processes:
                return False
        if quota.max_memory_fraction is not None and may_start_process:
            projected = self._memory_mb.get(tenant, 0.0) + request.model.occupied_mb
            if projected / self.total_memory_mb > quota.max_memory_fraction:
                return False
        if quota.max_time_fraction is not None and self.sim.now > 0:
            capacity = self.num_gpus * self.sim.now
            if self._gpu_time_s.get(tenant, 0.0) / capacity > quota.max_time_fraction:
                return False
        return True

    # ------------------------------------------------------------------
    # Introspection (used by tests and reports)
    # ------------------------------------------------------------------
    def usage(self, tenant: str) -> dict[str, float]:
        return {
            "processes": self._processes.get(tenant, 0),
            "memory_mb": self._memory_mb.get(tenant, 0.0),
            "gpu_time_s": self._gpu_time_s.get(tenant, 0.0),
        }
