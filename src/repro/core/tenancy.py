"""Multi-tenant isolation on GPU resources (paper §VI).

Of the isolation levers §VI sketches against bad actors, the one this
runtime enforces is "limiting the number of GPU processes that each
tenant can use": :class:`TenancyController` answers the admission check
the Scheduler consults before it dispatches a request to a GPU, charged
to the model's tenant.

A cap of one process or more never strands work.  A tenant at its cap
may still start a process on a GPU where it already holds one: the
dispatch replaces the tenant's coldest model there, so the count stays
at the cap and a queued model that is resident nowhere can load once
one of the tenant's GPUs turns idle.  Only a tenant holding no process
on the target GPU waits, and the event it waits for is one the cluster
delivers.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.gpu import GPUDevice
from ..models.profiles import ModelInstance
from .request import InferenceRequest

__all__ = ["TenantQuota", "TenancyController"]


@dataclass(frozen=True)
class TenantQuota:
    """Limit for one tenant; ``None`` disables it."""

    max_processes: int | None = None  # concurrent GPU processes

    def __post_init__(self) -> None:
        if self.max_processes is not None and self.max_processes < 0:
            raise ValueError("max_processes cannot be negative")


class TenancyController:
    """Tracks per-tenant process counts and answers admission checks."""

    def __init__(self, *, quotas: dict[str, TenantQuota] | None = None, cache) -> None:
        """``cache`` is the CacheManager: a GPU's resident models and
        their replacement order name a capped tenant's own victim."""
        self.quotas = dict(quotas or {})
        self._cache = cache
        self._tenant_of_model: dict[str, str] = {}
        self._processes: dict[str, int] = {}  # tenant -> resident process count
        #: (gpu, model) loads reserved at dispatch time but not yet reported
        #: loaded — closes the window where concurrent dispatches could
        #: overshoot a quota before their "load" cache events arrive
        self._pending_loads: set[tuple[str, str]] = set()
        #: quota'd tenants whose process count has reached their cap
        self._at_cap = {t for t, q in self.quotas.items() if q.max_processes == 0}
        #: whether any check can refuse: some tenant sits at its process
        #: cap (kept current by ``_charge``)
        self.may_refuse = bool(self._at_cap)

    # ------------------------------------------------------------------
    # Registration and accounting hooks
    # ------------------------------------------------------------------
    def register_instance(self, instance: ModelInstance) -> None:
        """Teach the controller which tenant owns a model instance."""
        self._tenant_of_model[instance.instance_id] = instance.tenant

    def on_dispatch(self, request: InferenceRequest) -> None:
        """GPU Manager hook: a dispatch that will load a model reserves the
        tenant's process immediately.  A model's first miss registers it,
        so quotas bind on every entry point, not only on models deployed
        through ``FaaSCluster.register_model``."""
        if request.cache_hit is not False:
            return
        model_id = request.model_id
        tenant = self._tenant_of_model.get(model_id)
        if tenant is None:
            self.register_instance(request.model)
            tenant = request.model.tenant
        self._pending_loads.add((request.gpu_id, model_id))
        self._charge(tenant, 1)

    def on_load_aborted(self, gpu_id: str, model_id: str) -> None:
        """Release a dispatch-time reservation whose load never completed
        (the target GPU failed mid-upload)."""
        if (gpu_id, model_id) not in self._pending_loads:
            return
        self._pending_loads.discard((gpu_id, model_id))
        tenant = self._tenant_of_model.get(model_id)
        if tenant is not None:
            self._charge(tenant, -1)

    def on_cache_event(self, kind: str, gpu_id: str, model_id: str, now: float) -> None:
        """CacheManager observer: track per-tenant processes."""
        tenant = self._tenant_of_model.get(model_id)
        if tenant is None:
            return
        if kind == "load":
            if (gpu_id, model_id) in self._pending_loads:
                self._pending_loads.discard((gpu_id, model_id))  # reserved at dispatch
                return
            self._charge(tenant, 1)
        elif kind == "evict":
            self._charge(tenant, -1)

    def _charge(self, tenant: str, processes: int) -> None:
        """Move ``tenant``'s process count (never below zero) and keep
        :attr:`may_refuse` current."""
        count = self._processes[tenant] = max(0, self._processes.get(tenant, 0) + processes)
        quota = self.quotas.get(tenant)
        if quota is None or quota.max_processes is None:
            return
        if count >= quota.max_processes:
            self._at_cap.add(tenant)
        else:
            self._at_cap.discard(tenant)
        self.may_refuse = bool(self._at_cap)

    # ------------------------------------------------------------------
    # Admission check (consulted by the Scheduler)
    # ------------------------------------------------------------------
    def allows(self, request: InferenceRequest, gpu: GPUDevice) -> bool:
        """Whether ``request`` may be dispatched to ``gpu``.

        A cache hit starts no process and is always admitted.  A miss is
        admitted below the tenant's cap, and at the cap when the tenant
        has a model on ``gpu`` for the dispatch to replace
        (:meth:`own_victim`).
        """
        tenant = request.model.tenant
        quota = self.quotas.get(tenant)
        if quota is None or quota.max_processes is None:
            return True
        count = self._processes.get(tenant, 0)
        if count < quota.max_processes or self._cache.is_cached_on(request.model_id, gpu):
            return True
        return count == quota.max_processes and self.own_victim(tenant, gpu) is not None

    def own_victim(self, tenant: str, gpu: GPUDevice) -> str | None:
        """``tenant``'s coldest model on ``gpu`` in the GPU's
        replacement order, or None when it has none there."""
        tenant_of = self._tenant_of_model
        for model_id in self._cache.lru_list(gpu):
            if tenant_of.get(model_id) == tenant:
                return model_id
        return None

    def victim_for(self, request: InferenceRequest, gpu: GPUDevice) -> str | None:
        """The model a miss of ``request`` on ``gpu`` replaces to keep
        its tenant within the cap: None unless the tenant is at its cap."""
        tenant = request.model.tenant
        if tenant not in self._at_cap:
            return None
        return self.own_victim(tenant, gpu)

    # ------------------------------------------------------------------
    # Introspection (used by tests and reports)
    # ------------------------------------------------------------------
    def processes(self, tenant: str) -> int:
        """GPU processes ``tenant`` holds or has reserved."""
        return self._processes.get(tenant, 0)
