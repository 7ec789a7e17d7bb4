"""Lease-backed health watchdog: missed heartbeats become ``go_offline``.

Each GPU's manager daemon holds a TTL lease in the Datastore with its
``gpu/health/<gpu_id>`` key attached — the standard etcd liveness pattern.
A steady heartbeat loop refreshes every lease; when heartbeats stop (in
the simulator, when a :class:`~repro.chaos.plan.LeaseExpiry` fault
suppresses them) the lease expires, its key is reaped, and — this is the
escalation the seed repo lacked — the watchdog reacts by failing the GPU
through the normal :meth:`FaaSCluster.fail_gpu` path: in-flight and
locally-queued work is re-queued, cache locations are withdrawn, and the
scheduler stops dispatching there.  When heartbeats resume, the watchdog
re-grants the lease and self-heals the GPU (``recover_gpu``), closing the
fault for MTTR accounting.

The heartbeat loop is bounded by ``horizon_s`` so a chaos replay still
drains to a fixed event horizon: past it the watchdog recovers anything it
escalated, revokes its leases (revocation is a clean shutdown and does not
fire expiry callbacks), and goes dormant.

Everything here runs on the simulated clock through ordinary events, so a
replay with a health watchdog is exactly as deterministic as one without.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faas → runtime)
    from ..runtime.system import FaaSCluster

__all__ = ["HealthWatchdog"]

#: Datastore key prefix for per-GPU liveness keys
HEALTH_PREFIX = "gpu/health/"
#: heartbeat cadence: every live lease is refreshed this often
HEARTBEAT_S = 1.0
#: lease TTL: a GPU is escalated after this long without a heartbeat
#: (longer than the cadence, or every beat would expire)
TTL_S = 3.0


class HealthWatchdog:
    """Per-GPU lease liveness with automatic offline escalation."""

    def __init__(self, system: "FaaSCluster", *, horizon_s: float = 0.0) -> None:
        self.system = system
        self.sim = system.sim
        self.horizon_s = horizon_s
        self._datastore = system.datastore
        self._leases: dict[str, object] = {}
        #: heartbeat suppression windows (simulated daemon death), gpu_id → until
        self._suppressed_until: dict[str, float] = {}
        #: GPUs this watchdog itself took offline (and therefore owns healing)
        self._escalated: set[str] = set()
        self.escalations = 0
        self.recoveries = 0
        self.retired = False
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Grant the initial leases and begin the heartbeat loop."""
        if self._started:
            raise RuntimeError("watchdog already started")
        self._started = True
        for gpu in self.system.cluster.gpus:
            self._grant(gpu.gpu_id)
        self.sim.schedule(HEARTBEAT_S, self._beat)

    def suppress(self, gpu_id: str, duration_s: float) -> None:
        """Stop refreshing ``gpu_id``'s lease for ``duration_s`` (the
        injector's LeaseExpiry fault: the manager daemon goes silent)."""
        until = self.sim.now + duration_s
        self._suppressed_until[gpu_id] = max(
            self._suppressed_until.get(gpu_id, 0.0), until
        )

    # ------------------------------------------------------------------
    def _grant(self, gpu_id: str) -> None:
        lease = self._datastore.leases.grant(TTL_S)
        self._datastore.put(f"{HEALTH_PREFIX}{gpu_id}", "ok", lease=lease)
        lease.on_expire(lambda _lease, gpu_id=gpu_id: self._expired(gpu_id))
        self._leases[gpu_id] = lease

    def _expired(self, gpu_id: str) -> None:
        """Lease expiry escalation: mark the GPU unschedulable."""
        gpu = self.system.cluster.gpu(gpu_id)
        self.escalations += 1
        if gpu.is_online:
            self._escalated.add(gpu_id)
            self.system.metrics.on_fault("lease_expiry", gpu_id)
            self.system.fail_gpu(gpu_id)
        # already offline: another fault owns the GPU; the expired lease is
        # simply re-granted when heartbeats resume

    def _beat(self) -> None:
        # reschedule first: handlers below may run nested simulator logic,
        # and a fixed cadence keeps the replay's event sequence stable
        if self.sim.now + HEARTBEAT_S <= self.horizon_s:
            self.sim.schedule(HEARTBEAT_S, self._beat)
        else:
            self._retire()
            return
        now = self.sim.now
        for gpu in self.system.cluster.gpus:
            gpu_id = gpu.gpu_id
            if now < self._suppressed_until.get(gpu_id, 0.0):
                continue  # daemon silent: let the lease run out
            lease = self._leases[gpu_id]
            if lease.alive:
                lease.refresh()
                continue
            # heartbeats are back after an expiry: re-establish liveness
            self._grant(gpu_id)
            if gpu_id in self._escalated:
                self._escalated.discard(gpu_id)
                if not gpu.is_online:
                    self.system.recover_gpu(gpu_id)
                    self.recoveries += 1
                self.system.metrics.on_fault_cleared("lease_expiry", gpu_id)

    def _retire(self) -> None:
        """Past the fault horizon: heal anything still escalated, revoke
        the leases (clean shutdown, no expiry callbacks), go dormant."""
        self.retired = True
        for gpu_id in sorted(self._escalated):
            gpu = self.system.cluster.gpu(gpu_id)
            if not gpu.is_online:
                self.system.recover_gpu(gpu_id)
                self.recoveries += 1
            self.system.metrics.on_fault_cleared("lease_expiry", gpu_id)
        self._escalated.clear()
        for lease in self._leases.values():
            if lease.alive:
                lease.revoke()
