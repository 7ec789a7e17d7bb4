"""Compiles a :class:`~repro.chaos.plan.FaultPlan` into simulator events.

The injector is armed during :class:`~repro.runtime.system.FaaSCluster`
construction — before any workload is submitted — so the fault events
occupy a fixed, plan-determined position in the simulator's tie-break
order.  Every handler drives the system through its public failure API
(``fail_gpu`` / ``recover_gpu``, the manager's slowdown knob, the health
watchdog's heartbeat suppression), so a fault replay exercises exactly
the code paths a real outage would.

Handlers are defensive about overlap: a crash against an already-offline
GPU is skipped (another fault owns it), a recovery against an
already-online GPU likewise, so plans with colliding targets still replay
deterministically.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .plan import FaultPlan, GPUCrash, LeaseExpiry, Straggler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faas → runtime)
    from ..runtime.system import FaaSCluster

__all__ = ["ChaosInjector"]


class ChaosInjector:
    """Schedules a plan's faults against a built system."""

    def __init__(self, system: "FaaSCluster", plan: FaultPlan) -> None:
        self.system = system
        self.plan = plan
        #: faults that actually took effect (skipped overlaps excluded)
        self.injected = 0
        self._armed = False

    def arm(self) -> None:
        """Schedule every fault in the plan (call once, before running)."""
        if self._armed:
            raise RuntimeError("injector already armed")
        self._armed = True
        sim = self.system.sim
        for fault in self.plan:
            if isinstance(fault, GPUCrash):
                sim.schedule_at(fault.at_s, self._crash, fault)
            elif isinstance(fault, Straggler):
                sim.schedule_at(fault.at_s, self._straggle, fault)
            elif isinstance(fault, LeaseExpiry):
                sim.schedule_at(fault.at_s, self._lease_expiry, fault)
            else:  # pragma: no cover - plan.validate() rejects unknown kinds
                raise TypeError(f"unknown fault {fault!r}")

    # ------------------------------------------------------------------
    def _gpu(self, index: int):
        gpus = self.system.cluster.gpus
        return gpus[index % len(gpus)]

    def _crash(self, fault: GPUCrash) -> None:
        gpu = self._gpu(fault.gpu_index)
        if not gpu.is_online:
            tracer = self.system.tracer
            if tracer is not None:
                tracer.fault_skipped("crash", gpu.gpu_id)
            return  # another fault already owns this GPU
        self.injected += 1
        self.system.metrics.on_fault("crash", gpu.gpu_id)
        self.system.fail_gpu(gpu.gpu_id)
        if fault.recover_after_s is not None:
            self.system.sim.schedule(fault.recover_after_s, self._recover, gpu.gpu_id)

    def _recover(self, gpu_id: str) -> None:
        gpu = self.system.cluster.gpu(gpu_id)
        if gpu.is_online:
            tracer = self.system.tracer
            if tracer is not None:
                tracer.fault_skipped("crash_recover", gpu_id)
            return  # already healed (e.g. by the watchdog)
        self.system.recover_gpu(gpu_id)
        self.system.metrics.on_fault_cleared("crash", gpu_id)

    def _straggle(self, fault: Straggler) -> None:
        gpu = self._gpu(fault.gpu_index)
        manager = self.system._managers[gpu.node_id]
        self.injected += 1
        self.system.metrics.on_fault("straggler", gpu.gpu_id)
        manager.set_slowdown(gpu, fault.factor)
        self.system.sim.schedule(fault.duration_s, self._unstraggle, manager, gpu)

    def _unstraggle(self, manager, gpu) -> None:
        manager.set_slowdown(gpu, 1.0)
        self.system.metrics.on_fault_cleared("straggler", gpu.gpu_id)

    def _lease_expiry(self, fault: LeaseExpiry) -> None:
        health = self.system.health
        if health is None or health.retired:
            return
        gpu = self._gpu(fault.gpu_index)
        self.injected += 1
        # the watchdog records the fault/repair metrics itself: the fault's
        # observable effect (GPU offline) starts at escalation, not here
        health.suppress(gpu.gpu_id, fault.duration_s)
