"""Deterministic fault injection (chaos replay) for the FaaS runtime.

``repro.chaos`` turns "does LALB/LALBO3 still win under failures?" into a
runnable, reproducible experiment: a seeded, declarative
:class:`FaultPlan` (:mod:`repro.chaos.plan`) is compiled into ordinary
simulator events by the :class:`ChaosInjector`
(:mod:`repro.chaos.injector`), and the lease-backed
:class:`HealthWatchdog` (:mod:`repro.chaos.health`) escalates missed
heartbeats to ``go_offline`` and self-heals when they resume.

Entry points: ``SystemConfig(fault_profile="recoverable")`` for the named
profiles, ``SystemConfig(fault_plan=...)`` for hand-built schedules, the
``fault_profiles`` sweep axis, and ``make sweep FAULTS=...``.  See
``docs/robustness.md``.
"""

from .. import _lazy_exports

_EXPORTS = {
    "FaultPlan": ".plan",
    "GPUCrash": ".plan",
    "Straggler": ".plan",
    "LeaseExpiry": ".plan",
    "FAULT_PROFILES": ".plan",
    "build_fault_plan": ".plan",
    "ChaosInjector": ".injector",
    "HealthWatchdog": ".health",
}

__all__ = [*_EXPORTS]
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
