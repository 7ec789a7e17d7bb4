"""Declarative, seeded fault plans.

A :class:`FaultPlan` is pure data: a tuple of frozen fault records, each
naming a *kind*, an injection time, a target (a GPU index into the
cluster's device list, portable across topologies), and the fault's
parameters.  Plans never touch the system themselves — the
:class:`~repro.chaos.injector.ChaosInjector` compiles a plan into ordinary
simulator events at system-construction time, so a fault replay is exactly
as deterministic as any other replay: same plan + same seed ⇒ the same
event sequence, byte for byte.

Fault kinds (the failure modes a production GPU-FaaS control plane must
survive, ROADMAP "north star"):

* :class:`GPUCrash` — the device dies (memory lost, in-flight work
  re-queued); optionally recovers after a delay.
* :class:`Straggler` — the device keeps working but slows down by a
  multiplicative factor for a window (thermal throttling, a noisy
  neighbour on the PCIe switch).
* :class:`LeaseExpiry` — the node's GPU-Manager daemon stops
  heartbeating for a window; the lease-backed health watchdog escalates
  the missed heartbeats to ``go_offline`` and self-heals when the
  heartbeats return.

Named profiles (:data:`FAULT_PROFILES`) are seeded generators:
``build_fault_plan("recoverable", seed=7)`` always yields the identical
plan.  The ``"recoverable"`` profile is the default chaos diet — every
fault heals, so a replay under it must complete with **zero lost
requests** (``tests/chaos/test_chaos_runtime.py`` replays it over the 2k
§V-A workload and asserts exactly that).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = [
    "GPUCrash",
    "Straggler",
    "LeaseExpiry",
    "FaultPlan",
    "FAULT_PROFILES",
    "build_fault_plan",
]


@dataclass(frozen=True)
class GPUCrash:
    """Hard device failure at ``at_s``; recovers ``recover_after_s`` later
    (``None`` = permanent)."""

    at_s: float
    gpu_index: int
    recover_after_s: float | None = None

    kind = "crash"


@dataclass(frozen=True)
class Straggler:
    """Multiply the device's real load/inference durations by ``factor``
    for ``duration_s`` seconds."""

    at_s: float
    gpu_index: int
    factor: float
    duration_s: float

    kind = "straggler"


@dataclass(frozen=True)
class LeaseExpiry:
    """Suppress the GPU's health heartbeats for ``duration_s`` seconds:
    its lease expires, the watchdog escalates to ``go_offline``, and the
    device self-heals once heartbeats resume."""

    at_s: float
    gpu_index: int
    duration_s: float

    kind = "lease_expiry"


Fault = GPUCrash | Straggler | LeaseExpiry


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, fully-specified fault schedule."""

    name: str
    faults: tuple[Fault, ...] = ()
    #: master seed the plan was generated from (provenance only)
    seed: int = 0

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    @property
    def end_s(self) -> float:
        """When the last fault has fully played out (injection + recovery);
        the health watchdog retires its heartbeat loop past this point so
        a chaos replay still drains to a fixed event horizon."""
        end = 0.0
        for fault in self.faults:
            t = fault.at_s
            if isinstance(fault, GPUCrash):
                t += fault.recover_after_s or 0.0
            else:
                t += getattr(fault, "duration_s", 0.0)
            end = max(end, t)
        return end

    def validate(self) -> None:
        for fault in self.faults:
            if not isinstance(fault, Fault):
                raise ValueError(f"{fault!r}: unknown fault kind")
            if fault.at_s < 0:
                raise ValueError(f"{fault!r}: at_s cannot be negative")
            if isinstance(fault, Straggler) and fault.factor < 1.0:
                raise ValueError(f"{fault!r}: straggler factor must be >= 1")
            duration = getattr(fault, "duration_s", None)
            if duration is not None and duration <= 0:
                raise ValueError(f"{fault!r}: duration_s must be positive")


# ----------------------------------------------------------------------
# Named, seeded profiles
# ----------------------------------------------------------------------
def _rng(profile: str, seed: int) -> random.Random:
    # string seeding is deterministic across processes (no PYTHONHASHSEED
    # dependence): Random() hashes str seeds with SHA-512 internally
    return random.Random(f"chaos:{profile}:{seed}")


def _none(seed: int, horizon_s: float, gpus: int) -> FaultPlan:
    return FaultPlan(name="none", faults=(), seed=seed)


def _recoverable(seed: int, horizon_s: float, gpus: int) -> FaultPlan:
    """Every fault heals; a replay under this plan must lose nothing."""
    rng = _rng("recoverable", seed)
    window = lambda lo, hi: horizon_s * rng.uniform(lo, hi)  # noqa: E731
    faults: list[Fault] = [
        GPUCrash(
            at_s=window(0.15, 0.35),
            gpu_index=rng.randrange(gpus),
            recover_after_s=rng.uniform(0.05, 0.10) * horizon_s,
        ),
        GPUCrash(
            at_s=window(0.45, 0.60),
            gpu_index=rng.randrange(gpus),
            recover_after_s=rng.uniform(0.05, 0.10) * horizon_s,
        ),
        Straggler(
            at_s=window(0.20, 0.50),
            gpu_index=rng.randrange(gpus),
            factor=rng.uniform(2.0, 4.0),
            duration_s=rng.uniform(0.10, 0.20) * horizon_s,
        ),
        LeaseExpiry(
            at_s=window(0.30, 0.55),
            gpu_index=rng.randrange(gpus),
            duration_s=rng.uniform(0.04, 0.08) * horizon_s,
        ),
    ]
    return FaultPlan(name="recoverable", faults=tuple(faults), seed=seed)


def _severe(seed: int, horizon_s: float, gpus: int) -> FaultPlan:
    """Overlapping crashes including one permanent loss, long stragglers,
    repeated lease expiries.  Requests *may* be lost under a bounded retry
    budget — that is the point: it measures degradation, not survival."""
    rng = _rng("severe", seed)
    window = lambda lo, hi: horizon_s * rng.uniform(lo, hi)  # noqa: E731
    faults: list[Fault] = [
        GPUCrash(at_s=window(0.10, 0.20), gpu_index=rng.randrange(gpus),
                 recover_after_s=None),  # permanent
    ]
    for _ in range(3):
        faults.append(
            GPUCrash(
                at_s=window(0.15, 0.60),
                gpu_index=rng.randrange(gpus),
                recover_after_s=rng.uniform(0.08, 0.15) * horizon_s,
            )
        )
    for _ in range(2):
        faults.append(
            Straggler(
                at_s=window(0.10, 0.55),
                gpu_index=rng.randrange(gpus),
                factor=rng.uniform(3.0, 6.0),
                duration_s=rng.uniform(0.15, 0.30) * horizon_s,
            )
        )
    for _ in range(2):
        faults.append(
            LeaseExpiry(
                at_s=window(0.20, 0.60),
                gpu_index=rng.randrange(gpus),
                duration_s=rng.uniform(0.06, 0.12) * horizon_s,
            )
        )
    return FaultPlan(name="severe", faults=tuple(faults), seed=seed)


#: profile name → seeded generator ``fn(seed, horizon_s, gpus) -> FaultPlan``
FAULT_PROFILES = {
    "none": _none,
    "recoverable": _recoverable,
    "severe": _severe,
}

#: default plan horizon: the §V-A workload's 6 simulated minutes
DEFAULT_HORIZON_S = 360.0


def build_fault_plan(
    profile: str,
    *,
    seed: int = 0,
    horizon_s: float = DEFAULT_HORIZON_S,
    gpus: int = 12,
) -> FaultPlan:
    """Materialize a named profile into a concrete, validated plan.

    Deterministic: identical arguments always produce an identical plan.
    ``gpus`` bounds the target indices (the injector additionally reduces
    indices modulo the actual cluster size, so a plan built for 12 GPUs
    replays meaningfully on 8).
    """
    try:
        generator = FAULT_PROFILES[profile]
    except KeyError:
        known = ", ".join(sorted(FAULT_PROFILES))
        raise ValueError(f"unknown fault profile {profile!r} (known: {known})")
    if horizon_s <= 0:
        raise ValueError("horizon_s must be positive")
    if gpus < 1:
        raise ValueError("gpus must be >= 1")
    plan = generator(seed, horizon_s, gpus)
    plan.validate()
    return plan
