"""System configuration for the GPU-enabled FaaS runtime."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..chaos.plan import FAULT_PROFILES, FaultPlan
from ..cluster.topology import PAPER_TESTBED, ClusterSpec
from ..core.policies import make_scheduling_policy
from ..core.replacement import POLICY_NAMES as REPLACEMENT_NAMES
from ..core.tenancy import TenantQuota

__all__ = [
    "SystemConfig",
    "streaming_config",
    "DEFAULT_STREAMING_COMPACT_KEEP",
]

#: the ``retention`` :func:`streaming_config` sets: every per-request
#: record stays bounded at any replay size
DEFAULT_STREAMING_COMPACT_KEEP = 20_000


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to build a reproducible FaaS cluster.

    Defaults mirror the paper's testbed and the LALBO3 scheduler.
    """

    #: cluster topology (default: 3 nodes × 4 RTX 2080, §V-A.3)
    cluster: ClusterSpec = PAPER_TESTBED
    #: scheduling policy: "lb", "lalb", "lalbo3" (O3 skip limit 25, §IV-B),
    #: "lalbo3(limit=N)" for another limit N, or the "locality" strawman
    policy: str = "lalbo3"
    #: cache replacement policy per GPU: "lru", "fifo", "lfu", "size"
    replacement: str = "lru"
    #: one bound on the per-request records a replay retains (≥ 1 when
    #: set; None, the default, keeps everything).  It is the Datastore's
    #: MVCC autocompaction horizon (etcd's ``--auto-compaction``
    #: analogue: history below ``revision - retention`` is compacted
    #: away) and the completions the metrics collector holds as exact
    #: rows (a run past it folds them into fixed-size histograms —
    #: counts and rates stay exact, quantiles hold a ~1 % relative
    #: bound).  Neither is read to schedule, so decisions are the same
    #: at any value; the paper's figures need the exact rows, hence the
    #: default.  The scheduler's decision log is not bounded by it: it is
    #: a ring of the newest 100,000 decisions (``DecisionLog``'s default
    #: ``maxlen``, ~2 MB) whatever ``retention`` is.
    retention: int | None = None
    #: per-tenant quotas (empty = no isolation limits)
    quotas: dict[str, TenantQuota] = field(default_factory=dict)
    #: seed of the named fault profile's plan (``fault_profile``), the one
    #: place it is read; the workload draws from its own
    #: ``WorkloadSpec.seed``
    seed: int = 0
    #: named chaos profile ("none", "recoverable", "severe"): materialized
    #: into a seeded FaultPlan (using ``seed``) and compiled into simulator
    #: events at construction.  "none" builds nothing — zero events, zero
    #: overhead, byte-identical to the pre-chaos runtime.
    fault_profile: str = "none"
    #: explicit fault schedule; overrides ``fault_profile`` when set
    fault_plan: FaultPlan | None = None
    #: tracing backend: ``"null"`` (default) installs nothing — every
    #: component keeps its ``None`` tracer and the hot paths pay one
    #: identity test per hook; ``"flight"`` installs the slot-indexed
    #: :class:`~repro.obs.FlightRecorder` whose ring buffers capture
    #: request lifecycles, scheduler passes, KV commits, and chaos/cache
    #: instants for Chrome-trace export (see ``docs/observability.md``)
    tracer: str = "null"
    #: scheduler explain mode: annotate every DecisionLog entry with a
    #: structured :class:`~repro.obs.Cause` — the pass that produced it,
    #: the dirty-signal state that armed the pass, and the policy's
    #: candidate-by-candidate trail.  Debugging lens (memory linear in
    #: decisions); decisions are byte-identical either way.
    trace_decisions: bool = False

    def __post_init__(self) -> None:
        make_scheduling_policy(self.policy)  # ValueError on an unknown name
        if self.replacement not in REPLACEMENT_NAMES:
            raise ValueError(f"unknown replacement policy {self.replacement!r}")
        if self.retention is not None and self.retention < 1:
            raise ValueError("retention must be >= 1 when set")
        if self.fault_profile not in FAULT_PROFILES:
            known = ", ".join(sorted(FAULT_PROFILES))
            raise ValueError(
                f"unknown fault profile {self.fault_profile!r} (known: {known})"
            )
        if self.fault_plan is not None:
            self.fault_plan.validate()
        if self.tracer not in ("null", "flight"):
            raise ValueError(f"unknown tracer {self.tracer!r} (known: null, flight)")


def streaming_config(**overrides) -> SystemConfig:
    """A :class:`SystemConfig` with every at-scale bounded-memory default on.

    The flat-RSS replay preset: ``retention`` at
    :data:`DEFAULT_STREAMING_COMPACT_KEEP` caps the metrics window (rows
    fold into histograms once the run outgrows it) and the MVCC history
    (autocompaction) — the two linear-memory consumers a million-request
    replay cannot afford.  Any field can still be overridden,
    ``retention`` included.

    >>> cfg = streaming_config(policy="lalb")
    >>> cfg.retention, cfg.policy
    (20000, 'lalb')
    """
    return SystemConfig(**{"retention": DEFAULT_STREAMING_COMPACT_KEEP, **overrides})
