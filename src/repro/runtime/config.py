"""System configuration for the GPU-enabled FaaS runtime."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..chaos.plan import FAULT_PROFILES, FaultPlan
from ..cluster.topology import PAPER_TESTBED, ClusterSpec
from ..core.policies import DEFAULT_O3_LIMIT, SCHEDULING_POLICY_NAMES
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
    #: scheduling policy: "lb", "lalb", "lalbo3", or the "locality" strawman
    policy: str = "lalbo3"
    #: out-of-order dispatch skip limit (§IV-B; only used by lalbo3)
    o3_limit: int = DEFAULT_O3_LIMIT
    #: cache replacement policy per GPU: "lru", "fifo", "lfu", "size"
    replacement: str = "lru"
    #: one bound on every per-request record a replay retains (≥ 1 when
    #: set; None, the default, keeps everything).  It is the Datastore's
    #: MVCC autocompaction horizon (etcd's ``--auto-compaction``
    #: analogue: history below ``revision - retention`` is compacted
    #: away) and the completions the metrics collector holds as exact
    #: rows (a run past it folds them into fixed-size histograms —
    #: counts and rates stay exact, quantiles hold a ~1 % relative
    #: bound).  Neither is read to schedule, so decisions are the same
    #: at any value; the paper's figures need the exact rows, hence the
    #: default.
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
    #: per-request deadline: a request still in the *global* queue this many
    #: seconds after arrival times out and is dropped (None = never)
    deadline_s: float | None = None
    #: retry budget for failure resubmission: a request aborted/stranded
    #: more than this many times is dropped as lost (None = unlimited,
    #: the historical behaviour)
    max_retries: int | None = None
    #: base backoff before a failure resubmission re-enters the global
    #: queue; doubles per retry already absorbed (0.0 = immediate
    #: resubmit, the historical behaviour)
    retry_backoff_s: float = 0.0
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
        if self.policy not in SCHEDULING_POLICY_NAMES:
            known = ", ".join(SCHEDULING_POLICY_NAMES)
            raise ValueError(f"unknown policy {self.policy!r} (known: {known})")
        if self.o3_limit < 0:
            raise ValueError("o3_limit cannot be negative")
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
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive when set")
        if self.max_retries is not None and self.max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        if self.retry_backoff_s < 0:
            raise ValueError("retry_backoff_s cannot be negative")
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
