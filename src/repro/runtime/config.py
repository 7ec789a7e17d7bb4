"""System configuration for the GPU-enabled FaaS runtime."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..chaos.plan import FAULT_PROFILES, FaultPlan
from ..cluster.topology import PAPER_TESTBED, ClusterSpec
from ..core.policies import DEFAULT_O3_LIMIT
from ..core.tenancy import TenantQuota

__all__ = [
    "SystemConfig",
    "streaming_config",
    "DEFAULT_STREAMING_COMPACT_KEEP",
]

#: MVCC revisions retained by :func:`streaming_config`'s autocompaction
#: default — bounded at any replay size
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
    #: auto-compact the Datastore's MVCC history below a sliding revision
    #: horizon of this many revisions (etcd's ``--auto-compaction``
    #: analogue): the per-key MVCC history stays bounded on
    #: 1M+-request replays instead of retaining every historical write.
    #: None (default) keeps full history.  Compaction never touches live
    #: keys, so scheduling decisions are unaffected.
    kv_autocompact_keep: int | None = None
    #: sliding window of ``fn/latency/<request_id>`` records each *node's*
    #: GPU Manager retains in the Datastore: past this many, that manager
    #: deletes its oldest record in the same batched transaction that
    #: writes its newest.  The window is per manager, so the live
    #: ``fn/latency/*`` key set is bounded by nodes × keep, not by keep
    #: (60,000 live at keep = 20k on the 3-node testbed once every window
    #: has filled).  Those keys are write-only during a run (nothing
    #: schedules off them) and history-free, but left to accumulate they
    #: pin one key string + row tuple + value tuple per request — the
    #: dominant linear memory term at 1M requests.  None (default) keeps
    #: every record.
    latency_log_keep: int | None = None
    #: per-tenant quotas (empty = no isolation limits)
    quotas: dict[str, TenantQuota] = field(default_factory=dict)
    #: master seed for all stochastic elements
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
    #: health-watchdog heartbeat cadence and lease TTL (the watchdog is
    #: built whenever a fault plan is active; TTL must exceed the cadence)
    health_heartbeat_s: float = 1.0
    health_ttl_s: float = 3.0
    #: completions the metrics collector keeps as exact per-request rows
    #: (see :mod:`repro.metrics.collector`).  A run that outgrows the cap
    #: closes the window: the rows fold into fixed-size histograms /
    #: running sums and are released, so memory stays flat — counts and
    #: rates stay exact, quantiles hold a ~1 % relative bound.  None
    #: (default) keeps every row, which the paper's figures need; 0 folds
    #: from the first completion.
    metrics_exact_cap: int | None = None
    #: optional CSV path: every completion row is teed there for
    #: drill-down, whether or not the window still holds it
    metrics_spill_path: str | None = None
    #: tracing backend: ``"null"`` (default) installs nothing — every
    #: component keeps its ``None`` tracer and the hot paths pay one
    #: identity test per hook; ``"flight"`` installs the slot-indexed
    #: :class:`~repro.obs.FlightRecorder` whose ring buffers capture
    #: request lifecycles, scheduler passes, KV commits, and chaos/cache
    #: instants for Chrome-trace export (see ``docs/observability.md``)
    tracer: str = "null"
    #: per-ring capacity of the flight recorder (records past it
    #: overwrite oldest-first; ``dropped`` counts what was lost).  The
    #: default retains every span of the 2k-request §V-A replay (~3.1k
    #: commits is its largest ring load) while keeping the rings' cache
    #: footprint small enough to stay inside the bench overhead gate
    tracer_capacity: int = 4096
    #: wall-span sampling stride for the two high-rate rings (scheduler
    #: passes, KV commits): every Nth span pays the clock probes and the
    #: ring write, the rest only bump the exact ``totals`` counters.
    #: The request-lifecycle and instant rings always record every
    #: event.  Passes and commits outnumber requests ~3:1 on the §V-A
    #: replay, and sampling them is what holds tracer-on overhead
    #: inside the bench gate; ``1`` records every span (full fidelity)
    trace_span_stride: int = 16
    #: scheduler explain mode: annotate every DecisionLog entry with a
    #: structured :class:`~repro.obs.Cause` — the pass that produced it,
    #: the dirty-signal state that armed the pass, and the policy's
    #: candidate-by-candidate trail.  Debugging lens (memory linear in
    #: decisions); decisions are byte-identical either way.
    trace_decisions: bool = False
    #: optional JSONL path: the flight recorder tees request records
    #: there with stride-doubling decimation (bounded like the streaming
    #: tier: at most ``trace_spill_keep × (1 + log2(n/keep))`` lines)
    trace_spill_path: str | None = None
    #: lines admitted per decimation level of the trace spill
    trace_spill_keep: int = DEFAULT_STREAMING_COMPACT_KEEP

    def __post_init__(self) -> None:
        if self.policy not in ("lb", "locality", "lalb", "lalbo3"):
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.o3_limit < 0:
            raise ValueError("o3_limit cannot be negative")
        if self.kv_autocompact_keep is not None and self.kv_autocompact_keep < 1:
            raise ValueError("kv_autocompact_keep must be >= 1 when set")
        if self.latency_log_keep is not None and self.latency_log_keep < 1:
            raise ValueError("latency_log_keep must be >= 1 when set")
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
        if self.health_heartbeat_s <= 0:
            raise ValueError("health_heartbeat_s must be positive")
        if self.health_ttl_s <= self.health_heartbeat_s:
            raise ValueError("health_ttl_s must exceed health_heartbeat_s")
        if self.metrics_exact_cap is not None and self.metrics_exact_cap < 0:
            raise ValueError("metrics_exact_cap cannot be negative")
        if self.tracer not in ("null", "flight"):
            raise ValueError(f"unknown tracer {self.tracer!r} (known: null, flight)")
        if self.tracer_capacity < 16:
            raise ValueError("tracer_capacity must be >= 16")
        if self.trace_span_stride < 1:
            raise ValueError("trace_span_stride must be >= 1")
        if self.trace_spill_path is not None and self.tracer != "flight":
            raise ValueError('trace_spill_path requires tracer="flight"')
        if self.trace_spill_keep < 1:
            raise ValueError("trace_spill_keep must be >= 1")


def streaming_config(**overrides) -> SystemConfig:
    """A :class:`SystemConfig` with every at-scale bounded-memory default on.

    The flat-RSS replay preset: a capped metrics window (rows fold into
    histograms once the run outgrows it), MVCC autocompaction (bounded KV
    history), and a sliding latency-record window (bounded live key
    set) — the three linear-memory consumers a million-request replay
    cannot afford.  Any field can still be overridden, including the
    defaults this preset sets.

    >>> cfg = streaming_config(policy="lalb")
    >>> cfg.metrics_exact_cap, cfg.kv_autocompact_keep, cfg.policy
    (20000, 20000, 'lalb')
    >>> cfg.latency_log_keep
    20000
    """
    merged: dict = {
        "metrics_exact_cap": DEFAULT_STREAMING_COMPACT_KEEP,
        "kv_autocompact_keep": DEFAULT_STREAMING_COMPACT_KEEP,
        "latency_log_keep": DEFAULT_STREAMING_COMPACT_KEEP,
    }
    merged.update(overrides)
    return SystemConfig(**merged)
