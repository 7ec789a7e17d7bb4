"""Experiment runner: one trace-driven run of the full system.

Every figure in §V is regenerated by sweeping :func:`run_experiment` over
policies / working sets / O3 limits.  Runs are deterministic in their
seeds; results carry the full :class:`~repro.metrics.RunSummary`.

Grid sweeps (:func:`run_policy_grid` and the figure/ablation wrappers on
top of it) route through the sharded sweep orchestrator
(:mod:`repro.experiments.sweep`): pass ``workers=N`` to fan cells out
across a process pool and ``store=<dir>`` to persist/resume results.  The
defaults (``workers=1``, no store) preserve the sequential path's exact
behavior and byte-identical summaries.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..cluster.topology import PAPER_TESTBED, ClusterSpec
from ..metrics.summary import RunSummary
from ..runtime.config import SystemConfig
from ..traces.azure import AzureTraceConfig, SyntheticAzureTrace
from ..traces.workload import WorkloadSpec, build_workload
from .replay import replay

__all__ = [
    "ExperimentConfig",
    "run_experiment",
    "run_policy_grid",
    "shared_trace",
    "PAPER_POLICIES",
]

PAPER_POLICIES = ("lb", "lalb", "lalbo3")

#: process-wide trace instances, one per config — every sweep consumer
#: (figs 4–7, ablations) shares one handle instead of
#: rebuilding an identical SyntheticAzureTrace per call
_SHARED_TRACES: dict[AzureTraceConfig, SyntheticAzureTrace] = {}


def shared_trace(config: AzureTraceConfig | None = None) -> SyntheticAzureTrace:
    """The process-shared :class:`SyntheticAzureTrace` for ``config``.

    Traces are deterministic, read-only views of their config, so sharing
    one instance across sweeps is free and saves the repeated Zipf
    calibration each private copy would pay.
    """
    config = config or AzureTraceConfig()
    trace = _SHARED_TRACES.get(config)
    if trace is None:
        trace = _SHARED_TRACES[config] = SyntheticAzureTrace(config)
    return trace


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment cell: a policy against a workload."""

    policy: str = "lalbo3"
    working_set: int = 15
    minutes: int = 6
    requests_per_minute: int = 325
    o3_limit: int = 25
    replacement: str = "lru"
    cluster: ClusterSpec = PAPER_TESTBED
    #: optional per-request SLA in seconds (None = the paper's best-effort)
    sla_s: float | None = None
    seed: int = 0
    #: named chaos profile (``"none"`` = no fault injection; see
    #: :data:`repro.chaos.FAULT_PROFILES`)
    fault_profile: str = "none"

    def __post_init__(self) -> None:
        self.system_config()  # a typo fails here, not in a sweep worker

    def label(self) -> str:
        base = (
            f"lalbo3(limit={self.o3_limit})" if self.policy == "lalbo3" else self.policy
        )
        if self.fault_profile != "none":
            return f"{base}@{self.fault_profile}"
        return base

    def workload_spec(self) -> WorkloadSpec:
        """The workload half of the cell."""
        return WorkloadSpec(
            working_set=self.working_set,
            minutes=self.minutes,
            requests_per_minute=self.requests_per_minute,
            sla_s=self.sla_s,
            seed=self.seed,
        )

    def system_config(self) -> SystemConfig:
        """The system half of the cell."""
        return SystemConfig(
            cluster=self.cluster,
            policy=self.policy,
            o3_limit=self.o3_limit,
            replacement=self.replacement,
            seed=self.seed,
            fault_profile=self.fault_profile,
        )


def run_experiment(
    config: ExperimentConfig, *, trace: SyntheticAzureTrace | None = None
) -> RunSummary:
    """Build the workload, run the system to drain, and summarize."""
    workload = build_workload(
        config.workload_spec(), trace=trace or SyntheticAzureTrace()
    )
    return replay(config.system_config(), workload, label=config.label())[0]


def run_policy_grid(
    working_sets: tuple[int, ...] = (15, 25, 35),
    policies: tuple[str, ...] = PAPER_POLICIES,
    *,
    base: ExperimentConfig | None = None,
    trace: SyntheticAzureTrace | None = None,
    workers: int = 1,
    store=None,
    resume: bool = True,
) -> dict[tuple[str, int], RunSummary]:
    """The §V sweep behind Figs. 4, 5, and 6: policies × working sets.

    Cells execute through the sweep orchestrator: ``workers=1`` (default)
    runs them sequentially in-process, ``workers=N`` shards them across a
    process pool, and ``store``/``resume`` persist and reuse finished
    cells (see :mod:`repro.experiments.sweep`).
    """
    from .sweep import SweepCell, run_keyed_cells

    base = base or ExperimentConfig()
    trace = trace or shared_trace()
    cells = {
        (policy, ws): SweepCell(
            config=replace(base, policy=policy, working_set=ws),
            trace=trace.config,
        )
        for ws in working_sets
        for policy in policies
    }
    return run_keyed_cells(cells, workers=workers, store=store, resume=resume)
