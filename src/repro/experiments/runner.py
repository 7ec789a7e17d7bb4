"""Experiment runner: one trace-driven run of the full system.

Every figure in §V is regenerated by looping :func:`run_experiment` over
policies (O3 limits among them) / working sets, in process, over one
shared trace.
Runs are deterministic in their seeds; results carry the full
:class:`~repro.metrics.RunSummary`.  :class:`SweepSpec` names a grid's
axes and expands them into the configs to run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

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
    "SweepSpec",
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
    replacement: str = "lru"
    cluster: ClusterSpec = PAPER_TESTBED
    #: optional per-request SLA in seconds (None = the paper's best-effort)
    sla_s: float | None = None
    seed: int = 0
    #: named chaos profile (``"none"`` = no fault injection; see
    #: :data:`repro.chaos.FAULT_PROFILES`)
    fault_profile: str = "none"

    def __post_init__(self) -> None:
        # a typo or an out-of-range scale fails here, not mid-sweep
        self.system_config(), self.workload_spec()

    def label(self) -> str:
        if self.fault_profile != "none":
            return f"{self.policy}@{self.fault_profile}"
        return self.policy

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
) -> dict[tuple[str, int], RunSummary]:
    """The §V sweep behind Figs. 4, 5, and 6: policies × working sets."""
    base = base or ExperimentConfig()
    trace = trace or shared_trace()
    return {
        (policy, ws): run_experiment(
            replace(base, policy=policy, working_set=ws), trace=trace
        )
        for ws in working_sets
        for policy in policies
    }


@dataclass(frozen=True)
class SweepSpec:
    """Declarative §V grid: the cross product of the named axes."""

    policies: tuple[str, ...] = PAPER_POLICIES
    working_sets: tuple[int, ...] = (15, 25, 35)
    replacements: tuple[str, ...] = ("lru",)
    seeds: tuple[int, ...] = (0,)
    slas: tuple[float | None, ...] = (None,)
    #: chaos axis: named fault profiles from
    #: :data:`repro.chaos.FAULT_PROFILES` (``"none"`` = healthy runs)
    fault_profiles: tuple[str, ...] = ("none",)
    #: workload scale (§V-A.1 defaults)
    minutes: int = 6
    requests_per_minute: int = 325
    cluster: ClusterSpec = PAPER_TESTBED
    trace: AzureTraceConfig = AzureTraceConfig()

    def __post_init__(self) -> None:
        for name in (
            "policies", "working_sets", "replacements", "seeds", "slas",
            "fault_profiles",
        ):
            if not getattr(self, name):
                raise ValueError(f"sweep axis {name!r} is empty")

    def cells(self) -> tuple[ExperimentConfig, ...]:
        """The cross product as configs, seed outermost and policy
        innermost, a value repeated on an axis folded to its first cell."""
        configs = (
            ExperimentConfig(
                policy=policy,
                working_set=ws,
                minutes=self.minutes,
                requests_per_minute=self.requests_per_minute,
                replacement=replacement,
                cluster=self.cluster,
                sla_s=sla,
                seed=seed,
                fault_profile=fault_profile,
            )
            for seed, fault_profile, sla, replacement, ws, policy in product(
                self.seeds, self.fault_profiles, self.slas, self.replacements,
                self.working_sets, self.policies,
            )
        )
        return tuple(dict.fromkeys(configs))
