"""The replay driver: one trace-driven run of the full system.

:func:`replay` is the single spelling of build → inject → run → summarize
behind every scheduler-level consumer — ``run_experiment``, the sweep's
``execute_cell``, the ablations, and the CLI's ``trace`` / ``explain``
targets.  It submits :class:`InferenceRequest` objects straight to the
Scheduler — that is what the paper measures (function latency excludes
container management, which both schedulers share).

:func:`replay_through_gateway` replays the same workload through the
*entire* FaaS front-end instead: every workload function is registered via
the Gateway (Dockerfile flag parsing, ML-API interception, container
pools, Watchdog), and every trace invocation becomes a Gateway call.
Useful for end-to-end validation (the scheduler-level and gateway-level
runs must agree on cache behaviour) and for studying FaaS-layer overheads
(cold starts, container contention) that the paper factors out.  It
returns a different result through a different front-end, so it stays
separate code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..faas.gateway import Gateway
from ..faas.spec import FunctionSpec
from ..faas.watchdog import Invocation
from ..metrics.summary import RunSummary, summarize
from ..runtime.config import SystemConfig
from ..runtime.system import FaaSCluster
from ..traces.azure import SyntheticAzureTrace
from ..traces.workload import (
    StreamingWorkload,
    Workload,
    WorkloadSpec,
    assign_architectures,
    build_workload,
)

__all__ = ["GatewayReplay", "replay", "replay_through_gateway"]


def replay(
    config: SystemConfig,
    workload: Workload | StreamingWorkload,
    *,
    label: str | None = None,
    prepare: Callable[[FaaSCluster], None] | None = None,
) -> tuple[RunSummary, FaaSCluster]:
    """Build the system, inject ``workload``, run to drain, summarize.

    A :class:`~repro.traces.StreamingWorkload` is fed chunk by chunk
    (:meth:`FaaSCluster.submit_workload_streaming` — pair it with
    :func:`~repro.runtime.config.streaming_config` for flat RSS), a
    :class:`~repro.traces.Workload` in one bulk injection.  ``prepare``
    runs on the built system before anything is injected (attach a probe,
    swap a policy); ``label`` overrides the summary's policy name.

    Returns the run summary plus the drained system for drill-down.
    """
    system = FaaSCluster(config)
    if prepare is not None:
        prepare(system)
    if isinstance(workload, StreamingWorkload):
        system.submit_workload_streaming(workload)
    else:
        system.submit_workload(workload)
    system.run()
    summary = summarize(
        system.metrics,
        system.cluster,
        policy=label or config.policy,
        working_set=workload.spec.working_set,
        top_model=workload.top_model_id,
    )
    return summary, system


@dataclass
class GatewayReplay:
    """Results of a gateway-level replay."""

    system: FaaSCluster
    gateway: Gateway
    workload: Workload
    invocations: list[Invocation] = field(default_factory=list)

    @property
    def completed_invocations(self) -> list[Invocation]:
        return [inv for inv in self.invocations if inv.completed_at is not None]

    def avg_invocation_latency(self) -> float:
        done = self.completed_invocations
        if not done:
            raise ValueError("no completed invocations")
        return float(np.mean([inv.latency for inv in done]))

    def avg_gpu_latency(self) -> float:
        """Scheduler-visible latency (excludes container/Watchdog overhead)."""
        reqs = self.system.completed
        if not reqs:
            raise ValueError("no completed GPU requests")
        return float(np.mean([r.latency for r in reqs]))

    def faas_overhead(self) -> float:
        """Mean per-invocation overhead added by the FaaS layer."""
        return self.avg_invocation_latency() - self.avg_gpu_latency()

    def cache_miss_ratio(self) -> float:
        reqs = self.system.completed
        return sum(1 for r in reqs if r.cache_hit is False) / len(reqs)


def replay_through_gateway(
    spec: WorkloadSpec | None = None,
    *,
    config: SystemConfig | None = None,
    trace: SyntheticAzureTrace | None = None,
    max_replicas: int = 32,
    warmup_s: float = 5.0,
) -> GatewayReplay:
    """Register the workload's functions and replay its invocations.

    Containers are pre-built during ``warmup_s`` (registration pays the
    image build once, as in a real deployment); invocation arrival times
    are shifted by the warm-up so the GPU-side workload matches the paper's
    timing.
    """
    spec = spec or WorkloadSpec()
    trace = trace or SyntheticAzureTrace()
    workload = build_workload(spec, trace=trace)
    system = FaaSCluster(config or SystemConfig())
    gateway = Gateway(system)

    arch_of = assign_architectures(workload.function_ids)
    for fid in workload.function_ids:
        fn = gateway.register(
            FunctionSpec(
                name=fid,
                model_architecture=arch_of[fid],
                max_replicas=max_replicas,
            )
        )
        # the gateway minted its own model instance; align the workload's
        # cache-item identity with it so per-function caching matches
        workload.instances[fid] = fn.model_handle.instance
    system.run(until=warmup_s)  # image builds + first replicas

    result = GatewayReplay(system=system, gateway=gateway, workload=workload)

    def fire(fid: str) -> None:
        result.invocations.append(gateway.invoke(fid))

    # gateway invocations need only (time, function name): feed the
    # workload's columns straight into the bulk scheduler — no
    # InferenceRequest objects are materialized on this path at all
    fids = workload.function_ids
    system.sim.schedule_many(
        (warmup_s + workload.arrival_times).tolist(),
        fire,
        ((fids[i],) for i in workload.function_index.tolist()),
    )
    system.run()
    return result
