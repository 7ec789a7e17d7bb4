"""The replay driver: one trace-driven run of the full system.

:func:`replay` is the single spelling of build → inject → run → summarize
behind every scheduler-level consumer — ``run_experiment`` (and so every
§V grid), the ablations, and the CLI's ``trace`` / ``explain`` targets.
It submits :class:`InferenceRequest` objects straight to the Scheduler —
that is what the paper measures (function latency excludes container
management, which both schedulers share).
"""

from __future__ import annotations

from typing import Callable

from ..metrics.summary import RunSummary, summarize
from ..runtime.config import SystemConfig
from ..runtime.system import FaaSCluster
from ..traces.workload import StreamingWorkload, Workload

__all__ = ["replay"]


def replay(
    config: SystemConfig,
    workload: Workload | StreamingWorkload,
    *,
    label: str | None = None,
    prepare: Callable[[FaaSCluster], None] | None = None,
) -> tuple[RunSummary, FaaSCluster]:
    """Build the system, inject ``workload``, run to drain, summarize.

    Either workload kind is fed chunk by chunk
    (:meth:`FaaSCluster.submit_workload`; pair a
    :class:`~repro.traces.StreamingWorkload` with
    :func:`~repro.runtime.config.streaming_config` for flat RSS).  ``prepare``
    runs on the built system before anything is injected (attach a probe,
    swap a policy); ``label`` overrides the summary's policy name.

    A request still queued once the run drains — a ``max_processes=0``
    quota refuses its tenant on every idle GPU with nothing left to wake
    the scheduler — leaves as LOST (reason ``"stranded"``), so every
    request of the workload is either completed or lost.

    Returns the run summary plus the drained system for drill-down.
    """
    system = FaaSCluster(config)
    if prepare is not None:
        prepare(system)
    system.submit_workload(workload)
    system.run()
    scheduler = system.scheduler
    for request in scheduler.global_queue:
        scheduler.global_queue.remove(request)
        scheduler.give_up(request, "stranded")
    for gpu in system.cluster.gpus:
        for request in scheduler.drain_local(gpu):
            scheduler.give_up(request, "stranded")
    summary = summarize(
        system.metrics,
        system.cluster,
        policy=label or config.policy,
        working_set=workload.spec.working_set,
        top_model=workload.top_model_id,
    )
    return summary, system
