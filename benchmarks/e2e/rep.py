"""One repetition of one workload, measured in this (fresh) process.

``run.py`` spawns one child per repetition and the child calls
:func:`run_rep`.  The system is driven only through its public entry
points and built from its default configuration, so the numbers are those
of whatever the production path currently is.

The replay window is: materialize the request objects → ``submit_workload*``
→ six ``run(until=T*k/6)`` slices and the drain → ``summarize``.  Set-up
(interpreter start → imports → trace → workload build → ``FaaSCluster``)
is timed separately, from the parent's spawn stamp.
"""

from __future__ import annotations

import gc
import resource
import time
from contextlib import contextmanager
from time import perf_counter

from schema import SLICES, WORKLOADS

__all__ = ["run_rep"]


@contextmanager
def _span(rec, name: str):
    if rec is None:
        yield
        return
    i = rec.begin(name)
    try:
        yield
    finally:
        rec.finish(i)


def _counters(system) -> dict[str, int]:
    sched, stats, metrics = system.scheduler, system.datastore.stats, system.metrics
    return {
        "sim.events": system.sim.processed_events,
        "scheduler.actions": sched.actions,
        "scheduler.passes_executed": sched.passes_executed,
        "scheduler.passes_elided": sched.passes_elided,
        "scheduler.dispatched": sched.dispatched_count,
        "datastore.logical_writes": stats.logical_writes,
        "datastore.flushes": stats.flushes,
        "datastore.committed_keys": stats.committed_keys,
        "datastore.coalesced_writes": stats.coalesced_writes,
        "datastore.revisions": system.datastore.kv.revision,
        "metrics.completed": metrics.completed_count,
        "metrics.misses": metrics.miss_count,
    }


def run_rep(job: dict) -> dict:
    wl = WORKLOADS[job["workload"]]
    seed = job["seed"]
    rec = None
    if job["traced"]:
        from spans import Recorder, install

        rec = Recorder()
        install(rec)

    from repro.metrics import summarize
    from repro.runtime import FaaSCluster, SystemConfig, streaming_config
    from repro.traces import (
        SyntheticAzureTrace,
        WorkloadSpec,
        build_workload,
        build_workload_streaming,
    )

    # ---- set-up -------------------------------------------------------
    minutes = wl.smoke_minutes if job["smoke"] else wl.minutes
    spec = WorkloadSpec(
        working_set=wl.working_set,
        minutes=minutes,
        requests_per_minute=wl.requests_per_minute,
        seed=seed,
    )
    t_build = perf_counter()
    trace = SyntheticAzureTrace()
    if wl.streaming:
        workload = build_workload_streaming(spec, trace=trace)
        config = streaming_config(seed=seed)
    else:
        workload = build_workload(spec, trace=trace)
        config = SystemConfig(policy="lalbo3", seed=seed)
    build_ms = (perf_counter() - t_build) * 1e3
    system = FaaSCluster(config)
    setup_s = time.time() - job["t_spawn"]
    if job["setup_only"]:
        return {"setup_s": setup_s}

    metrics, queue = system.metrics, system.scheduler.global_queue
    gc.collect()
    base = _counters(system)
    gc_callback = None
    if rec is not None:
        rec.reset()
        gc_callback = rec.watch_gc()

    # ---- replay window ------------------------------------------------
    t0 = perf_counter()
    if not wl.streaming:
        with _span(rec, "traces.materialize"):
            workload.requests  # built once here, reused by submit_workload
    t_materialized = perf_counter()
    with _span(rec, "runtime.inject"):
        if wl.streaming:
            system.submit_workload_streaming(workload)
        else:
            system.submit_workload(workload)
    t_injected = perf_counter()

    horizon = minutes * 60.0
    marks = [(t_injected, metrics.completed_count)]
    depths = []
    for k in range(1, SLICES + 1):
        if rec is not None:
            rec.segment = k
        with _span(rec, "sim.run"):
            system.run(until=horizon * k / SLICES)
        depths.append(len(queue))
        if k == SLICES:
            with _span(rec, "sim.run"):
                system.run()  # drain: belongs to the last slice
        marks.append((perf_counter(), metrics.completed_count))

    if rec is not None:
        rec.segment = SLICES + 1
    t_summarize = perf_counter()
    with _span(rec, "metrics.summarize"):
        summary = summarize(
            metrics,
            system.cluster,
            policy=config.policy,
            working_set=wl.working_set,
            top_model=workload.top_model_id,
        )
    t1 = perf_counter()
    # ---- end of window ------------------------------------------------
    if gc_callback is not None:
        gc.callbacks.remove(gc_callback)

    end = _counters(system)
    result = {
        "setup_s": setup_s,
        "build_ms": build_ms,
        "submitted": len(workload),
        "completed": metrics.completed_count,
        "lost": metrics.lost_count,
        "pending_events": len(system.sim),
        "wall_s": t1 - t0,
        "materialize_s": t_materialized - t0,
        "inject_s": t_injected - t_materialized,
        "summarize_s": t1 - t_summarize,
        "segments": [
            [b[0] - a[0], b[1] - a[1]] for a, b in zip(marks, marks[1:])
        ],
        "queue_depths": depths,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim": {
            "avg_latency_s": summary.avg_latency_s,
            "p50_latency_s": summary.p50_latency_s,
            "p99_latency_s": summary.p99_latency_s,
            "hit_ratio": 1.0 - summary.cache_miss_ratio,
            "false_miss_ratio": summary.false_miss_ratio,
            "sm_utilization": summary.sm_utilization,
            "avg_queueing_s": summary.avg_queueing_s,
        },
        "counters": {key: end[key] - base[key] for key in end},
        "history_entries_end": system.datastore.kv.history_entry_count(),
    }
    if rec is not None:
        result["span_count"] = rec.n
        result["spans"] = rec.reduce()
    return result
