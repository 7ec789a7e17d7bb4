"""Prometheus-style text exposition of a run's counters and gauges.

:func:`prometheus_exposition` snapshots the metric state a built
:class:`~repro.runtime.system.FaaSCluster` already maintains — the
collector's running counters, the scheduler's pass accounting, the
Datastore's revision, the sim kernel's event counts — into the
Prometheus text exposition format (``# HELP`` / ``# TYPE`` lines,
``metric{label="v"} value`` samples).  Pure rendering: nothing here
adds state or hot-path cost; it reads counters that exist either way.

Request latency is rendered as a Prometheus histogram (cumulative ``le``
buckets over the non-empty buckets of the collector's
:meth:`~repro.metrics.collector.MetricsCollector.latency_histogram`, plus
``_sum`` / ``_count``) in every configuration.
"""

from __future__ import annotations

__all__ = ["prometheus_exposition"]


def _sample(lines: list[str], name: str, value, labels: str = "") -> None:
    if isinstance(value, float):
        lines.append(f"{name}{labels} {value!r}")
    else:
        lines.append(f"{name}{labels} {value}")


def _metric(lines: list[str], name: str, kind: str, help_text: str) -> None:
    lines.append(f"# HELP {name} {help_text}")
    lines.append(f"# TYPE {name} {kind}")


def prometheus_exposition(system) -> str:
    """Render the system's counters/gauges as Prometheus text format."""
    lines: list[str] = []
    sim = system.sim
    metrics = system.metrics
    scheduler = system.scheduler

    _metric(lines, "repro_sim_time_seconds", "gauge", "Current simulation time")
    _sample(lines, "repro_sim_time_seconds", float(sim.now))
    stats = sim.kernel_stats()
    _metric(lines, "repro_sim_events_processed_total", "counter",
            "Simulator events fired")
    _sample(lines, "repro_sim_events_processed_total", stats["processed"])
    _metric(lines, "repro_sim_events_pending", "gauge",
            "Live (scheduled, uncancelled) simulator events")
    _sample(lines, "repro_sim_events_pending", stats["pending"])

    _metric(lines, "repro_requests_completed_total", "counter",
            "Requests completed")
    _sample(lines, "repro_requests_completed_total", metrics.completed_count)
    _metric(lines, "repro_requests_lost_total", "counter",
            "Requests dropped without completing, by reason")
    for reason in sorted(metrics.lost_reasons):
        _sample(lines, "repro_requests_lost_total",
                metrics.lost_reasons[reason], f'{{reason="{reason}"}}')
    _metric(lines, "repro_cache_misses_total", "counter",
            "Completions that required a model load")
    _sample(lines, "repro_cache_misses_total", metrics.miss_count)
    _metric(lines, "repro_cache_false_misses_total", "counter",
            "Misses while the model was resident elsewhere (paper Sec. V-D)")
    _sample(lines, "repro_cache_false_misses_total", metrics.false_miss_count)
    _metric(lines, "repro_retries_total", "counter",
            "Failure resubmissions absorbed by finished requests")
    _sample(lines, "repro_retries_total", metrics.retries_total)
    _metric(lines, "repro_cache_events_total", "counter",
            "Cache load/evict/use events observed")
    _sample(lines, "repro_cache_events_total", metrics.cache_events)

    _metric(lines, "repro_faults_injected_total", "counter",
            "Faults that took effect (chaos injector / watchdog)")
    _sample(lines, "repro_faults_injected_total", metrics.faults_injected)
    _metric(lines, "repro_fault_repairs_total", "counter", "Faults healed")
    _sample(lines, "repro_fault_repairs_total", len(metrics.repairs))
    _metric(lines, "repro_fault_mttr_seconds", "gauge",
            "Mean time-to-repair over healed faults")
    _sample(lines, "repro_fault_mttr_seconds", float(metrics.mean_mttr()))

    _metric(lines, "repro_scheduler_actions_total", "counter",
            "Scheduling actions (entry-point invocations)")
    _sample(lines, "repro_scheduler_actions_total", scheduler.actions)
    _metric(lines, "repro_scheduler_passes_total", "counter",
            "Considered scheduling passes, by outcome")
    _sample(lines, "repro_scheduler_passes_total",
            scheduler.passes_executed, '{outcome="executed"}')
    _sample(lines, "repro_scheduler_passes_total",
            scheduler.passes_elided, '{outcome="elided"}')
    _metric(lines, "repro_dispatched_total", "counter", "Requests dispatched")
    _sample(lines, "repro_dispatched_total", scheduler.dispatched_count)
    _metric(lines, "repro_decisions_total", "counter",
            "Scheduling decisions recorded, by kind")
    for kind, n in sorted(scheduler.decisions.counts().items()):
        _sample(lines, "repro_decisions_total", n, f'{{kind="{kind}"}}')

    kv = system.datastore.kv
    _metric(lines, "repro_kv_revision", "gauge", "Datastore MVCC revision")
    _sample(lines, "repro_kv_revision", kv.revision)
    _metric(lines, "repro_kv_live_keys", "gauge", "Live Datastore keys")
    _sample(lines, "repro_kv_live_keys", len(kv))

    tracer = getattr(system, "tracer", None)
    if tracer is not None:
        _metric(lines, "repro_trace_records_total", "counter",
                "Flight-recorder records offered, by ring")
        totals = tracer.totals
        dropped = tracer.dropped
        for ring in sorted(totals):
            _sample(lines, "repro_trace_records_total",
                    totals[ring], f'{{ring="{ring}"}}')
        _metric(lines, "repro_trace_records_dropped_total", "counter",
                "Flight-recorder records overwritten past capacity, by ring")
        for ring in sorted(dropped):
            _sample(lines, "repro_trace_records_dropped_total",
                    dropped[ring], f'{{ring="{ring}"}}')

    hist = metrics.latency_histogram()
    name = "repro_request_latency_seconds"
    _metric(lines, name, "histogram",
            "End-to-end request latency (log-bucketed histogram)")
    cumulative = 0
    counts = hist.counts
    for i in range(len(counts)):
        c = int(counts[i])
        if not c:
            continue
        cumulative += c
        le = hist.lo * hist.growth ** (i + 1)
        _sample(lines, f"{name}_bucket", cumulative, f'{{le="{le!r}"}}')
    _sample(lines, f"{name}_bucket", cumulative, '{le="+Inf"}')
    _sample(lines, f"{name}_sum", float(hist.sum))
    _sample(lines, f"{name}_count", hist.count)
    return "\n".join(lines) + "\n"
