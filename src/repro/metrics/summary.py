"""Summary statistics: the paper's evaluation metrics (§V).

Three headline metrics (§V-A): average function latency, cache miss ratio,
and GPU (SM) utilization; plus the efficiency metrics of §V-D (false miss
ratio, average duplicates of the hottest model) and the latency variance
examined in the O3 sensitivity study (§V-E).

Request-level quantities come from one of two sources, chosen by what the
collector still holds: while its exact window is open, NumPy reductions
over the completion *columns* (means, percentiles, masked SLA counts);
once the window has closed, the log histograms and running sums the rows
were folded into.  Counts, rates and ratios are exact either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster.topology import Cluster
from .collector import MetricsCollector

__all__ = ["RunSummary", "summarize"]


@dataclass(frozen=True)
class RunSummary:
    """All evaluation metrics for one experiment run."""

    policy: str
    working_set: int
    completed_requests: int
    avg_latency_s: float          # Fig. 4a
    latency_variance: float       # §V-E variance claim
    p50_latency_s: float
    p99_latency_s: float
    cache_miss_ratio: float       # Fig. 4b
    sm_utilization: float         # Fig. 4c (mean over GPUs)
    false_miss_ratio: float       # Fig. 5
    avg_duplicates_top_model: float  # Fig. 6
    top_model: str | None
    avg_queueing_s: float
    horizon_s: float
    #: fraction of SLA-carrying requests that missed their deadline
    #: (0.0 when the workload carries no SLAs)
    sla_violation_ratio: float = 0.0
    # -- availability under faults (chaos replays; all zero when healthy) --
    #: requests dropped (deadline timeout / retry budget exhausted)
    lost_requests: int = 0
    #: failure-retry resubmissions absorbed across all requests
    total_retries: int = 0
    #: completions *within SLA* per second (no-SLA requests count as good);
    #: under faults this is the availability headline — throughput that
    #: actually served users, not just survived
    goodput_rps: float = 0.0
    #: faults that took effect during the run
    faults_injected: int = 0
    #: mean time-to-repair over healed faults (crash→recover, escalation→heal)
    mean_mttr_s: float = 0.0

    def row(self) -> dict[str, float | str | int | None]:
        """Flat dict for report tables."""
        return {
            "policy": self.policy,
            "working_set": self.working_set,
            "completed": self.completed_requests,
            "avg_latency_s": round(self.avg_latency_s, 3),
            "latency_var": round(self.latency_variance, 3),
            "p50_s": round(self.p50_latency_s, 3),
            "p99_s": round(self.p99_latency_s, 3),
            "miss_ratio": round(self.cache_miss_ratio, 4),
            "sm_util": round(self.sm_utilization, 4),
            "false_miss_ratio": round(self.false_miss_ratio, 4),
            "avg_dups_top1": round(self.avg_duplicates_top_model, 3),
        }


def per_architecture_breakdown(collector: MetricsCollector) -> dict[str, dict[str, float]]:
    """Per-architecture statistics: count, mean latency, miss ratio.

    Big models (vgg19) pay more per miss than small ones (squeezenet), so
    the breakdown shows where the locality wins come from.  With the
    window open, groups by the interned architecture codes: one boolean
    mask per architecture instead of a Python dict-of-lists pass over the
    requests.  Past the close, reads the per-architecture histograms.
    """
    names = collector.architectures
    #: architecture code -> (count, mean latency, p99 latency, misses)
    cells: dict[int, tuple[int, float, float, float]] = {}
    if collector.window_open:
        cols = collector.columns()
        lat = cols.latency
        misses = cols.cache_hit == 0
        for code in range(len(names)):
            mask = cols.architecture == code
            sel = lat[mask]
            cells[code] = (
                int(mask.sum()),
                float(sel.mean()),
                float(np.percentile(sel, 99)),
                float(misses[mask].sum()),
            )
    else:
        for code, stats in collector._arch_stats.items():
            hist = stats.hist
            cells[code] = (hist.count, hist.mean(), hist.percentile(99), stats.misses)
    return {
        names[code]: {
            "count": float(n),
            "avg_latency_s": avg,
            "p99_latency_s": p99,
            "miss_ratio": n_misses / n,
        }
        for code, (n, avg, p99, n_misses) in sorted(
            cells.items(), key=lambda cell: names[cell[0]]
        )
    }


def summarize(
    collector: MetricsCollector,
    cluster: Cluster,
    *,
    policy: str = "?",
    working_set: int = 0,
    horizon: float | None = None,
    top_model: str | None = None,
) -> RunSummary:
    """Compute the full metric set from a finished run.

    ``top_model`` defaults to the most-invoked model instance; pass it
    explicitly when the workload's hottest function is known a priori.
    ``horizon`` defaults to the collector's current simulated time.

    While the collector's exact window is open every quantity is an exact
    reduction of the retained rows.  Once it has closed, counts / ratios /
    SLA numbers stay exact (running counters), means come from compensated
    sums, and quantiles come from the log histograms within their
    documented relative-error bound.
    """
    n = collector.completed_count
    end = horizon if horizon is not None else collector.sim.now
    duration = max(end - collector.started_at, 1e-12)
    if not n:
        raise ValueError("no completed requests to summarize")
    if collector.window_open:
        cols = collector.columns()
        lat = cols.latency
        avg_latency = float(lat.mean())
        latency_var = float(lat.var(ddof=0))
        p50 = float(np.percentile(lat, 50))
        p99 = float(np.percentile(lat, 99))
        queueing_mean = float(np.mean(cols.queueing))
        with_sla = ~np.isnan(cols.sla_s)
        n_sla = int(with_sla.sum())
        n_violations = int(np.sum(lat[with_sla] > cols.sla_s[with_sla]))
    else:
        hist = collector.lat_hist
        avg_latency = hist.mean()
        latency_var = hist.variance()
        p50 = hist.percentile(50)
        p99 = hist.percentile(99)
        queueing_mean = collector.queueing_sum / n
        n_sla = collector.sla_total
        n_violations = collector.sla_violations
    top = top_model if top_model is not None else collector.most_invoked_model()
    sm = float(np.mean([g.sm_utilization(horizon=duration) for g in cluster.gpus]))
    return RunSummary(
        policy=policy,
        working_set=working_set,
        completed_requests=n,
        avg_latency_s=avg_latency,
        latency_variance=latency_var,
        p50_latency_s=p50,
        p99_latency_s=p99,
        cache_miss_ratio=collector.miss_count / n,
        sm_utilization=sm,
        false_miss_ratio=collector.false_miss_count / n,
        avg_duplicates_top_model=(
            collector.average_duplicates(top, horizon=end) if top is not None else 0.0
        ),
        top_model=top,
        avg_queueing_s=queueing_mean,
        horizon_s=duration,
        sla_violation_ratio=n_violations / n_sla if n_sla else 0.0,
        lost_requests=collector.lost_count,
        total_retries=collector.retries_total,
        # goodput: completions that met their SLA (best-effort requests
        # count as good) per second of run
        goodput_rps=(n - n_violations) / duration,
        faults_injected=collector.faults_injected,
        mean_mttr_s=collector.mean_mttr(),
    )
