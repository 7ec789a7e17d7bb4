"""Figure 7: O3 dispatch limit sensitivity (working set 35).

Sweeps the out-of-order skip limit from 0 (= LALB) to 45 and reports the
average function latency, cache miss ratio, and latency variance — §V-E
also highlights that the larger limit *reduces* the latency variance,
because the extra cache hits outweigh the unfairness of skipping.
"""

from __future__ import annotations

from dataclasses import replace

from ..metrics.summary import RunSummary
from ..traces.azure import SyntheticAzureTrace
from .report import format_table
from .runner import ExperimentConfig, run_experiment, shared_trace

__all__ = ["PAPER_O3_LIMITS", "run_fig7", "format_fig7"]

PAPER_O3_LIMITS = (0, 5, 15, 25, 35, 45)


def run_fig7(
    limits: tuple[int, ...] = PAPER_O3_LIMITS,
    *,
    working_set: int = 35,
    base: ExperimentConfig | None = None,
    trace: SyntheticAzureTrace | None = None,
) -> dict[int, RunSummary]:
    """The O3-limit axis: one LALBO3 run per limit, keyed by limit."""
    base = base or ExperimentConfig(policy="lalbo3", working_set=working_set)
    trace = trace or shared_trace()
    return {
        limit: run_experiment(
            replace(base, policy="lalbo3", working_set=working_set, o3_limit=limit),
            trace=trace,
        )
        for limit in limits
    }


def format_fig7(results: dict[int, RunSummary]) -> str:
    rows = [
        [
            limit,
            round(s.avg_latency_s, 3),
            round(s.cache_miss_ratio, 4),
            round(s.latency_variance, 3),
        ]
        for limit, s in sorted(results.items())
    ]
    table = format_table(
        ["O3 limit", "avg latency (s)", "miss ratio", "latency variance"], rows
    )
    return f"Figure 7: O3 limit sensitivity (working set 35)\n{table}"
