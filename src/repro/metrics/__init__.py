"""Metrics: per-run collection and the paper's evaluation summaries."""

from .collector import MetricsCollector
from .exposition import prometheus_exposition
from .histogram import DEFAULT_GROWTH, LogHistogram, quantile_error_bound
from .summary import RunSummary, per_architecture_breakdown, summarize
from .timeline import TIMELINE_FIELDS, TimelineProbe, TimelineSample

__all__ = [
    "DEFAULT_GROWTH",
    "LogHistogram",
    "MetricsCollector",
    "RunSummary",
    "per_architecture_breakdown",
    "prometheus_exposition",
    "quantile_error_bound",
    "summarize",
    "TIMELINE_FIELDS",
    "TimelineProbe",
    "TimelineSample",
]
