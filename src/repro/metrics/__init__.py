"""Metrics: per-run collection and the paper's evaluation summaries."""

from .. import _lazy_exports

_EXPORTS = {
    "DEFAULT_GROWTH": ".histogram",
    "LogHistogram": ".histogram",
    "MetricsCollector": ".collector",
    "RunSummary": ".summary",
    "per_architecture_breakdown": ".summary",
    "prometheus_exposition": ".exposition",
    "quantile_error_bound": ".histogram",
    "summarize": ".summary",
    "TIMELINE_FIELDS": ".timeline",
    "TimelineProbe": ".timeline",
    "TimelineSample": ".timeline",
}

__all__ = [*_EXPORTS]
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
