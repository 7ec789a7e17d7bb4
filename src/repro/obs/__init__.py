"""Observability: flight-recorder tracing, trace export, explain mode.

The zero-cost-when-off tracing layer threaded through the control
plane.  Components hold a tracer attribute defaulting to ``None`` and
guard each hook with one ``is not None`` test; ``SystemConfig(
tracer="flight")`` installs a :class:`FlightRecorder` whose fixed-size
ring buffers capture request lifecycles, scheduler passes, KV commits,
and chaos/cache instants.  :func:`write_chrome_trace` exports the rings
as Perfetto-loadable ``trace.json``; ``SystemConfig(
trace_decisions=True)`` adds the scheduler explain mode
(:class:`ExplainLog`).  See ``docs/observability.md``.
"""

from .explain import Cause, ExplainLog, format_request_causes, run_explain
from .export import chrome_trace_events, validate_chrome_trace, write_chrome_trace
from .tracer import FlightRecorder

__all__ = [
    "Cause",
    "ExplainLog",
    "FlightRecorder",
    "chrome_trace_events",
    "format_request_causes",
    "run_explain",
    "validate_chrome_trace",
    "write_chrome_trace",
]
