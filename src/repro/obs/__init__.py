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

from .. import _lazy_exports

_EXPORTS = {
    "Cause": ".explain",
    "ExplainLog": ".explain",
    "FlightRecorder": ".tracer",
    "chrome_trace_events": ".export",
    "format_request_causes": ".explain",
    "run_explain": ".explain",
    "validate_chrome_trace": ".export",
    "write_chrome_trace": ".export",
}

__all__ = [*_EXPORTS]
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
