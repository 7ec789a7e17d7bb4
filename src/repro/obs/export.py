"""Chrome trace-event export of a :class:`FlightRecorder`.

Produces the JSON object format Perfetto and ``chrome://tracing``
consume (``{"traceEvents": [...]}``), mapping sim seconds to the trace
format's microsecond ``ts``.  Tracks:

* **pid 1 — requests**: one thread per GPU carrying ``X`` (complete)
  slices for each request's on-GPU service — a ``load …`` slice from
  dispatch to exec-start when the model had to upload, then an
  ``infer …`` slice to completion.  Queue waits ride alongside as
  async ``b``/``e`` pairs (cat ``queue``, id = request id), so the
  arrival → dispatch gap is visible per request without overlapping
  the GPU slices.
* **pid 2 — scheduler**: one ``X`` slice per executed scheduling pass.
  Pass wall time is real time, not sim time, so the slice anchors at
  the pass's sim ``ts`` and its duration is the measured wall
  microseconds clamped to the gap before the next pass — long enough
  to eyeball relative cost, never overlapping.
* **pid 3 — datastore**: one ``X`` slice per Datastore commit (same
  wall-clamping rule), args carrying the keys mutated.
* **pid 4 — faults**: chaos fault / repair / skipped-overlap and lost-
  request ``i`` instants.
* **pid 5 — cache**: model load / evict ``i`` instants.

:func:`validate_chrome_trace` checks the structural rules the format
imposes (phase-specific required fields) so CI can gate emitted traces
without a browser.
"""

from __future__ import annotations

import json
from typing import Any

from .tracer import FlightRecorder

__all__ = ["chrome_trace_events", "write_chrome_trace", "validate_chrome_trace"]

_PID_REQUESTS = 1
_PID_SCHEDULER = 2
_PID_DATASTORE = 3
_PID_FAULTS = 4
_PID_CACHE = 5

_PROCESS_NAMES = {
    _PID_REQUESTS: "requests (per-GPU service)",
    _PID_SCHEDULER: "scheduler passes",
    _PID_DATASTORE: "datastore commits",
    _PID_FAULTS: "faults",
    _PID_CACHE: "cache events",
}


def _us(t: float) -> float:
    """Sim seconds → trace microseconds (µs precision is plenty)."""
    return round(t * 1e6, 3)


def _meta(pid: int, name: str, tid: int | None = None) -> dict:
    ev: dict[str, Any] = {
        "ph": "M",
        "pid": pid,
        "tid": 0 if tid is None else tid,
        "name": "process_name" if tid is None else "thread_name",
        "args": {"name": name},
    }
    return ev


def _wall_slices(records: list[tuple], pid: int, name: str, arg_key: str) -> list[dict]:
    """Zero-sim-duration span records → non-overlapping ``X`` slices.

    ``records`` rows are ``(sim_time_s, wall_ns, count)``.  The slice
    duration is the measured wall time in µs, clamped to the sim gap
    before the next record on the track (0 when two records share a sim
    instant) so slices never overlap.
    """
    events = []
    n = len(records)
    for idx, (t, wall_ns, count) in enumerate(records):
        ts = _us(t)
        dur = wall_ns / 1000.0
        if idx + 1 < n:
            gap = _us(records[idx + 1][0]) - ts
            if gap < dur:
                dur = max(gap, 0.0)
        events.append({
            "ph": "X", "pid": pid, "tid": 1, "ts": ts, "dur": round(dur, 3),
            "name": name, "cat": name.split(" ")[0],
            "args": {arg_key: count, "wall_ns": wall_ns},
        })
    return events


def chrome_trace_events(recorder: FlightRecorder) -> list[dict]:
    """Flatten the recorder's rings into Chrome trace events."""
    events: list[dict] = [
        _meta(pid, name) for pid, name in _PROCESS_NAMES.items()
    ]
    model_names = recorder.model_names
    gpu_names = recorder.gpu_names
    for code, gpu in enumerate(gpu_names):
        events.append(_meta(_PID_REQUESTS, gpu, tid=code + 1))

    for (rid, arrival, dispatched, exec_start, completed,
         model, gpu, hit, retries) in recorder.request_records():
        model_name = model_names[model]
        if dispatched >= 0.0:
            # queue wait: async span so it stacks per-request, not per-GPU
            events.append({
                "ph": "b", "pid": _PID_REQUESTS, "tid": 0, "ts": _us(arrival),
                "cat": "queue", "id": rid, "name": f"queue {model_name}",
            })
            events.append({
                "ph": "e", "pid": _PID_REQUESTS, "tid": 0, "ts": _us(dispatched),
                "cat": "queue", "id": rid, "name": f"queue {model_name}",
            })
            tid = gpu + 1
            args = {"request_id": rid, "hit": hit, "retries": retries}
            if exec_start > dispatched:
                events.append({
                    "ph": "X", "pid": _PID_REQUESTS, "tid": tid,
                    "ts": _us(dispatched),
                    "dur": round(_us(exec_start) - _us(dispatched), 3),
                    "cat": "load", "name": f"load {model_name}", "args": args,
                })
                infer_start = exec_start
            else:
                infer_start = dispatched
            events.append({
                "ph": "X", "pid": _PID_REQUESTS, "tid": tid,
                "ts": _us(infer_start),
                "dur": round(_us(completed) - _us(infer_start), 3),
                "cat": "infer", "name": f"infer {model_name}", "args": args,
            })

    events.extend(
        _wall_slices(recorder.pass_records(), _PID_SCHEDULER,
                     "scheduling pass", "decisions")
    )
    events.extend(
        _wall_slices(recorder.commit_records(), _PID_DATASTORE,
                     "kv commit", "keys")
    )

    for t, name, detail in recorder.instant_records():
        pid = _PID_CACHE if name.startswith("cache:") else _PID_FAULTS
        events.append({
            "ph": "i", "pid": pid, "tid": 1, "ts": _us(t), "s": "p",
            "name": name, "cat": name.split(":")[0],
            "args": {"detail": detail},
        })
    return events


def write_chrome_trace(recorder: FlightRecorder, path: str) -> str:
    """Write ``trace.json`` (Perfetto / chrome://tracing loadable)."""
    payload = {
        "traceEvents": chrome_trace_events(recorder),
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.obs flight recorder",
            "records": recorder.totals,
            "dropped": recorder.dropped,
        },
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, separators=(",", ":"))
    return path


_INSTANT_SCOPES = frozenset("gpt")
_KNOWN_PHASES = frozenset("BEXibensM")


def validate_chrome_trace(payload: Any) -> list[str]:
    """Structural validation against the Chrome trace-event format.

    Returns a list of problems (empty = valid).  Checks the JSON object
    format's container shape and the per-phase required fields:
    ``X`` needs a non-negative ``dur``, async ``b``/``e`` need
    ``cat`` + ``id``, instants need a valid scope, and every non-meta
    event needs a numeric non-negative ``ts``.
    """
    problems: list[str] = []
    if not isinstance(payload, dict):
        return [f"top level must be a JSON object, got {type(payload).__name__}"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["missing 'traceEvents' array"]
    for n, ev in enumerate(events):
        where = f"event[{n}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in _KNOWN_PHASES:
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            problems.append(f"{where}: missing name")
        if not isinstance(ev.get("pid"), int):
            problems.append(f"{where}: missing integer pid")
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: phase {ph} needs a non-negative ts")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: X event needs a non-negative dur")
        elif ph in ("b", "e", "n"):
            if "cat" not in ev or "id" not in ev:
                problems.append(f"{where}: async {ph} event needs cat and id")
        elif ph == "i":
            if ev.get("s", "t") not in _INSTANT_SCOPES:
                problems.append(f"{where}: instant scope must be one of g/p/t")
    return problems
