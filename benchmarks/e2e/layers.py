"""Per-layer metrics from one traced repetition (plus its untraced twin).

Counts come from the program's own public counters; timings from the
spans ``spans.py`` recorded around the calls into each layer.  Every span
is attributed to exactly one group below by the module that owns it; self
time no group claims is ``runtime.residual_share``.

Timings are taken with the instruments on, so each carries a fraction of a
microsecond of wrapper cost per span: compare them between commits and
between workloads, not against the untraced wall.
"""

from __future__ import annotations

from schema import GROWTH_OF, PER_LAYER

__all__ = ["layer_metrics", "cross_check", "MAX_RESIDUAL_SHARE", "MAX_OVERHEAD_RATIO"]

MAX_RESIDUAL_SHARE = 0.15
MAX_OVERHEAD_RATIO = 2.0

HEAD = (1, 2)
TAIL = (5, 6)

# group -> span-name prefixes (event and hook spans are named by owner)
GROUPS = {
    "kernel": ("sim.run",),
    "inject": ("runtime.inject",),
    "materialize": ("traces.materialize",),
    "entry": ("scheduler.submit", "scheduler.on_gpu_idle", "scheduler.resubmit", "ev.core.scheduler."),
    "guard": ("scheduler.guard",),
    "dispatch": ("scheduler.dispatch",),
    "pass": ("policies.pass",),
    "execute": ("gpu_manager.execute",),
    "lifecycle": ("ev.core.gpu_manager.",),
    "hit_path": ("cache_manager.on_used",),
    "miss_path": (
        "cache_manager.choose_victims",
        "cache_manager.on_evicted",
        "cache_manager.on_loaded",
    ),
    "flush": ("datastore.flush",),
    "flush_hook": ("hook.datastore.",),
    "compact": ("datastore.compact", "hook.runtime."),
    "on_complete": ("metrics.on_complete",),
    "summarize": ("metrics.summarize",),
    "refill": ("ev.runtime.",),
    "gc": ("gc.gen",),
}

# per-unit timing -> (span groups whose self time it sums, unit group)
TIMINGS = {
    "sim.kernel_self_us_per_event": (("kernel",), "events"),
    "scheduler.entry_self_us_per_action": (("entry",), "actions"),
    "scheduler.guard_us_per_action": (("guard",), "actions"),
    "scheduler.dispatch_self_us_per_dispatch": (("dispatch",), "dispatches"),
    "policies.pass_self_us_per_pass": (("pass",), "passes"),
    "gpu_manager.execute_self_us_per_dispatch": (("execute",), "dispatches"),
    "gpu_manager.lifecycle_self_us_per_req": (("lifecycle",), "reqs"),
    "cache_manager.hit_path_us_per_req": (("hit_path",), "reqs"),
    "cache_manager.miss_path_us_per_req": (("miss_path",), "reqs"),
    "datastore.flush_us_per_flush": (("flush",), "flushes"),
    "datastore.flush_us_per_req": (("flush", "flush_hook"), "reqs"),
    "metrics.on_complete_us_per_req": (("on_complete",), "reqs"),
    "runtime.refill_self_us_per_req": (("refill",), "reqs"),
    "gc.pause_us_per_req": (("gc",), "reqs"),
}

# unit group -> span-name prefixes whose *count* is the denominator
UNITS = {
    "events": ("ev.",),
    "actions": ("scheduler.submit", "scheduler.on_gpu_idle", "scheduler.resubmit"),
    "dispatches": ("gpu_manager.execute",),
    "passes": ("policies.pass",),
    "reqs": ("metrics.on_complete",),
    "flushes": ("datastore.flush",),
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _rate(segments) -> float:
    return _ratio(sum(s[1] for s in segments), sum(s[0] for s in segments))


class _Spans:
    def __init__(self, spans: dict[str, dict]) -> None:
        self.spans = spans

    def _matching(self, prefixes):
        return [s for name, s in self.spans.items() if name.startswith(prefixes)]

    def self_us(self, prefixes, segs=None) -> float:
        if segs is None:
            return sum(s["self_ns"] for s in self._matching(prefixes)) / 1e3
        return sum(s["seg_self_ns"][k] for s in self._matching(prefixes) for k in segs) / 1e3

    def count(self, prefixes, segs=None) -> int:
        if segs is None:
            return sum(s["count"] for s in self._matching(prefixes))
        return sum(s["seg_count"][k] for s in self._matching(prefixes) for k in segs)

    def group_us(self, groups, segs=None) -> float:
        return sum(self.self_us(GROUPS[g], segs) for g in groups)


def layer_metrics(traced: dict, untraced: dict) -> dict[str, float]:
    """Every ``PER_LAYER`` metric of one workload, by name."""
    sp = _Spans(traced["spans"])
    c = traced["counters"]
    reqs = c["metrics.completed"]
    considered = c["scheduler.passes_executed"] + c["scheduler.passes_elided"]
    depths = traced["queue_depths"]
    sim = traced["sim"]
    out = {
        "sim.avg_latency_s": sim["avg_latency_s"],
        "sim.p50_latency_s": sim["p50_latency_s"],
        "sim.p99_latency_s": sim["p99_latency_s"],
        "sim.false_miss_ratio": sim["false_miss_ratio"],
        "traces.requests": traced["submitted"],
        "traces.build_ms": traced["build_ms"],
        "traces.materialize_us_per_req": _ratio(sp.group_us(("materialize",)), reqs),
        "sim.events": c["sim.events"],
        "sim.events_per_req": _ratio(c["sim.events"], reqs),
        "sim.inject_us_per_req": _ratio(sp.group_us(("inject",)), reqs),
        "scheduler.actions": c["scheduler.actions"],
        "scheduler.passes_executed": c["scheduler.passes_executed"],
        "scheduler.passes_elided": c["scheduler.passes_elided"],
        "scheduler.elided_share": _ratio(c["scheduler.passes_elided"], considered),
        "policies.dispatches_per_pass": _ratio(
            c["scheduler.dispatched"], c["scheduler.passes_executed"]
        ),
        "queues.global_depth_mean": sum(depths) / len(depths),
        "queues.global_depth_max": max(depths),
        "queues.sim_wait_mean_s": sim["avg_queueing_s"],
        "gpu_manager.dispatches": c["scheduler.dispatched"],
        "cache_manager.hits": reqs - c["metrics.misses"],
        "cache_manager.loads": sp.count(("cache_manager.on_loaded",)),
        "cache_manager.evictions": sp.count(("cache_manager.on_evicted",)),
        "cache_manager.hit_share": _ratio(reqs - c["metrics.misses"], reqs),
        "datastore.logical_writes": c["datastore.logical_writes"],
        "datastore.flushes": c["datastore.flushes"],
        "datastore.committed_keys": c["datastore.committed_keys"],
        "datastore.keys_per_flush": _ratio(c["datastore.committed_keys"], c["datastore.flushes"]),
        "datastore.coalesced_share": _ratio(
            c["datastore.coalesced_writes"], c["datastore.logical_writes"]
        ),
        "datastore.revisions": c["datastore.revisions"],
        "datastore.compactions": sp.count(("datastore.compact",)),
        "datastore.compact_ms_total": sp.group_us(("compact",)) / 1e3,
        "datastore.history_entries_end": traced["history_entries_end"],
        "metrics.summarize_ms": sp.group_us(("summarize",)) / 1e3,
        "runtime.refills": sp.count(GROUPS["refill"]),
        # segments are 0-based here: [wall_s, completions] per run() slice
        "runtime.tail_head_ratio": _ratio(
            _rate(untraced["segments"][4:6]), _rate(untraced["segments"][0:2])
        ),
        "gc.gen2_collections": sp.count(("gc.gen2",)),
        "gc.pause_ms_total": sp.group_us(("gc",)) / 1e3,
        "trace.spans": traced["span_count"],
        "trace.overhead_ratio": _ratio(traced["wall_s"], untraced["wall_s"]),
    }
    for name, (groups, unit) in TIMINGS.items():
        out[name] = _ratio(sp.group_us(groups), sp.count(UNITS[unit]))
    for name in GROWTH_OF:
        groups, unit = TIMINGS[name]
        head = _ratio(sp.group_us(groups, HEAD), sp.count(UNITS[unit], HEAD))
        tail = _ratio(sp.group_us(groups, TAIL), sp.count(UNITS[unit], TAIL))
        out[f"{name}.growth"] = _ratio(tail, head)  # 0 = nothing to compare
    attributed = sum(sp.self_us(prefixes) for prefixes in GROUPS.values())
    out["runtime.residual_share"] = 1.0 - _ratio(attributed / 1e6, traced["wall_s"])
    assert set(out) == {name for name, *_ in PER_LAYER}, set(out) ^ {n for n, *_ in PER_LAYER}
    return out


def cross_check(traced: dict, layers: dict[str, float]) -> list[str]:
    """Span counts against the program's own counters: a wrapper that
    missed an early-bound callable shows up here, not as a smaller number."""
    sp = _Spans(traced["spans"])
    c = traced["counters"]
    pairs = (
        ("event spans", sp.count(UNITS["events"]), "sim.processed_events", c["sim.events"]),
        ("scheduler entry spans", sp.count(UNITS["actions"]), "scheduler.actions", c["scheduler.actions"]),
        ("policies.pass spans", sp.count(UNITS["passes"]), "scheduler.passes_executed", c["scheduler.passes_executed"]),
        ("gpu_manager.execute spans", sp.count(UNITS["dispatches"]), "scheduler.dispatched_count", c["scheduler.dispatched"]),
        ("datastore.flush spans", sp.count(UNITS["flushes"]), "datastore.stats.flushes", c["datastore.flushes"]),
        ("metrics.on_complete spans", sp.count(UNITS["reqs"]), "completed_count", c["metrics.completed"]),
        ("cache_manager.on_loaded spans", sp.count(("cache_manager.on_loaded",)), "miss_count", c["metrics.misses"]),
    )
    problems = [
        f"{what} = {got} but {counter} = {want}"
        for what, got, counter, want in pairs
        if got != want
    ]
    if layers["runtime.residual_share"] > MAX_RESIDUAL_SHARE:
        problems.append(
            f"runtime.residual_share {layers['runtime.residual_share']:.3f} > {MAX_RESIDUAL_SHARE}"
        )
    if layers["trace.overhead_ratio"] > MAX_OVERHEAD_RATIO:
        problems.append(
            f"trace.overhead_ratio {layers['trace.overhead_ratio']:.2f} > {MAX_OVERHEAD_RATIO}"
        )
    return problems
