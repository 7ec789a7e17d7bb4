"""The benchmark's vocabulary: workloads and metric names.

``BENCHMARK.json`` at the repository root is the contract the driver
reads; this module is the same table in the form the code uses, with the
extra column ``BENCHMARK.json`` has no room for — which end-to-end metric
each per-layer metric is expected to move.  ``test_e2e_bench_smoke.py``
fails when the two disagree.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Workload", "WORKLOADS", "END_TO_END", "PER_LAYER", "GROWTH_OF", "DEFAULT_SEED", "SLICES",
]

DEFAULT_SEED = 0
#: a replay is advanced in this many ``run(until=T*k/SLICES)`` slices
SLICES = 6


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    working_set: int
    minutes: int
    requests_per_minute: int = 325
    streaming: bool = False
    #: repetitions of a full manual run (the driver's --seconds overrides)
    reps: int = 3
    #: minutes replayed under --smoke (~2k requests)
    smoke_minutes: int = 6


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ws15_steady",
            "paper headline (WS15, 325 req/min): 99.9% hits and a shallow queue, so "
            "the cache miss path and deep-queue scans are bypassed",
            working_set=15,
            minutes=246,
        ),
        Workload(
            "ws35_thrash",
            "working set exceeds aggregate GPU memory (15% misses): victim choice, "
            "evict/load publication and the LALB second scan do their work here",
            working_set=35,
            minutes=246,
        ),
        Workload(
            "ws25_backlog",
            "over-capacity arrivals (560 req/min, 92% SM use): every completion "
            "pass picks from a global queue thousands deep",
            working_set=25,
            minutes=143,
            requests_per_minute=560,
            smoke_minutes=4,
        ),
        Workload(
            "stream_300k",
            "300k-request streaming replay: chunk refill, histogram-fold metrics "
            "and MVCC autocompaction only run here, and throughput decay with N "
            "shows inside one run",
            working_set=15,
            minutes=924,
            streaming=True,
            reps=2,
        ),
    )
}

# (name, unit, better, bound, pick).  ``bound`` is the share of the parent's
# median by which the metric may worsen; it has to sit well above the
# spread of ten runs with ten seeds (README.md, "End-to-end metrics").
# ``pick`` says which repetition a run reports: this box only ever adds
# time (bursts and minute-long slow spells of 10-30%), so the two host
# timings report their best repetition; the rest report the median.
# The two simulated metrics are exact for one seed and get their bounds from
# ws25_backlog's seed-to-seed spread (1.4% and 3.1%); simulated latencies
# spread by 37% there, and the tail/head rate ratio by up to 30% on a bad
# hour, so those are per-layer metrics (the former pinned by expect.json).
END_TO_END = (
    ("throughput_rps", "req/s", "higher", 0.25, "best"),
    ("peak_rss_mb", "MB", "lower", 0.10, "median"),
    ("setup_s", "s", "lower", 0.25, "best"),
    ("sim_hit_ratio", "ratio", "higher", 0.05, "median"),
    ("sim_sm_utilization", "ratio", "higher", 0.10, "median"),
)

#: per-unit timings that get a ``<name>.growth`` companion (value over
#: segments 5-6 / value over segments 1-2)
GROWTH_OF = (
    "sim.kernel_self_us_per_event",
    "scheduler.entry_self_us_per_action",
    "policies.pass_self_us_per_pass",
    "gpu_manager.lifecycle_self_us_per_req",
    "cache_manager.hit_path_us_per_req",
    "datastore.flush_us_per_flush",
    "metrics.on_complete_us_per_req",
    "gc.pause_us_per_req",
)

# (name, unit, better, moves) — ``moves`` names the end-to-end metric the
# layer metric should move and the workload where it should show.
_PER_LAYER = (
    ("sim.avg_latency_s", "s", "lower", "pinned for the default seed (Fig. 4a); a policy change may improve it"),
    ("sim.p50_latency_s", "s", "lower", "pinned for the default seed"),
    ("sim.p99_latency_s", "s", "lower", "pinned for the default seed"),
    ("sim.false_miss_ratio", "ratio", "lower", "pinned for the default seed (Fig. 5)"),
    ("traces.requests", "count", "higher", "setup_s (all)"),
    ("traces.build_ms", "ms", "lower", "setup_s (all)"),
    ("traces.materialize_us_per_req", "us/req", "lower", "throughput_rps (stream_300k: chunks materialize inside the window)"),
    ("sim.events", "count", "lower", "throughput_rps (all)"),
    ("sim.events_per_req", "1/req", "lower", "throughput_rps (all)"),
    ("sim.inject_us_per_req", "us/req", "lower", "throughput_rps (all)"),
    ("sim.kernel_self_us_per_event", "us/event", "lower", "throughput_rps (all four equally)"),
    ("scheduler.actions", "count", "lower", "throughput_rps (ws15_steady)"),
    ("scheduler.passes_executed", "count", "lower", "throughput_rps (ws15_steady)"),
    ("scheduler.passes_elided", "count", "higher", "throughput_rps (ws15_steady)"),
    ("scheduler.elided_share", "ratio", "higher", "throughput_rps (ws15_steady)"),
    ("scheduler.entry_self_us_per_action", "us/action", "lower", "throughput_rps (ws15_steady)"),
    ("scheduler.guard_us_per_action", "us/action", "lower", "throughput_rps (ws25_backlog: largest guard share)"),
    ("scheduler.dispatch_self_us_per_dispatch", "us/dispatch", "lower", "throughput_rps (all)"),
    ("policies.pass_self_us_per_pass", "us/pass", "lower", "throughput_rps (ws15_steady shallow vs ws25_backlog deep: predicted to diverge)"),
    ("policies.dispatches_per_pass", "1/pass", "higher", "throughput_rps (ws25_backlog)"),
    ("queues.global_depth_mean", "count", "lower", "sim.avg_latency_s (ws25_backlog)"),
    ("queues.global_depth_max", "count", "lower", "sim.p99_latency_s (ws25_backlog)"),
    ("queues.sim_wait_mean_s", "s", "lower", "sim.avg_latency_s (ws25_backlog)"),
    ("gpu_manager.dispatches", "count", "lower", "throughput_rps (all)"),
    ("gpu_manager.execute_self_us_per_dispatch", "us/dispatch", "lower", "throughput_rps (all)"),
    ("gpu_manager.lifecycle_self_us_per_req", "us/req", "lower", "throughput_rps (all)"),
    ("cache_manager.hits", "count", "higher", "sim_hit_ratio (ws35_thrash)"),
    ("cache_manager.loads", "count", "lower", "sim_hit_ratio (ws35_thrash)"),
    ("cache_manager.evictions", "count", "lower", "sim_hit_ratio (ws35_thrash)"),
    ("cache_manager.hit_share", "ratio", "higher", "sim_hit_ratio (ws35_thrash)"),
    ("cache_manager.hit_path_us_per_req", "us/req", "lower", "throughput_rps (all)"),
    ("cache_manager.miss_path_us_per_req", "us/req", "lower", "throughput_rps (ws35_thrash; ~0 on ws15_steady)"),
    ("datastore.logical_writes", "count", "lower", "throughput_rps (all)"),
    ("datastore.flushes", "count", "lower", "throughput_rps (all)"),
    ("datastore.committed_keys", "count", "lower", "throughput_rps (all)"),
    ("datastore.keys_per_flush", "1/flush", "lower", "throughput_rps (all)"),
    ("datastore.coalesced_share", "ratio", "higher", "throughput_rps (all)"),
    ("datastore.revisions", "count", "lower", "throughput_rps (all)"),
    ("datastore.flush_us_per_flush", "us/flush", "lower", "throughput_rps (all)"),
    ("datastore.flush_us_per_req", "us/req", "lower", "throughput_rps (all)"),
    ("datastore.compactions", "count", "lower", "throughput_rps, runtime.tail_head_ratio (stream_300k only)"),
    ("datastore.compact_ms_total", "ms", "lower", "throughput_rps, runtime.tail_head_ratio (stream_300k only)"),
    ("datastore.history_entries_end", "count", "lower", "peak_rss_mb (stream_300k)"),
    ("metrics.on_complete_us_per_req", "us/req", "lower", "throughput_rps (columnar on batch, histogram fold on stream_300k)"),
    ("metrics.summarize_ms", "ms", "lower", "throughput_rps (small)"),
    ("runtime.refills", "count", "lower", "throughput_rps, peak_rss_mb (stream_300k only)"),
    ("runtime.refill_self_us_per_req", "us/req", "lower", "throughput_rps (stream_300k only)"),
    ("runtime.tail_head_ratio", "ratio", "higher", "throughput_rps (stream_300k): untraced completions/s over segments 5-6 / over 1-2; 1.0 = flat in N"),
    ("runtime.residual_share", "ratio", "lower", "none: replay wall no named layer accounts for"),
    ("gc.gen2_collections", "count", "lower", "runtime.tail_head_ratio (stream_300k)"),
    ("gc.pause_ms_total", "ms", "lower", "runtime.tail_head_ratio (stream_300k)"),
    ("gc.pause_us_per_req", "us/req", "lower", "runtime.tail_head_ratio (stream_300k)"),
    ("trace.spans", "count", "lower", "none: size of the traced run"),
    ("trace.overhead_ratio", "ratio", "lower", "none: traced / untraced replay wall"),
)

PER_LAYER = _PER_LAYER + tuple(
    (f"{name}.growth", "ratio", "lower", "runtime.tail_head_ratio (stream_300k)") for name in GROWTH_OF
)
