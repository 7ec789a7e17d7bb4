"""cProfile the replay path: exact calls per request, rolled up by subsystem.

``python -m repro.experiments profile [--requests N] [--seed S]`` (``make
profile``) prints the top functions of the §V-A replay by cumulative time
and a per-subsystem rollup; :func:`profile_replay` is the measurement
``tests/experiments/test_call_budget.py`` gates.  Wall-clock performance
of the replay path is ``python benchmarks/e2e/run.py`` (``BENCHMARK.json``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..runtime import SystemConfig
    from ..traces.workload import StreamingWorkload, Workload

__all__ = ["profile_replay", "run_profile"]


#: per-subsystem rollup buckets for ``run_profile``: path fragment →
#: label, probed in order (first match wins).  tottime and calls sum per
#: bucket, so the rollup answers "where does the run actually spend its
#: time" without reading 25 rows of per-function output.
_PROFILE_BUCKETS = (
    ("repro/datastore/", "commit path (datastore)"),
    ("repro/core/gpu_manager", "dispatch (gpu manager)"),
    ("repro/cluster/", "dispatch (devices)"),
    ("repro/core/scheduler", "scheduling pass"),
    ("repro/core/policies", "scheduling pass"),
    # its own row: folded into "scheduling pass" it hid 8 O3-accounting
    # calls per request on a queue of depth 0 (push, the O3 bump and remove
    # are entered from three different layers)
    ("repro/core/queues", "global queue (O3 accounting)"),
    # guard evaluation gets its own bucket (ROADMAP: "guard evaluation
    # under bursty dirty signals") — signals.py is exactly the PassGuard /
    # dirty-signal machinery, so its exclusive time answers that question
    # directly instead of vanishing into the generic pass bucket
    ("repro/core/signals", "policy guards (dirty signals)"),
    ("repro/core/estimator", "scheduling pass"),
    ("repro/core/tenancy", "scheduling pass"),
    ("repro/core/cache_manager", "cache manager"),
    ("repro/core/replacement", "cache manager"),
    ("repro/metrics/", "metrics"),
    ("repro/obs/", "observability (tracer)"),
    ("repro/sim/", "sim kernel"),
)


def _subsystem_rollup(stats) -> list[tuple[str, float, int]]:
    """Fold a ``pstats.Stats`` into (bucket, tottime, calls) rows.

    Buckets by filename against :data:`_PROFILE_BUCKETS`; everything else
    (stdlib, workload build leftovers, the profiler itself) lands in
    "other".  Uses tottime — exclusive time — so the rows sum to the run
    instead of double-counting callers.
    """
    totals: dict[str, list] = {}
    for (filename, _line, _name), (_cc, ncalls, tottime, _ct, _callers) in stats.stats.items():
        path = filename.replace("\\", "/")
        label = "other"
        for fragment, bucket in _PROFILE_BUCKETS:
            if fragment in path:
                label = bucket
                break
        row = totals.setdefault(label, [0.0, 0])
        row[0] += tottime
        row[1] += ncalls
    return sorted(
        ((label, t, calls) for label, (t, calls) in totals.items()),
        key=lambda row: -row[1],
    )


def profile_replay(
    workload: Workload | StreamingWorkload, config: SystemConfig | None = None
):
    """cProfile the replay of ``workload`` under ``config`` (default
    ``SystemConfig()``); returns ``(profiler, total calls, completed)``.

    The profiled window is the one ``benchmarks/e2e`` times:
    the chunked ``submit_workload`` → ``run`` (pair a
    :class:`~repro.traces.StreamingWorkload` with a
    :func:`~repro.runtime.streaming_config`).  The call count
    is exact — the same to the digit run to run under one
    ``PYTHONHASHSEED`` and within 0.01 calls/request under another — so
    ``tests/experiments/test_call_budget.py`` gates on it.  It is summed
    from ``getstats()``: ``pstats`` keys rows by (file, line, name) and
    keeps one of the NamedTuple ``__new__`` lambdas that all sit at
    ``<string>:1``, so its ``total_calls`` reads 1–3 calls/request low.
    """
    import cProfile

    from ..runtime import FaaSCluster, SystemConfig

    system = FaaSCluster(config or SystemConfig())
    profiler = cProfile.Profile()
    profiler.enable()
    system.submit_workload(workload)
    system.run()
    profiler.disable()
    total_calls = sum(entry.callcount for entry in profiler.getstats())
    return profiler, total_calls, system.metrics.completed_count


def run_profile(n_requests: int = 2000, seed: int = 0, top: int = 25) -> None:
    """cProfile the §V-A replay: top cumulative functions + subsystem rollup.

    ``make profile`` — the tool that found every hot spot so far (index
    scans, batched txns, columnar replay, pass elision, the commit-path
    residue); run it before hunting the next one.  After the per-function
    table it prints a per-subsystem rollup (commit vs dispatch vs
    scheduling pass vs queue vs metrics: exclusive time and calls per
    request), so a PR can say "the commit path is now X% of the run and
    N calls per request" without hand-summing rows.
    """
    import pstats

    from ..traces.workload import build_workload, spec_for_requests

    profiler, total_calls, completed = profile_replay(
        build_workload(spec_for_requests(n_requests, seed=seed))
    )
    print(f"§V-A replay, {completed} requests completed — top {top} by cumulative time:")
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(top)
    rollup = _subsystem_rollup(stats)
    total = sum(t for _, t, _ in rollup) or 1.0
    print("per-subsystem rollup (exclusive time; C-level builtin calls are filed under other):")
    for label, tottime, calls in rollup:
        print(
            f"  {label:<30} {tottime:8.3f} s  {tottime / total * 100:5.1f}%  "
            f"{calls:>10,} calls  {calls / completed:7.2f} /request"
        )
    print(
        f"  {'total':<30} {total:8.3f} s  100.0%  "
        f"{total_calls:>10,} calls  {total_calls / completed:7.2f} /request"
    )
