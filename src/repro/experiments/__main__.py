"""CLI: regenerate any paper table/figure.

Usage::

    python -m repro.experiments table1
    python -m repro.experiments fig4
    python -m repro.experiments fig5
    python -m repro.experiments fig6
    python -m repro.experiments fig7
    python -m repro.experiments all
    python -m repro.experiments sweep --policies lb lalbo3 --o3-limits 5 25
    python -m repro.experiments profile      # cProfile the 2k §V-A replay
    python -m repro.experiments trace        # traced 2k replay → trace.json (Perfetto) + trace.prom
    python -m repro.experiments explain 42   # why request #42 was scheduled the way it was

Grid targets loop :func:`~repro.experiments.runner.run_experiment` in
process over one shared trace; the whole §V grid takes seconds.

The ``sweep`` target runs the declarative §V grid itself
(:class:`~repro.experiments.runner.SweepSpec`; axes: ``--policies
--working-sets --o3-limits --replacements --seeds --fault-profiles``;
scale: ``--minutes --requests-per-minute``) and prints one summary row per
distinct config, in expansion order.  Any other target rejects these
flags.  ``--fault-profiles recoverable`` replays the grid under the seeded
chaos plan (see :mod:`repro.chaos` and ``docs/robustness.md``).
"""

from __future__ import annotations

import argparse
import sys

from .fig4 import format_fig4, headline_reductions, run_fig4
from .fig5 import format_fig5
from .fig6 import format_fig6
from .fig7 import format_fig7, run_fig7
from .table1 import format_table1, table1_from_paper


#: the sweep target's axis flags (argparse dests, named as SweepSpec fields)
_SWEEP_AXES = (
    "policies", "working_sets", "o3_limits", "replacements", "seeds",
    "fault_profiles", "minutes", "requests_per_minute",
)
#: argparse dest -> the only targets that read it (an error on any other)
_TARGET_ONLY = {
    "request_id": ("explain",),
    "requests": ("profile", "trace", "explain"),
    "trace_out": ("trace",),
    **dict.fromkeys(_SWEEP_AXES, ("sweep",)),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments", description="Regenerate the paper's tables and figures"
    )
    parser.add_argument(
        "target",
        choices=[
            "table1", "fig4", "fig5", "fig6", "fig7", "ablations", "sweep",
            "profile", "trace", "explain", "all",
        ],
    )
    parser.add_argument(
        "request_id", nargs="?", type=int, default=None,
        help="the explain target's request: the replay numbers them 1..n",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--requests", type=int, default=None,
        help="replay size for the profile/trace/explain targets (default 2000)",
    )
    parser.add_argument(
        "--trace-out", default=None,
        help="the trace target's Chrome trace-event file (default trace.json)",
    )
    # sweep-target axes (an error on any other target)
    parser.add_argument("--policies", nargs="+", default=None, metavar="P")
    parser.add_argument("--working-sets", nargs="+", type=int, default=None, metavar="WS")
    parser.add_argument("--o3-limits", nargs="+", type=int, default=None, metavar="L")
    parser.add_argument("--replacements", nargs="+", default=None, metavar="R")
    parser.add_argument("--seeds", nargs="+", type=int, default=None, metavar="S")
    parser.add_argument(
        "--fault-profiles", nargs="+", default=None, metavar="F",
        help="chaos axis: named fault profiles (none, recoverable, severe)",
    )
    parser.add_argument("--minutes", type=int, default=None)
    parser.add_argument("--requests-per-minute", type=int, default=None)
    args = parser.parse_args(argv)
    for name, targets in _TARGET_ONLY.items():
        if getattr(args, name) is not None and args.target not in targets:
            flag = "a request ID" if name == "request_id" else "--" + name.replace("_", "-")
            parser.error(f"{flag} applies only to {' / '.join(targets)}")
    n_requests = 2000 if args.requests is None else args.requests

    if args.target == "trace":
        from pathlib import Path

        from ..metrics.exposition import prometheus_exposition
        from ..obs.export import write_chrome_trace
        from ..runtime.config import SystemConfig
        from ..traces.azure import SyntheticAzureTrace
        from ..traces.workload import build_workload, spec_for_requests
        from .replay import replay

        _, system = replay(
            SystemConfig(tracer="flight", seed=args.seed),
            build_workload(
                spec_for_requests(n_requests, seed=args.seed),
                trace=SyntheticAzureTrace(),
            ),
        )
        path = write_chrome_trace(system.tracer, args.trace_out or "trace.json")
        prom = Path(path).with_suffix(".prom")
        prom.write_text(prometheus_exposition(system))
        totals = system.tracer.totals
        print(
            f"traced replay: {system.metrics.completed_count} requests, "
            f"{totals['passes']} passes, {totals['commits']} commits, "
            f"{totals['instants']} instants -> {path}"
        )
        print(f"counters (Prometheus text format) -> {prom}")
        print("open in https://ui.perfetto.dev or chrome://tracing")
        return 0

    if args.target == "explain":
        from ..obs.explain import run_explain

        if args.request_id is None:
            parser.error("explain needs a request ID: python -m repro.experiments explain 42")
        try:
            print(run_explain(args.request_id, n_requests=n_requests, seed=args.seed))
        except ValueError as exc:
            parser.exit(2, f"{parser.prog}: {exc}\n")
        return 0

    if args.target == "profile":
        from .profile import run_profile

        run_profile(n_requests=n_requests, seed=args.seed)
        return 0

    if args.target == "table1":
        print(format_table1(table1_from_paper()))
        return 0

    if args.target == "sweep":
        import time

        from .report import format_table
        from .runner import SweepSpec, run_experiment, shared_trace

        overrides = {
            name: tuple(value) if isinstance(value, list) else value
            for name in _SWEEP_AXES
            if (value := getattr(args, name)) is not None
        }
        if args.seeds is None and args.seed:
            overrides["seeds"] = (args.seed,)
        spec = SweepSpec(**overrides)
        t0 = time.perf_counter()
        rows = []
        for c in spec.cells():
            row = run_experiment(c, trace=shared_trace(spec.trace)).row()
            label = f"{c.label()}/{c.replacement}/ws{c.working_set}/seed{c.seed}"
            rows.append([label, row["avg_latency_s"], row["miss_ratio"], row["sm_util"]])
        print(format_table(["cell", "avg_lat_s", "miss", "sm_util"], rows))
        print(f"\n{len(rows)} cells ({time.perf_counter() - t0:.2f} s)")
        return 0

    if args.target in ("fig4", "fig5", "fig6", "all"):
        from dataclasses import replace

        from .runner import ExperimentConfig

        base = replace(ExperimentConfig(), seed=args.seed)
        grid = run_fig4(base=base)
        if args.target in ("fig4", "all"):
            print(format_fig4(grid))
            print()
            for key, value in headline_reductions(grid).items():
                print(f"  {key}: {value:.2f}%")
            print()
        if args.target in ("fig5", "all"):
            print(format_fig5(grid))
            print()
        if args.target in ("fig6", "all"):
            print(format_fig6(grid))
            print()
    if args.target in ("fig7", "all"):
        print(format_fig7(run_fig7()))
    if args.target == "ablations":
        from .ablations import run_belady_bound, run_cache_policy_ablation, run_gpu_scaling

        print("Cache replacement policies under LALBO3 (WS 35):")
        for rp, s in run_cache_policy_ablation().items():
            print(f"  {rp:5s} latency={s.avg_latency_s:.3f}s miss={s.cache_miss_ratio:.4f}")
        print("\nLRU vs offline-optimal (Belady) bound (WS 35):")
        for name, s in run_belady_bound().items():
            print(f"  {name:6s} latency={s.avg_latency_s:.3f}s miss={s.cache_miss_ratio:.4f}")
        print("\nCluster-size scaling (WS 25, 325 req/min):")
        for gpus, s in sorted(run_gpu_scaling().items()):
            print(f"  {gpus:2d} GPUs latency={s.avg_latency_s:8.3f}s miss={s.cache_miss_ratio:.4f}")
    if args.target == "all":
        print()
        print(format_table1(table1_from_paper()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
