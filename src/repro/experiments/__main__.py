"""CLI: regenerate any paper table/figure.

Usage::

    python -m repro.experiments table1
    python -m repro.experiments fig4 [--workers N] [--store DIR]
    python -m repro.experiments fig5
    python -m repro.experiments fig6
    python -m repro.experiments fig7
    python -m repro.experiments all --workers 4 --store .sweep-results
    python -m repro.experiments sweep --workers 4 --store .sweep-results
    python -m repro.experiments bench        # micro benches → BENCH_scheduler.json
    python -m repro.experiments bench-check  # gate the committed trajectory
    python -m repro.experiments profile      # cProfile the 2k §V-A replay
    python -m repro.experiments trace        # traced 2k replay → trace.json (Perfetto) + trace.prom
    python -m repro.experiments explain 42   # why request #42 was scheduled the way it was

Grid targets route through the sharded sweep orchestrator
(:mod:`repro.experiments.sweep`): ``--workers N`` fans the §V cells out
across a process pool, ``--store DIR`` persists each finished cell to an
on-disk result store keyed by content-hash cell ID, and ``--resume``
(default with a store) re-executes only the cells the store is missing —
an interrupted sweep picks up where it left off, and unchanged cells are
served from cache.  ``--workers 1`` with no store is exactly the
sequential path; figure data is byte-identical either way.

The ``sweep`` target runs the declarative §V grid itself (axes:
``--policies --working-sets --o3-limits --replacements --seeds
--fault-profiles``) and prints one summary row per cell, in deterministic
cell-ID merge order.  ``--fault-profiles recoverable`` replays the grid
under the seeded chaos plan (see :mod:`repro.chaos` and
``docs/robustness.md``).
"""

from __future__ import annotations

import argparse
import sys

from .fig4 import format_fig4, headline_reductions, run_fig4
from .fig5 import format_fig5
from .fig6 import format_fig6
from .fig7 import format_fig7, run_fig7
from .table1 import format_table1, table1_from_paper


def _sweep_kwargs(args) -> dict:
    """The orchestrator knobs shared by every grid target."""
    return {
        "workers": args.workers,
        "store": args.store,
        "resume": args.resume,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments", description="Regenerate the paper's tables and figures"
    )
    parser.add_argument(
        "target",
        choices=[
            "table1", "fig4", "fig5", "fig6", "fig7", "ablations", "sweep",
            "bench", "bench-check", "profile", "trace", "explain", "all",
        ],
    )
    parser.add_argument(
        "request_id", nargs="?", type=int, default=None,
        help="1-based request ordinal for the explain target",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--requests", type=int, default=2000,
        help="replay size for the trace/explain targets (default 2000)",
    )
    parser.add_argument(
        "--trace-out", default="trace.json",
        help="output path for the trace target's Chrome trace-event file",
    )
    parser.add_argument(
        "--trace-spill", default=None, metavar="PATH",
        help="optional JSONL spill of decimated request records (trace target)",
    )
    parser.add_argument(
        "--bench-output", default=None, help="path for the bench JSON report"
    )
    parser.add_argument(
        "--profile-requests", type=int, default=2000,
        help="replay size for the profile target (default: the 2k §V-A replay)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="sweep worker processes (1 = sequential, in-process)",
    )
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="result-store directory: finished cells persist here and are "
        "reused on the next run",
    )
    parser.add_argument(
        "--resume", dest="resume", action="store_true", default=True,
        help="serve cells already in the store from cache (default)",
    )
    parser.add_argument(
        "--no-resume", dest="resume", action="store_false",
        help="re-execute every cell even when the store already has it",
    )
    # sweep-target axes (ignored by other targets)
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

    if args.target == "trace":
        from pathlib import Path

        from ..metrics.exposition import prometheus_exposition
        from ..obs.export import write_chrome_trace
        from ..runtime.config import SystemConfig
        from ..traces.azure import SyntheticAzureTrace
        from ..traces.workload import build_workload, spec_for_requests
        from .replay import replay

        _, system = replay(
            SystemConfig(
                tracer="flight", trace_spill_path=args.trace_spill, seed=args.seed
            ),
            build_workload(
                spec_for_requests(args.requests, seed=args.seed),
                trace=SyntheticAzureTrace(),
            ),
        )
        path = write_chrome_trace(system.tracer, args.trace_out)
        prom = Path(args.trace_out).with_suffix(".prom")
        prom.write_text(prometheus_exposition(system))
        totals = system.tracer.totals
        print(
            f"traced replay: {len(system.completed)} requests, "
            f"{totals['passes']} passes, {totals['commits']} commits, "
            f"{totals['instants']} instants -> {path}"
        )
        print(f"counters (Prometheus text format) -> {prom}")
        print("open in https://ui.perfetto.dev or chrome://tracing")
        return 0

    if args.target == "explain":
        from ..obs.explain import run_explain

        if args.request_id is None:
            print(
                "explain needs a request ordinal: "
                "python -m repro.experiments explain 42",
                file=sys.stderr,
            )
            return 2
        print(
            run_explain(
                args.request_id, n_requests=args.requests, seed=args.seed
            )
        )
        return 0

    if args.target == "bench":
        from .bench import run_bench

        run_bench(args.bench_output)
        return 0

    if args.target == "profile":
        from .bench import run_profile

        run_profile(n_requests=args.profile_requests)
        return 0

    if args.target == "bench-check":
        from .bench import check_bench

        problems = check_bench(args.bench_output)
        if problems:
            for problem in problems:
                print(f"BENCH CHECK FAILED: {problem}", file=sys.stderr)
            return 1
        print(
            "bench check ok: depth scaling, tracer overhead, and sweep "
            "scaling/resume within gates"
        )
        return 0

    if args.target == "table1":
        print(format_table1(table1_from_paper()))
        return 0

    if args.target == "sweep":
        from .report import format_table
        from .sweep import SweepSpec, run_sweep

        overrides = {}
        if args.policies is not None:
            overrides["policies"] = tuple(args.policies)
        if args.working_sets is not None:
            overrides["working_sets"] = tuple(args.working_sets)
        if args.o3_limits is not None:
            overrides["o3_limits"] = tuple(args.o3_limits)
        if args.replacements is not None:
            overrides["replacements"] = tuple(args.replacements)
        if args.seeds is not None:
            overrides["seeds"] = tuple(args.seeds)
        elif args.seed:
            overrides["seeds"] = (args.seed,)
        if args.fault_profiles is not None:
            overrides["fault_profiles"] = tuple(args.fault_profiles)
        if args.minutes is not None:
            overrides["minutes"] = args.minutes
        if args.requests_per_minute is not None:
            overrides["requests_per_minute"] = args.requests_per_minute
        spec = SweepSpec(**overrides)
        result = run_sweep(spec, **_sweep_kwargs(args))
        rows = []
        for cell_id, cell in result.cells.items():
            row = cell.summary.row()
            rows.append(
                [cell_id, row["policy"], row["working_set"], cell.config["experiment"]["seed"],
                 row["avg_latency_s"], row["miss_ratio"], row["sm_util"]]
            )
        print(
            format_table(
                ["cell", "policy", "ws", "seed", "avg_lat_s", "miss", "sm_util"], rows
            )
        )
        s = result.stats
        print(
            f"\n{s.total} cells: {s.executed} executed, {s.cache_hits} cached, "
            f"{s.retries} retried, {s.failed} failed "
            f"({s.wall_s:.2f} s, {s.as_dict()['cells_per_s']} cells/s, "
            f"workers={s.workers})"
        )
        return 0

    sweep_kwargs = _sweep_kwargs(args)
    if args.target in ("fig4", "fig5", "fig6", "all"):
        from dataclasses import replace

        from .runner import ExperimentConfig

        base = replace(ExperimentConfig(), seed=args.seed)
        grid = run_fig4(base=base, **sweep_kwargs)
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
        print(format_fig7(run_fig7(**sweep_kwargs)))
    if args.target == "ablations":
        from .ablations import run_belady_bound, run_cache_policy_ablation, run_gpu_scaling

        print("Cache replacement policies under LALBO3 (WS 35):")
        for rp, s in run_cache_policy_ablation(**sweep_kwargs).items():
            print(f"  {rp:5s} latency={s.avg_latency_s:.3f}s miss={s.cache_miss_ratio:.4f}")
        print("\nLRU vs offline-optimal (Belady) bound (WS 35):")
        for name, s in run_belady_bound().items():
            print(f"  {name:6s} latency={s.avg_latency_s:.3f}s miss={s.cache_miss_ratio:.4f}")
        print("\nCluster-size scaling (WS 25, 325 req/min):")
        for gpus, s in sorted(run_gpu_scaling(**sweep_kwargs).items()):
            print(f"  {gpus:2d} GPUs latency={s.avg_latency_s:8.3f}s miss={s.cache_miss_ratio:.4f}")
    if args.target == "all":
        print()
        print(format_table1(table1_from_paper()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
