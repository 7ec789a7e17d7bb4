"""Scheduler micro-benchmark runner → ``BENCH_scheduler.json``.

The repo keeps **one ledger per question**.  Anything on the replay path
— throughput, peak RSS, hit ratio, per-layer µs/request, scale decay
inside a run — is measured by ``python benchmarks/e2e/run.py
[--traced]`` (``BENCHMARK.json``: four §V workloads, compared
parent-vs-change on every PR).  This module records only the three
measurements that benchmark does not cover:

``pass_cost_by_depth_s`` + ``benchmarks``
    ``benchmarks/test_scheduler_overhead.py`` (and the fig-4 bench) under
    pytest-benchmark: the median cost of one scheduling pass at queue
    depths 100 / 2 000 / 20 000 plus the index micro-benches.

``observability``
    The 2k §V-A replay with the flight recorder
    (``SystemConfig(tracer="flight")``) off and on — interleaved pairs
    inside one child, each run on a freshly built workload, ratio taken
    as **sum(on) / sum(off)** across the pairs (per-pair ratios at this
    run length are noise-dominated, while summing first lets drift and
    scheduling jitter, which hit both interleaved arms alike, divide
    out).  The child also validates the exported Chrome trace against
    the trace-event schema and SHA-compares both arms' rank-normalized
    decision logs from dedicated untimed runs: tracing may cost at most
    5% and must change nothing but the wall clock (see
    ``docs/observability.md``).

``sweep_scaling``
    The sharded sweep orchestrator (:mod:`repro.experiments.sweep`) on
    the fig-5 grid × 2 seeds (18 cells at paper scale): grid wall-clock
    and cells/s at 1 / 2 / 4 workers, each in a fresh subprocess with a
    cold store, plus a resume pass against the 4-worker store (every cell
    served from cache) and the SHA of the merged figure payload at each
    worker count — identical hashes prove the sharded and sequential
    grids produce byte-identical figure inputs.

``check_bench`` (``make bench-check``) gates the committed file: the
20k/2k pass-cost ratio must stay under 3× (the index scans'
sublinearity), the flight recorder must stay within 1.05× of tracer-off
with a valid trace and identical decisions, the sweep's merged payloads
must hash identically across worker counts, a resume of a completed
sweep must finish from cache in under a second, and — when the recording
machine has the cores to parallelize (≥2) — the 4-worker grid must be
≥1.5× faster than sequential.  Deterministic properties of the replay
(≈1 revision per action, history-free hot keys, ≥30% passes elided,
lossless reproducible fault replay) are tier-1 tests, not recordings.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..traces.workload import WorkloadSpec

__all__ = [
    "run_bench",
    "check_bench",
    "measure_observability",
    "measure_sweep_scaling",
    "DEFAULT_OUTPUT",
]


def _run_child(root: Path, code: str, *args, label: str = "bench child") -> dict:
    """Run a ``python -c`` child with src on PYTHONPATH; parse its JSON line."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *(str(a) for a in args)],
        cwd=root, env=env, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{label} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Sweep-orchestrator scaling
# ----------------------------------------------------------------------
#: worker counts measured for the sweep-scaling trajectory
_SWEEP_WORKER_COUNTS = (1, 2, 4)

# child-process body: one full fig-5-grid sweep (× 2 seeds, paper scale),
# cold caches per measurement; prints the stats plus a hash of the merged
# figure payload so the parent can verify byte-identity across shardings
_SWEEP_CHILD_CODE = """
import hashlib, json, sys, time
workers = int(sys.argv[1]); store = sys.argv[2]
from repro.experiments.sweep import SweepSpec, run_sweep
spec = SweepSpec(seeds=(0, 1))
t0 = time.perf_counter()
result = run_sweep(spec, workers=workers, store=store, progress=False)
wall = time.perf_counter() - t0
stats = result.stats.as_dict()
stats["wall_s"] = round(wall, 4)
stats["cells_per_s"] = round(stats["total"] / wall, 2)
stats["merged_sha"] = hashlib.sha256(result.merged_json().encode()).hexdigest()[:16]
print(json.dumps(stats))
"""


def _sweep_child(root: Path, workers: int, store: Path) -> dict:
    return _run_child(
        root, _SWEEP_CHILD_CODE, workers, store, label="sweep scaling run"
    )


def measure_sweep_scaling(root: Path | None = None) -> dict:
    """Fig-5 grid (× 2 seeds) through the sweep orchestrator at 1/2/4
    workers, plus a resume pass served entirely from the result store."""
    root = root or _repo_root()
    by_workers: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix="sweep-bench-") as tmp:
        tmp_path = Path(tmp)
        for n in _SWEEP_WORKER_COUNTS:
            by_workers[str(n)] = _sweep_child(root, n, tmp_path / f"store-{n}w")
        # resume against the last store: every cell is a cache hit
        resume = _sweep_child(
            root, _SWEEP_WORKER_COUNTS[-1], tmp_path / f"store-{_SWEEP_WORKER_COUNTS[-1]}w"
        )
    shas = {cell["merged_sha"] for cell in by_workers.values()} | {resume["merged_sha"]}
    wall_1 = by_workers["1"]["wall_s"]
    wall_4 = by_workers[str(_SWEEP_WORKER_COUNTS[-1])]["wall_s"]
    return {
        "grid": "fig5: (lb, lalb, lalbo3) x WS (15, 25, 35) x seeds (0, 1), paper scale",
        "cells": by_workers["1"]["total"],
        #: parallel speedup is bounded by the recording machine's cores;
        #: check_bench reads this to decide whether the 1.5x gate applies
        "cpu_count": os.cpu_count(),
        "workers": by_workers,
        "speedup_4w": round(wall_1 / wall_4, 2) if wall_4 else 0.0,
        "merged_payload_identical": len(shas) == 1,
        "resume": {
            "wall_s": resume["wall_s"],
            "cache_hits": resume["cache_hits"],
            "executed": resume["executed"],
        },
    }


# ----------------------------------------------------------------------
# Observability (flight-recorder) overhead
# ----------------------------------------------------------------------
#: interleaved off/on replay pairs per observability child
_OBS_GATE_REPS = 12

# child-process body: ``reps`` interleaved §V-A replay pairs with the
# flight recorder off and on.  Both arms run inside ONE child on
# freshly built workloads (reusing one workload's request objects
# across runs lets lifecycle state leak between arms — and the flight
# recorder's request ring holds *references*, so the exported trace
# must come from a run whose requests were never resubmitted).  The
# gated ratio is **sum(on) / sum(off)**: per-pair ratios at ~0.15 s
# run length are noise-dominated on shared machines, while the sums
# of interleaved arms see the same drift and divide it out (an A/A
# control of this estimator reads 1.00 within half a percent where
# per-pair medians wander by several).  Trace export/validation and
# the rank-normalized decision-log SHA comparison (request ids are
# process-global) run on dedicated untimed runs at the end — the
# report carries the proof that tracing changes nothing but the wall
# clock.
_OBS_CHILD_CODE = """
import gc, hashlib, json, sys, time
n = int(sys.argv[1]); reps = int(sys.argv[2])
from repro.traces.azure import SyntheticAzureTrace
from repro.traces.workload import build_workload, spec_for_requests
from repro.runtime import FaaSCluster, SystemConfig
from repro.obs.export import chrome_trace_events, validate_chrome_trace
spec = spec_for_requests(n)
def fresh():
    return build_workload(spec, trace=SyntheticAzureTrace())
configs = {"off": SystemConfig(), "on": SystemConfig(tracer="flight")}
def one(arm, workload):
    system = FaaSCluster(configs[arm])
    gc.collect()
    t0 = time.perf_counter()
    system.submit_workload(workload)
    system.run()
    return time.perf_counter() - t0, system
n_requests = len(fresh())
for arm in ("off", "on"):  # warm caches/allocator before timing
    one(arm, fresh())
run_s = {"on": 0.0, "off": 0.0}
for rep in range(reps):
    order = ("on", "off") if rep % 2 else ("off", "on")
    for arm in order:
        dt, _ = one(arm, fresh())
        run_s[arm] += dt
def decision_sha(system):
    decisions = system.scheduler.decisions
    ids = sorted({d.request_id for d in decisions})
    rank = {rid: i for i, rid in enumerate(ids)}
    h = hashlib.sha256()
    for d in decisions:
        h.update(repr((d.time_s, d.kind.value, rank[d.request_id],
                       d.model_id, d.gpu_id, d.visits)).encode())
    return h.hexdigest()
_, system_off = one("off", fresh())
_, system_on = one("on", fresh())
recorder = system_on.tracer
events = chrome_trace_events(recorder)
errors = validate_chrome_trace({"traceEvents": events})
print(json.dumps({
    "requests": n_requests, "reps": reps,
    "run_s_off": round(run_s["off"] / reps, 4),
    "run_s_on": round(run_s["on"] / reps, 4),
    "requests_per_sec_off": round(n_requests * reps / run_s["off"], 1),
    "tracer_on_vs_off": round(run_s["on"] / run_s["off"], 3),
    "span_stride": configs["on"].trace_span_stride,
    "trace_events": len(events),
    "trace_valid": not errors,
    "trace_validation_errors": errors[:5],
    "trace_records": recorder.totals,
    "trace_dropped": sum(recorder.dropped.values()),
    "decisions_identical":
        decision_sha(system_off) == decision_sha(system_on),
}))
"""


def measure_observability(root: Path | None = None) -> dict:
    """§V-A 2k replays with the flight recorder off vs on.

    The tracer-on cost is the observability layer's budget: the
    recorded ``tracer_on_vs_off`` (ratio of summed interleaved arms,
    best-of-2 children keyed on total measured time) is gated at
    ≤ :data:`_MAX_TRACER_ON_VS_OFF` by ``check_bench``, the exported
    trace must validate against the Chrome trace-event schema, and both
    arms' rank-normalized decision logs must hash identically.  (That an
    *uninstalled* tracer costs nothing is ``throughput_rps`` on
    ``benchmarks/e2e``'s ``ws15_steady``, which runs tracer-off.)
    """
    root = root or _repo_root()
    point = _run_child(
        root, _OBS_CHILD_CODE, 2000, _OBS_GATE_REPS, label="observability replay"
    )
    again = _run_child(
        root, _OBS_CHILD_CODE, 2000, _OBS_GATE_REPS, label="observability replay"
    )
    if again["run_s_on"] + again["run_s_off"] < point["run_s_on"] + point["run_s_off"]:
        point = again
    return {
        "workload": "§V-A working-set-15, 325 req/min, paper testbed, "
                    "flight recorder off vs on (interleaved pairs)",
        **point,
    }


DEFAULT_OUTPUT = "BENCH_scheduler.json"
_SUITE = Path("benchmarks") / "test_scheduler_overhead.py"
#: end-to-end fig4 runs ride along so the trajectory also tracks whole-
#: experiment wall time, not only the scheduling micro-benches
_EXTRA_SUITES = (
    Path("benchmarks") / "test_fig4_latency.py",
)


def _repo_root() -> Path:
    """The checkout root (where ``benchmarks/`` lives), else the cwd."""
    candidate = Path(__file__).resolve().parents[3]
    if (candidate / _SUITE).exists():
        return candidate
    return Path.cwd()


def _git_revision(root: Path) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def run_bench(output: str | None = None, *, verbose: bool = True) -> dict:
    """Run the scheduler-overhead suite and write the perf-trajectory JSON."""
    root = _repo_root()
    suite = root / _SUITE
    if not suite.exists():
        raise FileNotFoundError(f"benchmark suite not found: {suite}")
    suites = [str(suite)] + [str(root / s) for s in _EXTRA_SUITES if (root / s).exists()]
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        raw_path = Path(tmp.name)
    try:
        proc = subprocess.run(
            [
                sys.executable, "-m", "pytest", *suites, "-q",
                f"--benchmark-json={raw_path}",
            ],
            cwd=root,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"benchmark suite failed (exit {proc.returncode})")
        raw = json.loads(raw_path.read_text())
    finally:
        raw_path.unlink(missing_ok=True)

    benchmarks = {}
    pass_cost_by_depth = {}
    for bench in raw["benchmarks"]:
        stats = bench["stats"]
        benchmarks[bench["name"]] = {
            "median_s": stats["median"],
            "mean_s": stats["mean"],
            "rounds": stats["rounds"],
        }
        match = re.fullmatch(r"test_scheduling_scan_cost_at_depth\[(\d+)\]", bench["name"])
        if match:
            pass_cost_by_depth[match.group(1)] = stats["median"]

    report = {
        "suite": "scheduler_overhead",
        "commit": _git_revision(root),
        "machine": raw.get("machine_info", {}).get("cpu", {}).get("brand_raw"),
        "pass_cost_by_depth_s": dict(
            sorted(pass_cost_by_depth.items(), key=lambda kv: int(kv[0]))
        ),
        "observability": measure_observability(root),
        "sweep_scaling": measure_sweep_scaling(root),
        "benchmarks": dict(sorted(benchmarks.items())),
    }
    out_path = root / (output or DEFAULT_OUTPUT)
    out_path.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n")
    if verbose:
        print(f"wrote {out_path}")
        for depth, median in report["pass_cost_by_depth_s"].items():
            print(f"  pass cost @ depth {depth:>6}: {median * 1e6:8.1f} us")
        obs = report["observability"]
        print(
            f"  observability 2k replay: {obs['run_s_off']:.4f} -> "
            f"{obs['run_s_on']:.4f} s ({obs['tracer_on_vs_off']}x on/off, "
            f"summed over {obs['reps']} pairs); {obs['trace_events']} trace "
            f"events, valid: {obs['trace_valid']}, decisions identical: "
            f"{obs['decisions_identical']}"
        )
        sweep = report["sweep_scaling"]
        for n, cell in sweep["workers"].items():
            print(
                f"  sweep {sweep['cells']} cells @ {n} worker(s): "
                f"{cell['wall_s']:7.3f} s  {cell['cells_per_s']:5.2f} cells/s"
            )
        print(
            f"  sweep speedup @4w: {sweep['speedup_4w']}x "
            f"({sweep['cpu_count']} core(s)); resume from store: "
            f"{sweep['resume']['wall_s']:.3f} s, "
            f"{sweep['resume']['cache_hits']} cache hits; "
            f"merged payloads identical: {sweep['merged_payload_identical']}"
        )
    return report


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


def profile_replay(spec: WorkloadSpec):
    """cProfile the replay of ``spec`` under the default configuration;
    returns ``(profiler, total calls, requests completed)``.

    The profiled window is the one ``benchmarks/e2e`` times: materialize
    the request objects → ``submit_workload`` → ``run``.  The call count
    is exact — the same to the digit run to run under one
    ``PYTHONHASHSEED`` and within 0.01 calls/request under another — so
    ``tests/experiments/test_call_budget.py`` gates on it.  It is summed
    from ``getstats()``: ``pstats`` keys rows by (file, line, name) and
    keeps one of the NamedTuple ``__new__`` lambdas that all sit at
    ``<string>:1``, so its ``total_calls`` reads 1–3 calls/request low.
    """
    import cProfile

    from ..runtime import FaaSCluster, SystemConfig
    from ..traces.azure import SyntheticAzureTrace
    from ..traces.workload import build_workload

    workload = build_workload(spec, trace=SyntheticAzureTrace())
    system = FaaSCluster(SystemConfig())
    profiler = cProfile.Profile()
    profiler.enable()
    workload.requests  # built once here, reused by submit_workload
    system.submit_workload(workload)
    system.run()
    profiler.disable()
    total_calls = sum(entry.callcount for entry in profiler.getstats())
    return profiler, total_calls, system.metrics.completed_count


def run_profile(n_requests: int = 2000, top: int = 25) -> None:
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

    from ..traces.workload import spec_for_requests

    profiler, total_calls, completed = profile_replay(spec_for_requests(n_requests))
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


#: bench-check gates (ROADMAP "BENCH trajectory")
_MAX_DEPTH_RATIO = 3.0            # pass cost 20k-deep / 2k-deep
_MIN_SWEEP_SPEEDUP_4W = 1.5       # grid speedup at 4 workers (needs >= 2 cores)
_MAX_SWEEP_RESUME_S = 1.0         # cache-hit resume of a completed sweep
#: 2k replay with the flight recorder on may cost at most this factor of
#: the tracer-off replay (ratio of summed interleaved arms, best-of-2
#: children) — the tracing layer's whole-run budget.  The measured hook
#: cost is ~1.5 µs/request (~2%); the margin absorbs run-to-run jitter.
_MAX_TRACER_ON_VS_OFF = 1.05


def check_bench(path: str | None = None) -> list[str]:
    """Validate a committed ``BENCH_scheduler.json`` against the ROADMAP
    gates; returns the list of violations (empty = pass).

    * the scheduling pass must stay sublinear in queue depth: cost at
      depth 20 000 may be at most 3× the cost at depth 2 000;
    * the flight recorder must stay within its budget: tracer-on 2k
      replay ≤ 1.05× tracer-off (summed interleaved pairs), the exported
      trace must validate, and both arms' decision logs must hash
      identically;
    * the sweep orchestrator's merged figure payload must be byte-identical
      across worker counts, and resuming a completed sweep must be served
      entirely from the result store in under a second;
    * the 4-worker grid must run ≥1.5× faster than sequential — gated only
      when the machine that *recorded* the report had ≥2 cores, because
      parallel speedup on a single-core container is physically impossible
      (the recorded ``sweep_scaling.cpu_count`` documents which case the
      committed numbers are).
    """
    report_path = Path(path) if path else _repo_root() / DEFAULT_OUTPUT
    report = json.loads(report_path.read_text())
    problems: list[str] = []
    depths = report.get("pass_cost_by_depth_s", {})
    if "2000" in depths and "20000" in depths:
        ratio = depths["20000"] / depths["2000"]
        if ratio > _MAX_DEPTH_RATIO:
            problems.append(
                f"pass-cost depth scaling 20k/2k = {ratio:.2f}x "
                f"(limit {_MAX_DEPTH_RATIO}x)"
            )
    else:
        problems.append("pass_cost_by_depth_s is missing the 2000/20000 depths")
    obs = report.get("observability")
    if not obs:
        problems.append("observability section missing")
    else:
        ratio = obs.get("tracer_on_vs_off")
        if ratio is None:
            problems.append("observability.tracer_on_vs_off missing")
        elif ratio > _MAX_TRACER_ON_VS_OFF:
            problems.append(
                f"2k replay with the flight recorder on costs {ratio}× the "
                f"tracer-off replay (gate ≤ {_MAX_TRACER_ON_VS_OFF}: tracing "
                "must stay within its ≤5% budget)"
            )
        if not obs.get("trace_valid"):
            problems.append(
                "traced 2k replay produced an invalid Chrome trace "
                f"({obs.get('trace_validation_errors')})"
            )
        if not obs.get("decisions_identical"):
            problems.append(
                "tracer-on and tracer-off replays produced different "
                "decision logs (tracing must not change scheduling)"
            )
    sweep = report.get("sweep_scaling")
    if not sweep:
        problems.append("sweep_scaling section missing")
        return problems
    if not sweep.get("merged_payload_identical"):
        problems.append(
            "sweep merged payloads differ across worker counts/resume "
            "(sharded and sequential grids must be byte-identical)"
        )
    resume = sweep.get("resume", {})
    if resume.get("executed", 1) != 0:
        problems.append(
            f"sweep resume re-executed {resume.get('executed')} cells "
            "(a completed sweep must be served entirely from the store)"
        )
    if resume.get("wall_s", float("inf")) >= _MAX_SWEEP_RESUME_S:
        problems.append(
            f"sweep resume took {resume.get('wall_s')} s "
            f"(cache-hit resume must finish in < {_MAX_SWEEP_RESUME_S} s)"
        )
    cores = sweep.get("cpu_count") or 1
    speedup = sweep.get("speedup_4w", 0.0)
    if cores >= 2 and speedup < _MIN_SWEEP_SPEEDUP_4W:
        problems.append(
            f"sweep speedup at 4 workers = {speedup}x on {cores} cores "
            f"(gate {_MIN_SWEEP_SPEEDUP_4W}x)"
        )
    return problems
