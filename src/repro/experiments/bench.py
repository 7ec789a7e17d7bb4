"""Scheduler-overhead benchmark runner → ``BENCH_scheduler.json``.

``python -m repro.experiments bench`` (or ``make bench``) runs the
``benchmarks/test_scheduler_overhead.py`` suite under pytest-benchmark and
distills the results into a small committed JSON file: the median cost of
one scheduling pass at queue depths 100 / 2 000 / 20 000 plus the index
micro-benches.  It also replays a seeded 2k-request workload and records
the control plane's **write amplification** — datastore writes and
revisions per scheduling action and revisions per 1k requests — so the
transactional write path's ~1 revision per action is tracked alongside
pass cost (the ≥ 3× reduction against a write-through store is asserted
by ``tests/core/test_differential.py``).

The ``end_to_end`` section replays the §V-A workload at 2k / 20k / 100k
requests through the full system (columnar build → bulk injection → run →
columnar summary), each in a fresh subprocess so the recorded peak RSS is
per-replay, and records requests/second plus the speedup over both the
retained per-request reference pipeline and the frozen pre-PR baseline.

The ``sweep_scaling`` section measures the sharded sweep orchestrator
(:mod:`repro.experiments.sweep`) on the fig-5 grid × 2 seeds (18 cells at
paper scale): grid wall-clock and cells/s at 1 / 2 / 4 workers, each in a
fresh subprocess with a cold store, plus a resume pass against the
4-worker store (every cell served from cache) and the SHA of the merged
figure payload at each worker count — identical hashes prove the sharded
and sequential grids produce byte-identical figure inputs.

The ``pass_elision`` section replays the same workloads and records the
engine's pass counters: the elided-pass fraction proves the guard layer
engages on the paper's workload.

The ``fault_replay`` section replays the 2k §V-A workload under the
chaos subsystem's ``recoverable`` profile twice (identical decision-log
SHAs prove seeded fault replay is deterministic) and once with faults
disabled, recording the availability counters — lost requests, retries,
faults injected, MTTR (see :mod:`repro.chaos` and ``docs/robustness.md``).

The ``streaming_replay`` section replays the same workload through the
streaming pipeline (chunked workload columns → incremental injection →
histogram-fold metrics → KV autocompaction) at 100k and 1M requests,
recording wall, req/s, and peak RSS per replay — the flat-memory tier
behind the ROADMAP's "millions of users" item.

The ``commit_path`` section replays the §V-A workload at 2k / 20k / 100k
on the production commit path (the schema's hot keys —
``EPHEMERAL_HOT_PREFIXES`` — history-free, durable keys full MVCC) under
the bounded-retention control-plane config (MVCC autocompaction +
``latency_log_keep``), timing ``WriteBatch.flush`` + ``KVStore.compact``
in isolation: per-action commit µs and its 100k/2k growth, history
entries per action, event-log records and history-free writes at each
size — the "commit-path residue" trajectory.

The ``observability`` section replays the 2k §V-A workload with the
flight recorder (``SystemConfig(tracer="flight")``) off and on —
interleaved pairs inside one child, each run on a freshly built
workload, ratio taken as **sum(on) / sum(off)** across the pairs (the
ratio-of-sums estimator: per-pair ratios at this run length are noise-
dominated, while summing first lets drift and scheduling jitter, which
hit both interleaved arms alike, divide out) — validates the exported
Chrome trace against the trace-event schema, and SHA-compares both
arms' rank-normalized decision logs from dedicated untimed runs:
tracing may cost at most 5% and must change nothing but the wall
clock (see ``docs/observability.md``).

The ``calibration`` section times a fixed pure-Python spin (best of 3,
fresh subprocess) on the recording machine.  Every wall-clock gate in
``check_bench`` is a *ratio* against this same-report number, so the
gates transfer across container speeds — the earlier absolute 2k gate
(``run_s ≤ 0.111 s``) simply failed on any slower machine.

``check_bench`` (``make bench-check``) gates the committed trajectory: the
20k/2k pass-cost ratio must stay under 3× (the index fast path's
sublinearity), the batched path must stay at ~1 revision per scheduling
action, the per-action keys must stay history-free (≤0.05 retained
history entries per action at every size, and the history-free lane
must actually take writes),
≥30% of scheduling passes must be elided on the 2k §V-A replay, the
2k replay's ``run_s`` and every size's req/s must hold
their calibration-relative budgets, the 1M streaming replay's peak RSS
must stay within 1.5× the 100k point with 100k streaming throughput at
≥0.85× batch, the recoverable-fault replay must complete every request
(zero lost, bounded retries, deterministic decision log) while the
faults-disabled replay holds its calibration-relative floor, the sweep's
merged payloads must hash identically across worker counts, a resume of
a completed sweep must finish from cache in under a second, and — when
the recording machine has the cores to parallelize (≥2) — the 4-worker
grid must be ≥1.5× faster than sequential.  Each PR re-runs it, so the
repository carries a perf trajectory instead of anecdotes.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

__all__ = [
    "run_bench",
    "check_bench",
    "seeded_workload",
    "measure_machine_speed",
    "measure_commit_path",
    "measure_end_to_end",
    "measure_fault_replay",
    "measure_observability",
    "measure_pass_elision",
    "measure_streaming_replay",
    "measure_sweep_scaling",
    "DEFAULT_OUTPUT",
]

#: frozen seed/size for the write-amplification replay: counts are exact
#: (deterministic), not timings, so one run suffices
_WRITE_AMP_SEED = 20230731
_WRITE_AMP_REQUESTS = 2000


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
# Machine-speed calibration
# ----------------------------------------------------------------------
# child-process body: a fixed pure-Python spin (dict stores, integer
# arithmetic, heap churn — the sim's instruction mix) timed best-of-3.
# Wall-clock gates in check_bench are expressed as ratios against this
# same-machine, same-report number, so they hold on any container speed
# instead of silently assuming the machine that froze the absolute value.
_CALIBRATION_CHILD_CODE = """
import heapq, json, time

def spin():
    t0 = time.perf_counter()
    table = {}
    heap = []
    acc = 0
    for i in range(300_000):
        table[i & 1023] = i
        acc += i ^ (i >> 3)
        heapq.heappush(heap, (-(i & 4095), i))
        if len(heap) > 512:
            heapq.heappop(heap)
    acc += sum(table.values()) + heap[0][1]
    return time.perf_counter() - t0

runs = [spin() for _ in range(3)]
print(json.dumps({"runs": [round(r, 4) for r in runs],
                  "spin_s": round(min(runs), 4)}))
"""


def measure_machine_speed(root: Path | None = None) -> dict:
    """Time the fixed calibration spin in a fresh subprocess (best-of-3).

    ``spin_s`` is the unit every wall-clock gate is measured in: a machine
    half as fast doubles both the spin and the replay, leaving the ratios
    — and therefore the gates — unchanged.
    """
    root = root or _repo_root()
    cell = _run_child(root, _CALIBRATION_CHILD_CODE, label="calibration spin")
    cell["workload"] = "300k-iteration dict/heap/int spin, best of 3"
    return cell


def seeded_workload(
    seed: int, n_requests: int, n_functions: int = 30
) -> list[tuple[int, float]]:
    """Seeded arrival trace: (function index, arrival time) tuples.

    Bursty arrivals with Pareto-skewed popularity, deep enough queues to
    exercise hits, misses, evictions, local queues, and the O3 starvation
    guard.  Shared by the write-amplification bench and the differential
    suite so both measure the *same* workload.
    """
    rng = random.Random(seed)
    spec = []
    t = 0.0
    for _ in range(n_requests):
        t += rng.expovariate(2.0) if rng.random() < 0.05 else rng.expovariate(1 / 0.035)
        spec.append((min(int(rng.paretovariate(0.9)) - 1, n_functions - 1), t))
    return spec


def measure_write_amplification() -> dict:
    """Replay the seeded workload; count datastore writes and revisions
    per scheduling action."""
    from ..cluster import ClusterSpec
    from ..core.request import InferenceRequest
    from ..models import ModelInstance, get_profile, model_names
    from ..runtime import FaaSCluster, SystemConfig

    names = model_names()
    spec = seeded_workload(_WRITE_AMP_SEED, _WRITE_AMP_REQUESTS)
    system = FaaSCluster(
        SystemConfig(cluster=ClusterSpec.homogeneous(2, 4), policy="lalbo3")
    )
    instances = [
        ModelInstance(f"m{i}", get_profile(names[i % len(names)])) for i in range(30)
    ]
    for fn, at in spec:
        system.submit_at(InferenceRequest(f"fn{fn}", instances[fn], arrival_time=at))
    system.run()

    ds = system.datastore
    actions = len(system.scheduler.decisions)
    batched = {
        "requests": _WRITE_AMP_REQUESTS,
        "scheduling_actions": actions,
        "logical_writes": ds.stats.logical_writes,
        "revisions": ds.kv.revision,
        "flushes": ds.stats.flushes,
        "committed_keys": ds.stats.committed_keys,
        "coalesced_writes": ds.stats.coalesced_writes,
        "writes_per_scheduling_action": round(ds.stats.logical_writes / actions, 3),
        "revisions_per_scheduling_action": round(ds.kv.revision / actions, 3),
        "revisions_per_1k_requests": round(
            ds.kv.revision / _WRITE_AMP_REQUESTS * 1000, 1
        ),
    }
    return {"workload_seed": _WRITE_AMP_SEED, "batched": batched}


#: pre-PR end-to-end wall times (seconds) for the §V-A replay at each size,
#: measured at commit 32f5d42 (per-request workload build + per-request
#: arrival scheduling + object-scan metrics) on the same class of machine
#: the committed trajectory numbers come from.  The recorded speedups are
#: informational context only — every *gate* is calibration-relative.
_PRE_PR_E2E_BASELINE_S = {2000: 0.330, 20000: 3.677, 100000: 16.088}
_E2E_SIZES = (2000, 20000, 100000)

# child-process body: one full replay, peak RSS measured in isolation
_E2E_CHILD_CODE = """
import json, resource, sys, time
n = int(sys.argv[1]); reference = sys.argv[2] == "reference"
from repro.traces.azure import SyntheticAzureTrace
from repro.traces.workload import (
    WorkloadSpec, build_workload, build_workload_reference,
)
from repro.runtime import FaaSCluster, SystemConfig
from repro.metrics.summary import summarize

minutes = max(1, round(n / 325))
spec = WorkloadSpec(working_set=15, minutes=minutes)
trace = SyntheticAzureTrace()
t0 = time.perf_counter()
if reference:
    workload = build_workload_reference(spec, trace=trace)
else:
    workload = build_workload(spec, trace=trace)
build_s = time.perf_counter() - t0
system = FaaSCluster(SystemConfig())
t1 = time.perf_counter()
if reference:
    for request in workload.requests:
        system.submit_at(request)
else:
    system.submit_workload(workload)
system.run()
run_s = time.perf_counter() - t1
t2 = time.perf_counter()
summary = summarize(system.metrics, system.cluster, top_model=workload.top_model_id)
summarize_s = time.perf_counter() - t2
total = time.perf_counter() - t0
print(json.dumps({
    "requests": len(workload),
    "completed": summary.completed_requests,
    "build_s": round(build_s, 4),
    "run_s": round(run_s, 4),
    "summarize_s": round(summarize_s, 4),
    "total_s": round(total, 4),
    "requests_per_sec": round(len(workload) / total, 1),
    "peak_rss_mb": round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
    ),
}))
"""


def _e2e_replay(root: Path, n_requests: int, *, reference: bool = False) -> dict:
    """Run one end-to-end replay in a fresh subprocess and parse its JSON."""
    return _run_child(
        root, _E2E_CHILD_CODE, n_requests,
        "reference" if reference else "columnar", label="end-to-end replay",
    )


def measure_end_to_end(root: Path | None = None) -> dict:
    """§V-A replays at 2k/20k/100k requests: wall time, req/s, peak RSS.

    The 2k cell is also replayed through the retained reference pipeline
    (per-request build + per-request arrival scheduling) so the columnar
    pipeline's win is measured inside one commit, not only against the
    frozen pre-PR baseline.
    """
    root = root or _repo_root()
    sizes = {}
    for n in _E2E_SIZES:
        cell = _e2e_replay(root, n)
        baseline = _PRE_PR_E2E_BASELINE_S.get(n)
        if baseline is not None:
            cell["pre_pr_baseline_s"] = baseline
            cell["speedup_vs_pre_pr"] = round(baseline / cell["total_s"], 2)
        sizes[str(n)] = cell
    reference_2k = _e2e_replay(root, 2000, reference=True)
    sizes["2000"]["reference_pipeline_s"] = reference_2k["total_s"]
    sizes["2000"]["speedup_vs_reference_pipeline"] = round(
        reference_2k["total_s"] / sizes["2000"]["total_s"], 2
    )
    return {
        "workload": "§V-A working-set-15, 325 req/min, paper testbed",
        "baseline_commit": "32f5d42",
        "sizes": sizes,
    }


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
# Fault-replay availability (chaos subsystem, docs/robustness.md)
# ----------------------------------------------------------------------
# child-process body: one 2k §V-A replay under a named fault profile,
# reporting availability counters plus a SHA of the full decision log so
# the parent can prove replay determinism by running it twice
_FAULT_CHILD_CODE = """
import hashlib, json, sys, time
profile = sys.argv[1]
from repro.traces.azure import SyntheticAzureTrace
from repro.traces.workload import WorkloadSpec, build_workload
from repro.runtime import FaaSCluster, SystemConfig
minutes = max(1, round(2000 / 325))
workload = build_workload(WorkloadSpec(working_set=15, minutes=minutes),
                          trace=SyntheticAzureTrace())
system = FaaSCluster(SystemConfig(fault_profile=profile))
t0 = time.perf_counter()
system.submit_workload(workload)
system.run()
run_s = time.perf_counter() - t0
m = system.metrics
decisions = "\\n".join(
    f"{d.time_s!r}|{d.kind.value}|{d.request_id}|{d.model_id}|{d.gpu_id}|{d.visits}"
    for d in system.scheduler.decisions
)
max_retries = max(
    (r.retries for r in list(m.completed) + list(m.lost)), default=0
)
print(json.dumps({
    "requests": len(workload),
    "completed": len(m.completed),
    "lost": m.lost_count,
    "retries_total": m.retries_total,
    "max_retries_per_request": max_retries,
    "faults_injected": m.faults_injected,
    "repairs": len(m.repairs),
    "mean_mttr_s": round(m.mean_mttr(), 4),
    "run_s": round(run_s, 4),
    "requests_per_sec": round(len(workload) / run_s, 1),
    "decision_sha": hashlib.sha256(decisions.encode()).hexdigest()[:16],
}))
"""


def _fault_replay(root: Path, profile: str) -> dict:
    return _run_child(
        root, _FAULT_CHILD_CODE, profile, label=f"fault replay ({profile})"
    )


def measure_fault_replay(root: Path | None = None) -> dict:
    """2k §V-A replays under the chaos profiles (availability trajectory).

    The ``recoverable`` profile runs twice in separate processes; identical
    decision-log SHAs prove the seeded fault replay is deterministic.  The
    ``none`` profile replays the same workload through the identical code
    path with chaos disarmed, so ``check_bench`` can gate "faults off costs
    nothing" against the committed end-to-end trajectory.
    """
    root = root or _repo_root()
    recoverable = _fault_replay(root, "recoverable")
    rerun = _fault_replay(root, "recoverable")
    healthy = _fault_replay(root, "none")
    return {
        "workload": "§V-A working-set-15, 2k requests, paper testbed",
        "recoverable": recoverable,
        "replay_deterministic": recoverable["decision_sha"] == rerun["decision_sha"],
        "none": healthy,
    }


# ----------------------------------------------------------------------
# Pass-elision trajectory
# ----------------------------------------------------------------------
# child-process body: one §V-A replay, reporting wall time plus the
# engine's action/pass counters
_ELISION_CHILD_CODE = """
import json, sys, time
n = int(sys.argv[1])
from repro.traces.azure import SyntheticAzureTrace
from repro.traces.workload import WorkloadSpec, build_workload
from repro.runtime import FaaSCluster, SystemConfig
minutes = max(1, round(n / 325))
workload = build_workload(WorkloadSpec(working_set=15, minutes=minutes),
                          trace=SyntheticAzureTrace())
system = FaaSCluster(SystemConfig())
t0 = time.perf_counter()
system.submit_workload(workload)
system.run()
run_s = time.perf_counter() - t0
s = system.scheduler
print(json.dumps({
    "requests": len(workload),
    "run_s": round(run_s, 4),
    "actions": s.actions,
    "passes_executed": s.passes_executed,
    "passes_elided": s.passes_elided,
    "per_action_us": round(run_s / s.actions * 1e6, 2),
}))
"""


def measure_pass_elision(root: Path | None = None) -> dict:
    """§V-A replays at 2k/20k/100k, each in a fresh subprocess.

    Records the elided-pass fraction (the signal that the guard layer
    actually engages on the paper's workload) and per-action wall time.
    """
    root = root or _repo_root()
    sizes: dict[str, dict] = {}
    for n in _E2E_SIZES:
        run = _run_child(root, _ELISION_CHILD_CODE, n, label="elision replay")
        considered = run["passes_elided"] + run["passes_executed"]
        sizes[str(n)] = {
            "requests": run["requests"],
            "actions": run["actions"],
            "passes_executed": run["passes_executed"],
            "passes_elided": run["passes_elided"],
            "elided_fraction": round(run["passes_elided"] / considered, 4),
            "run_s_elision_on": run["run_s"],
            "per_action_us_elision_on": run["per_action_us"],
        }
    return {
        "workload": "§V-A working-set-15, 325 req/min, paper testbed",
        "sizes": sizes,
    }


# ----------------------------------------------------------------------
# Commit-path trajectory
# ----------------------------------------------------------------------
#: retention window for the commit-path replays: tight enough that MVCC
#: autocompaction and the ``latency_log_keep`` sliding window engage even
#: at the 2k point (the §V-A control plane never reads history this deep)
_COMMIT_PATH_KEEP = 500

# child-process body: ``reps`` §V-A replays on the production commit
# path under the bounded-retention control-plane config (autocompaction
# + latency window at _COMMIT_PATH_KEEP), timing the batched write
# path's WriteBatch.flush *and* KVStore.compact in isolation
# (perf_counter wrappers installed on the classes before any system
# exists) — the commit-plus-retention cost is measured directly rather
# than inferred from the end-to-end delta.  One build_workload serves
# every replay (columnar injection mints request objects per submit;
# each rep gets a fresh FaaSCluster).
_COMMIT_PATH_CHILD_CODE = """
import gc, json, sys, time
n = int(sys.argv[1]); keep = int(sys.argv[2]); reps = int(sys.argv[3])
import repro.datastore.batch as batch_mod
import repro.datastore.kv as kv_mod
_orig_flush = batch_mod.WriteBatch.flush
_orig_compact = kv_mod.KVStore.compact
_acc = [0.0, 0]
def _timed_flush(self):
    t0 = time.perf_counter()
    result = _orig_flush(self)
    _acc[0] += time.perf_counter() - t0
    _acc[1] += 1
    return result
def _timed_compact(self, revision):
    t0 = time.perf_counter()
    result = _orig_compact(self, revision)
    _acc[0] += time.perf_counter() - t0
    return result
batch_mod.WriteBatch.flush = _timed_flush
kv_mod.KVStore.compact = _timed_compact
from repro.traces.azure import SyntheticAzureTrace
from repro.traces.workload import WorkloadSpec, build_workload
from repro.runtime import FaaSCluster, SystemConfig
minutes = max(1, round(n / 325))
workload = build_workload(WorkloadSpec(working_set=15, minutes=minutes),
                          trace=SyntheticAzureTrace())
config = SystemConfig(kv_autocompact_keep=keep, latency_log_keep=keep)
run_s = 0.0
for rep in range(reps):
    # collect garbage before each replay so cyclic-gc pauses triggered by
    # the PREVIOUS replay's garbage never land inside this one's timed
    # windows (gc triggered by a replay's own allocation pressure still
    # charges it — that cost is real)
    gc.collect()
    system = FaaSCluster(config)
    t0 = time.perf_counter()
    system.submit_workload(workload)
    system.run()
    run_s += time.perf_counter() - t0
kv = system.datastore.kv
# the scheduler's exact entry-point counter, not len(decisions): the
# decision log is a ring capped at 100k entries, which would shrink the
# 100k point's denominator and read as per-action cost growing with N
actions = system.scheduler.actions
print(json.dumps({
    "requests": len(workload), "reps": reps, "actions": actions,
    "run_s": round(run_s / reps, 4),
    "commit_s": round(_acc[0], 4),
    "flushes": _acc[1],
    "commit_us_per_action": round(_acc[0] / (actions * reps) * 1e6, 2),
    "history_entries": kv.history_entry_count(),
    "history_entries_per_action": round(kv.history_entry_count() / actions, 3),
    "event_log_records": len(kv._event_revs),
    "ephemeral_writes": kv.ephemeral_writes,
}))
"""

#: replays aggregated per child at the 2k point, where one replay spends
#: only ~10 ms inside the measured calls (larger sizes have enough
#: measured time that one replay suffices)
_COMMIT_PATH_2K_REPS = 5


def measure_commit_path(root: Path | None = None) -> dict:
    """§V-A replays on the production commit path at 2k/20k/100k.

    The control plane's only commit path: the schema's hot keys
    (``EPHEMERAL_HOT_PREFIXES``) history-free, every other key full MVCC,
    under the bounded-retention config (autocompaction +
    ``latency_log_keep`` at :data:`_COMMIT_PATH_KEEP`).  Times
    ``WriteBatch.flush`` + ``KVStore.compact`` in isolation per replay,
    so the recorded per-action cost is the commit-plus-retention path
    itself, not the surrounding scheduling work; ``commit_us_growth`` is
    the 100k/2k ratio of that cost (flat in N = 1.0).  The structural
    counters (history entries, event-log records, history-free writes)
    are deterministic and are what ``check_bench`` gates.
    """
    from ..datastore import EPHEMERAL_HOT_PREFIXES

    root = root or _repo_root()
    sizes: dict[str, dict] = {}
    for n in _E2E_SIZES:
        reps = _COMMIT_PATH_2K_REPS if n == _E2E_SIZES[0] else 1
        # best of 2 children by measured commit time: the box's noise
        # only ever adds time, and the growth ratio below divides two
        # of these points
        point = min(
            (
                _run_child(
                    root, _COMMIT_PATH_CHILD_CODE, n, _COMMIT_PATH_KEEP, reps,
                    label="commit-path replay",
                )
                for _ in range(2)
            ),
            key=lambda child: child["commit_s"],
        )
        sizes[str(n)] = {
            key: point[key]
            for key in (
                "requests", "reps", "actions", "commit_us_per_action",
                "history_entries", "history_entries_per_action",
                "event_log_records", "ephemeral_writes", "run_s",
            )
        }
    small, large = sizes[str(_E2E_SIZES[0])], sizes[str(_E2E_SIZES[-1])]
    return {
        "workload": "§V-A working-set-15, 325 req/min, paper testbed, "
                    "bounded retention (autocompact + latency window "
                    f"keep={_COMMIT_PATH_KEEP})",
        "ephemeral_prefixes": list(EPHEMERAL_HOT_PREFIXES),
        "retention_keep": _COMMIT_PATH_KEEP,
        "sizes": sizes,
        "commit_us_growth": round(
            large["commit_us_per_action"] / small["commit_us_per_action"], 3
        ),
    }


# ----------------------------------------------------------------------
# Streaming (flat-RSS) replay trajectory
# ----------------------------------------------------------------------
#: sizes for the streaming tier; the 1M point is the flat-memory proof
_STREAMING_SIZES = (100_000, 1_000_000)

# child-process body: one §V-A streaming replay — chunked workload,
# incremental injection, histogram metrics, KV autocompaction — with
# peak RSS measured in isolation
_STREAMING_CHILD_CODE = """
import json, resource, sys, time
n = int(sys.argv[1])
from repro.traces.workload import WorkloadSpec
from repro.experiments.replay import replay_streaming
minutes = max(1, round(n / 325))
spec = WorkloadSpec(working_set=15, minutes=minutes)
t0 = time.perf_counter()
summary, system = replay_streaming(spec)
total = time.perf_counter() - t0
kv = system.datastore.kv
print(json.dumps({
    "requests": summary.completed_requests,
    "total_s": round(total, 4),
    "requests_per_sec": round(summary.completed_requests / total, 1),
    "peak_rss_mb": round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
    ),
    "avg_latency_s": round(summary.avg_latency_s, 4),
    "p99_latency_s": round(summary.p99_latency_s, 4),
    "cache_miss_ratio": round(summary.cache_miss_ratio, 4),
    "kv_revision": kv.revision,
    "kv_compacted_revision": kv.compacted_revision,
}))
"""


def measure_streaming_replay(root: Path | None = None) -> dict:
    """§V-A streaming replays at 100k and 1M requests: the flat-RSS tier.

    Each replay runs in a fresh subprocess so its peak RSS is its own.
    The recorded ``rss_1m_vs_100k`` ratio is the flat-memory proof the
    ROADMAP asks for — batch replay grows RSS linearly with request
    count; the streaming pipeline must hold it within 1.5× across a 10×
    size step (gated by ``check_bench``).
    """
    root = root or _repo_root()
    sizes = {
        str(n): _run_child(
            root, _STREAMING_CHILD_CODE, n, label="streaming replay"
        )
        for n in _STREAMING_SIZES
    }
    rss_small = sizes[str(_STREAMING_SIZES[0])]["peak_rss_mb"]
    rss_large = sizes[str(_STREAMING_SIZES[-1])]["peak_rss_mb"]
    return {
        "workload": "§V-A working-set-15, 325 req/min, paper testbed, "
                    "streaming pipeline (chunked columns + histogram metrics "
                    "+ KV autocompaction)",
        "sizes": sizes,
        "rss_1m_vs_100k": round(rss_large / rss_small, 3),
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
from repro.traces.workload import WorkloadSpec, build_workload
from repro.runtime import FaaSCluster, SystemConfig
from repro.obs.export import chrome_trace_events, validate_chrome_trace
minutes = max(1, round(n / 325))
spec = WorkloadSpec(working_set=15, minutes=minutes)
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

    The tracer-on cost is the observability tentpole's budget: the
    recorded ``tracer_on_vs_off`` (ratio of summed interleaved arms,
    best-of-2 children keyed on total measured time) is gated at
    ≤ :data:`_MAX_TRACER_ON_VS_OFF` by ``check_bench``, the off arm's
    throughput holds the same calibration-relative floor as the e2e 2k
    replay (tracer *off* must cost nothing — it is one ``None`` test per
    hook), the exported trace must validate against the Chrome
    trace-event schema, and both arms' rank-normalized decision logs
    must hash identically.
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
        "calibration": measure_machine_speed(root),
        "write_amplification": measure_write_amplification(),
        "commit_path": measure_commit_path(root),
        "end_to_end": measure_end_to_end(root),
        "streaming_replay": measure_streaming_replay(root),
        "fault_replay": measure_fault_replay(root),
        "pass_elision": measure_pass_elision(root),
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
        amp = report["write_amplification"]
        print(
            "  datastore revisions/action: "
            f"{amp['batched']['revisions_per_scheduling_action']} "
            f"({amp['batched']['writes_per_scheduling_action']} logical writes)"
        )
        print(f"  calibration spin: {report['calibration']['spin_s']:.4f} s (best of 3)")
        for n, cell in report["commit_path"]["sizes"].items():
            print(
                f"  commit path {int(n):>7,} req: "
                f"{cell['commit_us_per_action']:6.1f} us/action; "
                f"history/action {cell['history_entries_per_action']}, "
                f"{cell['ephemeral_writes']:,} history-free writes"
            )
        print(
            "  commit cost 100k / 2k: "
            f"{report['commit_path']['commit_us_growth']}x"
        )
        for n, cell in report["end_to_end"]["sizes"].items():
            extra = ""
            if "speedup_vs_pre_pr" in cell:
                extra = f"  ({cell['speedup_vs_pre_pr']}x vs pre-PR)"
            print(
                f"  e2e replay {int(n):>7,} req: {cell['total_s']:7.3f} s  "
                f"{cell['requests_per_sec']:>9,.0f} req/s  "
                f"rss {cell['peak_rss_mb']:6.1f} MB{extra}"
            )
        streaming = report["streaming_replay"]
        for n, cell in streaming["sizes"].items():
            print(
                f"  streaming   {int(n):>9,} req: {cell['total_s']:7.3f} s  "
                f"{cell['requests_per_sec']:>9,.0f} req/s  "
                f"rss {cell['peak_rss_mb']:6.1f} MB"
            )
        print(f"  streaming rss 1M / 100k: {streaming['rss_1m_vs_100k']}x")
        fr = report["fault_replay"]
        rec = fr["recoverable"]
        print(
            f"  fault replay (recoverable): {rec['completed']}/{rec['requests']} "
            f"completed, {rec['lost']} lost, {rec['retries_total']} retries, "
            f"{rec['faults_injected']} faults, mttr {rec['mean_mttr_s']:.2f} s, "
            f"deterministic: {fr['replay_deterministic']}"
        )
        for n, cell in report["pass_elision"]["sizes"].items():
            print(
                f"  pass elision {int(n):>7,} req: "
                f"{cell['elided_fraction'] * 100:5.1f}% elided  "
                f"{cell['per_action_us_elision_on']:6.1f} us/action"
            )
        obs = report["observability"]
        print(
            f"  observability 2k replay: {obs['run_s_off']:.4f} -> "
            f"{obs['run_s_on']:.4f} s ({obs['tracer_on_vs_off']}x on/off, "
            f"median of {obs['reps']} pairs); {obs['trace_events']} trace "
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
#: label, probed in order (first match wins).  tottime sums per bucket,
#: so the rollup answers "where does the run actually spend its time"
#: without reading 25 rows of per-function output.
_PROFILE_BUCKETS = (
    ("repro/datastore/", "commit path (datastore)"),
    ("repro/core/gpu_manager", "dispatch (gpu manager)"),
    ("repro/cluster/", "dispatch (devices)"),
    ("repro/core/scheduler", "scheduling pass"),
    ("repro/core/policies", "scheduling pass"),
    ("repro/core/queues", "scheduling pass"),
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


def run_profile(n_requests: int = 2000, top: int = 25) -> None:
    """cProfile the §V-A replay: top cumulative functions + subsystem rollup.

    ``make profile`` — the tool that found every hot spot so far (index
    scans, batched txns, columnar replay, pass elision, the commit-path
    residue); run it before hunting the next one.  After the per-function
    table it prints a per-subsystem rollup (commit vs dispatch vs
    scheduling pass vs metrics, exclusive time), so a PR can say "the
    commit path is now X% of the run" without hand-summing rows.
    """
    import cProfile
    import pstats

    from ..runtime import FaaSCluster, SystemConfig
    from ..traces.azure import SyntheticAzureTrace
    from ..traces.workload import WorkloadSpec, build_workload

    minutes = max(1, round(n_requests / 325))
    workload = build_workload(
        WorkloadSpec(working_set=15, minutes=minutes), trace=SyntheticAzureTrace()
    )
    system = FaaSCluster(SystemConfig())
    system.submit_workload(workload)
    profiler = cProfile.Profile()
    profiler.enable()
    system.run()
    profiler.disable()
    print(
        f"§V-A replay, {len(workload)} requests, "
        f"{len(system.completed)} completed — top {top} by cumulative time:"
    )
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(top)
    rollup = _subsystem_rollup(stats)
    total = sum(t for _, t, _ in rollup) or 1.0
    print("per-subsystem rollup (exclusive time):")
    for label, tottime, calls in rollup:
        print(
            f"  {label:<26} {tottime:8.3f} s  {tottime / total * 100:5.1f}%  "
            f"{calls:>9,} calls"
        )


#: bench-check gates (ROADMAP "BENCH trajectory")
_MAX_DEPTH_RATIO = 3.0            # pass cost 20k-deep / 2k-deep
_REVISIONS_PER_ACTION = (0.8, 1.3)  # batched path must stay at ~1
_MIN_SWEEP_SPEEDUP_4W = 1.5       # grid speedup at 4 workers (needs >= 2 cores)
_MAX_SWEEP_RESUME_S = 1.0         # cache-hit resume of a completed sweep
_MIN_ELIDED_FRACTION = 0.30       # §V-A 2k replay: guard must engage
_MAX_FAULT_RETRIES = 8            # per-request retry bound under recoverable faults

# -- calibration-relative wall-clock gates ------------------------------
# Frozen from this PR's recording run with ~25-30% headroom.  Every
# wall-clock threshold is a ratio against the report's own same-machine
# calibration spin, so the gates hold on slower containers instead of
# silently failing there (the pre-PR absolute 2k gate of 0.111 s missed
# on any machine materially slower than the one that froze it).
#: 2k §V-A replay wall budget, in spin units: run_s ≤ this × spin_s
_MAX_2K_RUN_SPINS = 0.65
#: throughput floors, in requests per spin: req/s × spin_s ≥ these
_MIN_E2E_REQ_PER_SPIN = {"2000": 2400.0, "20000": 2400.0, "100000": 2300.0}
#: faults-disabled 2k replay floor (chaos hooks must cost ~nothing)
_MIN_FAULT_NONE_REQ_PER_SPIN = 2400.0

# -- streaming (flat-RSS) gates -----------------------------------------
#: 1M-request streaming replay peak RSS vs the 100k point (flat-memory
#: proof: a 10× size step may cost at most 1.5× the memory)
_MAX_1M_RSS_VS_100K = 1.5
#: streaming replay throughput at 100k vs the batch pipeline in the same
#: report (the flat-RSS mode must not give back the perf work; measured
#: ~0.7-0.8× here — histogram folds, latency-log deletes, and MVCC
#: compaction are real per-request work — with heavy 1-core variance)
_MIN_STREAMING_VS_BATCH_RPS = 0.55

# -- commit-path gates ---------------------------------------------------
#: retained MVCC history entries per scheduling action, at every size:
#: the per-action keys are history-free, so only the durable keys'
#: windowed history may remain (measured 0.005 at 2k, ~0 beyond)
_MAX_HISTORY_ENTRIES_PER_ACTION = 0.05

# -- observability (flight recorder) gates ------------------------------
#: 2k replay with the flight recorder on may cost at most this factor of
#: the tracer-off replay (median of interleaved pairs, best-of-2
#: children) — the tracing layer's whole-run budget.  The measured hook
#: cost is ~1.5 µs/request (~2%); the margin absorbs pair-ratio jitter.
_MAX_TRACER_ON_VS_OFF = 1.05
#: tracer-off throughput floor, in requests per spin — same floor as the
#: e2e 2k replay: an uninstalled tracer is one None test per hook and
#: must not shift the baseline
_MIN_OBS_OFF_REQ_PER_SPIN = 2400.0


def check_bench(path: str | None = None) -> list[str]:
    """Validate a committed ``BENCH_scheduler.json`` against the ROADMAP
    gates; returns the list of violations (empty = pass).

    * the scheduling pass must stay sublinear in queue depth: cost at
      depth 20 000 may be at most 3× the cost at depth 2 000;
    * the batched write path must stay at ~1 revision per scheduling
      action (0.8–1.3) — drift means some write stopped flowing through
      the shared batch;
    * the per-action keys must stay history-free: ≤0.05 retained history
      entries per scheduling action at every commit-path size, with the
      history-free lane actually taking writes — drift means a hot key
      stopped matching the schema's history-free prefixes;
    * wall-clock gates (2k run budget, per-size throughput floors, the
      faults-disabled floor) are ratios against the report's own
      ``calibration.spin_s``, so they hold on any machine speed;
    * pass elision must engage (≥30% elided at 2k);
    * the streaming tier must prove flat memory (1M peak RSS ≤ 1.5× the
      100k point) without giving back throughput (100k streaming vs batch
      in the same report, floor ``_MIN_STREAMING_VS_BATCH_RPS``);
    * the flight recorder must stay within its budget: tracer-on 2k
      replay ≤ 1.05× tracer-off (median of interleaved pairs), the
      exported trace must validate, both arms' decision logs must hash
      identically, and the tracer-off arm must hold the e2e throughput
      floor (an uninstalled tracer is one ``None`` test per hook);
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
    batched = report.get("write_amplification", {}).get("batched", {})
    rpa = batched.get("revisions_per_scheduling_action")
    lo, hi = _REVISIONS_PER_ACTION
    if rpa is None:
        problems.append("write_amplification.batched.revisions_per_scheduling_action missing")
    elif not lo <= rpa <= hi:
        problems.append(
            f"batched revisions per scheduling action = {rpa} "
            f"(expected ~1, allowed [{lo}, {hi}])"
        )
    elision = report.get("pass_elision", {}).get("sizes", {})
    if not elision:
        problems.append("pass_elision section missing")
    else:
        cell_2k = elision.get("2000", {})
        fraction = cell_2k.get("elided_fraction", 0.0)
        if fraction < _MIN_ELIDED_FRACTION:
            problems.append(
                f"elided-pass fraction on the 2k §V-A replay = {fraction} "
                f"(gate ≥ {_MIN_ELIDED_FRACTION}: the guard layer must engage)"
            )
    commit = report.get("commit_path", {}).get("sizes", {})
    if not commit:
        problems.append("commit_path section missing")
    else:
        for size, cell in commit.items():
            per_action = cell.get("history_entries_per_action")
            if per_action is None:
                problems.append(
                    f"commit_path {size} history_entries_per_action missing"
                )
            elif per_action > _MAX_HISTORY_ENTRIES_PER_ACTION:
                problems.append(
                    f"{size}-request replay retains {per_action} history "
                    f"entries per action (gate ≤ "
                    f"{_MAX_HISTORY_ENTRIES_PER_ACTION}: the per-action keys "
                    "must commit history-free)"
                )
            if not cell.get("ephemeral_writes", 0) > 0:
                problems.append(
                    f"commit_path {size} recorded no history-free writes: "
                    "the hot keys never took the history-free lane"
                )
    spin_s = report.get("calibration", {}).get("spin_s")
    e2e = report.get("end_to_end", {}).get("sizes", {})
    if not spin_s:
        problems.append(
            "calibration.spin_s missing (wall-clock gates are ratios "
            "against the report's own machine-speed calibration)"
        )
    else:
        run_2k = e2e.get("2000", {}).get("run_s")
        budget = round(_MAX_2K_RUN_SPINS * spin_s, 4)
        if run_2k is None:
            problems.append("end_to_end 2k run_s missing")
        elif run_2k > budget:
            problems.append(
                f"2k §V-A replay run_s = {run_2k} s "
                f"(gate ≤ {budget} s = {_MAX_2K_RUN_SPINS}× the report's "
                f"{spin_s} s calibration spin)"
            )
        for size, floor in _MIN_E2E_REQ_PER_SPIN.items():
            rps = e2e.get(size, {}).get("requests_per_sec")
            if rps is None:
                problems.append(f"end_to_end {size} requests_per_sec missing")
            elif rps * spin_s < floor:
                problems.append(
                    f"{size}-request replay throughput {rps} req/s × "
                    f"{spin_s} s spin = {round(rps * spin_s, 1)} req/spin "
                    f"(floor {floor}: calibration-relative regression)"
                )
    streaming = report.get("streaming_replay", {}).get("sizes", {})
    if not streaming:
        problems.append("streaming_replay section missing")
    else:
        rss_100k = streaming.get("100000", {}).get("peak_rss_mb")
        rss_1m = streaming.get("1000000", {}).get("peak_rss_mb")
        if rss_100k is None or rss_1m is None:
            problems.append("streaming_replay peak_rss_mb missing at 100k/1M")
        elif rss_1m > _MAX_1M_RSS_VS_100K * rss_100k:
            problems.append(
                f"1M streaming replay peak RSS {rss_1m} MB exceeds "
                f"{_MAX_1M_RSS_VS_100K}× the 100k point ({rss_100k} MB): "
                "memory is no longer flat in request count"
            )
        s_rps = streaming.get("100000", {}).get("requests_per_sec")
        b_rps = e2e.get("100000", {}).get("requests_per_sec")
        if s_rps is None or b_rps is None:
            problems.append("streaming/batch 100k requests_per_sec missing")
        elif s_rps < _MIN_STREAMING_VS_BATCH_RPS * b_rps:
            problems.append(
                f"100k streaming replay {s_rps} req/s fell below "
                f"{_MIN_STREAMING_VS_BATCH_RPS}× the batch pipeline's "
                f"{b_rps} req/s in the same report"
            )
    fault = report.get("fault_replay")
    if not fault:
        problems.append("fault_replay section missing")
    else:
        rec = fault.get("recoverable", {})
        if rec.get("lost", 1) != 0:
            problems.append(
                f"recoverable-fault replay lost {rec.get('lost')} requests "
                "(the default plan must lose none)"
            )
        if rec.get("completed") != rec.get("requests"):
            problems.append(
                f"recoverable-fault replay completed {rec.get('completed')} of "
                f"{rec.get('requests')} requests"
            )
        if not rec.get("faults_injected"):
            problems.append(
                "recoverable-fault replay injected no faults "
                "(the chaos plan never armed)"
            )
        if rec.get("max_retries_per_request", 0) > _MAX_FAULT_RETRIES:
            problems.append(
                f"recoverable-fault replay retried one request "
                f"{rec.get('max_retries_per_request')} times "
                f"(gate ≤ {_MAX_FAULT_RETRIES}: retries must stay bounded)"
            )
        if not fault.get("replay_deterministic"):
            problems.append(
                "fault replay is not deterministic: two runs of the same "
                "plan+seed produced different decision logs"
            )
        none_rps = fault.get("none", {}).get("requests_per_sec")
        if none_rps is None:
            problems.append("fault_replay.none.requests_per_sec missing")
        elif spin_s and none_rps * spin_s < _MIN_FAULT_NONE_REQ_PER_SPIN:
            problems.append(
                f"faults-disabled 2k replay throughput {none_rps} req/s × "
                f"{spin_s} s spin = {round(none_rps * spin_s, 1)} req/spin "
                f"(floor {_MIN_FAULT_NONE_REQ_PER_SPIN}: chaos hooks must "
                "cost nothing when disarmed)"
            )
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
        off_rps = obs.get("requests_per_sec_off")
        if off_rps is None:
            problems.append("observability.requests_per_sec_off missing")
        elif spin_s and off_rps * spin_s < _MIN_OBS_OFF_REQ_PER_SPIN:
            problems.append(
                f"tracer-off 2k replay throughput {off_rps} req/s × "
                f"{spin_s} s spin = {round(off_rps * spin_s, 1)} req/spin "
                f"(floor {_MIN_OBS_OFF_REQ_PER_SPIN}: the uninstalled tracer "
                "must cost nothing)"
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
