"""Ablation studies on the design choices DESIGN.md calls out (§VI).

* :func:`run_cache_policy_ablation` — swap the per-GPU replacement policy
  (LRU / FIFO / LFU / size-aware) under the LALBO3 scheduler.
* :func:`run_belady_bound` — the offline-optimal replacement bound: a
  Belady oracle built from the workload's future arrivals, showing how
  much headroom any online policy leaves on the table.
* :func:`run_gpu_scaling` — cluster-size sweep under fixed load.

All runs share the deterministic trace/workload machinery of the main
experiments.  The grid-shaped ablations (:func:`run_cache_policy_ablation`
and :func:`run_gpu_scaling`) route through the sweep orchestrator and
accept its ``workers``/``store``/``resume`` knobs; the Belady bound and
batch-size sweep need what a cell cannot name (a clairvoyant policy swap,
non-default batch sizes) and call the replay driver directly.
"""

from __future__ import annotations

import bisect
from collections import defaultdict

from ..cluster.topology import ClusterSpec
from ..core.replacement import BeladyPolicy
from ..metrics.summary import RunSummary
from ..runtime.config import SystemConfig
from ..traces.azure import SyntheticAzureTrace
from ..traces.workload import Workload, WorkloadSpec, build_workload
from .replay import replay
from .runner import ExperimentConfig, shared_trace

__all__ = [
    "build_belady_oracle",
    "run_batch_size_sweep",
    "run_belady_bound",
    "run_cache_policy_ablation",
    "run_gpu_scaling",
]


def build_belady_oracle(workload: Workload):
    """``next_use(model_id, now) -> time`` over the workload's arrivals.

    The oracle answers: when is this model instance requested next, at or
    after ``now``?  ``inf`` when never again — the Belady policy evicts the
    model with the farthest next use.
    """
    arrivals: dict[str, list[float]] = defaultdict(list)
    for request in workload.requests:
        arrivals[request.model_id].append(request.arrival_time)
    for times in arrivals.values():
        times.sort()

    def next_use(model_id: str, now: float) -> float:
        times = arrivals.get(model_id)
        if not times:
            return float("inf")
        i = bisect.bisect_left(times, now)
        return times[i] if i < len(times) else float("inf")

    return next_use


def run_belady_bound(
    *,
    working_set: int = 35,
    policy: str = "lalbo3",
    trace: SyntheticAzureTrace | None = None,
    seed: int = 0,
) -> dict[str, RunSummary]:
    """LRU vs. the offline Belady bound under the same scheduler.

    Returns ``{"lru": ..., "belady": ...}``.  Belady needs the workload's
    future, so its policy is swapped in on the built system, around a
    shared workload.
    """
    trace = trace or shared_trace()

    def install_oracle(system) -> None:
        oracle = build_belady_oracle(workload)  # this iteration's workload
        # swap every GPU's policy list for the clairvoyant one
        system.cache._policies = {
            gpu_id: BeladyPolicy(oracle) for gpu_id in system.cache._policies
        }

    out: dict[str, RunSummary] = {}
    for name, prepare in (("lru", None), ("belady", install_oracle)):
        workload = build_workload(WorkloadSpec(working_set=working_set, seed=seed), trace=trace)
        out[name], _ = replay(
            SystemConfig(policy=policy, replacement="lru", seed=seed),
            workload,
            label=f"{policy}+{name}",
            prepare=prepare,
        )
    return out


def run_cache_policy_ablation(
    replacements: tuple[str, ...] = ("lru", "fifo", "lfu", "size"),
    *,
    working_set: int = 35,
    trace: SyntheticAzureTrace | None = None,
    workers: int = 1,
    store=None,
    resume: bool = True,
    progress=None,
) -> dict[str, RunSummary]:
    """LALBO3 under each pluggable replacement policy (§VI)."""
    from .sweep import SweepCell, run_keyed_cells

    trace = trace or shared_trace()
    cells = {
        rp: SweepCell(
            config=ExperimentConfig(
                policy="lalbo3", working_set=working_set, replacement=rp
            ),
            trace=trace.config,
        )
        for rp in replacements
    }
    return run_keyed_cells(
        cells, trace=trace, workers=workers, store=store, resume=resume,
        progress=progress,
    )


def run_batch_size_sweep(
    batch_sizes: tuple[int, ...] = (8, 16, 32, 64),
    *,
    working_set: int = 15,
    trace: SyntheticAzureTrace | None = None,
) -> dict[int, RunSummary]:
    """Batch-size sensitivity (the paper fixes batch = 32, §V-A.1).

    Inference latency follows each model's profiled batch regression
    (§IV-A), so larger batches raise per-request latency but improve
    *image* throughput — the classic trade-off behind the paper's choice of
    a fixed batch of 32.  Keyed by batch size.
    """
    trace = trace or shared_trace()
    out: dict[int, RunSummary] = {}
    for batch in batch_sizes:
        workload = build_workload(
            WorkloadSpec(working_set=working_set, batch_size=batch), trace=trace
        )
        out[batch], _ = replay(
            SystemConfig(policy="lalbo3"), workload, label=f"lalbo3@batch{batch}"
        )
    return out


def run_gpu_scaling(
    sizes: tuple[tuple[int, int], ...] = ((1, 4), (2, 4), (3, 4), (4, 4)),
    *,
    working_set: int = 25,
    trace: SyntheticAzureTrace | None = None,
    workers: int = 1,
    store=None,
    resume: bool = True,
    progress=None,
) -> dict[int, RunSummary]:
    """Fixed 325 req/min load against growing clusters; keyed by GPU count.

    The cluster topology is not a :class:`~repro.experiments.sweep.
    SweepSpec` axis, but cells are arbitrary configs — the executor
    shards any cell set.
    """
    from .sweep import SweepCell, run_keyed_cells

    trace = trace or shared_trace()
    cells = {
        nodes * per_node: SweepCell(
            config=ExperimentConfig(
                policy="lalbo3",
                working_set=working_set,
                cluster=ClusterSpec.homogeneous(nodes, per_node),
            ),
            trace=trace.config,
        )
        for nodes, per_node in sizes
    }
    return run_keyed_cells(
        cells, trace=trace, workers=workers, store=store, resume=resume,
        progress=progress,
    )
