"""Sharded sweep orchestrator: the multiprocess §V grid runner.

Every figure and table in §V is a sweep of one experiment cell —
:class:`~repro.experiments.runner.ExperimentConfig` against a trace — over
axes like policy × working set × O3 limit × seed.  After the columnar
replay work the wall-clock bottleneck for regenerating the paper is the
*grid*, which previously ran strictly sequentially.  The grid is
embarrassingly parallel; this module turns it into a subsystem:

1. **Declarative expansion** — :class:`SweepSpec` names the axes; its
   :meth:`~SweepSpec.cells` expansion produces frozen :class:`SweepCell`
   descriptors, each with a stable content-hash **cell ID** derived from
   the canonical JSON of its experiment config, trace config, timeline
   period, and schema version.  Identical cells hash identically across
   processes, machines, and sessions.

2. **Sharded execution** — :func:`run_cells` executes cells across a
   ``multiprocessing`` worker pool (module-level, spawn-safe entry point;
   ``fork`` is preferred where available for its near-zero startup cost).
   The submission queue is bounded (≤ 2 tasks in flight per worker), each
   worker reuses one :class:`~repro.traces.azure.SyntheticAzureTrace` per
   trace config and one extracted workload per
   :class:`~repro.traces.workload.WorkloadSpec` (request objects are
   re-materialized from the shared columns per run, because the simulator
   mutates them in place), and a crashed worker process is retried
   per-cell (bounded) instead of killing the sweep.  Progress streams to
   the TTY when stderr is one.  ``workers=1`` runs in-process with no pool
   and preserves the sequential path's exact behavior.

3. **Result store** — every finished cell is persisted to a
   :class:`~repro.experiments.store.ResultStore` keyed by cell ID
   (atomic writes).  An interrupted sweep resumed against the same store
   re-executes only the missing cells; unchanged cells are served from
   cache.  Config drift changes the hash, so a stale *configuration* can
   never be served — but the hash covers configuration only, not code:
   results are assumed to be deterministic functions of their config, so
   after a change to the simulator/scheduler either start a fresh store
   directory or bump :data:`CELL_SCHEMA` (which re-keys every cell).

4. **Deterministic merge** — results merge in sorted cell-ID order and a
   cell's merged payload is independent of where/when it ran, so
   sequential and sharded sweeps produce **byte-identical** figure
   inputs (asserted by ``tests/experiments/test_sweep.py``).

The §V consumers (``run_policy_grid``, ``run_fig7``, the grid-shaped
ablations) all route through :func:`run_cells`; the CLI exposes the
subsystem as ``python -m repro.experiments sweep --workers N --store DIR
--resume`` (see also ``make sweep``).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from collections import OrderedDict, deque
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from typing import Callable, Iterable, Sequence

from ..cluster.topology import PAPER_TESTBED, ClusterSpec
from ..metrics.summary import per_architecture_breakdown
from ..metrics.timeline import TIMELINE_FIELDS, TimelineProbe
from ..traces.azure import AzureTraceConfig, SyntheticAzureTrace
from ..traces.workload import Workload, WorkloadSpec, build_workload
from .replay import replay
from .runner import PAPER_POLICIES, ExperimentConfig, shared_trace
from .store import CellResult, ResultStore

__all__ = [
    "SweepSpec",
    "SweepCell",
    "SweepStats",
    "SweepResult",
    "SweepError",
    "execute_cell",
    "run_cells",
    "run_keyed_cells",
    "run_sweep",
    "DEFAULT_TIMELINE_PERIOD_S",
]

#: schema version folded into every cell ID: bump when the execution
#: semantics change in a way that invalidates stored results
#: (2: fault_profile joined ExperimentConfig / the chaos axis landed)
CELL_SCHEMA = 2

#: timeline sampling period (simulated seconds) persisted per cell
DEFAULT_TIMELINE_PERIOD_S = 5.0

#: per-worker workload cache bound (extracted column sets kept hot)
_WORKLOAD_CACHE_CAP = 8

#: outstanding tasks per worker (the bounded submission queue)
_QUEUE_FACTOR = 2

#: consecutive pool breaks with no completed cell before the sweep aborts
#: (covers environments whose workers die at startup, OOM storms, etc.)
_MAX_CONSECUTIVE_POOL_BREAKS = 8


class SweepError(RuntimeError):
    """A sweep finished with cells that failed after all retries."""


# ----------------------------------------------------------------------
# Cell identity
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepCell:
    """One frozen grid cell: an experiment config against a trace config.

    ``trace`` is the *config*, not a trace object — workers rebuild (and
    cache) the deterministic :class:`SyntheticAzureTrace` from it, so a
    cell is fully picklable and its identity is pure data.
    """

    config: ExperimentConfig
    trace: AzureTraceConfig = AzureTraceConfig()
    timeline_period_s: float | None = DEFAULT_TIMELINE_PERIOD_S

    def canonical_payload(self) -> dict:
        """The dict whose canonical JSON the cell ID hashes.

        Normalized through a JSON round-trip (tuples become lists), so the
        payload equals its own on-disk form byte for byte.
        """
        raw = {
            "schema": CELL_SCHEMA,
            "experiment": asdict(self.config),
            "trace": asdict(self.trace),
            "timeline_period_s": self.timeline_period_s,
        }
        return json.loads(json.dumps(raw))

    @cached_property
    def cell_id(self) -> str:
        """Stable content hash: 16 hex chars of SHA-256 over the canonical
        JSON payload.  Any config drift yields a different ID, so a result
        store can never serve a stale cell."""
        blob = json.dumps(self.canonical_payload(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def label(self) -> str:
        cfg = self.config
        return f"{cfg.label()}/ws{cfg.working_set}/seed{cfg.seed}"


# ----------------------------------------------------------------------
# Declarative grid
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepSpec:
    """Declarative §V grid: the cross product of the named axes.

    Expansion order is the documented axis order (seed outermost, policy
    innermost) and is deterministic, but consumers should key off cell IDs
    — the merge order is sorted-by-ID regardless of expansion order.
    """

    policies: tuple[str, ...] = PAPER_POLICIES
    working_sets: tuple[int, ...] = (15, 25, 35)
    o3_limits: tuple[int, ...] = (25,)
    replacements: tuple[str, ...] = ("lru",)
    seeds: tuple[int, ...] = (0,)
    slas: tuple[float | None, ...] = (None,)
    #: chaos axis: named fault profiles from
    #: :data:`repro.chaos.FAULT_PROFILES` (``"none"`` = healthy runs)
    fault_profiles: tuple[str, ...] = ("none",)
    #: workload scale (§V-A.1 defaults)
    minutes: int = 6
    requests_per_minute: int = 325
    cluster: ClusterSpec = PAPER_TESTBED
    trace: AzureTraceConfig = AzureTraceConfig()
    timeline_period_s: float | None = DEFAULT_TIMELINE_PERIOD_S

    def __post_init__(self) -> None:
        for name in (
            "policies", "working_sets", "o3_limits", "replacements", "seeds",
            "slas", "fault_profiles",
        ):
            if not getattr(self, name):
                raise ValueError(f"sweep axis {name!r} is empty")

    def cells(self) -> tuple[SweepCell, ...]:
        """Expand the cross product into frozen cells (duplicates folded:
        non-lalbo3 policies ignore the O3 axis, so their cells collapse to
        one per remaining key)."""
        out: list[SweepCell] = []
        seen: set[str] = set()
        for seed in self.seeds:
            for fault_profile in self.fault_profiles:
                for sla in self.slas:
                    for replacement in self.replacements:
                        for ws in self.working_sets:
                            for o3 in self.o3_limits:
                                for policy in self.policies:
                                    cfg = ExperimentConfig(
                                        policy=policy,
                                        working_set=ws,
                                        minutes=self.minutes,
                                        requests_per_minute=self.requests_per_minute,
                                        o3_limit=o3,
                                        replacement=replacement,
                                        cluster=self.cluster,
                                        sla_s=sla,
                                        seed=seed,
                                        fault_profile=fault_profile,
                                    )
                                    if policy != "lalbo3" and len(self.o3_limits) > 1:
                                        # the O3 axis only matters to lalbo3;
                                        # collapse the duplicates it would mint
                                        cfg = replace(cfg, o3_limit=self.o3_limits[0])
                                    cell = SweepCell(
                                        config=cfg,
                                        trace=self.trace,
                                        timeline_period_s=self.timeline_period_s,
                                    )
                                    if cell.cell_id not in seen:
                                        seen.add(cell.cell_id)
                                        out.append(cell)
        return tuple(out)


# ----------------------------------------------------------------------
# Per-process execution (shared by workers and the in-process path)
# ----------------------------------------------------------------------
_WORKLOADS: "OrderedDict[tuple[WorkloadSpec, AzureTraceConfig], Workload]" = OrderedDict()

#: test seam: when set, called with the cell before worker execution
#: (inherited by forked workers; used to exercise crash isolation)
_FAULT_HOOK: Callable[[SweepCell], None] | None = None


def _workload_for(spec: WorkloadSpec, trace: SyntheticAzureTrace) -> Workload:
    """A ready-to-submit workload for ``spec``, sharing extracted columns.

    The expensive half of a workload — trace counts, normalization, RNG
    draws — depends only on ``(spec, trace.config)`` and is cached.  The
    returned handle is a *fresh view* over the shared columns and model
    instances with no materialized requests: the simulator mutates request
    objects in place, so each run must materialize its own.
    """
    key = (spec, trace.config)
    cached = _WORKLOADS.get(key)
    if cached is None:
        cached = build_workload(spec, trace=trace)
        _WORKLOADS[key] = cached
        if len(_WORKLOADS) > _WORKLOAD_CACHE_CAP:
            _WORKLOADS.popitem(last=False)
    else:
        _WORKLOADS.move_to_end(key)
    return Workload(
        spec=cached.spec,
        instances=cached.instances,
        counts=cached.counts,
        function_ids=cached.function_ids,
        arrival_times=cached.arrival_times,
        function_index=cached.function_index,
        tenant=cached.tenant,
    )


def execute_cell(
    cell: SweepCell,
    *,
    trace: SyntheticAzureTrace | None = None,
    timeline: bool = True,
) -> CellResult:
    """Run one cell to completion and package everything the store keeps.

    :func:`~repro.experiments.runner.run_experiment`'s run — the same
    :func:`~repro.experiments.replay.replay` call — plus the
    per-architecture breakdown and the passive timeline matrix.
    ``timeline=False`` skips the probe (its per-event callback) without
    affecting the summary — :func:`run_cells` passes it for storeless
    sweeps, whose consumers read only summaries.
    """
    t0 = time.perf_counter()
    if trace is None or trace.config != cell.trace:
        trace = shared_trace(cell.trace)  # per-process cache; workers reuse
    config = cell.config
    probe: TimelineProbe | None = None

    def attach_probe(system) -> None:
        nonlocal probe
        probe = TimelineProbe(system, period_s=cell.timeline_period_s)

    summary, system = replay(
        config.system_config(),
        _workload_for(config.workload_spec(), trace),
        label=config.label(),
        prepare=(
            attach_probe
            if timeline and cell.timeline_period_s is not None
            else None
        ),
    )
    if probe is not None:
        probe.stop()
    return CellResult(
        cell_id=cell.cell_id,
        config=cell.canonical_payload(),
        summary=summary,
        per_architecture=per_architecture_breakdown(system.metrics),
        timeline_fields=TIMELINE_FIELDS,
        timeline=tuple(tuple(row) for row in probe.matrix()) if probe else (),
        wall_s=round(time.perf_counter() - t0, 4),
    )


def _worker_execute(cell: SweepCell, timeline: bool = True) -> CellResult:
    """Module-level pool entry point (spawn-safe: importable by path)."""
    if _FAULT_HOOK is not None:
        _FAULT_HOOK(cell)
    return execute_cell(cell, timeline=timeline)


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------
@dataclass
class SweepStats:
    """Execution accounting for one :func:`run_cells` call."""

    total: int = 0
    executed: int = 0
    cache_hits: int = 0
    retries: int = 0
    failed: int = 0
    workers: int = 1
    wall_s: float = 0.0

    def as_dict(self) -> dict:
        return {
            "total": self.total,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "retries": self.retries,
            "failed": self.failed,
            "workers": self.workers,
            "wall_s": round(self.wall_s, 4),
            "cells_per_s": round(self.total / self.wall_s, 2) if self.wall_s else 0.0,
        }


@dataclass
class SweepResult:
    """Merged sweep output: finished cells in sorted cell-ID order."""

    cells: "OrderedDict[str, CellResult]"
    stats: SweepStats
    failures: dict[str, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.cells)

    def for_cell(self, cell: SweepCell) -> CellResult:
        """Result for one descriptor (KeyError if it failed / never ran)."""
        try:
            return self.cells[cell.cell_id]
        except KeyError:
            detail = self.failures.get(cell.cell_id, "cell was not part of this sweep")
            raise KeyError(f"no result for {cell.label()} [{cell.cell_id}]: {detail}")

    def summary_for(self, cell: SweepCell):
        return self.for_cell(cell).summary

    def merged_payload(self) -> dict:
        """Deterministic figure-input payload, keyed by cell ID in sorted
        order.  Excludes ``wall_s`` (provenance), so the payload for a
        given cell set is byte-identical no matter how — or whether — the
        cells were (re-)executed."""
        out: dict = {}
        for cell_id, result in self.cells.items():
            payload = result.to_payload()
            payload.pop("wall_s", None)
            out[cell_id] = payload
        return out

    def merged_json(self) -> str:
        """Canonical JSON of :meth:`merged_payload` (the byte-identity
        surface the determinism tests compare)."""
        return json.dumps(self.merged_payload(), sort_keys=True, indent=2) + "\n"


def _progress_writer(progress) -> Callable[[SweepStats, int, str], None] | None:
    """Resolve the ``progress`` argument to a callback (or None)."""
    if callable(progress):
        return progress
    if progress is None:
        progress = sys.stderr.isatty()
    if not progress:
        return None
    stream = sys.stderr

    def emit(stats: SweepStats, done: int, label: str) -> None:
        line = (
            f"\rsweep: {done}/{stats.total} cells"
            f" ({stats.cache_hits} cached, {stats.retries} retried,"
            f" {stats.failed} failed) {label:<32.32}"
        )
        stream.write(line)
        if done == stats.total:
            stream.write("\n")
        stream.flush()

    return emit


def _resolve_cells(cells: Iterable[SweepCell]) -> list[SweepCell]:
    """De-duplicate by cell ID, preserving first-seen order."""
    seen: set[str] = set()
    out: list[SweepCell] = []
    for cell in cells:
        if cell.cell_id not in seen:
            seen.add(cell.cell_id)
            out.append(cell)
    return out


def _mp_context(name: str | None):
    """The pool context: ``fork`` where available (near-zero startup; the
    entry point is spawn-safe regardless), else ``spawn``."""
    import multiprocessing

    if name is None:
        name = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    return multiprocessing.get_context(name)


def run_cells(
    cells: Sequence[SweepCell],
    *,
    workers: int = 1,
    store: ResultStore | str | os.PathLike | None = None,
    resume: bool = True,
    retries: int = 1,
    progress=None,
    trace: SyntheticAzureTrace | None = None,
    mp_context: str | None = None,
    strict: bool = True,
) -> SweepResult:
    """Execute a cell set and merge the results deterministically.

    Parameters
    ----------
    workers:
        ``1`` (default) runs in-process — no pool, exceptions propagate,
        exactly the sequential path.  ``> 1`` runs a multiprocessing pool
        with a bounded submission queue and per-cell crash retry.
    store / resume:
        With a store, finished cells are persisted as they land and —
        when ``resume`` is true — cells already present are served from
        cache without executing.  ``resume=False`` re-executes everything
        (and overwrites the stored cells).
    retries:
        Per-cell retry budget for worker crashes/errors (pool mode only).
    progress:
        ``None`` = auto (TTY only), ``False`` = off, or a callback
        ``fn(stats, done, label)``.
    trace:
        Optional pre-built trace for the in-process path; its config must
        match the cells' (workers rebuild from config regardless).
    strict:
        Raise :class:`SweepError` if any cell still fails after retries
        (otherwise the failures are reported in the result).
    """
    t0 = time.perf_counter()
    ordered = _resolve_cells(cells)
    stats = SweepStats(total=len(ordered), workers=max(1, workers))
    if store is not None and not isinstance(store, ResultStore):
        store = ResultStore(store)
    emit = _progress_writer(progress)

    results: dict[str, CellResult] = {}
    failures: dict[str, str] = {}
    pending: list[SweepCell] = []
    for cell in ordered:
        cached = store.get(cell.cell_id) if (store is not None and resume) else None
        if cached is not None:
            results[cell.cell_id] = cached
            stats.cache_hits += 1
        else:
            pending.append(cell)

    done = stats.cache_hits
    if emit and (done or not pending):
        emit(stats, done, "resume" if done else "")

    # the timeline matrix is only worth sampling when a store keeps it —
    # storeless consumers (the fig grids) read summaries exclusively
    timeline = store is not None
    if pending:
        if workers <= 1:
            for cell in pending:
                result = execute_cell(cell, trace=trace, timeline=timeline)
                results[cell.cell_id] = result
                stats.executed += 1
                if store is not None:
                    store.put(result)
                done += 1
                if emit:
                    emit(stats, done, cell.label())
        else:
            done = _run_pool(
                pending, results, failures, stats, store=store, workers=workers,
                retries=retries, emit=emit, done=done, mp_context=mp_context,
                timeline=timeline,
            )

    stats.failed = len(failures)
    stats.wall_s = time.perf_counter() - t0
    merged: "OrderedDict[str, CellResult]" = OrderedDict(
        (cid, results[cid]) for cid in sorted(results)
    )
    if failures and strict:
        detail = "; ".join(f"{cid}: {err}" for cid, err in sorted(failures.items()))
        raise SweepError(
            f"{len(failures)} of {stats.total} cells failed after retries: {detail}"
        )
    return SweepResult(cells=merged, stats=stats, failures=failures)


def _run_pool(
    pending: list[SweepCell],
    results: dict[str, CellResult],
    failures: dict[str, str],
    stats: SweepStats,
    *,
    store: ResultStore | None,
    workers: int,
    retries: int,
    emit,
    done: int,
    mp_context: str | None,
    timeline: bool = True,
) -> int:
    """Pool execution: bounded queue, crash isolation, per-cell retry.

    A worker *exception* is attributable — the raising cell alone is
    charged against its retry budget.  A worker *crash* (segfault, OOM
    kill, ``os._exit``) breaks the whole pool — every in-flight future
    (and any concurrent ``submit``) reports :class:`BrokenProcessPool` —
    so the culprit is unknown; charging everyone would let one poison cell
    exhaust innocent cells' budgets.  Instead breaks are counted globally,
    everything in flight requeues uncharged, and once the breaks exceed
    the retry budget the sweep drops to **solo mode** (one cell in flight
    at a time): the next crash names its cell unambiguously and that cell
    alone is charged.  Solo mode ends as soon as it resolves something —
    the isolated cell succeeds, or the culprit is charged out of its
    budget and failed — restoring parallelism for the healthy remainder.
    A run of consecutive breaks that completes nothing (e.g. workers dying
    at startup) aborts with :class:`SweepError` instead of looping.
    """
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    ctx = _mp_context(mp_context)
    queue: deque[SweepCell] = deque(pending)
    attempts: dict[str, int] = {}      # attributable (exception/solo-crash)
    pool_breaks = 0                    # unattributed crashes since last resolution
    consecutive_breaks = 0             # breaks with no completed cell between
    solo = False                       # one-in-flight isolation mode

    def new_pool() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=workers, mp_context=ctx)

    pool = new_pool()
    inflight: dict = {}
    try:
        while queue or inflight:
            max_inflight = 1 if solo else workers * _QUEUE_FACTOR
            broken = False
            while queue and len(inflight) < max_inflight:
                cell = queue.popleft()
                try:
                    inflight[pool.submit(_worker_execute, cell, timeline)] = cell
                except BrokenProcessPool:
                    # pool died between wait() and submit(): unattributed
                    queue.appendleft(cell)
                    broken = True
                    break
            if not broken and inflight:
                ready, _ = wait(inflight, return_when=FIRST_COMPLETED)
                for future in ready:
                    cell = inflight.pop(future)
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        broken = True
                        if solo:
                            # exactly one cell was running: the culprit
                            attempts[cell.cell_id] = attempts.get(cell.cell_id, 0) + 1
                            if attempts[cell.cell_id] > retries:
                                failures[cell.cell_id] = "worker process crashed"
                                done += 1
                                solo = False    # resolved: culprit removed
                                pool_breaks = 0
                                consecutive_breaks = 0
                            else:
                                queue.appendleft(cell)  # rerun alone
                        else:
                            queue.appendleft(cell)  # uncharged: culprit unknown
                    except Exception as exc:  # worker raised: retry bounded
                        attempts[cell.cell_id] = attempts.get(cell.cell_id, 0) + 1
                        if attempts[cell.cell_id] > retries:
                            failures[cell.cell_id] = f"{type(exc).__name__}: {exc}"
                            done += 1
                        else:
                            stats.retries += 1
                            queue.append(cell)
                    else:
                        results[cell.cell_id] = result
                        stats.executed += 1
                        consecutive_breaks = 0
                        if solo:
                            solo = False        # resolved: isolated cell ran
                            pool_breaks = 0
                        if store is not None:
                            store.put(result)
                        done += 1
                        if emit:
                            emit(stats, done, cell.label())
            if broken:
                # one break event, however many futures reported it
                stats.retries += 1
                consecutive_breaks += 1
                if consecutive_breaks > _MAX_CONSECUTIVE_POOL_BREAKS:
                    raise SweepError(
                        f"worker pool crashed {consecutive_breaks} times in a "
                        "row without completing a cell; giving up"
                    )
                if not solo:
                    pool_breaks += 1
                    if pool_breaks > retries:
                        solo = True
                # the pool is dead; everything in flight must requeue
                for future, cell in inflight.items():
                    queue.append(cell)
                inflight.clear()
                pool.shutdown(wait=False, cancel_futures=True)
                pool = new_pool()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    if emit:
        emit(stats, done, "done")
    return done


def run_keyed_cells(
    cells_by_key: dict,
    *,
    trace: SyntheticAzureTrace | None = None,
    workers: int = 1,
    store: ResultStore | str | os.PathLike | None = None,
    resume: bool = True,
    progress=None,
) -> dict:
    """Execute ``{key: SweepCell}`` and return ``{key: RunSummary}``.

    The shared shape of every §V consumer (policy grid, O3 axis, seeds,
    ablations): build cells under domain keys, run them through the
    executor, map the merged results back onto the keys.
    """
    result = run_cells(
        list(cells_by_key.values()),
        workers=workers,
        store=store,
        resume=resume,
        progress=progress,
        trace=trace,
    )
    return {key: result.summary_for(cell) for key, cell in cells_by_key.items()}


def run_sweep(
    spec: SweepSpec,
    *,
    workers: int = 1,
    store: ResultStore | str | os.PathLike | None = None,
    resume: bool = True,
    retries: int = 1,
    progress=None,
    mp_context: str | None = None,
) -> SweepResult:
    """Expand a :class:`SweepSpec` and execute it (see :func:`run_cells`)."""
    return run_cells(
        spec.cells(),
        workers=workers,
        store=store,
        resume=resume,
        retries=retries,
        progress=progress,
        mp_context=mp_context,
    )
