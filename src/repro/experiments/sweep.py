"""Sweep orchestrator: the §V grid runner.

Every figure and table in §V is a sweep of one experiment cell —
:class:`~repro.experiments.runner.ExperimentConfig` against a trace — over
axes like policy × working set × O3 limit × seed.

1. **Declarative expansion** — :class:`SweepSpec` names the axes; its
   :meth:`~SweepSpec.cells` expansion produces frozen :class:`SweepCell`
   descriptors, each with a stable content-hash **cell ID** over the
   canonical JSON of its experiment and trace configs.  Identical cells
   hash identically across processes, machines, and sessions.

2. **Execution** — :func:`run_cells` runs cells in-process at
   ``workers=1`` (a raising cell's exception propagates) or on one
   process pool at ``workers>1`` (``fork`` where available; the entry
   point is spawn-safe).  A cell builds its workload from the
   process-shared trace for its trace config.  Nothing is retried: a cell
   is a deterministic function of its config and would fail again.  If a
   pool cell raises or the pool breaks, the finished cells are stored
   first and one :class:`SweepError` then names every unfinished cell.
   Progress streams to stderr when it is a TTY.

3. **Result store** — the recovery path.  Every finished cell is
   persisted to a :class:`~repro.experiments.store.ResultStore` keyed by
   cell ID as it lands, so a sweep re-run against the same store (after a
   failure or a kill) executes only the cells the store is missing.  The
   store rejects results written by different sources (its code
   fingerprint), so a stored cell is always what this code would compute.

4. **Deterministic merge** — results merge in sorted cell-ID order and a
   cell's merged payload is independent of where/when it ran, so
   sequential and pooled sweeps produce **byte-identical** figure inputs
   (asserted by ``tests/experiments/test_sweep.py``).

The §V consumers (``run_policy_grid``, ``run_fig7``, the grid-shaped
ablations) all route through :func:`run_cells`; the CLI exposes the
subsystem as ``python -m repro.experiments sweep --workers N --store DIR
--resume`` (see also ``make sweep``).
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import sys
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import product
from typing import Callable, Iterable

from ..cluster.topology import PAPER_TESTBED, ClusterSpec
from ..metrics.summary import per_architecture_breakdown
from ..traces.azure import AzureTraceConfig
from ..traces.workload import build_workload
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
]

#: pool start method: ``fork`` where available (near-zero startup, and the
#: parent's shared traces come along), else ``spawn``
_POOL_CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)


class SweepError(RuntimeError):
    """A pooled sweep ended with unfinished cells (the finished ones are
    stored; re-running against the store executes only the rest)."""


# ----------------------------------------------------------------------
# Cell identity
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepCell:
    """One frozen grid cell: an experiment config against a trace config.

    ``trace`` is the *config*, not a trace object — each process uses its
    shared :class:`~repro.traces.azure.SyntheticAzureTrace` for it, so a
    cell is fully picklable and its identity is pure data.
    """

    config: ExperimentConfig
    trace: AzureTraceConfig = AzureTraceConfig()

    def canonical_payload(self) -> dict:
        """The dict whose canonical JSON the cell ID hashes.

        Normalized through a JSON round-trip (tuples become lists), so the
        payload equals its own on-disk form byte for byte.
        """
        raw = {"experiment": asdict(self.config), "trace": asdict(self.trace)}
        return json.loads(json.dumps(raw))

    @cached_property
    def cell_id(self) -> str:
        """Stable content hash: 16 hex chars of SHA-256 over the canonical
        JSON payload.  Any config drift yields a different ID."""
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

    def __post_init__(self) -> None:
        for name in (
            "policies", "working_sets", "o3_limits", "replacements", "seeds",
            "slas", "fault_profiles",
        ):
            if not getattr(self, name):
                raise ValueError(f"sweep axis {name!r} is empty")

    def cells(self) -> tuple[SweepCell, ...]:
        """Expand the cross product into frozen cells (duplicates folded:
        non-lalbo3 policies ignore the O3 axis and always take its first
        limit, so their cells collapse to one per remaining key)."""
        out: dict[str, SweepCell] = {}
        for seed, fault_profile, sla, replacement, ws, o3, policy in product(
            self.seeds, self.fault_profiles, self.slas, self.replacements,
            self.working_sets, self.o3_limits, self.policies,
        ):
            cell = SweepCell(
                config=ExperimentConfig(
                    policy=policy,
                    working_set=ws,
                    minutes=self.minutes,
                    requests_per_minute=self.requests_per_minute,
                    o3_limit=o3 if policy == "lalbo3" else self.o3_limits[0],
                    replacement=replacement,
                    cluster=self.cluster,
                    sla_s=sla,
                    seed=seed,
                    fault_profile=fault_profile,
                ),
                trace=self.trace,
            )
            out.setdefault(cell.cell_id, cell)
        return tuple(out.values())


# ----------------------------------------------------------------------
# Per-process execution (shared by workers and the in-process path)
# ----------------------------------------------------------------------
#: test seam: when set, called with the cell before worker execution
#: (inherited by forked workers; used to exercise pool failures)
_FAULT_HOOK: Callable[[SweepCell], None] | None = None


def execute_cell(cell: SweepCell) -> CellResult:
    """Run one cell to completion and package everything the store keeps.

    :func:`~repro.experiments.runner.run_experiment`'s run — the same
    :func:`~repro.experiments.replay.replay` call — plus the
    per-architecture breakdown.
    """
    t0 = time.perf_counter()
    config = cell.config
    summary, system = replay(
        config.system_config(),
        build_workload(config.workload_spec(), trace=shared_trace(cell.trace)),
        label=config.label(),
    )
    return CellResult(
        cell_id=cell.cell_id,
        config=cell.canonical_payload(),
        summary=summary,
        per_architecture=per_architecture_breakdown(system.metrics),
        wall_s=round(time.perf_counter() - t0, 4),
    )


def _worker_execute(cell: SweepCell) -> CellResult:
    """Module-level pool entry point (spawn-safe: importable by path)."""
    if _FAULT_HOOK is not None:
        _FAULT_HOOK(cell)
    return execute_cell(cell)


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------
@dataclass
class SweepStats:
    """Execution accounting for one :func:`run_cells` call."""

    total: int = 0
    executed: int = 0
    cache_hits: int = 0
    workers: int = 1
    wall_s: float = 0.0


@dataclass
class SweepResult:
    """Merged sweep output: finished cells in sorted cell-ID order."""

    cells: "OrderedDict[str, CellResult]"
    stats: SweepStats

    def summary_for(self, cell: SweepCell):
        return self.cells[cell.cell_id].summary

    def merged_json(self) -> str:
        """Canonical JSON of every cell's payload, keyed by cell ID in
        sorted order — the byte-identity surface the determinism tests
        compare.  Excludes ``wall_s`` (provenance), so a given cell set
        merges byte-identically no matter how — or whether — the cells
        were (re-)executed."""
        merged = {}
        for cell_id, result in self.cells.items():
            payload = result.to_payload()
            del payload["wall_s"]
            merged[cell_id] = payload
        return json.dumps(merged, sort_keys=True, indent=2) + "\n"


def run_cells(
    cells: Iterable[SweepCell],
    *,
    workers: int = 1,
    store: ResultStore | str | os.PathLike | None = None,
    resume: bool = True,
) -> SweepResult:
    """Execute a cell set and merge the results deterministically.

    ``workers=1`` runs the cells in-process, and a raising cell's
    exception propagates.  ``workers > 1`` submits every pending cell to
    one process pool; if any of them raised or the pool broke, the
    finished cells are kept (and stored) and one :class:`SweepError` then
    names every unfinished cell.

    With a ``store``, each finished cell is persisted as it lands and —
    when ``resume`` is true — cells already stored are served without
    executing, so re-running a failed sweep against its store executes
    only what is missing.  ``resume=False`` re-executes (and overwrites)
    every cell.
    """
    t0 = time.perf_counter()
    by_id = {cell.cell_id: cell for cell in cells}
    stats = SweepStats(total=len(by_id), workers=max(1, workers))
    if store is not None and not isinstance(store, ResultStore):
        store = ResultStore(store)

    results: dict[str, CellResult] = {}
    pending: list[SweepCell] = []
    for cell_id, cell in by_id.items():
        cached = store.get(cell_id) if store is not None and resume else None
        if cached is None:
            pending.append(cell)
        else:
            results[cell_id] = cached
    stats.cache_hits = len(results)
    tty = bool(pending) and sys.stderr.isatty()

    def land(result: CellResult) -> None:
        results[result.cell_id] = result
        stats.executed += 1
        if store is not None:
            store.put(result)
        if tty:
            sys.stderr.write(
                f"\rsweep: {len(results)}/{stats.total} cells"
                f" ({stats.cache_hits} cached)"
            )
            sys.stderr.flush()

    unfinished: list[tuple[str, Exception]] = []
    try:
        if workers <= 1:
            for cell in pending:
                land(execute_cell(cell))
        elif pending:
            with ProcessPoolExecutor(min(workers, len(pending)), _POOL_CONTEXT) as pool:
                futures = {pool.submit(_worker_execute, cell): cell for cell in pending}
                for future in as_completed(futures):
                    cell = futures[future]
                    try:
                        result = future.result()
                    except Exception as exc:  # the cell raised, or the pool broke
                        unfinished.append((
                            f"{cell.label()} [{cell.cell_id}]: "
                            f"{type(exc).__name__}: {exc}",
                            exc,
                        ))
                    else:
                        land(result)
    finally:
        if tty:
            sys.stderr.write("\n")
    stats.wall_s = time.perf_counter() - t0

    if unfinished:
        # chained to one failure so its (worker-side) traceback is kept
        raise SweepError(
            f"{len(unfinished)} of {stats.total} cells did not finish (re-run "
            "against the same store to execute only these cells):\n  "
            + "\n  ".join(sorted(line for line, _ in unfinished))
        ) from unfinished[0][1]
    return SweepResult(
        cells=OrderedDict((cid, results[cid]) for cid in sorted(results)),
        stats=stats,
    )


def run_keyed_cells(
    cells_by_key: dict,
    *,
    workers: int = 1,
    store: ResultStore | str | os.PathLike | None = None,
    resume: bool = True,
) -> dict:
    """Execute ``{key: SweepCell}`` and return ``{key: RunSummary}``.

    The shared shape of every §V consumer (policy grid, O3 axis, seeds,
    ablations): build cells under domain keys, run them through the
    executor, map the merged results back onto the keys.
    """
    result = run_cells(
        cells_by_key.values(), workers=workers, store=store, resume=resume
    )
    return {key: result.summary_for(cell) for key, cell in cells_by_key.items()}
