"""Workload extraction: from the (synthetic) Azure trace to a request stream.

Reproduces §V-A.1's pipeline exactly:

1. take the **first 6 minutes** of the trace;
2. keep only the **top-K most frequent functions** (K = working-set size,
   15/25/35 in the paper);
3. **normalize** each minute's total to **325 requests**;
4. map each unique function to a model in Table I, with model sizes
   **distributed evenly** over the working set;
5. within each minute, **randomly distribute** the invocations while
   preserving the per-minute totals.

Each function gets its own :class:`~repro.models.ModelInstance` (its own
weights → its own cache item), so the cache working set equals K even when
K exceeds the 22 distinct architectures (DESIGN.md §5.2).

Columnar pipeline
-----------------
:func:`build_workload` is column-oriented end to end: per minute it draws
the shuffled function indices and sorted uniform arrival offsets as NumPy
arrays (the same generator calls, in the same order, as the original
per-request loop — mandated by the seeded parity tests) and concatenates
them into two flat columns:

* ``Workload.arrival_times`` — float64, ascending within each minute;
* ``Workload.function_index`` — int64 index into ``function_ids``.

No :class:`~repro.core.request.InferenceRequest` objects are built during
extraction.  ``Workload.requests`` **materializes them lazily** — the full
object list is constructed once, on first access, and cached; column-only
consumers (``describe``, ``counts`` reductions, workload-build
timings, CSV export of arrival columns) never pay for object construction
at all.  At 100k+ requests that turns extraction from the dominant cost
into a rounding error and lets :meth:`~repro.runtime.system.FaaSCluster.
submit_workload` hand the arrival column to the sim kernel as a column.

The seed's literal per-request loop is the oracle in
``tests/traces/test_workload_columnar.py``, which proves the columns
encode the *identical* request stream (function ids, arrival times, model
assignment, per-minute totals).

Streaming pipeline
------------------
:func:`build_workload_streaming` is the bounded-memory sibling: it runs the
same extraction head (counts, normalization, instances) but never
materializes the flat columns.  :meth:`StreamingWorkload.chunks` is a
generator that performs **the identical RNG draws, in the identical
order**, as :func:`build_workload` — one ``shuffle`` + sorted ``uniform``
per minute against a fresh ``default_rng(seed)`` — and yields the columns
in :class:`WorkloadChunk` blocks of a few minutes each.  Concatenating
every chunk reproduces ``build_workload``'s columns byte for byte (proven
by ``tests/traces/test_workload_chunks.py``), but a million-request replay
only ever holds one chunk's columns and request objects at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..core.request import InferenceRequest
from ..models.profiles import PAPER_BATCH_SIZE, ModelInstance
from ..models.zoo import TABLE1_ROWS, get_profile
from .azure import SyntheticAzureTrace

__all__ = [
    "WorkloadSpec",
    "spec_for_requests",
    "Workload",
    "WorkloadChunk",
    "StreamingWorkload",
    "build_workload",
    "build_workload_streaming",
    "assign_architectures",
]

#: paper defaults (§V-A.1)
PAPER_MINUTES = 6
PAPER_REQUESTS_PER_MINUTE = 325


@dataclass(frozen=True)
class WorkloadSpec:
    """Extraction parameters; defaults reproduce the paper."""

    working_set: int = 15
    minutes: int = PAPER_MINUTES
    requests_per_minute: int = PAPER_REQUESTS_PER_MINUTE
    batch_size: int = PAPER_BATCH_SIZE
    #: per-request SLA in seconds (None = best effort, the paper's setting)
    sla_s: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.working_set < 1:
            raise ValueError("working_set must be >= 1")
        if self.minutes < 1 or self.requests_per_minute < 1:
            raise ValueError("minutes and requests_per_minute must be >= 1")
        if self.sla_s is not None and self.sla_s <= 0:
            raise ValueError("sla_s must be positive when set")


def spec_for_requests(n_requests: int, *, seed: int = 0) -> WorkloadSpec:
    """The §V-A spec (working set 15, 325 req/min) sized in whole minutes
    to roughly ``n_requests`` — the replay the trace / explain / profile
    targets share."""
    minutes = max(1, round(n_requests / PAPER_REQUESTS_PER_MINUTE))
    return WorkloadSpec(working_set=15, minutes=minutes, seed=seed)


@dataclass
class Workload:
    """A ready-to-submit request stream plus its provenance.

    The stream itself lives in two parallel columns (``arrival_times``,
    ``function_index``); request *objects* are materialized lazily via
    :attr:`requests` and cached, so purely columnar consumers never build
    them.  ``len(workload)`` and iteration are provided for convenience —
    iteration materializes (once) because the simulator mutates request
    objects in place and every consumer must observe the same instances.
    """

    spec: WorkloadSpec
    instances: dict[str, ModelInstance]          # function id -> model instance
    counts: np.ndarray                           # (working_set, minutes), normalized
    function_ids: list[str] = field(default_factory=list)
    #: per-request arrival column, seconds from window start, minute-sorted
    arrival_times: np.ndarray = field(default_factory=lambda: np.empty(0))
    #: per-request index into ``function_ids``
    function_index: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    tenant: str = "default"
    _requests: list[InferenceRequest] | None = field(
        default=None, repr=False, compare=False
    )

    def __len__(self) -> int:
        return int(self.arrival_times.shape[0])

    def __iter__(self):
        return iter(self.requests)

    @property
    def materialized(self) -> bool:
        """Whether the request objects have been built yet."""
        return self._requests is not None

    @property
    def requests(self) -> list[InferenceRequest]:
        """The request stream as objects, row ``i`` as ``request_id``
        ``i + 1`` (built on first access, cached until
        :meth:`~repro.runtime.FaaSCluster.submit_workload` takes them for
        a replay — the next access builds fresh ones)."""
        if self._requests is None:
            spec = self.spec
            fids = self.function_ids
            instances = self.instances
            batch, tenant, sla = spec.batch_size, self.tenant, spec.sla_s
            # positional construction: this builds every request of a
            # replay inside the measured window, and CPython binds eight
            # keyword arguments measurably slower than positionals; one flat
            # zip, because enumerate(zip(...)) allocates a tuple per row
            self._requests = [
                InferenceRequest(
                    (fid := fids[fi]), instances[fid], t, rid, batch, None, tenant, sla
                )
                for rid, t, fi in zip(
                    range(1, len(self) + 1),
                    self.arrival_times.tolist(),
                    self.function_index.tolist(),
                )
            ]
        return self._requests

    @property
    def duration_s(self) -> float:
        return self.spec.minutes * 60.0

    @property
    def top_function(self) -> str:
        """Most-invoked function over the extracted window (Fig. 6's model)."""
        return self.function_ids[int(np.argmax(self.counts.sum(axis=1)))]

    @property
    def top_model_id(self) -> str:
        return self.instances[self.top_function].instance_id

    def describe(self) -> dict:
        """Summary statistics of the extracted workload (for reports).

        Includes the quantities §V-A.1 fixes (totals, rates, working set)
        plus the resulting skew and the aggregate model footprint — the
        ratio of footprint to cluster memory is what drives the
        working-set trends in Figs. 4–6.  Computed entirely from the
        columns; no request objects are materialized.
        """
        return _describe_columns(self.spec, self.counts, self.instances)


def _describe_columns(
    spec: WorkloadSpec, counts: np.ndarray, instances: dict[str, ModelInstance]
) -> dict:
    """Shared body of ``Workload.describe`` / ``StreamingWorkload.describe``."""
    per_fn = counts.sum(axis=1)
    total = int(per_fn.sum())
    sizes = [inst.occupied_mb for inst in instances.values()]
    return {
        "working_set": spec.working_set,
        "minutes": spec.minutes,
        "total_requests": total,
        "requests_per_minute": int(counts.sum(axis=0)[0]),
        "top_function_share": float(per_fn.max() / total) if total else 0.0,
        "top15_share": float(np.sort(per_fn)[::-1][:15].sum() / total) if total else 0.0,
        "distinct_architectures": len({i.architecture for i in instances.values()}),
        "total_model_footprint_mb": float(sum(sizes)),
        "mean_model_size_mb": float(np.mean(sizes)),
        "batch_size": spec.batch_size,
    }


def assign_architectures(function_ids: list[str]) -> dict[str, str]:
    """Map functions to Table I architectures with sizes spread evenly.

    Functions are in popularity order; architectures are in size order.
    Striding through the size-ordered table means consecutive popularity
    ranks get well-separated sizes, and any window of the working set holds
    a representative size mix — the paper's "models with different sizes
    are distributed evenly in the workload".
    """
    names = [name for name, *_ in TABLE1_ROWS]
    stride = 7  # coprime with 22 → visits all architectures before repeating
    return {
        fid: names[(i * stride) % len(names)] for i, fid in enumerate(function_ids)
    }


def _normalize_minute(counts: np.ndarray, target: int) -> np.ndarray:
    """Scale one minute's per-function counts to sum to ``target``.

    Largest-remainder rounding keeps the total exact while preserving the
    functions' relative shares.
    """
    total = counts.sum()
    if total == 0:
        # empty minute in the raw trace: spread the target uniformly
        base = np.full(len(counts), target // len(counts), dtype=np.int64)
        base[: target % len(counts)] += 1
        return base
    exact = counts * (target / total)
    floor = np.floor(exact).astype(np.int64)
    short = target - int(floor.sum())
    remainder_order = np.argsort(-(exact - floor), kind="stable")
    floor[remainder_order[:short]] += 1
    return floor


def _extract(
    spec: WorkloadSpec, trace: SyntheticAzureTrace, tenant: str
) -> tuple[list[str], np.ndarray, dict[str, ModelInstance], np.random.Generator]:
    """Shared head of both pipelines: counts, normalization, instances."""
    rng = np.random.default_rng(spec.seed)
    function_ids = trace.top_functions(spec.working_set)
    raw = trace.counts(function_ids, range(spec.minutes))
    normalized = np.stack(
        [
            _normalize_minute(raw[:, m], spec.requests_per_minute)
            for m in range(spec.minutes)
        ],
        axis=1,
    )
    arch_of = assign_architectures(function_ids)
    instances = {
        fid: ModelInstance(f"{fid}#model", get_profile(arch_of[fid]), tenant=tenant)
        for fid in function_ids
    }
    return list(function_ids), normalized, instances, rng


def _minute_columns(
    rng: np.random.Generator, base: np.ndarray, normalized: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """One minute's draws: shuffled function indices, sorted uniform arrivals.

    One entry per invocation, shuffled, with sorted uniform arrivals —
    "we randomly distribute the invocations of different functions while
    maintaining the normalized total invocations per minute".  This is the
    single implementation of the per-minute generator contract: both
    :func:`build_workload` and :meth:`StreamingWorkload.chunks` call it
    minute by minute against a fresh seeded ``rng``, which is what makes
    the chunked stream byte-identical to the flat columns.
    """
    fn_indices = np.repeat(base, normalized[:, m])
    rng.shuffle(fn_indices)
    arrivals = np.sort(rng.uniform(60.0 * m, 60.0 * (m + 1), size=len(fn_indices)))
    return arrivals, fn_indices


def build_workload(
    spec: WorkloadSpec | None = None,
    *,
    trace: SyntheticAzureTrace | None = None,
    tenant: str = "default",
) -> Workload:
    """Run the full §V-A.1 extraction pipeline, column-oriented.

    Per minute this performs exactly the generator calls of the original
    per-request loop — ``shuffle`` over the repeated function indices,
    then a sorted ``uniform`` draw — so the resulting columns encode the
    byte-identical request stream (proven against the per-request oracle
    in ``tests/traces/test_workload_columnar.py``), but no request
    objects are constructed here.
    """
    spec = spec or WorkloadSpec()
    trace = trace or SyntheticAzureTrace()
    function_ids, normalized, instances, rng = _extract(spec, trace, tenant)

    n_functions = len(function_ids)
    per_minute = normalized.sum(axis=0)  # requests per minute (== target)
    total = int(per_minute.sum())
    arrival_col = np.empty(total, dtype=np.float64)
    fn_col = np.empty(total, dtype=np.int64)
    base = np.arange(n_functions)
    offset = 0
    for m in range(spec.minutes):
        arrivals, fn_indices = _minute_columns(rng, base, normalized, m)
        n = len(fn_indices)
        arrival_col[offset : offset + n] = arrivals
        fn_col[offset : offset + n] = fn_indices
        offset += n
    return Workload(
        spec=spec,
        instances=instances,
        counts=normalized,
        function_ids=function_ids,
        arrival_times=arrival_col,
        function_index=fn_col,
        tenant=tenant,
    )


# ----------------------------------------------------------------------
# Streaming (chunked) pipeline
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadChunk:
    """A contiguous block of the request stream, as columns.

    ``arrival_times`` is ascending within each minute (and minutes are
    emitted in order, so across a chunk too);  ``function_index`` indexes
    the owning :class:`StreamingWorkload`'s ``function_ids``.
    """

    start_minute: int
    minutes: int
    start_row: int  # stream row of the chunk's first request
    arrival_times: np.ndarray
    function_index: np.ndarray

    def __len__(self) -> int:
        return int(self.arrival_times.shape[0])


@dataclass
class StreamingWorkload:
    """The §V-A request stream as a re-iterable sequence of column chunks.

    Holds only the O(working_set × minutes) provenance (normalized counts,
    model instances); the per-request columns are generated chunk by chunk
    on demand.  :meth:`chunks` may be called any number of times — each
    call re-seeds the generator, so every iteration yields the identical
    stream (and concatenating it equals :func:`build_workload`'s columns
    exactly).
    """

    spec: WorkloadSpec
    instances: dict[str, ModelInstance]
    counts: np.ndarray                           # (working_set, minutes), normalized
    function_ids: list[str] = field(default_factory=list)
    tenant: str = "default"

    def __len__(self) -> int:
        return self.total_requests

    @property
    def total_requests(self) -> int:
        """Requests the full stream will contain (known without drawing)."""
        return int(self.counts.sum())

    @property
    def duration_s(self) -> float:
        return self.spec.minutes * 60.0

    @property
    def top_function(self) -> str:
        """Most-invoked function over the extracted window (Fig. 6's model)."""
        return self.function_ids[int(np.argmax(self.counts.sum(axis=1)))]

    @property
    def top_model_id(self) -> str:
        return self.instances[self.top_function].instance_id

    def describe(self) -> dict:
        """Summary statistics (same contract as :meth:`Workload.describe`)."""
        return _describe_columns(self.spec, self.counts, self.instances)

    def chunks(self, minutes_per_chunk: int = 8) -> Iterator[WorkloadChunk]:
        """Generate the stream as column blocks of ``minutes_per_chunk``.

        The draws are minute-by-minute against one fresh
        ``default_rng(seed)`` — exactly :func:`build_workload`'s loop — so
        the chunking granularity changes *nothing* about the stream, only
        how much of it is in memory at once.
        """
        if minutes_per_chunk < 1:
            raise ValueError("minutes_per_chunk must be >= 1")
        spec = self.spec
        normalized = self.counts
        rng = np.random.default_rng(spec.seed)
        base = np.arange(len(self.function_ids))
        for start in range(0, spec.minutes, minutes_per_chunk):
            stop = min(start + minutes_per_chunk, spec.minutes)
            arrival_parts = []
            fn_parts = []
            for m in range(start, stop):
                arrivals, fn_indices = _minute_columns(rng, base, normalized, m)
                arrival_parts.append(arrivals)
                fn_parts.append(fn_indices)
            yield WorkloadChunk(
                start_minute=start,
                minutes=stop - start,
                start_row=int(normalized[:, :start].sum()),
                arrival_times=np.concatenate(arrival_parts),
                function_index=np.concatenate(fn_parts),
            )

    def materialize(self, chunk: WorkloadChunk) -> list[InferenceRequest]:
        """Build one chunk's request objects (the only ones alive at once).

        Field-identical to the corresponding slice of
        :attr:`Workload.requests`, ``request_id`` (the stream row + 1)
        included.
        """
        spec = self.spec
        fids = self.function_ids
        instances = self.instances
        batch, tenant, sla = spec.batch_size, self.tenant, spec.sla_s
        return [
            InferenceRequest(
                (fid := fids[fi]), instances[fid], t, rid, batch, None, tenant, sla
            )
            for rid, t, fi in zip(
                range(chunk.start_row + 1, chunk.start_row + len(chunk) + 1),
                chunk.arrival_times.tolist(),
                chunk.function_index.tolist(),
            )
        ]


def build_workload_streaming(
    spec: WorkloadSpec | None = None,
    *,
    trace: SyntheticAzureTrace | None = None,
    tenant: str = "default",
) -> StreamingWorkload:
    """Run the §V-A extraction head and return a chunked, lazy stream.

    Shares :func:`_extract` with the other builders (same counts, same
    normalization, same instances); defers every per-request draw to
    :meth:`StreamingWorkload.chunks`.
    """
    spec = spec or WorkloadSpec()
    trace = trace or SyntheticAzureTrace()
    function_ids, normalized, instances, _ = _extract(spec, trace, tenant)
    return StreamingWorkload(
        spec=spec,
        instances=instances,
        counts=normalized,
        function_ids=function_ids,
        tenant=tenant,
    )
