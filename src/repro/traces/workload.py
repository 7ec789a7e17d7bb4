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
* ``Workload.function_index`` — index into ``function_ids``, in the
  smallest unsigned integer dtype that holds ``len(function_ids)``
  (``uint8`` for every §V working set), cast after the draws.

No :class:`~repro.core.request.InferenceRequest` objects are built during
extraction, and a ``Workload`` holds none: it is immutable columns.
:meth:`Workload.chunks` slices them into :class:`WorkloadChunk` views of a
few minutes each (no copy, no draw), and :meth:`Workload.arrivals` is what
a replay injects per chunk — the chunk's arrival column plus one callback
whose k-th call builds the chunk's row k, so
:meth:`~repro.runtime.system.FaaSCluster.submit_workload` creates each
request when its arrival fires and a replay holds neither the stream as
objects nor more than one chunk of it as Python lists.
:meth:`Workload.requests` builds the same objects eagerly, fresh on every
call, for a caller that wants to hold (or inspect) what a replay mutates;
column-only consumers (``describe``, ``counts`` reductions, the Belady
oracle) never build one.

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
only ever holds one chunk's columns (and its request objects, built by
:meth:`StreamingWorkload.materialize`) at a time.  Both kinds answer
``chunks`` and ``arrivals(chunk, submit)``, so the runtime has one
chunked injector for either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

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


@dataclass(frozen=True)
class WorkloadChunk:
    """A contiguous block of the request stream, as columns.

    ``arrival_times`` is ascending within each minute (and minutes are
    emitted in order, so across a chunk too);  ``function_index`` indexes
    the owning workload's ``function_ids``.  A :class:`Workload`'s chunks
    are views of its columns; a :class:`StreamingWorkload` draws each.
    """

    start_minute: int
    minutes: int
    start_row: int  # stream row of the chunk's first request
    arrival_times: np.ndarray
    function_index: np.ndarray

    def __len__(self) -> int:
        return int(self.arrival_times.shape[0])


@dataclass(frozen=True)
class Workload:
    """A ready-to-submit request stream plus its provenance.

    The stream is two parallel columns (``arrival_times``,
    ``function_index``), ascending in time; a ``Workload`` holds no
    request objects.  A replay builds each at its arrival
    (:meth:`arrivals`); :meth:`requests` builds the whole list.
    """

    spec: WorkloadSpec
    instances: dict[str, ModelInstance]          # function id -> model instance
    counts: np.ndarray                           # (working_set, minutes), normalized
    function_ids: list[str] = field(default_factory=list)
    #: per-request arrival column, seconds from window start, ascending
    arrival_times: np.ndarray = field(default_factory=lambda: np.empty(0))
    #: per-request index into ``function_ids``
    function_index: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self) -> None:
        if np.any(self.arrival_times[1:] < self.arrival_times[:-1]):
            raise ValueError("arrival_times must be ascending")
        if int(self.counts.sum()) != len(self):
            raise ValueError("counts must sum to the number of rows")

    def __len__(self) -> int:
        return int(self.arrival_times.shape[0])

    def chunks(self, minutes_per_chunk: int = 8) -> Iterator[WorkloadChunk]:
        """The held columns as :class:`WorkloadChunk` views of
        ``minutes_per_chunk`` minutes each, row bounds from ``counts``:
        slices, not copies, and no RNG draw (the same blocks
        :meth:`StreamingWorkload.chunks` draws for the same spec)."""
        if minutes_per_chunk < 1:
            raise ValueError("minutes_per_chunk must be >= 1")
        minutes = self.spec.minutes
        per_minute = self.counts.sum(axis=0).tolist()
        lo = 0
        for start in range(0, minutes, minutes_per_chunk):
            stop = min(start + minutes_per_chunk, minutes)
            hi = lo + sum(per_minute[start:stop])
            yield WorkloadChunk(
                start_minute=start,
                minutes=stop - start,
                start_row=lo,
                arrival_times=self.arrival_times[lo:hi],
                function_index=self.function_index[lo:hi],
            )
            lo = hi

    def arrivals(
        self, chunk: WorkloadChunk, submit: Callable[[InferenceRequest], None]
    ) -> tuple[list[float], Callable[[], None], None]:
        """``(times, arrive, None)``, the arguments of
        :meth:`~repro.sim.Simulator.schedule_many` for one chunk: its
        arrival column as floats, and one callback whose k-th call builds
        the chunk's row k (``request_id`` ``chunk.start_row + k + 1``) and
        passes it to ``submit``.

        Scheduled once per row at ``times`` — an ascending column fires in
        row order, so a cursor names the row and no entry carries
        arguments.  ``arrive`` makes no builtin call: it is one frame per
        request on the replay's hot path.
        """
        times = chunk.arrival_times.tolist()
        rows = chunk.function_index.tolist()
        functions = [(fid, self.instances[fid]) for fid in self.function_ids]
        batch, sla = self.spec.batch_size, self.spec.sla_s
        row = 0
        first_id = chunk.start_row + 1

        def arrive() -> None:
            nonlocal row
            fid, model = functions[rows[row]]
            t = times[row]
            rid = first_id + row
            row += 1
            # positional: CPython binds keyword arguments measurably slower
            submit(InferenceRequest(fid, model, t, rid, batch, None, sla))

        return times, arrive, None

    def requests(self) -> list[InferenceRequest]:
        """The stream as request objects, row ``i`` as ``request_id``
        ``i + 1`` — built fresh on every call, so two calls share nothing
        and a replay of one mutates only those."""
        built: list[InferenceRequest] = []
        for chunk in self.chunks(self.spec.minutes):
            _, arrive, _ = self.arrivals(chunk, built.append)
            for _ in range(len(chunk)):
                arrive()
        return built

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
        columns; no request objects are built.
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


def _normalize(raw: np.ndarray, target: int) -> np.ndarray:
    """:func:`_normalize_minute` on every minute (column) of ``raw`` in one
    vectorized pass, equal to it element for element: the same per-minute
    scale, floors and stable remainder order.  All-zero minutes take
    :func:`_normalize_minute`'s uniform spread.
    """
    totals = raw.sum(axis=0)
    empty = totals == 0
    exact = raw * (target / np.where(empty, 1, totals))
    floor = np.floor(exact).astype(np.int64)
    short = target - floor.sum(axis=0)
    order = np.argsort(-(exact - floor), axis=0, kind="stable")
    # each function's place in its minute's largest-remainder order
    place = np.empty_like(order)
    np.put_along_axis(place, order, np.arange(len(raw))[:, None], axis=0)
    floor += place < short
    for m in np.flatnonzero(empty):
        floor[:, m] = _normalize_minute(raw[:, m], target)
    return floor


def _extract(
    spec: WorkloadSpec, trace: SyntheticAzureTrace, tenant: str
) -> tuple[list[str], np.ndarray, dict[str, ModelInstance], np.random.Generator]:
    """Shared head of both pipelines: counts, normalization, instances."""
    rng = np.random.default_rng(spec.seed)
    function_ids = trace.top_functions(spec.working_set)
    raw = trace.counts(function_ids, range(spec.minutes))
    normalized = _normalize(raw, spec.requests_per_minute)
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
    fn_col = np.empty(total, dtype=np.min_scalar_type(n_functions))
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
    )


# ----------------------------------------------------------------------
# Streaming (chunked) pipeline
# ----------------------------------------------------------------------
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
        index_dtype = np.min_scalar_type(len(self.function_ids))
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
                function_index=np.concatenate(fn_parts).astype(index_dtype),
            )

    def arrivals(
        self, chunk: WorkloadChunk, submit: Callable[[InferenceRequest], None]
    ) -> tuple[list[float], Callable[[InferenceRequest], None], Iterator[tuple]]:
        """``(times, submit, args)``, the arguments of
        :meth:`~repro.sim.Simulator.schedule_many` for one chunk: its
        arrival column as floats and one ``(request,)`` per row, the
        chunk's requests built up front by :meth:`materialize`."""
        requests = self.materialize(chunk)
        return chunk.arrival_times.tolist(), submit, ((r,) for r in requests)

    def materialize(self, chunk: WorkloadChunk) -> list[InferenceRequest]:
        """Build one chunk's request objects (the only ones alive at once).

        Field-identical to the corresponding slice of
        :meth:`Workload.requests`, ``request_id`` (the stream row + 1)
        included.
        """
        spec = self.spec
        fids = self.function_ids
        instances = self.instances
        batch, sla = spec.batch_size, spec.sla_s
        return [
            InferenceRequest(
                (fid := fids[fi]), instances[fid], t, rid, batch, None, sla
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
    )
