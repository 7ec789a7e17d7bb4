"""Metrics collection for experiment runs.

The collector observes two event streams:

* completed requests (from the GPU Managers) — latency, hit/miss,
  false-miss outcomes;
* cache events (from the Cache Manager) — load/evict transitions, from
  which it integrates the *time-weighted* number of GPUs caching each
  model, the quantity behind Fig. 6's "average number of duplicates of the
  top one model".

Completions land in **an exact window that closes**.  While the window is
open every completion appends one row of scalars (arrival / dispatch /
completion stamps, interned model / GPU / architecture codes, hit and SLA
outcomes) and its request object; :meth:`MetricsCollector.columns`
materializes the rows into typed NumPy arrays lazily, and
:mod:`~repro.metrics.summary` reduces those columns with vectorized NumPy.
The per-model / miss counters are maintained *running* on
:meth:`MetricsCollector.on_complete`, so queries like
:meth:`most_invoked_model` cost O(models) — never a rescan of the rows.

Rows are linear in replay size, which turns a 10M-request replay into an
OOM, so the completion that takes the run past ``exact_cap`` *closes* the
window: its rows are replayed, in completion order, through
:meth:`MetricsCollector._fold` into

* fixed-size :class:`~repro.metrics.histogram.LogHistogram` stores
  (latency overall and per architecture), and
* exact running aggregates (SLA totals/violations, per-architecture
  misses, compensated queueing-delay sum),

then rows and request objects are released and every later completion
folds directly.  Because the replay is in order, the fold state is the
same whatever the cap was.  Summaries are exact while the window is open;
once closed, counts, rates and ratios stay exact and quantiles come from
the histograms within their documented ~1 % relative bound.
``exact_cap=None`` (the default) never closes the window.

``spill_to`` optionally tees every completion row to a CSV on disk for
drill-down past the close.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from ..core.request import InferenceRequest
from ..sim import Simulator
from .histogram import LogHistogram

__all__ = ["MetricsCollector", "CompletionColumns"]


@dataclass(frozen=True)
class CompletionColumns:
    """Trimmed, read-only views of the collector's completion columns.

    One row per completed request, in completion order.  Codes index the
    collector's ``model_names`` / ``gpu_names`` / ``architectures`` interning
    tables.  ``cache_hit`` is ``1`` hit / ``0`` miss / ``-1`` unknown;
    ``sla_s`` is NaN for best-effort requests.
    """

    arrival: np.ndarray       # float64, seconds
    dispatched: np.ndarray    # float64, seconds
    completed: np.ndarray     # float64, seconds
    model: np.ndarray         # int32 codes
    gpu: np.ndarray           # int32 codes
    architecture: np.ndarray  # int32 codes
    cache_hit: np.ndarray     # int8
    false_miss: np.ndarray    # bool
    sla_s: np.ndarray         # float64, NaN = no SLA

    def __len__(self) -> int:
        return int(self.arrival.shape[0])

    @property
    def latency(self) -> np.ndarray:
        return self.completed - self.arrival

    @property
    def queueing(self) -> np.ndarray:
        return self.dispatched - self.arrival


class _ArchStream:
    """Fixed-size per-architecture fold target (breakdown past the close)."""

    __slots__ = ("hist", "misses")

    def __init__(self) -> None:
        self.hist = LogHistogram()
        self.misses = 0


class _RowSpill:
    """Lazily-opened CSV tee of completion rows (drill-down)."""

    __slots__ = ("path", "_fh")

    _HEADER = "arrival,dispatched,completed,model,gpu,architecture,cache_hit,false_miss,sla_s\n"

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh = None

    def write(self, request: InferenceRequest) -> None:
        fh = self._fh
        if fh is None:
            fh = self._fh = open(self.path, "w", buffering=1 << 16)
            fh.write(self._HEADER)
        hit = request.cache_hit
        fh.write(
            f"{request.arrival_time!r},"
            f"{'' if request.dispatched_at is None else repr(request.dispatched_at)},"
            f"{request.completed_at!r},"
            f"{request.model_id},{request.gpu_id or '?'},"
            f"{request.model.architecture},"
            f"{-1 if hit is None else int(hit)},"
            f"{int(request.false_miss)},"
            f"{'' if request.sla_s is None else repr(request.sla_s)}\n"
        )

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class _Interner:
    """String → dense int32 code, with the reverse table public."""

    __slots__ = ("codes", "names")

    def __init__(self) -> None:
        self.codes: dict[str, int] = {}
        self.names: list[str] = []

    def code(self, name: str) -> int:
        c = self.codes.get(name)
        if c is None:
            c = len(self.names)
            self.codes[name] = c
            self.names.append(name)
        return c


class MetricsCollector:
    """Accumulates per-request and cache-residency statistics."""

    def __init__(
        self,
        sim: Simulator,
        *,
        exact_cap: int | None = None,
        spill_to: str | None = None,
    ) -> None:
        self.sim = sim
        #: request objects of the open window, for drill-down ([] once closed)
        self.completed: list[InferenceRequest] = []
        self.started_at = sim.now
        # duplicates tracking: current residency count and its time integral
        self._dup_count: dict[str, int] = defaultdict(int)
        self._dup_integral: dict[str, float] = defaultdict(float)
        self._dup_since: dict[str, float] = {}
        self._dup_peak: dict[str, int] = defaultdict(int)
        self.cache_events: int = 0
        # running per-completion counters (no rescans of `completed`)
        self.miss_count = 0
        self.false_miss_count = 0
        self._invocations: dict[str, int] = {}  # model_id -> completions
        # availability accounting (chaos/robustness): lost requests,
        # failure-retry totals, and open-fault → repair-time tracking
        #: lost request objects of the open window ([] once closed)
        self.lost: list[InferenceRequest] = []
        self.lost_count = 0
        self.lost_reasons: dict[str, int] = {}
        self.retries_total = 0
        self.faults_injected = 0
        self._open_faults: dict[tuple[str, str], float] = {}
        #: optional flight recorder (installed by the runtime when tracing
        #: is on); None keeps every hook to one identity test
        self.tracer = None
        #: (fault kind, target, repair seconds) per healed fault
        self.repairs: list[tuple[str, str, float]] = []
        self._models = _Interner()
        self._gpus = _Interner()
        self._archs = _Interner()
        self._n = 0
        #: completions the window holds before it closes (None = never)
        self.exact_cap = exact_cap
        #: the open window: one 9-field row tuple per completion (a single
        #: plain-list append beats nine per-column appends, and a NumPy
        #: scalar store costs several times a list append — this runs once
        #: per completion), split into typed arrays lazily, and cached, by
        #: columns().  None once the window has closed.
        self._rows: list[tuple] | None = []
        self._columns_cache: CompletionColumns | None = None
        self._spill = _RowSpill(spill_to) if spill_to else None
        # fold state: empty while the window is open, filled by _fold
        self.lat_hist = LogHistogram()
        self._arch_stats: dict[int, _ArchStream] = {}
        self.sla_total = 0
        self.sla_violations = 0
        self._queue_sum = 0.0
        self._queue_sum_c = 0.0

    # ------------------------------------------------------------------
    # Observers
    # ------------------------------------------------------------------
    def on_complete(self, request: InferenceRequest) -> None:
        if request.completed_at is None:
            raise ValueError(f"request {request.request_id} has not completed")
        if request.retries:
            self.retries_total += request.retries
        model_id = request.model_id
        self._invocations[model_id] = self._invocations.get(model_id, 0) + 1
        hit = request.cache_hit
        if hit is False:
            self.miss_count += 1
        if request.false_miss:
            self.false_miss_count += 1
        row = (
            request.arrival_time,
            request.dispatched_at if request.dispatched_at is not None else np.nan,
            request.completed_at,
            self._models.code(model_id),
            self._gpus.code(request.gpu_id or "?"),
            self._archs.code(request.model.architecture),
            -1 if hit is None else (1 if hit else 0),
            request.false_miss,
            request.sla_s if request.sla_s is not None else np.nan,
        )
        self._n += 1
        rows = self._rows
        if rows is None:
            self._fold(row)
        else:
            rows.append(row)
            self.completed.append(request)
            if self.exact_cap is not None and self._n > self.exact_cap:
                self._close_window()
        if self._spill is not None:
            self._spill.write(request)

    def _fold(self, row: tuple) -> None:
        """Fold one completion row into the fixed-size state.

        The scalar derivations (``completed - arrival`` etc.) are the same
        IEEE float64 operations :class:`CompletionColumns` performs
        elementwise, so the histograms see the values the columns held.
        """
        arrival, dispatched, completed, _, _, arch, hit, _, sla = row
        lat = completed - arrival
        queue = dispatched - arrival  # NaN if never dispatched
        if sla == sla:  # NaN = best-effort
            self.sla_total += 1
            if lat > sla:
                self.sla_violations += 1
        # Neumaier-compensated running sum
        s = self._queue_sum
        t = s + queue
        self._queue_sum_c += (s - t) + queue if abs(s) >= abs(queue) else (queue - t) + s
        self._queue_sum = t
        self.lat_hist.record(lat)
        stats = self._arch_stats.get(arch)
        if stats is None:
            stats = self._arch_stats[arch] = _ArchStream()
        stats.hist.record(lat)
        if hit == 0:
            stats.misses += 1

    def _close_window(self) -> None:
        """The run outgrew ``exact_cap``: replay the window through
        :meth:`_fold` in completion order and release it."""
        rows = self._rows
        self._rows = None
        self._columns_cache = None
        self.completed = []
        self.lost = []
        for row in rows:
            self._fold(row)

    @property
    def window_open(self) -> bool:
        """Whether every completion so far is still held as an exact row."""
        return self._rows is not None

    @property
    def queueing_sum(self) -> float:
        """Compensated sum of the folded queueing delays: every completion's,
        once the window has closed."""
        return self._queue_sum + self._queue_sum_c

    def latency_histogram(self) -> LogHistogram:
        """Latency histogram over every completion so far: the live fold
        target once the window has closed, else filled from the open
        window on demand."""
        if self._rows is None:
            return self.lat_hist
        hist = LogHistogram()
        hist.record_many(row[2] - row[0] for row in self._rows)
        return hist

    def close_spill(self) -> None:
        """Flush and close the row-spill CSV, if one was configured."""
        if self._spill is not None:
            self._spill.close()

    @property
    def spill_path(self) -> str | None:
        return self._spill.path if self._spill is not None else None

    def on_cache_event(self, kind: str, gpu_id: str, model_id: str, now: float) -> None:
        self.cache_events += 1
        if kind == "load":
            self._advance(model_id, now)
            self._dup_count[model_id] += 1
            self._dup_peak[model_id] = max(self._dup_peak[model_id], self._dup_count[model_id])
        elif kind == "evict":
            self._advance(model_id, now)
            self._dup_count[model_id] -= 1
            if self._dup_count[model_id] < 0:
                raise RuntimeError(f"negative residency for {model_id}")
        # "use" events do not change residency

    def on_lost(self, request: InferenceRequest, reason: str) -> None:
        """A request left the system without completing (deadline timeout
        or exhausted retry budget)."""
        self.lost_count += 1
        if self._rows is not None:
            self.lost.append(request)
        self.lost_reasons[reason] = self.lost_reasons.get(reason, 0) + 1
        if request.retries:
            self.retries_total += request.retries
        if self.tracer is not None:
            self.tracer.lost(reason, request.request_id)

    def on_fault(self, kind: str, target: str = "") -> None:
        """A fault took effect (chaos injector / health watchdog)."""
        self.faults_injected += 1
        self._open_faults[(kind, target)] = self.sim.now
        if self.tracer is not None:
            self.tracer.fault(kind, target)

    def on_fault_cleared(self, kind: str, target: str = "") -> None:
        """A fault healed; closes the matching open fault for MTTR."""
        start = self._open_faults.pop((kind, target), None)
        if start is not None:
            self.repairs.append((kind, target, self.sim.now - start))
        if self.tracer is not None:
            self.tracer.fault_cleared(kind, target)

    def mean_mttr(self) -> float:
        """Mean time-to-repair over every healed fault (0.0 if none)."""
        if not self.repairs:
            return 0.0
        return sum(t for _, _, t in self.repairs) / len(self.repairs)

    def _advance(self, model_id: str, now: float) -> None:
        since = self._dup_since.get(model_id, self.started_at)
        self._dup_integral[model_id] += self._dup_count[model_id] * (now - since)
        self._dup_since[model_id] = now

    # ------------------------------------------------------------------
    # Columnar access
    # ------------------------------------------------------------------
    @property
    def completed_count(self) -> int:
        """Completions so far (O(1); what the timeline sampler polls)."""
        return self._n

    @property
    def model_names(self) -> list[str]:
        return self._models.names

    @property
    def gpu_names(self) -> list[str]:
        return self._gpus.names

    @property
    def architectures(self) -> list[str]:
        return self._archs.names

    def columns(self) -> CompletionColumns:
        """Typed array views of the open window's completion columns.

        Materialized from the row buffer on demand and cached until the
        next completion, so the several summarize/breakdown consumers of
        one finished run convert each column exactly once.  Raises once
        the window has closed — the rows are gone.
        """
        rows = self._rows
        if rows is None:
            raise RuntimeError(
                f"the exact window closed past {self.exact_cap} completions; "
                "use latency_histogram() and the running counters instead"
            )
        cached = self._columns_cache
        if cached is not None and len(cached) == self._n:
            return cached
        if rows:
            (arrival, dispatched, completed, model, gpu, arch,
             cache_hit, false_miss, sla) = zip(*rows)
        else:
            arrival = dispatched = completed = model = gpu = arch = ()
            cache_hit = false_miss = sla = ()
        cols = CompletionColumns(
            arrival=np.asarray(arrival, dtype=np.float64),
            dispatched=np.asarray(dispatched, dtype=np.float64),
            completed=np.asarray(completed, dtype=np.float64),
            model=np.asarray(model, dtype=np.int32),
            gpu=np.asarray(gpu, dtype=np.int32),
            architecture=np.asarray(arch, dtype=np.int32),
            cache_hit=np.asarray(cache_hit, dtype=np.int8),
            false_miss=np.asarray(false_miss, dtype=bool),
            sla_s=np.asarray(sla, dtype=np.float64),
        )
        self._columns_cache = cols
        return cols

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def average_duplicates(self, model_id: str, horizon: float | None = None) -> float:
        """Time-averaged number of GPUs caching ``model_id`` (Fig. 6)."""
        end = horizon if horizon is not None else self.sim.now
        duration = end - self.started_at
        if duration <= 0:
            return 0.0
        since = self._dup_since.get(model_id, self.started_at)
        integral = self._dup_integral.get(model_id, 0.0)
        integral += self._dup_count.get(model_id, 0) * (end - since)
        return integral / duration

    def peak_duplicates(self, model_id: str) -> int:
        return self._dup_peak.get(model_id, 0)

    def current_duplicates(self, model_id: str) -> int:
        return self._dup_count.get(model_id, 0)

    def most_invoked_model(self) -> str | None:
        """Model instance with the most completed invocations (the "top one
        model" of Fig. 6).

        O(models) off the running counters — the seed walked the whole
        completed list on every call.  Ties break to the lexicographically
        smallest model id, exactly as the rescan did.
        """
        if not self._invocations:
            return None
        counts = self._invocations
        return max(sorted(counts), key=lambda m: counts[m])
