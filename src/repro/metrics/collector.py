"""Metrics collection for experiment runs.

The collector observes two event streams:

* completed requests (from the GPU Managers) — latency, hit/miss,
  false-miss outcomes;
* cache events (from the Cache Manager) — load/evict transitions, from
  which it integrates the *time-weighted* number of GPUs caching each
  model, the quantity behind Fig. 6's "average number of duplicates of the
  top one model".

Completions land in **an exact window that closes**.  While the window is
open every completion appends one packed :data:`_ROW` record to a
``bytearray`` (arrival / dispatch / completion stamps and the SLA as
float64, interned model / GPU / architecture codes as uint16, the hit
outcome as int8 and the false miss as a bool) — 40 bytes and no object per
completion, and the only record of it: the request itself is not kept.
:mod:`~repro.metrics.summary` reduces a NumPy structured view of the
buffer in place, and :meth:`MetricsCollector.columns` copies its fields
out into typed arrays for a caller that keeps them.
The per-model / miss counters are maintained *running* on
:meth:`MetricsCollector.on_complete`, so queries like
:meth:`most_invoked_model` cost O(models) — never a rescan of the rows.

The buffer is linear in replay size, which turns a 10M-request replay into
an OOM, so the completion that takes the run past ``exact_cap`` *closes* the
window: its rows are replayed, in completion order, through
:meth:`MetricsCollector._fold` into

* fixed-size :class:`~repro.metrics.histogram.LogHistogram` stores
  (latency overall and per architecture), and
* exact running aggregates (SLA totals/violations, per-architecture
  misses, compensated queueing-delay sum),

then the buffer is released and every later completion
folds directly.  Because the replay is in order, the fold state is the
same whatever the cap was.  Summaries are exact while the window is open;
once closed, counts, rates and ratios stay exact and quantiles come from
the histograms within their documented ~1 % relative bound.
``exact_cap=None`` (the default) never closes the window; the runtime
passes ``SystemConfig.retention``.
"""

from __future__ import annotations

import struct
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from ..core.decisions import CodeTable
from ..core.request import InferenceRequest
from ..sim import Simulator
from .histogram import LogHistogram

__all__ = ["MetricsCollector", "CompletionColumns"]

#: one completion in the open window, 40 bytes with every float64 at an
#: 8-byte offset: arrival, dispatched (NaN: never), completed and SLA (NaN:
#: none) stamps, model / GPU / architecture codes (a :class:`CodeTable`
#: raises before a code outgrows its uint16), hit (1 / 0 / -1 unknown) and
#: false miss
_ROW = struct.Struct("<ddddHHHb?")
#: the same record as a NumPy structured dtype, for views of the window
_ROW_DTYPE = np.dtype([
    ("arrival", "<f8"), ("dispatched", "<f8"), ("completed", "<f8"), ("sla_s", "<f8"),
    ("model", "<u2"), ("gpu", "<u2"), ("architecture", "<u2"),
    ("cache_hit", "i1"), ("false_miss", "?"),
])
assert _ROW_DTYPE.itemsize == _ROW.size


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


class MetricsCollector:
    """Accumulates per-request and cache-residency statistics."""

    def __init__(self, sim: Simulator, *, exact_cap: int | None = None) -> None:
        self.sim = sim
        self.started_at = sim.now
        # duplicates tracking: current residency count and its time integral
        self._dup_count: dict[str, int] = defaultdict(int)
        self._dup_integral: dict[str, float] = defaultdict(float)
        self._dup_since: dict[str, float] = {}
        self._dup_peak: dict[str, int] = defaultdict(int)
        self.cache_events: int = 0
        # running per-completion counters (no rescans of the rows)
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
        self._models = CodeTable()
        self._gpus = CodeTable()
        self._archs = CodeTable()
        #: model_id -> (model code, architecture code), resolved once
        self._model_codes: dict[str, tuple[int, int]] = {}
        self._n = 0
        #: completions the window holds before it closes (None = never)
        self.exact_cap = exact_cap
        #: the open window: one packed _ROW per completion (one append
        #: per completion; a NumPy scalar store costs several times
        #: that), read in place through _rows().  None once the window
        #: has closed.
        self._window: bytearray | None = bytearray()
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
        model_id = request.model_id
        # the codes first: a code table past its uint16 raises before any
        # counter moves
        try:
            model, arch = self._model_codes[model_id]
        except KeyError:
            model, arch = self._model_codes[model_id] = (
                self._models[model_id], self._archs[request.model.architecture]
            )
        gpu = self._gpus[request.gpu_id or "?"]
        if request.retries:
            self.retries_total += request.retries
        self._invocations[model_id] = self._invocations.get(model_id, 0) + 1
        hit = request.cache_hit
        if hit is False:
            self.miss_count += 1
        if request.false_miss:
            self.false_miss_count += 1
        dispatched = request.dispatched_at if request.dispatched_at is not None else np.nan
        hit_code = -1 if hit is None else (1 if hit else 0)
        sla = request.sla_s if request.sla_s is not None else np.nan
        self._n += 1
        window = self._window
        if window is None:
            self._fold(request.arrival_time, dispatched, request.completed_at,
                       arch, hit_code, sla)
        else:
            window += _ROW.pack(
                request.arrival_time, dispatched, request.completed_at, sla,
                model, gpu, arch, hit_code, request.false_miss,
            )
            if self.exact_cap is not None and self._n > self.exact_cap:
                self._close_window()

    def _fold(self, arrival: float, dispatched: float, completed: float,
              arch: int, hit: int, sla: float) -> None:
        """Fold one completion into the fixed-size state.

        The scalar derivations (``completed - arrival`` etc.) are the same
        IEEE float64 operations :class:`CompletionColumns` performs
        elementwise, so the histograms see the values the columns held.
        """
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
        # both histograms have the default geometry: one bucket lookup
        bucket = self.lat_hist._bucket(lat)
        self.lat_hist.record(lat, bucket)
        stats = self._arch_stats.get(arch)
        if stats is None:
            stats = self._arch_stats[arch] = _ArchStream()
        stats.hist.record(lat, bucket)
        if hit == 0:
            stats.misses += 1

    def _close_window(self) -> None:
        """The run outgrew ``exact_cap``: replay the window through
        :meth:`_fold` in completion order and release it."""
        w = self._window
        self._window = None
        self.lost = []
        fold = self._fold
        for arrival, dispatched, completed, sla, _, _, arch, hit, _ in _ROW.iter_unpack(w):
            fold(arrival, dispatched, completed, arch, hit, sla)

    @property
    def window_open(self) -> bool:
        """Whether every completion so far is still held as an exact row."""
        return self._window is not None

    @property
    def queueing_sum(self) -> float:
        """Compensated sum of the folded queueing delays: every completion's,
        once the window has closed."""
        return self._queue_sum + self._queue_sum_c

    def latency_histogram(self) -> LogHistogram:
        """Latency histogram over every completion so far: the live fold
        target once the window has closed, else filled from the open
        window on demand."""
        w = self._window
        if w is None:
            return self.lat_hist
        hist = LogHistogram()
        hist.record_many(
            completed - arrival for arrival, _, completed, *_ in _ROW.iter_unpack(w)
        )
        return hist

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
        """A request left the system without completing (stranded in a
        queue when the replay drained)."""
        self.lost_count += 1
        if self._window is not None:
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

    def _rows(self) -> np.ndarray:
        """The open window as a structured array of :data:`_ROW_DTYPE`, one
        element per completion, no copy; its fields are named as in
        :class:`CompletionColumns`.  The view exports the buffer, and an
        exporting ``bytearray`` cannot grow: the caller drops it, and every
        view of it, before the next completion."""
        return np.frombuffer(self._window, dtype=_ROW_DTYPE)

    def columns(self) -> CompletionColumns:
        """Typed copies of the open window's completion columns, fresh on
        every call (the summaries read the window in place instead).
        Raises once the window has closed — the rows are gone.
        """
        if self._window is None:
            raise RuntimeError(
                f"the exact window closed past {self.exact_cap} completions; "
                "use latency_histogram() and the running counters instead"
            )
        rows = self._rows()
        cols = CompletionColumns(
            arrival=rows["arrival"].copy(),
            dispatched=rows["dispatched"].copy(),
            completed=rows["completed"].copy(),
            model=rows["model"].astype(np.int32),
            gpu=rows["gpu"].astype(np.int32),
            architecture=rows["architecture"].astype(np.int32),
            cache_hit=rows["cache_hit"].copy(),
            false_miss=rows["false_miss"].copy(),
            sla_s=rows["sla_s"].copy(),
        )
        del rows  # every column is a copy: the view dies before the return
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
