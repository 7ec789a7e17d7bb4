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
``bytearray``: its latency (``completed_at - arrival_time``) and queueing
delay (``dispatched_at - arrival_time``, NaN if never dispatched) as
float64 and its interned architecture code as uint16 — 18 bytes and no
object per completion, and the only record of it: the request itself is
not kept.  The rows hold only what a count cannot: the exact mean,
variance and percentiles of latency (overall and per architecture) and
the mean queueing delay.  :mod:`~repro.metrics.summary` reduces a NumPy
structured view of the buffer in place, and
:meth:`MetricsCollector.columns` copies its fields out into typed arrays
for a caller that keeps them.

Everything else is an exact integer counter kept *running* from the first
completion on :meth:`MetricsCollector.on_complete`: completions per model,
misses and false misses, misses per architecture, SLA-carrying
completions and SLA violations.  Queries like :meth:`most_invoked_model`
cost O(models) — never a rescan of the rows.

The buffer is linear in replay size, which turns a 10M-request replay into
an OOM, so the completion that takes the run past ``exact_cap`` *closes* the
window: its rows are replayed, in completion order, through
:meth:`MetricsCollector._fold` into

* fixed-size :class:`~repro.metrics.histogram.LogHistogram` stores
  (latency overall and per architecture), and
* a compensated queueing-delay sum,

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

#: one completion in the open window, 18 bytes: latency and queueing delay
#: (NaN: never dispatched) in seconds, and the architecture code (a
#: :class:`CodeTable` raises before a code outgrows its uint16)
_ROW = struct.Struct("<ddH")
#: the same record as a NumPy structured dtype, for views of the window
_ROW_DTYPE = np.dtype([("latency", "<f8"), ("queueing", "<f8"), ("architecture", "<u2")])
assert _ROW_DTYPE.itemsize == _ROW.size


@dataclass(frozen=True)
class CompletionColumns:
    """Typed copies of the collector's completion columns.

    One row per completed request, in completion order.  ``architecture``
    codes index the collector's ``architectures`` interning table.
    """

    latency: np.ndarray       # float64, seconds
    queueing: np.ndarray      # float64, seconds; NaN = never dispatched
    architecture: np.ndarray  # int32 codes

    def __len__(self) -> int:
        return int(self.latency.shape[0])


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
        #: completions that carried an SLA, and those that missed it
        self.sla_total = 0
        self.sla_violations = 0
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
        self._archs = CodeTable()
        #: model_id -> architecture code, resolved once
        self._arch_codes: dict[str, int] = {}
        #: misses per architecture code, running from the first completion
        self._arch_misses: list[int] = []
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
        self._arch_hists: dict[int, LogHistogram] = {}
        self._queue_sum = 0.0
        self._queue_sum_c = 0.0

    # ------------------------------------------------------------------
    # Observers
    # ------------------------------------------------------------------
    def on_complete(self, request: InferenceRequest) -> None:
        if request.completed_at is None:
            raise ValueError(f"request {request.request_id} has not completed")
        model_id = request.model_id
        # the code first: the table past its uint16 raises before any
        # counter moves
        try:
            arch = self._arch_codes[model_id]
        except KeyError:
            arch = self._arch_codes[model_id] = self._archs[request.model.architecture]
            misses = self._arch_misses
            misses.extend([0] * (arch + 1 - len(misses)))
        if request.retries:
            self.retries_total += request.retries
        self._invocations[model_id] = self._invocations.get(model_id, 0) + 1
        if request.cache_hit is False:
            self.miss_count += 1
            self._arch_misses[arch] += 1
        if request.false_miss:
            self.false_miss_count += 1
        arrival = request.arrival_time
        lat = request.completed_at - arrival
        sla = request.sla_s
        if sla is not None:
            self.sla_total += 1
            if lat > sla:
                self.sla_violations += 1
        dispatched = request.dispatched_at
        queue = dispatched - arrival if dispatched is not None else np.nan
        self._n += 1
        window = self._window
        if window is None:
            self._fold(lat, queue, arch)
        else:
            window += _ROW.pack(lat, queue, arch)
            if self.exact_cap is not None and self._n > self.exact_cap:
                self._close_window()

    def _fold(self, lat: float, queue: float, arch: int) -> None:
        """Fold one completion's latency and queueing delay (NaN: never
        dispatched) into the fixed-size state."""
        # Neumaier-compensated running sum
        s = self._queue_sum
        t = s + queue
        self._queue_sum_c += (s - t) + queue if abs(s) >= abs(queue) else (queue - t) + s
        self._queue_sum = t
        # both histograms have the default geometry: one bucket lookup
        bucket = self.lat_hist._bucket(lat)
        self.lat_hist.record(lat, bucket)
        hist = self._arch_hists.get(arch)
        if hist is None:
            hist = self._arch_hists[arch] = LogHistogram()
        hist.record(lat, bucket)

    def _close_window(self) -> None:
        """The run outgrew ``exact_cap``: replay the window through
        :meth:`_fold` in completion order and release it."""
        w = self._window
        self._window = None
        self.lost = []
        fold = self._fold
        for lat, queue, arch in _ROW.iter_unpack(w):
            fold(lat, queue, arch)

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
        hist.record_many(lat for lat, _, _ in _ROW.iter_unpack(w))
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
            latency=rows["latency"].copy(),
            queueing=rows["queueing"].copy(),
            architecture=rows["architecture"].astype(np.int32),
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
