"""The flight recorder: fixed-size ring buffers of control-plane spans.

The tracing layer is **zero-cost when off**: components hold a tracer
attribute that defaults to ``None`` and guard every hook with a single
``is not None`` test — the same conditional-binding idiom the runtime
already uses for ``on_dispatch`` and ``pass_work_remaining``.  With
``SystemConfig(tracer="flight")`` the runtime installs one
:class:`FlightRecorder` and the hooks start appending records.

Recording is **allocation-free** by construction.  An earlier draft
stored one row tuple per record (the metrics collector's trade), but
rows retained in a ring *survive*: ~8k surviving tuples per 2k-request
replay promoted through the cyclic GC's generations and cost more in
extra collections than the hooks themselves.  So instead:

* the request ring stores one **borrowed reference** per completion —
  the :class:`~repro.core.request.InferenceRequest` the runtime just
  finished with, whose lifecycle stamps are final and never mutate
  again.  One list store instead of ten field extractions: the fields
  are read lazily at snapshot time (:meth:`request_records`).  Nothing
  is allocated and nothing *new* is kept alive beyond ``capacity``
  already-existing objects (the ring slot is overwritten oldest-first,
  so a streaming replay pins at most ``capacity`` requests);
* the span rings are **preallocated strided buffers** — one
  :class:`array.array` of doubles with record *i*'s numeric fields
  contiguous at ``i * stride`` (their scalars live nowhere else, so
  they must be copied out; array stores copy the value and no object
  survives);
* interning strings to dense codes happens at snapshot time
  (:meth:`request_records`), never on the hot path;
* wall-clock probes (``perf_counter_ns``) run only around the two spans
  whose duration is wall time (scheduler passes, KV commits), and only
  when a tracer is installed;
* the two wall-span rings are **stride-sampled** (``span_stride``,
  default 16): every Nth span pays the clock probes and the ring write,
  the rest only bump the exact ``totals`` counters.  Passes and commits
  outnumber request completions ~3:1 on the §V-A replay and their
  per-span bodies are the µs-scale cost that
  would otherwise dominate tracer-on overhead — the same trade every
  sampling profiler makes.  The request-lifecycle and instant rings are
  never sampled: every completion and every chaos/cache event records.

Four rings cover the control plane:

========== =========================================================
requests   one record per *completed* request, written at completion
           from the lifecycle stamps the runtime already maintains
           (arrival → dispatch → exec start → complete)
passes     one record per executed scheduling pass: sim time, wall
           nanoseconds inside ``schedule_pass``, decisions produced
commits    one record per batched Datastore flush: sim time, wall
           nanoseconds inside the commit, keys mutated
instants   point events: chaos faults/repairs, skipped (overlapping)
           faults, lost requests, cache loads/evictions
========== =========================================================

Rings overwrite oldest-first past ``capacity`` (``dropped`` counts per
ring), so tracing any replay size holds a fixed memory ceiling.  An
optional JSONL spill tees request records to disk with stride-doubling
decimation — total spilled lines are bounded by
``keep × (1 + log2(n / keep))``, the same budget shape as the streaming
metrics tier's compaction windows.
"""

from __future__ import annotations

import json
from array import array

__all__ = ["FlightRecorder"]


class _Interner:
    """String → dense int code, with the reverse table public."""

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


class _Spill:
    """Lazily-opened JSONL tee with stride-doubling decimation.

    Writes every record while under ``keep`` lines, then keeps every
    2nd, then every 4th, ... — each doubling admits at most ``keep``
    more lines, so a spill over n records holds at most
    ``keep × (1 + log2(n / keep))`` lines.
    """

    __slots__ = ("path", "keep", "stride", "_at_level", "written", "seen", "_fh")

    def __init__(self, path: str, keep: int) -> None:
        self.path = path
        self.keep = max(1, int(keep))
        self.stride = 1
        self._at_level = 0
        self.written = 0
        self.seen = 0
        self._fh = None

    def offer(self, obj: dict) -> None:
        seen = self.seen
        self.seen = seen + 1
        if seen % self.stride:
            return
        fh = self._fh
        if fh is None:
            fh = self._fh = open(self.path, "w", buffering=1 << 16)
        fh.write(json.dumps(obj, separators=(",", ":")))
        fh.write("\n")
        self.written += 1
        self._at_level += 1
        if self._at_level >= self.keep:
            self.stride *= 2
            self._at_level = 0

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class FlightRecorder:
    """Slot-indexed flight recorder over fixed-capacity ring buffers.

    The defaults are what ``SystemConfig(tracer="flight")`` installs:
    ``capacity`` 4096 per ring holds every span of the 2k-request §V-A
    replay (~3.1k commits is its largest ring load) with a small cache
    footprint; ``span_stride=1`` records every pass and commit span
    instead of every 16th; ``spill_keep`` is the lines admitted per
    decimation level of the JSONL spill.
    """

    def __init__(
        self,
        sim,
        *,
        capacity: int = 4096,
        span_stride: int = 16,
        spill_path: str | None = None,
        spill_keep: int = 20_000,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if span_stride < 1:
            raise ValueError("span_stride must be >= 1")
        self._sim = sim
        self.capacity = capacity
        #: pass/commit wall-span sampling stride (1 = record every span).
        #: Hot call sites read this *before* taking their clock probes so
        #: an unsampled span costs a counter bump and a modulo, nothing
        #: more; ``totals`` counts every span either way.
        self.span_stride = span_stride
        self._models = _Interner()
        self._gpus = _Interner()
        # requests ring: one borrowed InferenceRequest reference per
        # completion (stamps are final once complete; fields are read
        # at snapshot time, so the hook is a single list store)
        self._r_objs: list = [None] * capacity
        # passes ring, stride 3: sim time, wall ns, decisions produced
        self._p_buf = array("d", bytes(capacity * 3 * 8))
        # commits ring, stride 3: sim time, wall ns, keys mutated
        self._c_buf = array("d", bytes(capacity * 3 * 8))
        # instants ring: sim time (stride 1), name/detail (stride 2)
        self._i_time = array("d", bytes(capacity * 8))
        self._i_str: list[str | None] = [None] * (capacity * 2)
        self._spill = _Spill(spill_path, spill_keep) if spill_path else None
        # per-ring [cursor, stored] (+ [2] = spans *seen* for the two
        # sampled rings), shared between the recording closures, the
        # runtime's inline ring-write sites, and the snapshot readers
        self._r_state = [0, 0]
        self._p_state = [0, 0, 0]
        self._c_state = [0, 0, 0]
        self._i_state = [0, 0]
        self._bind_hooks()

    # ------------------------------------------------------------------
    # Recording hooks (hot paths: primitive column stores and shared
    # string references only — nothing recorded here survives as a new
    # object, so tracing adds no cyclic-GC pressure)
    # ------------------------------------------------------------------
    def _bind_hooks(self) -> None:
        """Compile ``request_complete`` and ``instant`` as closures over
        their ring buffers.

        Instance-attribute closures turn the half-dozen ``self.``
        attribute loads each hook would pay into cell loads.  The pass
        and commit rings have no hook here: their only writers
        (``Scheduler._run_policy``, ``WriteBatch.flush``) store into
        ``_p_buf`` / ``_c_buf`` in place, stride check before the clock
        probes, and ``FaaSCluster._on_request_complete`` does the same
        for the request ring unless a spill is configured.
        """
        capacity = self.capacity
        sim = self._sim
        spill = self._spill

        r_objs = self._r_objs
        r_state = self._r_state

        def request_complete(request) -> None:
            i = r_state[0]
            r_objs[i] = request
            r_state[1] += 1
            i += 1
            r_state[0] = 0 if i == capacity else i
            if spill is not None:
                spill.offer({
                    "id": request.request_id,
                    "arrival": request.arrival_time,
                    "dispatched": request.dispatched_at,
                    "exec_start": request.exec_start_at,
                    "completed": request.completed_at,
                    "model": request.model.instance_id,
                    "gpu": request.gpu_id,
                    "hit": request.cache_hit,
                    "retries": request.retries,
                })

        i_time, i_str = self._i_time, self._i_str
        i_state = self._i_state

        def instant(name: str, detail: str = "") -> None:
            i = i_state[0]
            i_time[i] = sim._now
            b = i * 2
            i_str[b] = name
            i_str[b + 1] = detail
            i_state[1] += 1
            i += 1
            i_state[0] = 0 if i == capacity else i

        self.request_complete = request_complete
        self.instant = instant

    # -- instant conveniences (shared spellings, so exporters can route) --
    def fault(self, kind: str, target: str = "") -> None:
        self.instant(f"fault:{kind}", target)

    def fault_cleared(self, kind: str, target: str = "") -> None:
        self.instant(f"fault_cleared:{kind}", target)

    def fault_skipped(self, kind: str, target: str = "") -> None:
        self.instant(f"fault_skipped:{kind}", target)

    def cache_event(self, kind: str, gpu_id: str, model_id: str) -> None:
        self.instant(f"cache:{kind}", f"{model_id}@{gpu_id}")

    def lost(self, reason: str, request_id: int) -> None:
        self.instant(f"lost:{reason}", str(request_id))

    # ------------------------------------------------------------------
    # Snapshots (export-time only: allocation and interning are fine here)
    # ------------------------------------------------------------------
    def _order(self, total: int, cursor: int) -> range | list[int]:
        """Retained slot indices, oldest record first."""
        if total <= self.capacity:
            return range(total)
        return list(range(cursor, self.capacity)) + list(range(cursor))

    @property
    def model_names(self) -> list[str]:
        """Model-code → name table (valid after :meth:`request_records`)."""
        self.request_records()
        return self._models.names

    @property
    def gpu_names(self) -> list[str]:
        """GPU-code → name table (valid after :meth:`request_records`)."""
        self.request_records()
        return self._gpus.names

    def request_records(self) -> list[tuple]:
        """``(request_id, arrival, dispatched, exec_start, completed,
        model_code, gpu_code, hit, retries)``, oldest retained first.
        Negative stamps mean "never" (e.g. a request that never
        dispatched); ``hit`` is -1 unknown / 0 miss / 1 hit.  Extracts
        lazily from the retained request references and interns their
        model/GPU strings into :attr:`model_names` / :attr:`gpu_names`
        as it goes."""
        objs = self._r_objs
        model_code = self._models.code
        gpu_code = self._gpus.code
        state = self._r_state
        rows = []
        for i in self._order(state[1], state[0]):
            r = objs[i]
            dispatched = r.dispatched_at
            exec_start = r.exec_start_at
            hit = r.cache_hit
            rows.append((
                r.request_id,
                r.arrival_time,
                -1.0 if dispatched is None else dispatched,
                -1.0 if exec_start is None else exec_start,
                r.completed_at,
                model_code(r.model.instance_id),
                gpu_code(r.gpu_id or "?"),
                -1 if hit is None else (1 if hit else 0),
                r.retries,
            ))
        return rows

    def pass_records(self) -> list[tuple]:
        """``(sim_time_s, wall_ns, decisions)`` per *sampled* executed
        pass (every ``span_stride``-th; ``totals`` counts them all)."""
        buf = self._p_buf
        state = self._p_state
        return [
            (buf[b], int(buf[b + 1]), int(buf[b + 2]))
            for i in self._order(state[1], state[0])
            for b in (i * 3,)
        ]

    def commit_records(self) -> list[tuple]:
        """``(sim_time_s, wall_ns, keys_mutated)`` per *sampled*
        Datastore commit (every ``span_stride``-th)."""
        buf = self._c_buf
        state = self._c_state
        return [
            (buf[b], int(buf[b + 1]), int(buf[b + 2]))
            for i in self._order(state[1], state[0])
            for b in (i * 3,)
        ]

    def instant_records(self) -> list[tuple]:
        """``(sim_time_s, name, detail)`` per point event."""
        strs = self._i_str
        state = self._i_state
        return [
            (self._i_time[i], strs[i * 2], strs[i * 2 + 1])
            for i in self._order(state[1], state[0])
        ]

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def totals(self) -> dict[str, int]:
        """Events ever *seen* per ring — exact regardless of sampling
        or overwrites (passes/commits count unsampled spans too)."""
        return {
            "requests": self._r_state[1],
            "passes": self._p_state[2],
            "commits": self._c_state[2],
            "instants": self._i_state[1],
        }

    @property
    def dropped(self) -> dict[str, int]:
        """Recorded entries overwritten past each ring's capacity
        (spans skipped by sampling are not recorded, hence not counted)."""
        cap = self.capacity
        return {
            "requests": max(0, self._r_state[1] - cap),
            "passes": max(0, self._p_state[1] - cap),
            "commits": max(0, self._c_state[1] - cap),
            "instants": max(0, self._i_state[1] - cap),
        }

    @property
    def spill_path(self) -> str | None:
        return self._spill.path if self._spill is not None else None

    @property
    def spill_written(self) -> int:
        return self._spill.written if self._spill is not None else 0

    def close(self) -> None:
        """Flush and close the JSONL spill, if one was configured."""
        if self._spill is not None:
            self._spill.close()
