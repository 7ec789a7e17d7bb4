"""The flight recorder: fixed-size ring buffers of control-plane spans.

The tracing layer is **zero-cost when off**: components hold a tracer
attribute that defaults to ``None`` and guard every hook with a single
``is not None`` test — the same conditional-binding idiom the runtime
already uses for ``on_dispatch`` and ``explain``.  With
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
commits    one record per Datastore flush: sim time, wall
           nanoseconds inside the commit, keys mutated
instants   point events: chaos faults/repairs, skipped (overlapping)
           faults, lost requests, cache loads/evictions
========== =========================================================

Rings overwrite oldest-first past ``capacity`` (``dropped`` counts per
ring), so tracing any replay size holds a fixed memory ceiling; past it
the exact ``totals`` counters are the run's long-run record.
"""

from __future__ import annotations

from array import array

from ..metrics.collector import _Interner

__all__ = ["FlightRecorder"]


class FlightRecorder:
    """Slot-indexed flight recorder over fixed-capacity ring buffers.

    The defaults are what ``SystemConfig(tracer="flight")`` installs:
    ``capacity`` 4096 per ring holds every span of the 2k-request §V-A
    replay (~3.1k commits is its largest ring load) with a small cache
    footprint; ``span_stride=1`` records every pass and commit span
    instead of every 16th.
    """

    def __init__(
        self,
        sim,
        *,
        capacity: int = 4096,
        span_stride: int = 16,
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
        # per-ring [cursor, stored] (+ [2] = spans *seen* for the two
        # sampled rings), shared between the instant closure, the
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
        """Compile ``instant`` as a closure over its ring buffers.

        An instance-attribute closure turns the half-dozen ``self.``
        attribute loads the hook would pay into cell loads.  The other
        three rings have no hook here: their only writers
        (``FaaSCluster._on_request_complete``, ``Scheduler._run_policy``,
        ``Datastore.flush``) store into ``_r_objs`` / ``_p_buf`` /
        ``_c_buf`` in place, the span sites checking the stride before
        their clock probes.
        """
        capacity = self.capacity
        sim = self._sim
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
