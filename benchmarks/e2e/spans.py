"""Outside-in span recorder for the traced benchmark run.

The program under test carries no hook for this: :func:`install` replaces
the public boundary callables *on their classes*, in the child process
only, before the system is constructed.  Class-level replacement (rather
than per-instance) is what catches the callables the runtime binds early —
the Datastore's post-event closure captures ``self.flush`` at
construction, ``FaaSCluster`` rebinds ``manager.on_idle`` straight onto
``scheduler.on_gpu_idle`` — and the span-count cross-check in ``rep.py``
fails the run if one is missed anyway.

A span is five preallocated array slots (name id, segment, parent, start,
end; ``perf_counter_ns``); nothing is aggregated while the replay runs.
:meth:`Recorder.reduce` turns them into per-name, per-segment counts and
self times at exit, where self time is a span's duration minus the part
of it its child spans cover.  The process is single-threaded, so children
never overlap and that part is the sum of their durations.
"""

from __future__ import annotations

import gc
from array import array
from time import perf_counter_ns

import numpy as np

from schema import SLICES

__all__ = ["Recorder", "install", "SEGMENTS"]

#: segment 0 = materialize + inject, 1..SLICES = the run() slices (the
#: drain rides in the last), SLICES + 1 = summarize
SEGMENTS = SLICES + 2

_GROW = 1 << 20


class Recorder:
    """Flat in-memory span store; ``cur`` is the innermost open span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("h")
        self.seg = array("b")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.cap = 0
        self.n = 0
        self.cur = -1
        self.segment = 0
        self._grow()

    def _grow(self) -> None:
        for col in (self.name, self.seg, self.parent, self.start, self.end):
            # in place: the wrappers below close over these very objects
            col.frombytes(bytes(_GROW * col.itemsize))
        self.cap += _GROW

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def reset(self) -> None:
        """Forget everything recorded so far (set-up spans)."""
        self.n = 0
        self.cur = -1
        self.segment = 0

    # -- manual spans (the bench's own calls into the program) ----------
    def begin(self, name: str) -> int:
        i = self.n
        if i == self.cap:
            self._grow()
        self.n = i + 1
        self.name[i] = self.name_id(name)
        self.seg[i] = self.segment
        self.parent[i] = self.cur
        self.cur = i
        self.start[i] = perf_counter_ns()
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self.cur = self.parent[i]

    # -- wrappers ---------------------------------------------------------
    def wrap(self, fn, name: str):
        """``fn`` with a span named ``name`` around every call."""
        rec = self
        nid = self.name_id(name)
        names, segs, parents = self.name, self.seg, self.parent
        starts, ends = self.start, self.end
        now = perf_counter_ns

        def span(*args, **kwargs):
            i = rec.n
            if i == rec.cap:
                rec._grow()
            rec.n = i + 1
            parent = rec.cur
            rec.cur = i
            names[i] = nid
            segs[i] = rec.segment
            parents[i] = parent
            starts[i] = now()
            result = fn(*args, **kwargs)
            ends[i] = now()
            rec.cur = parent
            return result

        span.__wrapped__ = fn
        return span

    def event_runner(self):
        """The callable every scheduled event is routed through:
        ``run_event(name_id, fn, *args)`` spans ``fn(*args)``.

        Same body as :meth:`wrap` with the name id passed per call; the two
        stay separate closures because each runs millions of times and a
        shared helper would add a call to every span."""
        rec = self
        names, segs, parents = self.name, self.seg, self.parent
        starts, ends = self.start, self.end
        now = perf_counter_ns

        def run_event(nid, fn, *args):
            i = rec.n
            if i == rec.cap:
                rec._grow()
            rec.n = i + 1
            parent = rec.cur
            rec.cur = i
            names[i] = nid
            segs[i] = rec.segment
            parents[i] = parent
            starts[i] = now()
            fn(*args)
            ends[i] = now()
            rec.cur = parent

        return run_event

    def watch_gc(self):
        """Span every garbage collection (``gc.gen0/1/2``); returns the
        callback so the caller can remove it from ``gc.callbacks``."""
        open_span: list[int] = []

        def on_gc(phase, info):
            if phase == "start":
                open_span.append(self.begin(f"gc.gen{info['generation']}"))
            elif open_span:
                self.finish(open_span.pop())

        gc.callbacks.append(on_gc)
        return on_gc

    # -- reduction --------------------------------------------------------
    def reduce(self) -> dict[str, dict]:
        """Per span name: ``count``, ``self_ns`` and the per-segment
        ``seg_count`` / ``seg_self_ns`` lists."""
        n = self.n
        name = np.frombuffer(self.name, dtype=np.int16, count=n).astype(np.int64)
        seg = np.frombuffer(self.seg, dtype=np.int8, count=n).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        dur = (
            np.frombuffer(self.end, dtype=np.int64, count=n)
            - np.frombuffer(self.start, dtype=np.int64, count=n)
        ).astype(np.float64)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        self_ns = dur - covered
        k = len(self.names)
        cell = name * SEGMENTS + seg
        size = k * SEGMENTS
        counts = np.bincount(cell, minlength=size).reshape(k, SEGMENTS)
        selfs = np.bincount(cell, weights=self_ns, minlength=size).reshape(k, SEGMENTS)
        out = {}
        for nid, label in enumerate(self.names):
            if not counts[nid].sum():
                continue
            out[label] = {
                "count": int(counts[nid].sum()),
                "self_ns": float(selfs[nid].sum()),
                "seg_count": counts[nid].tolist(),
                "seg_self_ns": selfs[nid].tolist(),
            }
        return out


def _subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def _owner(fn) -> str:
    """``<package path>.<function>`` of a callback, e.g.
    ``core.gpu_manager._finished`` or ``datastore.client._post_event_flush``."""
    fn = getattr(fn, "__wrapped__", fn)
    fn = getattr(fn, "__func__", fn)
    module = (getattr(fn, "__module__", None) or "unknown").removeprefix("repro.")
    qualname = getattr(fn, "__qualname__", None) or type(fn).__name__
    return f"{module}.{qualname.rsplit('.', 1)[-1]}"


def install(rec: Recorder) -> None:
    """Route the program's layer boundaries through ``rec``.

    Must run before the workload and the :class:`FaaSCluster` are built.
    """
    from repro.core import (
        CacheManager,
        GPUManager,
        PassGuard,
        Scheduler,
        SchedulingPolicy,
    )
    from repro.datastore import Datastore, KVStore
    from repro.metrics import MetricsCollector
    from repro.sim import Simulator
    from repro.traces import StreamingWorkload

    def patch(cls, attr: str, name: str) -> None:
        setattr(cls, attr, rec.wrap(cls.__dict__[attr], name))

    patch(Scheduler, "submit", "scheduler.submit")
    patch(Scheduler, "on_gpu_idle", "scheduler.on_gpu_idle")
    patch(Scheduler, "resubmit", "scheduler.resubmit")
    for attr in ("dispatch", "dispatch_local_head", "move_to_local"):
        patch(Scheduler, attr, "scheduler.dispatch")
    for cls in _subclasses(SchedulingPolicy):
        if "schedule_pass" in cls.__dict__ and cls is not SchedulingPolicy:
            patch(cls, "schedule_pass", "policies.pass")
    for cls in _subclasses(PassGuard):
        if "may_act" in cls.__dict__:
            patch(cls, "may_act", "scheduler.guard")
    patch(GPUManager, "execute", "gpu_manager.execute")
    for attr in ("choose_victims", "on_evicted", "on_loaded", "on_used"):
        patch(CacheManager, attr, f"cache_manager.{attr}")
    patch(Datastore, "flush", "datastore.flush")
    patch(KVStore, "compact", "datastore.compact")
    patch(MetricsCollector, "on_complete", "metrics.on_complete")
    patch(StreamingWorkload, "materialize", "traces.materialize")

    # every event handler and post-event hook, named by its owner
    run_event = rec.event_runner()
    event_ids: dict[object, int] = {}

    def event_id(fn) -> int:
        key = getattr(fn, "__func__", fn)
        nid = event_ids.get(key)
        if nid is None:
            nid = event_ids[key] = rec.name_id("ev." + _owner(fn))
        return nid

    schedule_at = Simulator.schedule_at
    schedule_many = Simulator.schedule_many
    subscribe_post_event = Simulator.subscribe_post_event

    # schedule() and call_soon() reach schedule_at(); should that change,
    # the event-span count stops matching sim.processed_events and the
    # traced run fails
    def spanned_schedule_at(self, time, fn, *args, priority=0):
        return schedule_at(self, time, run_event, event_id(fn), fn, *args, priority=priority)

    def spanned_schedule_many(self, times, fn, args_seq=None, *, priority=0):
        head = (event_id(fn), fn)
        if args_seq is None:
            args_seq = (() for _ in times)
        return schedule_many(
            self, times, run_event, (head + tuple(a) for a in args_seq), priority=priority
        )

    def spanned_subscribe(self, hook):
        return subscribe_post_event(self, rec.wrap(hook, "hook." + _owner(hook)))

    Simulator.schedule_at = spanned_schedule_at
    Simulator.schedule_many = spanned_schedule_many
    Simulator.subscribe_post_event = spanned_subscribe
