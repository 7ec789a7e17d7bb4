"""Discrete-event simulation kernel.

The whole GPU-enabled FaaS system runs on top of this kernel: the Gateway,
Scheduler, Cache Manager, and GPU Managers are plain Python objects that
schedule callbacks on a shared :class:`Simulator`.  Simulated time is a
float number of seconds.

Design notes
------------
* The heap stores bare ``(time, priority, seq, slot)`` tuples — ``seq`` is
  a monotonically increasing counter, so events scheduled for the same
  instant fire in the order they were scheduled and every run is
  bit-for-bit deterministic.  Tuple keys keep every heap comparison inside
  the C tuple-compare loop instead of a Python ``__lt__``.
* Event payloads (callback, args, bookkeeping flags) live in a parallel
  **slab**: a flat list indexed by ``slot``, with a free-list so slots
  recycle.  Cancellation is O(1) and releases the payload immediately —
  the cancelled entry's heap tuple stays behind (lazy deletion) and is
  recognised as stale when popped because the slot is empty or holds a
  younger ``seq``.
* :meth:`Simulator.schedule_many` injects a whole presorted arrival column
  in one call: when the heap is empty (the replay-start case) an ascending
  tuple list already satisfies the heap invariant, so bulk injection costs
  one list build instead of N ``heappush`` sift-ups.
* There are no coroutines; components communicate through explicit
  callbacks.  This keeps the kernel tiny, easy to reason about, and fast
  (a 6-minute, ~2000-request cluster run executes in milliseconds).
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, Iterable, Iterator, Sequence

__all__ = ["Event", "Simulator", "SimError"]


class SimError(RuntimeError):
    """Raised on kernel misuse (negative delays, running a dead simulator)."""


class Event:
    """A scheduled callback handle.

    Ordering is ``(time, priority, seq)`` — kept on the instance for
    introspection and the back-compat ``__lt__``; the heap itself orders
    bare tuples and never compares :class:`Event` objects.
    """

    __slots__ = ("time", "priority", "seq", "fn", "args", "cancelled", "_sim", "_slot", "_popped")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        fn: Callable[..., Any],
        args: tuple = (),
        sim: "Simulator | None" = None,
        slot: int = -1,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim = sim
        self._slot = slot
        self._popped = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent.

        O(1): the payload slot is released to the free-list right away;
        the heap tuple is dropped lazily when it surfaces.
        """
        if self.cancelled:
            return
        self.cancelled = True
        # keep the simulator's live-event count exact without scanning the
        # heap: an event still pending when cancelled stops counting now
        if self._sim is not None and not self._popped:
            self._sim._release(self)

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.priority, self.seq) < (other.time, other.priority, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time} prio={self.priority} seq={self.seq} {state}>"


class Simulator:
    """A minimal deterministic discrete-event simulator.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(2.0, fired.append, "b")
    >>> _ = sim.schedule(1.0, fired.append, "a")
    >>> sim.run()
    >>> fired
    ['a', 'b']
    >>> sim.now
    2.0
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: list[tuple[float, int, int, int]] = []  # (time, priority, seq, slot)
        self._slab: list[Event | None] = []  # slot -> payload (None = vacant)
        self._free: list[int] = []  # recycled slots
        self._seq = itertools.count()
        self._running = False
        self._processed = 0
        self._live = 0  # pending non-cancelled events (O(1) __len__)
        self._trace_hook: Callable[[float, str], Any] | None = None
        self._post_event_hooks: tuple[Callable[[], Any], ...] = ()

    def subscribe_post_event(self, hook: Callable[[], Any]) -> Callable[[], None]:
        """Register a hook that runs after every event callback returns.

        The batched Datastore uses this as its flush boundary: all writes a
        single event handler issues (one scheduling action) commit as one
        transaction once the handler finishes.  Returns an unsubscribe
        callable.  Hooks run in registration order and may schedule new
        events, but must not call :meth:`run` (the kernel is not re-entrant).
        """
        self._post_event_hooks = self._post_event_hooks + (hook,)

        def unsubscribe() -> None:
            self._post_event_hooks = tuple(
                h for h in self._post_event_hooks if h is not hook
            )

        return unsubscribe

    def set_trace(self, hook: Callable[[float, str], Any] | None) -> None:
        """Install a debug hook called ``hook(time, callback_name)`` before
        each event fires (None disables).  For tests and debugging only —
        it adds per-event overhead."""
        self._trace_hook = hook

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events that have fired so far."""
        return self._processed

    def __len__(self) -> int:
        """Number of pending (non-cancelled) events.

        O(1): maintained incrementally on schedule/cancel/fire instead of
        scanning the heap (timeline samplers probe this every tick).
        """
        return self._live

    def kernel_stats(self) -> dict[str, float | int]:
        """Snapshot of the kernel's counters (the observability surface:
        :func:`~repro.metrics.exposition.prometheus_exposition` and trace
        tooling read this instead of poking privates)."""
        return {"now": self._now, "processed": self._processed, "pending": self._live}

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _release(self, ev: Event) -> None:
        """Vacate a pending event's slot (cancellation path)."""
        self._slab[ev._slot] = None
        self._free.append(ev._slot)
        self._live -= 1

    def schedule(
        self, delay: float, fn: Callable[..., Any], *args: Any, priority: int = 0
    ) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimError(f"negative delay {delay!r}")
        return self.schedule_at(self._now + delay, fn, *args, priority=priority)

    def schedule_at(
        self, time: float, fn: Callable[..., Any], *args: Any, priority: int = 0
    ) -> Event:
        """Schedule ``fn(*args)`` at an absolute simulated time."""
        if math.isnan(time):
            raise SimError("event time is NaN")
        if time < self._now:
            raise SimError(f"cannot schedule in the past: {time} < {self._now}")
        slab = self._slab
        if self._free:
            slot = self._free.pop()  # recycle a fired or cancelled event's slot
        else:
            slot = len(slab)
            slab.append(None)
        ev = slab[slot] = Event(float(time), priority, next(self._seq), fn, args, self, slot)
        self._live += 1
        heapq.heappush(self._heap, (ev.time, priority, ev.seq, slot))
        return ev

    def schedule_many(
        self,
        times: Sequence[float],
        fn: Callable[..., Any],
        args_seq: Iterable[tuple] | None = None,
        *,
        priority: int = 0,
    ) -> list[Event]:
        """Bulk-schedule ``fn(*args)`` at each absolute time in ``times``.

        Semantically identical to a loop of :meth:`schedule_at` — the same
        ``seq`` numbers are assigned in order, so firing order (including
        same-instant ties) is bit-identical — but the heap is built with at
        most one ``heapify`` over the combined entries instead of N
        sift-ups.  When the simulator's queue is empty and ``times`` is
        ascending (the trace-replay case: a presorted arrival column), the
        tuple list already satisfies the heap invariant and the heapify is
        skipped entirely.

        ``args_seq`` supplies one args tuple per entry (``None`` = no
        arguments for any); it must match ``times`` in length.
        """
        if args_seq is None:
            pairs = [(t, ()) for t in times]
        else:
            pairs = list(zip(times, args_seq, strict=True))
        was_empty = not self._heap
        heap = self._heap
        slab = self._slab
        free = self._free
        seq = self._seq
        events: list[Event] = []
        sorted_so_far = True
        prev = -math.inf
        now = self._now
        try:
            for t, args in pairs:
                if math.isnan(t):
                    raise SimError("event time is NaN")
                if t < now:
                    raise SimError(f"cannot schedule in the past: {t} < {now}")
                # slot allocation as in schedule_at (one frame per event
                # matters here: this loop injects the whole arrival column)
                if free:
                    slot = free.pop()
                else:
                    slot = len(slab)
                    slab.append(None)
                ev = slab[slot] = Event(float(t), priority, next(seq), fn, tuple(args), self, slot)
                self._live += 1
                heap.append((ev.time, priority, ev.seq, slot))
                events.append(ev)
                if ev.time < prev:
                    sorted_so_far = False
                prev = ev.time
        except SimError:
            # roll back the partial batch so a validation error leaves the
            # simulator exactly as it was
            for ev in events:
                ev.cancel()
            del heap[len(heap) - len(events):]
            raise
        if not (was_empty and sorted_so_far):
            heapq.heapify(heap)
        return events

    def call_soon(self, fn: Callable[..., Any], *args: Any, priority: int = 0) -> Event:
        """Schedule ``fn(*args)`` at the current time (after pending same-time events)."""
        return self.schedule(0.0, fn, *args, priority=priority)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def peek(self) -> float:
        """Time of the next pending event, or ``inf`` if none."""
        self._drop_cancelled()
        return self._heap[0][0] if self._heap else math.inf

    @property
    def is_running(self) -> bool:
        """True while :meth:`run` is executing events.

        Components with explicit flush points (Scheduler, Gateway) consult
        this to tell a user-context call (flush now — nothing else will)
        from one nested inside an event handler (defer to the post-event
        hook so the whole handler commits as one action).
        """
        return self._running

    def _fire(self, ev: Event) -> None:
        """Advance the clock to ``ev``, run its callback, run post hooks.

        ``is_running`` holds for the callback's duration even under
        :meth:`step`, so flush-point deferral behaves identically whether
        events fire via ``run()`` or ``step()``.
        """
        was_running, self._running = self._running, True
        self._now = ev.time
        self._processed += 1
        try:
            if self._trace_hook is not None:
                self._trace_hook(ev.time, getattr(ev.fn, "__qualname__", repr(ev.fn)))
            ev.fn(*ev.args)
            for hook in self._post_event_hooks:
                hook()
        finally:
            self._running = was_running

    def _pop_next(self) -> Event | None:
        """Pop the next live event (dropping stale heap tuples), or None."""
        heap = self._heap
        slab = self._slab
        while heap:
            _, _, seq, slot = heapq.heappop(heap)
            ev = slab[slot]
            if ev is None or ev.seq != seq:
                continue  # cancelled (slot vacated or recycled): stale tuple
            slab[slot] = None
            self._free.append(slot)
            ev._popped = True
            self._live -= 1
            return ev
        return None

    def step(self) -> bool:
        """Fire the next event.  Returns False when no events remain."""
        ev = self._pop_next()
        if ev is None:
            return False
        self._fire(ev)
        return True

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run events in order until the queue drains.

        Parameters
        ----------
        until:
            Stop once the next event would fire strictly after this time;
            the clock is advanced to ``until``.
        max_events:
            Safety valve for tests; raises :class:`SimError` when exceeded.
        """
        if self._running:
            raise SimError("simulator is already running (re-entrant run())")
        self._running = True
        fired = 0
        heap = self._heap
        slab = self._slab
        free = self._free
        pop = heapq.heappop
        try:
            while heap:
                head = heap[0]
                ev = slab[head[3]]
                if ev is None or ev.seq != head[2]:
                    pop(heap)  # stale tuple left behind by a cancellation
                    continue
                if until is not None and head[0] > until:
                    break
                pop(heap)
                slab[head[3]] = None
                free.append(head[3])
                ev._popped = True
                self._live -= 1
                # inlined _fire (same semantics, minus a call per event;
                # is_running already holds for the whole loop)
                self._now = ev.time
                self._processed += 1
                if self._trace_hook is not None:
                    self._trace_hook(ev.time, getattr(ev.fn, "__qualname__", repr(ev.fn)))
                ev.fn(*ev.args)
                for hook in self._post_event_hooks:
                    hook()
                fired += 1
                if max_events is not None and fired > max_events:
                    raise SimError(f"exceeded max_events={max_events}")
        finally:
            self._running = False
        if until is not None and until > self._now:
            self._now = float(until)

    def drain(self) -> Iterator[Event]:
        """Yield and remove all pending events without firing them (for tests)."""
        while True:
            ev = self._pop_next()
            if ev is None:
                return
            yield ev

    def _drop_cancelled(self) -> None:
        # cancelled events already left the live count at cancel() time
        heap = self._heap
        slab = self._slab
        while heap:
            head = heap[0]
            ev = slab[head[3]]
            if ev is not None and ev.seq == head[2]:
                return
            heapq.heappop(heap)
