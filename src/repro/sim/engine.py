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
* **Two stores, one key.**  A presorted arrival column handed to
  :meth:`Simulator.schedule_many` stays a column: a :class:`_LaneSegment`
  (the ``times`` and ``args`` lists, one callback, one priority, the
  ``seq`` of entry 0) in the **arrival lane**, a FIFO of segments whose
  keys ascend from one to the next.  The firing loop compares the lane
  head with the heap head on the same ``(time, priority, seq)`` key, so
  the order is bit-identical to a loop of ``schedule_at`` while the heap
  holds in-flight work only (a dozen entries, not the trace) and a fired
  entry's args are released on the spot.  A column that is not ascending,
  or starts below the lane's tail, is that loop of ``schedule_at``.
* There are no coroutines; components communicate through explicit
  callbacks.  This keeps the kernel tiny, easy to reason about, and fast
  (a 6-minute, ~2000-request cluster run executes in milliseconds).
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from itertools import islice
from operator import le
from typing import Any, Callable, Iterable, Iterator, Sequence

__all__ = ["Event", "Simulator", "SimError"]


class SimError(RuntimeError):
    """Raised on kernel misuse (negative delays, running a dead simulator)."""


class Event:
    """A scheduled callback handle.

    Ordering is ``(time, priority, seq)`` — kept on the instance for
    introspection; the heap itself orders bare tuples and never compares
    :class:`Event` objects.  ``_sim`` is the store holding the entry (the
    :class:`Simulator`'s slab or a :class:`_LaneSegment`), ``_slot`` its
    place there.
    """

    __slots__ = ("time", "priority", "seq", "fn", "args", "cancelled", "_sim", "_slot")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        fn: Callable[..., Any],
        args: tuple = (),
        sim: "Simulator | _LaneSegment | None" = None,
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

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent.

        O(1): the payload slot is released to the free-list right away;
        the heap tuple is dropped lazily when it surfaces.
        """
        if not self.cancelled:
            self.cancelled = True
            if self._sim is not None:
                self._sim._release(self)  # a no-op once fired or drained

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time} prio={self.priority} seq={self.seq} {state}>"


class _LaneSegment:
    """One ascending column of the arrival lane, and what
    :meth:`Simulator.schedule_many` returns for it: ``len(events)`` and
    ``events[i].cancel()`` work as on a list of :class:`Event` (the handle
    is minted on access).  ``args[i] is None`` marks an entry fired or
    cancelled; ``pos`` is the first index not yet consumed.
    """

    __slots__ = ("times", "args", "n", "fn", "priority", "seq", "pos", "_sim")

    def __init__(self, sim, times, args, fn, priority, seq) -> None:
        self.times = times
        self.args = args
        self.n = len(times)
        self.fn = fn
        self.priority = priority
        self.seq = seq  # of entry 0; entry i holds seq + i
        self.pos = 0
        self._sim = sim

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> Event:
        i = range(self.n)[i]  # negative indices, IndexError
        return Event(self.times[i], self.priority, self.seq + i, self.fn, self.args[i], self, i)

    def _release(self, ev: Event) -> None:
        """Cancel a pending entry through its handle (no-op once fired)."""
        if self.args[ev._slot] is not None:
            self.args[ev._slot] = None
            self._sim._live -= 1


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
        self._lane: deque[_LaneSegment] = deque()  # presorted columns, keys ascending
        self._seq = 0  # next event's tie-break number (both stores draw from it)
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
        """Vacate a still-pending event's slot (cancellation path); the
        live count stays exact without scanning the heap."""
        if self._slab[ev._slot] is ev:
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
        seq = self._seq
        self._seq = seq + 1
        ev = slab[slot] = Event(float(time), priority, seq, fn, args, self, slot)
        self._live += 1
        heapq.heappush(self._heap, (ev.time, priority, seq, slot))
        return ev

    def schedule_many(
        self,
        times: Sequence[float],
        fn: Callable[..., Any],
        args_seq: Iterable[tuple] | None = None,
        *,
        priority: int = 0,
    ) -> Sequence[Event]:
        """Bulk-schedule ``fn(*args)`` at each absolute time in ``times``.

        Semantically identical to a loop of :meth:`schedule_at` — the same
        ``seq`` numbers are assigned in order, so firing order (including
        same-instant ties) is bit-identical — and all-or-nothing: a NaN or
        past time raises :class:`SimError` with nothing scheduled.  An
        ascending column that starts at or after the lane's tail (a trace
        replay, each streaming refill) joins the lane as one segment: no
        per-entry event, heap tuple or sift.  Any other *is* that loop.

        ``args_seq`` supplies one args tuple per entry (``None`` = no
        arguments for any); it must match ``times`` in length.
        """
        times = list(map(float, times))
        args = [()] * len(times) if args_seq is None else list(args_seq)
        if len(args) != len(times):
            raise ValueError("schedule_many: args_seq and times differ in length")
        if not times:
            return []
        lane = self._lane
        # pairwise <= fails on a NaN past the head and `>= now` on a NaN
        # head: these two tests validate an ascending column
        if (
            all(map(le, times, islice(times, 1, None)))
            and times[0] >= self._now
            and (not lane or (lane[-1].times[-1], lane[-1].priority) <= (times[0], priority))
        ):
            segment = _LaneSegment(self, times, args, fn, priority, self._seq)
            self._seq += segment.n
            self._live += segment.n
            lane.append(segment)
            return segment
        if not all(map(self._now.__le__, times)):  # False for NaN too
            raise SimError(f"schedule_many: a time is NaN or before now ({self._now})")
        return [self.schedule_at(t, fn, *a, priority=priority) for t, a in zip(times, args)]

    def call_soon(self, fn: Callable[..., Any], *args: Any, priority: int = 0) -> Event:
        """Schedule ``fn(*args)`` at the current time (after pending same-time events)."""
        return self.schedule(0.0, fn, *args, priority=priority)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def peek(self) -> float:
        """Time of the next pending event, or ``inf`` if none."""
        self._drop_cancelled()
        lane = self._lane
        t = lane[0].times[lane[0].pos] if lane else math.inf
        return min(t, self._heap[0][0]) if self._heap else t

    @property
    def is_running(self) -> bool:
        """True while :meth:`run` is executing events.

        Components with explicit flush points (Scheduler, Gateway) consult
        this to tell a user-context call (flush now — nothing else will)
        from one nested inside an event handler (defer to the post-event
        hook so the whole handler commits as one action).
        """
        return self._running

    def _lane_advance(self, seg: _LaneSegment) -> None:
        """Consume the lane head (fired, drained or found cancelled)."""
        seg.args[seg.pos] = None
        seg.pos += 1
        if seg.pos == seg.n:
            self._lane.popleft()

    def step(self) -> bool:
        """Fire the next event (a one-event :meth:`run`, ``is_running``
        included).  Returns False when no events remain."""
        return self._run(None, None, 1) == 1

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
        self._run(until, max_events, None)
        if until is not None and until > self._now:
            self._now = float(until)

    def _run(self, until: float | None, max_events: int | None, limit: int | None) -> int:
        """The one firing loop (``limit`` = stop after that many events);
        returns the number fired."""
        if self._running:
            raise SimError("simulator is already running (re-entrant run())")
        self._running = True
        fired = 0
        heap = self._heap
        slab = self._slab
        free = self._free
        lane = self._lane
        pop = heapq.heappop
        try:
            while True:
                head = heap[0] if heap else None
                seg = lane[0] if lane else None
                if seg is not None:
                    i = seg.pos
                    t = seg.times[i]
                    # the one ordering key, (time, priority, seq), spelled
                    # out so the common unequal-times case builds no tuple
                    if head is not None and (head[0] < t or (
                        head[0] == t and (head[1], head[2]) < (seg.priority, seg.seq + i)
                    )):
                        seg = None  # the heap head fires first
                if seg is None:
                    if head is None:
                        break
                    t = head[0]
                if until is not None and t > until:
                    break  # nothing live is earlier than this head, stale or not
                if seg is not None:
                    args = seg.args[i]
                    if args is None:
                        self._lane_advance(seg)  # cancelled through its handle
                        continue
                    # inlined _lane_advance (the args are released now)
                    seg.args[i] = None
                    i += 1
                    if i == seg.n:
                        lane.popleft()
                    else:
                        seg.pos = i
                    fn = seg.fn
                else:
                    ev = slab[head[3]]
                    pop(heap)
                    if ev is None or ev.seq != head[2]:
                        continue  # stale tuple left behind by a cancellation
                    slab[head[3]] = None
                    free.append(head[3])
                    fn = ev.fn
                    args = ev.args
                self._live -= 1
                self._now = t
                self._processed += 1
                if self._trace_hook is not None:
                    self._trace_hook(t, getattr(fn, "__qualname__", repr(fn)))
                fn(*args)
                for hook in self._post_event_hooks:
                    hook()
                fired += 1
                if fired == limit:
                    break
                if max_events is not None and fired > max_events:
                    raise SimError(f"exceeded max_events={max_events}")
        finally:
            self._running = False
        return fired

    def drain(self) -> Iterator[Event]:
        """Yield and remove all pending events without firing them (for tests)."""
        heap, lane = self._heap, self._lane
        while self._live:
            self._drop_cancelled()
            seg = lane[0] if lane else None
            if seg is not None and (
                not heap or (seg.times[seg.pos], seg.priority, seg.seq + seg.pos) < heap[0]
            ):
                ev = seg[seg.pos]
                self._lane_advance(seg)
            else:
                slot = heapq.heappop(heap)[3]
                ev = self._slab[slot]
                self._slab[slot] = None
                self._free.append(slot)
            self._live -= 1
            yield ev

    def _drop_cancelled(self) -> None:
        # cancelled events already left the live count at cancel() time
        heap = self._heap
        slab = self._slab
        while heap:
            head = heap[0]
            ev = slab[head[3]]
            if ev is not None and ev.seq == head[2]:
                break
            heapq.heappop(heap)
        lane = self._lane
        while lane and lane[0].args[lane[0].pos] is None:
            self._lane_advance(lane[0])
