"""Scheduler queues: the system-wide global queue and per-GPU local queues.

§III-B: the global queue holds all requests forwarded by the Gateway,
sorted by arrival; each GPU's local queue holds requests the Scheduler has
bound to that (busy) GPU, to be served before anything from the global
queue.

§VI scalability: the global queue keeps an auxiliary index from model
instance to its queued requests (in arrival order), so "the complexity of
this search is bounded by the number of models cached on the GPU" rather
than the queue length.  This module supplies everything the index-driven
scheduling fast path needs to honour that bound:

* ``first_for_model`` — O(1) oldest queued request per model;
* O3 ``visits`` accounting in O(log n + a constant) per scan — "every
  skipped request is visited once more" (Alg. 1 line 15) is counted
  eagerly on the newest, not-yet-attached requests (at most
  ``_MAX_PENDING_LEAVES - 1`` of them: on a shallow queue, all of them);
  for the requests that outlived that cap a scan only records the slot it
  stopped at, and a request's count is read on demand as the number of
  recorded scans that stopped beyond its slot (:class:`_BumpCounter`);
* an ordered *starved* list — requests whose visits exceeded the O3 limit
  surface by index (Alg. 1 line 11) instead of being rediscovered by
  rescanning the queue, and a scan finds the newly starved without a
  search (``bump_visits_before``);
* ``push_sorted`` — positional re-insertion (O(log n) search, one array
  splice) that updates the model index incrementally instead of the old
  clear-and-rebuild.

The queue holds the :class:`~repro.core.request.InferenceRequest` itself:
its position and lazy O3 state are queue-owned fields of the request, so
a request sits in at most one global queue (``slot`` is −1 in none).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import deque
from itertools import accumulate
from operator import attrgetter
from typing import Callable, Iterator

from .request import InferenceRequest, RequestState

__all__ = ["GlobalQueue", "LocalQueues"]

#: unattached-tail cap: the newest requests count their skips eagerly and
#: move to the bump counter together once this many have accumulated, so a
#: scan walks fewer than this many requests whatever the queue depth
_MAX_PENDING_LEAVES = 32

#: ``InferenceRequest.o3_phase`` in a visit-tracking queue: in the
#: unattached tail (``visits`` exact), attached to the bump counter (live
#: count ``visits + cover(slot) - cov0``) or starved (``visits`` frozen)
_TAIL, _ATTACHED, _STARVED = 0, 1, 2

_slot = attrgetter("slot")


class _BumpCounter:
    """Fenwick array of scan stop positions.

    A scheduling scan that stopped at slot ``r`` skipped exactly the queue
    prefix ``[0, r)`` (Alg. 1 line 15), so a queued request's skip count
    is "how many scans since I was filed stopped beyond my slot":
    ``add(r)`` records one scan, ``cover(slot)`` counts the recorded scans
    with ``r > slot``, both in O(log size).  Nothing is stored per
    request — leaving the queue writes nothing here.
    """

    __slots__ = ("size", "_total", "_sums")

    def __init__(self, size: int) -> None:
        self.size = size  # stop positions 1..size
        self._total = 0
        self._sums = [0] * (size + 1)

    def add(self, r: int) -> None:
        """Record one scan that skipped slots ``[0, r)``, ``1 <= r <= size``."""
        self._total += 1
        sums, size = self._sums, self.size
        while r <= size:
            sums[r] += 1
            r += r & -r

    def cover(self, slot: int) -> int:
        """Recorded scans that skipped ``slot`` (those with ``r > slot``)."""
        sums = self._sums
        below = 0  # scans that stopped at or before the slot
        while slot:
            below += sums[slot]
            slot &= slot - 1
        return self._total - below

    def covers(self) -> list[int]:
        """``cover(slot)`` for every slot in ``[0, size)``, in one O(size)
        pass (the settle before a renumbering reads them all)."""
        stops = self._sums[:-1]  # stop positions 0..size-1 bound those slots
        for i in range(self.size - 1, 0, -1):  # undo the Fenwick partial sums
            parent = i + (i & -i)
            if parent < self.size:
                stops[parent] -= stops[i]
        total = self._total
        return [total - below for below in accumulate(stops)]


class GlobalQueue:
    """Arrival-ordered queue with a model-instance index.

    ``o3_limit`` enables lazy O3-visit tracking for the LALB/LALBO3 index
    scans; the queue then owns every held request's count.  Queues built
    without a limit (LB, locality, bare unit-test queues) skip that
    machinery and behave like a plain indexed FIFO.

    The model buckets and the irregular list drop a removed request (slot
    −1) lazily, so one that left comes back only through
    :meth:`push_sorted`, which purges those references first.
    """

    def __init__(self, o3_limit: int | None = None) -> None:
        self._o3_limit = o3_limit
        self._entries: list[InferenceRequest | None] = []  # slot-ordered; None = removed
        self._buckets: dict[str, deque[InferenceRequest]] = {}  # model -> requests, oldest first
        self._model_live: dict[str, int] = {}  # model -> live request count
        self._live = 0
        self._head = 0  # first possibly-alive slot
        self._counter = _BumpCounter(64) if o3_limit is not None else None
        #: the unattached tail: exactly the live, non-starved requests the
        #: counter does not cover, in slot order (fewer than the cap)
        self._pending_leaves: list[InferenceRequest] = []
        #: live, non-starved attached requests; scans record themselves in
        #: the counter only while this is non-zero
        self._attached = 0
        #: every slot before this one is a hole, starved or irregular
        #: (forward-only between renumberings)
        self._chain_from = 0
        #: live attached requests with ``regular`` unset, in slot order
        #: (removed ones, at slot -1, and starved ones linger in place
        #: until a scan passes them)
        self._irregular: list[InferenceRequest] = []
        #: live requests past the O3 limit (the starvation/O3 signal), in
        #: slot order: empty, the common state, lets the LALB fast scan
        #: skip the line-11 sweep
        self._starved: list[InferenceRequest] = []
        self._version = 0  # bumped whenever slots are renumbered

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def tracks_visits(self) -> bool:
        """Whether lazy O3-visit accounting is active (LALB fast path)."""
        return self._o3_limit is not None

    @property
    def starved_count(self) -> int:
        """Live requests past the O3 limit."""
        return len(self._starved)

    def __len__(self) -> int:
        return self._live

    def __iter__(self) -> Iterator[InferenceRequest]:
        """Iterate in arrival order over a snapshot (safe to mutate while iterating)."""
        return iter([r for r in self._entries if r is not None])

    def iter_requests(self) -> Iterator[InferenceRequest]:
        """Allocation-free walk in arrival order.

        Unlike ``__iter__`` this takes no snapshot: requests removed ahead
        of the cursor are skipped and requests appended behind the tail are
        visited, so a scheduling pass may remove the request it just
        visited.  A walk whose slots are renumbered underneath it (a
        ``push_sorted``, or a ``push`` that compacts holes) raises
        :class:`RuntimeError`: no pass pushes.
        """
        i = self._head
        version = self._version
        while True:
            if version != self._version:
                raise RuntimeError("global queue re-indexed during iter_requests")
            if i >= len(self._entries):
                return
            request = self._entries[i]
            i += 1
            if request is not None:
                yield request

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def push(self, request: InferenceRequest) -> None:
        if request.slot >= 0:
            raise ValueError(f"request {request.request_id} already queued")
        if len(self._entries) > 64 and self._live * 2 < len(self._entries):
            self._reindex()  # too many holes: compact before appending
        slot = len(self._entries)
        counter = self._counter
        if counter is not None and slot >= counter.size:
            self._reindex()
            slot = len(self._entries)
        request.slot = slot
        self._entries.append(request)
        model_id = request.model_id
        bucket = self._buckets.get(model_id)
        if bucket is None:  # avoid minting a throwaway deque per push
            bucket = self._buckets[model_id] = deque()
        bucket.append(request)
        self._model_live[model_id] = self._model_live.get(model_id, 0) + 1
        self._live += 1
        if self._o3_limit is not None:
            self._attach_visits(request, True)

    def push_sorted(self, request: InferenceRequest) -> None:
        """Insert by arrival time (for re-queued requests after a failure).

        Normal submissions arrive in time order so plain ``push`` keeps the
        queue sorted; a request returned to the queue (GPU failure, §VI
        fault handling) is older than the tail, so it is re-inserted at its
        arrival-time position (after its equals) to preserve the paper's
        "sorted by arrival times" invariant.  The slot array is compacted
        and the skip counts settled first, so it holds no holes and the
        position is an O(log n) bisection; the model index is updated with
        a single positional insert.  The compaction, the purge and the
        splice are O(n) with small constants, acceptable because failures
        are rare.
        """
        if request.slot >= 0:
            raise ValueError(f"request {request.request_id} already queued")
        # settle: no holes, so position == insertion index; the bump
        # counter is empty, so the slots past the insert may shift under
        # it; and the irregular list holds no removed request
        self._reindex()
        model_id = request.model_id
        bucket = self._buckets.get(model_id)
        if bucket is not None:  # a stale reference would read alive once filed
            self._buckets[model_id] = deque(r for r in bucket if r.slot >= 0)
        entries = self._entries
        pos = bisect_right(entries, request.arrival_time, key=attrgetter("arrival_time"))
        if pos == len(entries):
            self.push(request)  # newest arrival after all queued ones
            return
        entries.insert(pos, request)
        for i in range(pos, len(entries)):
            entries[i].slot = i  # type: ignore[union-attr]  # all alive post-reindex
        self._bucket_insert(request)
        self._model_live[model_id] = self._model_live.get(model_id, 0) + 1
        self._live += 1
        if self._o3_limit is not None:
            # requests behind it may have fewer visits
            self._attach_visits(request, False)
            # the request may sit ahead of older unattached ones
            self._pending_leaves.sort(key=_slot)

    def _bucket_insert(self, request: InferenceRequest) -> None:
        bucket = self._buckets.setdefault(request.model_id, deque())
        # walk from the tail: the re-queued request is usually younger than
        # most of its model's backlog, and failure re-insertions are rare
        i = len(bucket)
        while i > 0 and bucket[i - 1].slot > request.slot:
            i -= 1
        bucket.insert(i, request)

    def remove(self, request: InferenceRequest) -> None:
        entries = self._entries
        slot = request.slot
        try:
            held = entries[slot] is request  # slot -1: the last entry, never itself
        except IndexError:
            held = False
        if not held:
            raise KeyError(f"request {request.request_id} is not in the global queue")
        if self._o3_limit is not None:
            # hand the skip count back to the request
            phase = request.o3_phase
            if phase == _STARVED:
                starved = self._starved
                # a starved request usually leaves as the oldest one
                del starved[0 if starved[0] is request else bisect_left(starved, slot, key=_slot)]
            elif phase == _ATTACHED:
                # one read: the counter holds nothing per request to undo
                request.visits += self._counter.cover(slot) - request.cov0
                self._attached -= 1
            else:
                pending = self._pending_leaves
                del pending[0 if pending[0] is request else bisect_left(pending, slot, key=_slot)]
        request.slot = -1
        entries[slot] = None
        self._live -= 1
        model_id = request.model_id
        remaining = self._model_live[model_id] - 1
        if remaining:
            self._model_live[model_id] = remaining
            bucket = self._buckets[model_id]
            while bucket and bucket[0].slot < 0:
                bucket.popleft()
        else:
            del self._model_live[model_id]
            del self._buckets[model_id]

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def head(self, excluding=()) -> InferenceRequest | None:
        """Oldest queued request, or the oldest whose model is not in
        ``excluding`` (then one index probe per queued model)."""
        if excluding:
            best = None
            for model_id in self._buckets:
                if model_id not in excluding:
                    request = self.first_for_model(model_id)
                    if best is None or request.slot < best.slot:
                        best = request
            return best
        entries = self._entries
        i, n = self._head, len(entries)
        while i < n and entries[i] is None:
            i += 1
        self._head = i
        return entries[i] if i < n else None

    def first_for_model(self, model_id: str) -> InferenceRequest | None:
        """Oldest queued request needing ``model_id`` (amortized O(1))."""
        bucket = self._buckets.get(model_id)
        if not bucket:
            return None
        while bucket[0].slot < 0:
            bucket.popleft()
        return bucket[0]

    def first_entry_matching(self, model_ids) -> InferenceRequest | None:
        """Oldest queued request whose model is in ``model_ids`` (a set).

        The queue-walk half of the first-scan strategy pick: cost is
        bounded by the slots past the head cursor, so callers choose it
        exactly when those are fewer than the GPU's resident models and
        the per-model index probes would cost more.  Equivalent to taking the
        minimum slot over ``first_for_model`` of every member.
        """
        entries = self._entries
        for i in range(self._head, len(entries)):
            request = entries[i]
            if request is not None and request.model_id in model_ids:
                return request
        return None

    def queued_models(self) -> set[str]:
        return set(self._model_live)

    def model_heads(self) -> list[InferenceRequest]:
        """The oldest queued request of every queued model."""
        first = self.first_for_model
        return [first(model_id) for model_id in self._buckets]

    # ------------------------------------------------------------------
    # O3 visit accounting (Alg. 1 lines 11/15, done lazily)
    # ------------------------------------------------------------------
    def starved_entries_before(self, stop_slot: int | None) -> list[InferenceRequest]:
        """Starved requests with slot < ``stop_slot``, oldest first.

        These are the requests Alg. 1 line 11 must force through Algorithm
        2 before the scan may dispatch its cache hit at ``stop_slot``.  A
        copy: the caller removes the ones it dispatches.
        """
        if stop_slot is None:
            return self._starved[:]
        return self._starved[:bisect_left(self._starved, stop_slot, key=_slot)]

    def bump_visits_before(self, stop_slot: int | None, exempt=()) -> None:
        """Count one more skip for every live request before ``stop_slot``
        whose model is not in ``exempt`` (models the scan passed over
        without a visit: the tenant quota refused them).

        This is Alg. 1 line 15 for a whole first scan, in O(log n + cap)
        instead of touching every queued request: the unattached tail is
        counted request by request (fewer than ``_MAX_PENDING_LEAVES``),
        the requests that outlived it by recording the stop slot in the
        bump counter.  Requests skipped past the limit move to the starved
        list (their ``visits`` freeze at limit+1, since starved requests
        are never skipped again — Alg. 1 line 11 routes them instead).

        Finding them needs no search.  Any scan that covers a regular
        request covers every regular request ahead of it, so their counts
        are non-increasing in slot order and only the first live one can
        have just crossed the limit: one ``cover`` at ``_chain_from``, plus
        one per *live irregular* request before the stop slot (removed and
        starved ones are dropped the first time a scan passes them).  An
        exempt request now trails the requests behind it, so it loses
        ``regular`` (see :meth:`_exempt_before` for attached ones).
        """
        limit = self._o3_limit
        if limit is None:
            raise RuntimeError("queue does not track O3 visits (no o3_limit)")
        r = len(self._entries) if stop_slot is None else stop_slot
        if r <= 0:
            return
        # mutation-equivalent: True re-filters a tail that no starved request joins outside this loop
        starved_now = False
        for request in self._pending_leaves:
            if request.slot >= r:
                break
            if request.model_id in exempt:
                request.regular = False
                continue
            request.visits += 1
            if request.visits > limit:
                self._starve(request)
                starved_now = True
        if starved_now:
            self._pending_leaves = [e for e in self._pending_leaves if e.o3_phase == _TAIL]
        if not self._attached:
            return
        counter = self._counter
        counter.add(r)
        if exempt:
            self._exempt_before(r, exempt)
        irregular = self._irregular
        if irregular and irregular[0].slot < r:
            dropped = False
            for request in irregular:
                if request.slot >= r:
                    break
                if request.slot < 0 or request.o3_phase == _STARVED:
                    dropped = True
                elif request.model_id in exempt:
                    continue  # not skipped by this scan: its count stands
                elif (visits := self._entry_visits(request)) > limit:
                    request.visits = visits  # frozen from here on
                    self._starve(request)
                    dropped = True
            if dropped:
                self._irregular = [e for e in irregular if e.slot >= 0 and e.o3_phase == _ATTACHED]
        entries = self._entries
        i = self._chain_from
        while i < r:
            request = entries[i]
            if request is not None and request.regular and request.o3_phase != _STARVED:
                if request.o3_phase == _TAIL:
                    break  # the unattached tail starts here
                visits = request.visits + counter.cover(i) - request.cov0
                if visits <= limit:
                    break  # within the limit, like every regular request behind it
                request.visits = visits  # frozen from here on
                self._starve(request)
            i += 1
        self._chain_from = i

    def _exempt_before(self, r: int, exempt) -> None:
        """Take the scan just recorded back out of the attached requests of
        ``exempt`` models before slot ``r`` and move them to the irregular
        list."""
        joined = []
        for model_id in exempt:
            for request in self._buckets.get(model_id, ()):
                if request.slot < 0:
                    continue  # removed: the bucket drops it lazily
                if request.slot >= r:
                    break
                # mutation-equivalent (==→!=_STARVED): the extras (tail) never read cov0
                if request.o3_phase == _ATTACHED:
                    request.cov0 += 1
                    if request.regular:
                        request.regular = False
                        joined.append(request)
        if joined:
            joined += self._irregular
            joined.sort(key=_slot)
            self._irregular = joined

    def _starve(self, request: InferenceRequest) -> None:
        if request.o3_phase == _ATTACHED:
            self._attached -= 1
        request.o3_phase = _STARVED
        insort(self._starved, request, key=_slot)

    def _attach_visits(self, request: InferenceRequest, regular: bool) -> None:
        visits = request.visits
        request.o3_phase = _TAIL
        request.regular = regular and not visits  # else its count need not follow from its slot
        if visits > self._o3_limit:  # type: ignore[operator]
            # re-queued with its starvation already earned (fairness:
            # resubmit preserves visits) — surface it immediately
            self._starve(request)
            return
        pending = self._pending_leaves
        pending.append(request)
        if len(pending) >= _MAX_PENDING_LEAVES:
            # the tail outlived the cap (a backlog is building): from
            # here the counter carries its skips, so no scan ever
            # walks more than a constant number of requests — §VI's
            # per-pass bound must not degrade to O(pushes since the
            # last dispatch)
            cover = self._counter.cover  # type: ignore[union-attr]
            for e in pending:
                e.cov0 = cover(e.slot)
                e.o3_phase = _ATTACHED
                if not e.regular:
                    self._irregular.append(e)
            self._irregular.sort(key=_slot)
            self._attached += len(pending)
            self._pending_leaves = []

    def visits(self, request: InferenceRequest) -> int:
        """``request``'s live skip count while it waits here (a tracking
        queue writes it to ``request.visits`` only on :meth:`remove`)."""
        if self._o3_limit is None:
            return request.visits
        if request not in self:
            raise KeyError(f"request {request.request_id} is not in the global queue")
        return self._entry_visits(request)

    def _entry_visits(self, request: InferenceRequest) -> int:
        if request.o3_phase != _ATTACHED:
            return request.visits
        return request.visits + self._counter.cover(request.slot) - request.cov0

    # ------------------------------------------------------------------
    # Re-indexing (hole compaction / counter growth / positional insert)
    # ------------------------------------------------------------------
    def _reindex(self) -> None:
        """Drop holes and renumber slots 0..live-1; the skip counts settle
        into the requests and the bump counter starts empty."""
        if self._attached:
            covers = self._counter.covers()
            for request in self._entries:
                if request is not None and request.o3_phase == _ATTACHED:
                    request.visits += covers[request.slot] - request.cov0
                    request.cov0 = 0
        alive = [r for r in self._entries if r is not None]
        for i, request in enumerate(alive):
            request.slot = i
        self._entries = alive  # type: ignore[assignment]
        self._head = 0
        self._version += 1
        if self._counter is not None:
            self._chain_from = 0
            if self._irregular:
                self._irregular = [
                    e for e in self._irregular if e.slot >= 0 and e.o3_phase == _ATTACHED
                ]
            need = max(64, 2 * (self._live + 1))
            self._counter = _BumpCounter(1 << (need - 1).bit_length())


class LocalQueues:
    """Per-GPU FIFO queues of requests bound to busy GPUs (Alg. 2 line 12).

    Keyed by whatever identifies a GPU to the caller; the Scheduler and the
    runtime key them by the :class:`~repro.cluster.gpu.GPUDevice` itself,
    so the guard reads a device's ``is_idle`` straight off the non-empty
    set and the estimator costs a push without a gpu_id lookup.

    Observers (the finish-time estimator) subscribe to push/pop so they can
    maintain running per-GPU cost sums instead of re-walking a queue per
    estimate; hooks fire *after* the queue mutates, so an observer reading
    :meth:`length` sees the post-mutation state.
    """

    def __init__(self) -> None:
        self._queues: dict[object, deque[InferenceRequest]] = {}
        #: GPUs whose queue is non-empty (the local-work dirty signal:
        #: maintained on the 0↔1 length transitions, read by the pass
        #: guard without walking any queue; do not mutate)
        self._nonempty: set = set()
        # fn(gpu, request, added): added=True on push, False on pop
        self._observers: list[Callable[[object, InferenceRequest, bool], None]] = []

    def subscribe(self, fn: Callable[[object, InferenceRequest, bool], None]) -> None:
        """Register a push/pop observer: ``fn(gpu, request, added)``."""
        self._observers.append(fn)

    def push(self, gpu, request: InferenceRequest) -> None:
        request.state = RequestState.LOCAL_QUEUED
        q = self._queues.get(gpu)
        if q is None:  # avoid minting a throwaway deque per push
            q = self._queues[gpu] = deque()
        if not q:
            self._nonempty.add(gpu)
        q.append(request)
        for fn in self._observers:
            fn(gpu, request, True)

    def pop(self, gpu) -> InferenceRequest:
        q = self._queues.get(gpu)
        if not q:
            raise IndexError(f"local queue of {gpu} is empty")
        request = q.popleft()
        if not q:
            self._nonempty.discard(gpu)
        for fn in self._observers:
            fn(gpu, request, False)
        return request

    def peek(self, gpu) -> InferenceRequest | None:
        q = self._queues.get(gpu)
        return q[0] if q else None

    def length(self, gpu) -> int:
        return len(self._queues.get(gpu, ()))

    def requests(self, gpu) -> list[InferenceRequest]:
        return list(self._queues.get(gpu, ()))

    def total(self) -> int:
        return sum(map(len, self._queues.values()))
