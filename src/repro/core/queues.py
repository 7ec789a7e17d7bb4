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

* ``first_entry_for_model`` — O(1) oldest queued request per model;
* O3 ``visits`` accounting in O(log n + a constant) per scan — "every
  skipped request is visited once more" (Alg. 1 line 15) is counted
  eagerly on the newest, not-yet-attached entries (at most
  ``_MAX_PENDING_LEAVES - 1`` of them: on a shallow queue, all of them);
  for the entries that outlived that cap a scan only records the slot it
  stopped at, and a request's count is read on demand as the number of
  recorded scans that stopped beyond its slot (:class:`_BumpCounter`);
* an ordered *starved* set — requests whose visits exceeded the O3 limit
  surface by index (Alg. 1 line 11) instead of being rediscovered by
  rescanning the queue, and a scan finds the newly starved without a
  search (``bump_visits_before``);
* ``push_sorted`` — positional re-insertion (O(log n) search, one array
  splice) that updates the model index incrementally instead of the old
  clear-and-rebuild.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from collections import deque
from operator import attrgetter
from typing import Callable, Iterator

from .request import InferenceRequest, RequestState

__all__ = ["GlobalQueue", "LocalQueues"]

#: unattached-tail cap: the newest entries count their skips eagerly and
#: move to the bump counter together once this many have accumulated, so a
#: scan walks fewer than this many entries whatever the queue depth
_MAX_PENDING_LEAVES = 32


def _entry_slot(entry: "_Entry") -> int:
    return entry.slot


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
        return [total - below for below in itertools.accumulate(stops)]


class _Entry:
    """One queued request plus its position and lazy O3-visit state."""

    __slots__ = (
        "request", "model_id", "key", "slot", "alive", "starved",
        "visits_at_entry", "attached", "cov0", "regular",
    )

    def __init__(self, request: InferenceRequest, key: tuple[float, int], slot: int) -> None:
        self.request = request
        self.model_id = request.model_id  # the bucket this entry is filed under
        self.key = key  # (arrival_time, push sequence): total queue order
        self.slot = slot  # index into the queue's entry array
        self.alive = True
        self.starved = False
        #: visit count as of the last settle; exact while the entry sits
        #: in the queue's unattached tail (each covering scan updates it in
        #: place, so a request pushed and dispatched on a shallow queue
        #: never touches the bump counter); once ``attached`` the live
        #: value is ``visits_at_entry + cover(slot) - cov0``
        self.visits_at_entry = 0
        self.attached = False
        self.cov0 = 0  # cover(slot) as of hand-over / the last settle or write
        #: pushed at the tail with no visits and never written since: no
        #: regular entry behind it has been skipped more often
        self.regular = True


class GlobalQueue:
    """Arrival-ordered queue with a model-instance index.

    ``o3_limit`` enables lazy O3-visit tracking for the LALB/LALBO3 index
    scans; the queue then owns every held request's count.  Queues built
    without a limit (LB, locality, bare unit-test queues) skip that
    machinery and behave like a plain indexed FIFO.
    """

    def __init__(self, o3_limit: int | None = None) -> None:
        self._o3_limit = o3_limit
        self._entries: list[_Entry | None] = []  # slot-ordered; None = removed
        self._by_id: dict[int, _Entry] = {}
        self._buckets: dict[str, deque[_Entry]] = {}  # model -> entries, oldest first
        self._model_live: dict[str, int] = {}  # model -> live entry count
        self._live = 0
        self._head = 0  # first possibly-alive slot
        self._seq = itertools.count()
        self._counter = _BumpCounter(64) if o3_limit is not None else None
        #: the unattached tail: exactly the live, non-starved entries the
        #: counter does not cover, in slot order (fewer than the cap)
        self._pending_leaves: list[_Entry] = []
        #: live, non-starved attached entries; scans record themselves in
        #: the counter only while this is non-zero
        self._attached = 0
        #: every slot before this one is a hole, starved or irregular
        #: (forward-only between renumberings)
        self._chain_from = 0
        #: live attached entries with ``regular`` unset, in slot order
        #: (dead and starved ones linger until a scan passes them)
        self._irregular: list[_Entry] = []
        self._starved: list[_Entry] = []  # slot-ordered; may hold dead entries
        #: live requests past the O3 limit (the starvation/O3 signal): zero,
        #: the common state, lets the LALB fast scan skip the line-11 sweep
        self.starved_count = 0
        self._version = 0  # bumped whenever slots are renumbered

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def tracks_visits(self) -> bool:
        """Whether lazy O3-visit accounting is active (LALB fast path)."""
        return self._o3_limit is not None

    def __contains__(self, request: InferenceRequest) -> bool:
        return request.request_id in self._by_id

    def __len__(self) -> int:
        return self._live

    def __iter__(self) -> Iterator[InferenceRequest]:
        """Iterate in arrival order over a snapshot (safe to mutate while iterating)."""
        return iter([e.request for e in self._entries if e is not None])

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
            entry = self._entries[i]
            i += 1
            if entry is not None:
                yield entry.request

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def push(self, request: InferenceRequest) -> None:
        if request.request_id in self._by_id:
            raise ValueError(f"request {request.request_id} already queued")
        if len(self._entries) > 64 and self._live * 2 < len(self._entries):
            self._reindex()  # too many holes: compact before appending
        slot = len(self._entries)
        counter = self._counter
        if counter is not None and slot >= counter.size:
            self._reindex()
            slot = len(self._entries)
        entry = _Entry(request, (request.arrival_time, next(self._seq)), slot)
        self._entries.append(entry)
        self._by_id[request.request_id] = entry
        model_id = entry.model_id
        bucket = self._buckets.get(model_id)
        if bucket is None:  # avoid minting a throwaway deque per push
            bucket = self._buckets[model_id] = deque()
        bucket.append(entry)
        self._model_live[model_id] = self._model_live.get(model_id, 0) + 1
        self._live += 1
        if self._o3_limit is not None:
            self._attach_visits(entry)

    def push_sorted(self, request: InferenceRequest) -> None:
        """Insert by arrival time (for re-queued requests after a failure).

        Normal submissions arrive in time order so plain ``push`` keeps the
        queue sorted; a request returned to the queue (GPU failure, §VI
        fault handling) is older than the tail, so it is re-inserted at its
        arrival-time position to preserve the paper's "sorted by arrival
        times" invariant.  The entry array is compacted and the skip counts
        settled first, so the entries hold no holes and the position is an
        O(log n) bisection of their keys; the model index is updated with
        a single positional insert.  The compaction and the splice are
        O(n) with small constants, acceptable because failures are rare.
        """
        if request.request_id in self._by_id:
            raise ValueError(f"request {request.request_id} already queued")
        # settle: no holes, so position == insertion index, and the bump
        # counter is empty, so the slots past the insert may shift under it
        self._reindex()
        key = (request.arrival_time, next(self._seq))
        pos = bisect_left(self._entries, key, key=attrgetter("key"))
        if pos == len(self._entries):
            self.push(request)  # newest arrival after all queued ones
            return
        entry = _Entry(request, key, pos)
        self._entries.insert(pos, entry)
        for i in range(pos + 1, len(self._entries)):
            self._entries[i].slot = i  # type: ignore[union-attr]  # all alive post-reindex
        self._by_id[request.request_id] = entry
        self._bucket_insert(entry)
        model_id = entry.model_id
        self._model_live[model_id] = self._model_live.get(model_id, 0) + 1
        self._live += 1
        self._head = min(self._head, pos)
        if self._o3_limit is not None:
            entry.regular = False  # entries behind it may have fewer visits
            self._attach_visits(entry)
            # the new entry may sit ahead of older unattached ones
            self._pending_leaves.sort(key=_entry_slot)

    def _bucket_insert(self, entry: _Entry) -> None:
        bucket = self._buckets.setdefault(entry.model_id, deque())
        # walk from the tail: the re-queued request is usually younger than
        # most of its model's backlog, and failure re-insertions are rare
        i = len(bucket)
        while i > 0 and bucket[i - 1].key > entry.key:
            i -= 1
        bucket.insert(i, entry)

    def remove(self, request: InferenceRequest) -> None:
        entry = self._by_id.pop(request.request_id, None)
        if entry is None:
            raise KeyError(f"request {request.request_id} is not in the global queue")
        if self._o3_limit is not None:
            # hand the skip count back to the request
            visits = entry.visits_at_entry
            if entry.starved:
                self.starved_count -= 1
            elif entry.attached:
                # one read: the counter holds nothing per entry to undo
                visits += self._counter.cover(entry.slot) - entry.cov0
                self._attached -= 1
            else:
                self._pending_leaves.remove(entry)
            request.visits = visits
        entry.alive = False
        self._entries[entry.slot] = None
        self._live -= 1
        model_id = entry.model_id
        remaining = self._model_live[model_id] - 1
        if remaining:
            self._model_live[model_id] = remaining
            bucket = self._buckets[model_id]
            while bucket and not bucket[0].alive:
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
                    entry = self.first_entry_for_model(model_id)
                    if best is None or entry.slot < best.slot:
                        best = entry
            return None if best is None else best.request
        entries = self._entries
        i, n = self._head, len(entries)
        while i < n and entries[i] is None:
            i += 1
        self._head = i
        return entries[i].request if i < n else None

    def first_entry_for_model(self, model_id: str) -> _Entry | None:
        """Oldest queued entry needing ``model_id`` (amortized O(1))."""
        bucket = self._buckets.get(model_id)
        if not bucket:
            return None
        while not bucket[0].alive:
            bucket.popleft()
        return bucket[0]

    def first_entry_matching(self, model_ids) -> _Entry | None:
        """Oldest live entry whose model is in ``model_ids`` (a set).

        The queue-walk half of the first-scan strategy pick: cost is
        bounded by the slots past the head cursor, so callers choose it
        exactly when those are fewer than the GPU's resident models and
        the per-model index probes would cost more.  Equivalent to taking the
        minimum slot over ``first_entry_for_model`` of every member.
        """
        entries = self._entries
        for i in range(self._head, len(entries)):
            entry = entries[i]
            if entry is not None and entry.model_id in model_ids:
                return entry
        return None

    def first_for_model(self, model_id: str) -> InferenceRequest | None:
        """Oldest queued request needing ``model_id`` (O(1) via the index)."""
        entry = self.first_entry_for_model(model_id)
        return entry.request if entry is not None else None

    def queued_models(self) -> set[str]:
        return set(self._model_live)

    def model_heads(self) -> list[InferenceRequest]:
        """The oldest queued request of every queued model."""
        first = self.first_entry_for_model
        return [first(model_id).request for model_id in self._buckets]

    # ------------------------------------------------------------------
    # O3 visit accounting (Alg. 1 lines 11/15, done lazily)
    # ------------------------------------------------------------------
    def starved_entries_before(self, stop_slot: int | None) -> list[_Entry]:
        """Live starved entries with slot < ``stop_slot``, oldest first.

        These are the requests Alg. 1 line 11 must force through Algorithm
        2 before the scan may dispatch its cache hit at ``stop_slot``.
        """
        starved = self._starved
        if (len(starved) - self.starved_count) * 2 > len(starved):  # mostly dead
            self._starved = starved = [e for e in starved if e.alive]
        out = []
        for entry in starved:
            if stop_slot is not None and entry.slot >= stop_slot:
                break
            if entry.alive:
                out.append(entry)
        return out

    def bump_visits_before(self, stop_slot: int | None, exempt=()) -> None:
        """Count one more skip for every live request before ``stop_slot``
        whose model is not in ``exempt`` (models the scan passed over
        without a visit: the tenant quota refused them).

        This is Alg. 1 line 15 for a whole first scan, in O(log n + cap)
        instead of touching every queued request: the unattached tail is
        counted entry by entry (fewer than ``_MAX_PENDING_LEAVES``), the
        entries that outlived it by recording the stop slot in the bump
        counter.  Requests skipped past the limit move to the starved set
        (their ``visits`` freeze at limit+1, since starved requests are
        never skipped again — Alg. 1 line 11 routes them instead).

        Finding them needs no search.  Any scan that covers a regular
        entry covers every regular entry ahead of it, so their counts are
        non-increasing in slot order and only the first live one can have
        just crossed the limit: one ``cover`` at ``_chain_from``, plus one
        per *live irregular* entry before the stop slot (dead and starved
        ones are dropped the first time a scan passes them).  An exempt
        entry now trails the entries behind it, so it loses ``regular``
        (see :meth:`_exempt_before` for attached ones).
        """
        limit = self._o3_limit
        if limit is None:
            raise RuntimeError("queue does not track O3 visits (no o3_limit)")
        r = len(self._entries) if stop_slot is None else stop_slot
        if r <= 0:
            return
        # mutation-equivalent: True re-filters a tail that no starved entry joins outside this loop
        starved_now = False
        for entry in self._pending_leaves:
            if entry.slot >= r:
                break
            if entry.model_id in exempt:
                entry.regular = False
                continue
            entry.visits_at_entry += 1
            if entry.visits_at_entry > limit:
                self._starve(entry)
                starved_now = True
        if starved_now:
            self._pending_leaves = [e for e in self._pending_leaves if not e.starved]
        if not self._attached:
            return
        counter = self._counter
        counter.add(r)
        if exempt:
            self._exempt_before(r, exempt)
        irregular = self._irregular
        if irregular and irregular[0].slot < r:
            dropped = False
            for entry in irregular:
                if entry.slot >= r:
                    break
                if not entry.alive or entry.starved:
                    dropped = True
                elif entry.model_id in exempt:
                    continue  # not skipped by this scan: its count stands
                elif (visits := self._entry_visits(entry)) > limit:
                    entry.visits_at_entry = visits  # frozen from here on
                    self._starve(entry)
                    dropped = True
            if dropped:
                self._irregular = [e for e in irregular if e.alive and not e.starved]
        entries = self._entries
        i = self._chain_from
        while i < r:
            entry = entries[i]
            if entry is not None and entry.regular and not entry.starved:
                if not entry.attached:
                    break  # the unattached tail starts here
                visits = entry.visits_at_entry + counter.cover(i) - entry.cov0
                if visits <= limit:
                    break  # within the limit, like every regular entry behind it
                entry.visits_at_entry = visits  # frozen from here on
                self._starve(entry)
            i += 1
        self._chain_from = i

    def _exempt_before(self, r: int, exempt) -> None:
        """Take the scan just recorded back out of the attached entries of
        ``exempt`` models before slot ``r`` and move them to the irregular
        list."""
        joined = []
        for model_id in exempt:
            for entry in self._buckets.get(model_id, ()):
                if not entry.alive:
                    continue  # a dead entry keeps its slot from before a re-index
                if entry.slot >= r:
                    break
                # mutation-equivalent (and→or): the extras (pending, starved) never read cov0
                if entry.attached and not entry.starved:
                    entry.cov0 += 1
                    if entry.regular:
                        entry.regular = False
                        joined.append(entry)
        if joined:
            joined += self._irregular
            joined.sort(key=_entry_slot)
            self._irregular = joined

    def _starve(self, entry: _Entry) -> None:
        if entry.attached:
            self._attached -= 1
        entry.starved = True
        self.starved_count += 1
        insort(self._starved, entry, key=_entry_slot)

    def _attach_visits(self, entry: _Entry) -> None:
        request = entry.request
        visits = entry.visits_at_entry = request.visits
        if visits > self._o3_limit:  # type: ignore[operator]
            # re-queued with its starvation already earned (fairness:
            # resubmit preserves visits) — surface it immediately
            self._starve(entry)
        else:
            if visits:
                entry.regular = False  # entries ahead of it may have fewer
            pending = self._pending_leaves
            pending.append(entry)
            if len(pending) >= _MAX_PENDING_LEAVES:
                # the tail outlived the cap (a backlog is building): from
                # here the counter carries its skips, so no scan ever
                # walks more than a constant number of entries — §VI's
                # per-pass bound must not degrade to O(pushes since the
                # last dispatch)
                cover = self._counter.cover  # type: ignore[union-attr]
                for e in pending:
                    e.cov0 = cover(e.slot)
                    e.attached = True
                    if not e.regular:
                        self._irregular.append(e)
                self._irregular.sort(key=_entry_slot)
                self._attached += len(pending)
                self._pending_leaves = []

    def visits(self, request: InferenceRequest) -> int:
        """``request``'s live skip count while it waits here (a tracking
        queue writes it to ``request.visits`` only on :meth:`remove`)."""
        if self._o3_limit is None:
            return request.visits
        return self._entry_visits(self._by_id[request.request_id])

    def _entry_visits(self, entry: _Entry) -> int:
        if entry.starved or not entry.attached:
            return entry.visits_at_entry
        return entry.visits_at_entry + self._counter.cover(entry.slot) - entry.cov0

    # ------------------------------------------------------------------
    # Re-indexing (hole compaction / counter growth / positional insert)
    # ------------------------------------------------------------------
    def _reindex(self) -> None:
        """Drop holes and renumber slots 0..live-1; the skip counts settle
        into the entries and the bump counter starts empty."""
        if self._attached:
            covers = self._counter.covers()
            for entry in self._entries:
                if entry is not None and entry.attached and not entry.starved:
                    entry.visits_at_entry += covers[entry.slot] - entry.cov0
                    entry.cov0 = 0
        alive = [e for e in self._entries if e is not None]
        for i, entry in enumerate(alive):
            entry.slot = i
        self._entries = alive  # type: ignore[assignment]
        self._head = 0
        self._version += 1
        if len(self._starved) != self.starved_count:
            self._starved = [e for e in self._starved if e.alive]
        if self._counter is not None:
            self._chain_from = 0
            if self._irregular:
                self._irregular = [e for e in self._irregular if e.alive and not e.starved]
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
