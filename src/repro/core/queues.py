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
from bisect import bisect_left, bisect_right, insort
from collections import deque
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

    ``o3_limit`` enables lazy O3-visit tracking for the LALB/LALBO3 fast
    path; the Scheduler wires it from the policy.  Queues built without a
    limit (LB, locality, bare unit-test queues) skip that machinery
    entirely and behave like a plain indexed FIFO.
    """

    def __init__(self, o3_limit: int | None = None, *, track_tenants: bool = False) -> None:
        self._o3_limit = o3_limit
        self._entries: list[_Entry | None] = []  # slot-ordered; None = removed
        self._keys: list[tuple[float, int]] = []  # parallel keys (kept for holes)
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
        self._starved_dead = 0
        self._version = 0  # bumped whenever slots are renumbered
        # tenant-admissibility index (§VI isolation fast path): live entry
        # count and queued model-size histogram per tenant, so a
        # TenancyController can answer "can any admission check refuse a
        # queued request this pass?" without scanning the queue.  Off by
        # default — the Scheduler enables it when a controller is installed.
        self._track_tenants = track_tenants
        self._tenant_live: dict[str, int] = {}
        self._tenant_sizes: dict[str, dict[float, int]] = {}  # tenant -> {mb: count}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def o3_limit(self) -> int | None:
        """The starvation limit this queue's lazy visit tracking assumes."""
        return self._o3_limit

    @property
    def tracks_visits(self) -> bool:
        """Whether lazy O3-visit accounting is active (LALB fast path)."""
        return self._o3_limit is not None

    @property
    def starved_count(self) -> int:
        """Live requests past the O3 limit (the starvation/O3 signal).

        O(1): the starved list and its dead count are both maintained
        incrementally.  The LALB fast scan consults this before walking
        the starved set at all — zero (the overwhelmingly common state)
        elides the whole Alg. 1 line-11 sweep.
        """
        return len(self._starved) - self._starved_dead

    def scan_span(self) -> int:
        """Upper bound on the slots a live in-order walk must visit.

        This is the queue-length signal the first-scan strategy pick
        consults: when the span undercuts the number of models resident
        on the GPU, walking the queue beats one index probe per resident
        model.  Counts holes after the head cursor, so it bounds the true
        cost of :meth:`first_entry_matching`, not just the live count.
        """
        return len(self._entries) - self._head

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
        visited.  Safe against concurrent removals (the scheduling passes
        remove the request they just visited); survives a re-index by
        re-finding its position from the last yielded key.
        """
        i = self._head
        version = self._version
        last_key: tuple[float, int] | None = None
        while True:
            if version != self._version:  # slots were renumbered underneath us
                version = self._version
                i = 0 if last_key is None else bisect_right(self._keys, last_key)
                continue
            if i >= len(self._entries):
                return
            entry = self._entries[i]
            i += 1
            if entry is None:
                continue
            last_key = entry.key
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
        self._keys.append(entry.key)
        self._by_id[request.request_id] = entry
        model_id = entry.model_id
        bucket = self._buckets.get(model_id)
        if bucket is None:  # avoid minting a throwaway deque per push
            bucket = self._buckets[model_id] = deque()
        bucket.append(entry)
        self._model_live[model_id] = self._model_live.get(model_id, 0) + 1
        self._live += 1
        if self._track_tenants:
            self._tenant_add(request)
        if self._o3_limit is not None:
            self._attach_visits(entry)

    def push_sorted(self, request: InferenceRequest) -> None:
        """Insert by arrival time (for re-queued requests after a failure).

        Normal submissions arrive in time order so plain ``push`` keeps the
        queue sorted; a request returned to the queue (GPU failure, §VI
        fault handling) is older than the tail, so it is re-inserted at its
        arrival-time position to preserve the paper's "sorted by arrival
        times" invariant.  The position is found by O(log n) bisection and
        the model index is updated with a single positional insert rather
        than the old clear-and-rebuild of every index.  The entry array is
        still compacted and the skip counts settled on this path — an O(n)
        splice with small constants, acceptable because failures are rare.
        """
        if request.request_id in self._by_id:
            raise ValueError(f"request {request.request_id} already queued")
        # settle: position == insertion index, and the bump counter is
        # empty, so the slots past the insert may shift under it
        self._reindex()
        key = (request.arrival_time, next(self._seq))
        pos = bisect_left(self._keys, key)
        if pos == len(self._entries):
            self.push(request)  # newest arrival after all queued ones
            return
        entry = _Entry(request, key, pos)
        self._entries.insert(pos, entry)
        self._keys.insert(pos, key)
        for i in range(pos + 1, len(self._entries)):
            self._entries[i].slot = i  # type: ignore[union-attr]  # all alive post-reindex
        self._version += 1
        self._by_id[request.request_id] = entry
        self._bucket_insert(entry)
        model_id = entry.model_id
        self._model_live[model_id] = self._model_live.get(model_id, 0) + 1
        self._live += 1
        if self._track_tenants:
            self._tenant_add(request)
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
            # fold the skip count into the request's eager ``visits``
            visits = entry.visits_at_entry
            if entry.starved:
                self._starved_dead += 1
            elif entry.attached:
                # one read: the counter holds nothing per entry to undo
                visits += self._counter.cover(entry.slot) - entry.cov0
                self._attached -= 1
            else:
                self._pending_leaves.remove(entry)
            request._visits = visits
            probe = request._queue_probe
            if probe is not None and probe[1] is entry:
                request._queue_probe = None
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
        if self._track_tenants:
            self._tenant_remove(request)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def head(self) -> InferenceRequest | None:
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
        bounded by :meth:`scan_span`, so callers choose it exactly when
        the queue is shorter than the GPU's resident-model list and the
        per-model index probes would cost more.  Equivalent to taking the
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

    # ------------------------------------------------------------------
    # Tenant-admissibility index (§VI isolation fast path)
    # ------------------------------------------------------------------
    def _tenant_add(self, request: InferenceRequest) -> None:
        tenant = request.tenant
        self._tenant_live[tenant] = self._tenant_live.get(tenant, 0) + 1
        sizes = self._tenant_sizes.setdefault(tenant, {})
        mb = request.model.occupied_mb
        sizes[mb] = sizes.get(mb, 0) + 1

    def _tenant_remove(self, request: InferenceRequest) -> None:
        tenant = request.tenant
        remaining = self._tenant_live[tenant] - 1
        if remaining:
            self._tenant_live[tenant] = remaining
        else:
            del self._tenant_live[tenant]
        sizes = self._tenant_sizes[tenant]
        mb = request.model.occupied_mb
        count = sizes[mb] - 1
        if count:
            sizes[mb] = count
        else:
            del sizes[mb]
            if not sizes:
                del self._tenant_sizes[tenant]

    def queued_tenants(self):
        """Tenants with live queued requests, or None when untracked.

        ``None`` (tracking disabled) makes admission probes fail safe: a
        policy that cannot see the tenant mix must use the reference scans.
        """
        if not self._track_tenants:
            return None
        return self._tenant_live.keys()

    def max_queued_model_mb(self, tenant: str) -> float:
        """Largest model size any of ``tenant``'s queued requests needs.

        The conservative per-pass admission probe multiplies this by the
        number of possible dispatches to bound the tenant's worst-case
        memory growth within one scheduling pass.
        """
        sizes = self._tenant_sizes.get(tenant)
        return max(sizes) if sizes else 0.0

    # ------------------------------------------------------------------
    # O3 visit accounting (Alg. 1 lines 11/15, done lazily)
    # ------------------------------------------------------------------
    def starved_entries_before(self, stop_slot: int | None) -> list[_Entry]:
        """Live starved entries with slot < ``stop_slot``, oldest first.

        These are the requests Alg. 1 line 11 must force through Algorithm
        2 before the scan may dispatch its cache hit at ``stop_slot``.
        """
        starved = self._starved
        if self._starved_dead * 2 > len(starved):
            self._starved = starved = [e for e in starved if e.alive]
            self._starved_dead = 0
        out = []
        for entry in starved:
            if stop_slot is not None and entry.slot >= stop_slot:
                break
            if entry.alive:
                out.append(entry)
        return out

    def bump_visits_before(self, stop_slot: int | None) -> None:
        """Count one more skip for every live request before ``stop_slot``.

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
        ones are dropped the first time a scan passes them).
        """
        limit = self._o3_limit
        if limit is None:
            raise RuntimeError("queue does not track O3 visits (no o3_limit)")
        r = len(self._entries) if stop_slot is None else stop_slot
        if r <= 0:
            return
        starved_now = False
        for entry in self._pending_leaves:
            if entry.slot >= r:
                break
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
        irregular = self._irregular
        if irregular and irregular[0].slot < r:
            dropped = False
            for entry in irregular:
                if entry.slot >= r:
                    break
                if not entry.alive or entry.starved:
                    dropped = True
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

    def _starve(self, entry: _Entry) -> None:
        if entry.attached:
            self._attached -= 1
        entry.starved = True
        insort(self._starved, entry, key=_entry_slot)

    def _attach_visits(self, entry: _Entry) -> None:
        request = entry.request
        visits = entry.visits_at_entry = request._visits
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
        # the request reads/writes its live visit count through this pair
        request._queue_probe = (self, entry)

    def _entry_visits(self, entry: _Entry) -> int:
        if entry.starved or not entry.attached:
            return entry.visits_at_entry
        return entry.visits_at_entry + self._counter.cover(entry.slot) - entry.cov0

    def _entry_set_visits(self, entry: _Entry, value: int) -> None:
        # Direct writes (the reference scan's `request.visits += 1`) re-base
        # the accounting: the baseline takes the new value, and the entry's
        # count stops following from its position, so a later fast scan
        # sees exactly the state an all-lazy history would have produced
        # (including crossing into the starved set).
        entry.visits_at_entry = value
        if entry.starved:
            return
        if value > self._o3_limit:  # type: ignore[operator]
            if not entry.attached:
                self._pending_leaves.remove(entry)
            self._starve(entry)
        elif entry.attached:
            entry.cov0 = self._counter.cover(entry.slot)
            if entry.regular:
                insort(self._irregular, entry, key=_entry_slot)
        entry.regular = False

    # ------------------------------------------------------------------
    # Re-indexing (hole compaction / counter growth / positional insert)
    # ------------------------------------------------------------------
    def _reindex(self) -> None:
        """Drop holes, renumber slots 0..live-1, rebuild keys; the skip
        counts settle into the entries and the bump counter starts empty."""
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
        self._keys = [e.key for e in alive]
        self._head = 0
        self._version += 1
        if self._starved_dead:
            self._starved = [e for e in self._starved if e.alive]
            self._starved_dead = 0
        if self._counter is not None:
            self._chain_from = 0
            if self._irregular:
                self._irregular = [e for e in self._irregular if e.alive and not e.starved]
            need = max(64, 2 * (self._live + 1))
            self._counter = _BumpCounter(1 << (need - 1).bit_length())


class LocalQueues:
    """Per-GPU FIFO queues of requests bound to busy GPUs (Alg. 2 line 12).

    Observers (the finish-time estimator) subscribe to push/pop so they can
    maintain running per-GPU cost sums instead of re-walking a queue per
    estimate; hooks fire *after* the queue mutates, so an observer reading
    :meth:`length` sees the post-mutation state.
    """

    def __init__(self) -> None:
        self._queues: dict[str, deque[InferenceRequest]] = {}
        self._total = 0
        #: gpu_ids whose queue is non-empty (the local-work dirty signal:
        #: maintained on the 0↔1 length transitions, read by the pass
        #: guards without walking any queue)
        self._nonempty: set[str] = set()
        # fn(gpu_id, request, added): added=True on push, False on pop
        self._observers: list[Callable[[str, InferenceRequest, bool], None]] = []

    def subscribe(self, fn: Callable[[str, InferenceRequest, bool], None]) -> None:
        """Register a push/pop observer: ``fn(gpu_id, request, added)``."""
        self._observers.append(fn)

    def push(self, gpu_id: str, request: InferenceRequest) -> None:
        request.state = RequestState.LOCAL_QUEUED
        q = self._queues.get(gpu_id)
        if q is None:  # avoid minting a throwaway deque per push
            q = self._queues[gpu_id] = deque()
        if not q:
            self._nonempty.add(gpu_id)
        q.append(request)
        self._total += 1
        for fn in self._observers:
            fn(gpu_id, request, True)

    def pop(self, gpu_id: str) -> InferenceRequest:
        q = self._queues.get(gpu_id)
        if not q:
            raise IndexError(f"local queue of {gpu_id} is empty")
        self._total -= 1
        request = q.popleft()
        if not q:
            self._nonempty.discard(gpu_id)
        for fn in self._observers:
            fn(gpu_id, request, False)
        return request

    def peek(self, gpu_id: str) -> InferenceRequest | None:
        q = self._queues.get(gpu_id)
        return q[0] if q else None

    def length(self, gpu_id: str) -> int:
        return len(self._queues.get(gpu_id, ()))

    def requests(self, gpu_id: str) -> list[InferenceRequest]:
        return list(self._queues.get(gpu_id, ()))

    def total(self) -> int:
        return self._total

    def nonempty_gpu_ids(self) -> set[str]:
        """GPUs with queued local work (live set — do not mutate).

        O(1): maintained on the 0↔1 length transitions.  This is the
        local-queue dirty signal the pass guards join with the cluster's
        idle flags.
        """
        return self._nonempty

    def non_empty_gpus(self) -> list[str]:
        return [g for g, q in self._queues.items() if q]
