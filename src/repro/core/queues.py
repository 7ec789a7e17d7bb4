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
  ``_MAX_PENDING_LEAVES - 1`` of them: on a shallow queue, all of them)
  and as one lazy prefix update on a segment tree for the entries that
  outlived that cap, with per-request values materialized on demand;
* an ordered *starved* set — requests whose visits exceeded the O3 limit
  surface by index (Alg. 1 line 11) instead of being rediscovered by
  rescanning the queue;
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

#: Sentinel "remaining skips before starvation" for slots that must never
#: surface from the starvation search (empty, removed, or already-starved).
_INF = 1 << 60

#: unattached-tail cap: the newest entries count their skips eagerly and
#: move to the visit tree together once this many have accumulated, so a
#: scan walks fewer than this many entries whatever the queue depth
_MAX_PENDING_LEAVES = 32


def _entry_slot(entry: "_Entry") -> int:
    return entry.slot


class _VisitTree:
    """Min segment tree with lazy prefix-add over queue slots.

    Each leaf holds a queued request's *remaining skip budget*: how many
    more times the O3 scan may pass it over before the starvation guard
    (Alg. 1 line 11) must route it through Algorithm 2.  One scheduling
    scan decrements a whole queue prefix in O(log n); leaves that reach
    zero are popped into the queue's ordered starved set.
    """

    __slots__ = ("size", "_mn", "_lz")

    def __init__(self, size: int, leaves: list[int] | None = None) -> None:
        self.size = size
        self._mn = [_INF] * (2 * size)
        self._lz = [0] * (2 * size)
        if leaves:
            mn = self._mn
            mn[size : size + len(leaves)] = leaves
            for i in range(size - 1, 0, -1):
                left, right = mn[2 * i], mn[2 * i + 1]
                mn[i] = left if left <= right else right

    # -- point access ----------------------------------------------------
    def point_get(self, i: int) -> int:
        node = i + self.size
        lz = self._lz
        total = self._mn[node]
        node >>= 1
        while node:
            total += lz[node]
            node >>= 1
        return total

    def point_set(self, i: int, value: int) -> None:
        mn, lz, size = self._mn, self._lz, self.size
        node = i + size
        # push pending adds down the root→leaf path so the leaf write and
        # the pull-up below see settled values
        for shift in range(node.bit_length() - 1, 0, -1):
            anc = node >> shift
            add = lz[anc]
            if add:
                lz[anc] = 0
                for child in (2 * anc, 2 * anc + 1):
                    mn[child] += add
                    if child < size:
                        lz[child] += add
        mn[node] = value
        node >>= 1
        while node:
            left, right = mn[2 * node], mn[2 * node + 1]
            m = (left if left <= right else right) + lz[node]
            if mn[node] == m:
                break  # ancestors derive from this value: nothing changes
            mn[node] = m
            node >>= 1

    # -- prefix update / starvation search -------------------------------
    def prefix_add(self, r: int, delta: int) -> None:
        """Add ``delta`` to every leaf in ``[0, r)``.

        Iterative: a prefix decomposes into full-cover nodes along the
        single root→``r`` boundary path, so the update is a loop of at
        most ``log₂(size)`` steps with no recursion — this runs once per
        scheduling scan (Alg. 1 line 15 for the whole scan), so the call
        overhead of the recursive form was measurable.
        """
        size = self.size
        if r <= 0:
            return
        mn, lz = self._mn, self._lz
        if r >= size:
            mn[1] += delta
            lz[1] += delta
            return
        node, lo, hi = 1, 0, size
        path = []
        while True:
            if r >= hi:
                mn[node] += delta
                if node < size:
                    lz[node] += delta
                break
            path.append(node)
            mid = (lo + hi) >> 1
            if r <= mid:
                node, hi = 2 * node, mid
            else:
                left = 2 * node
                mn[left] += delta
                if left < size:
                    lz[left] += delta
                node, lo = left + 1, mid
        for n in reversed(path):
            left, right = mn[2 * n], mn[2 * n + 1]
            mn[n] = (left if left <= right else right) + lz[n]

    def first_depleted(self, r: int) -> int | None:
        """Leftmost leaf in ``[0, r)`` whose value is ≤ 0, or None."""
        return self._find(1, 0, self.size, r, 0)

    def _find(self, node: int, lo: int, hi: int, r: int, acc: int) -> int | None:
        if lo >= r or self._mn[node] + acc > 0:
            return None
        if node >= self.size:
            return node - self.size
        acc += self._lz[node]
        mid = (lo + hi) // 2
        found = self._find(2 * node, lo, mid, r, acc)
        if found is not None:
            return found
        return self._find(2 * node + 1, mid, hi, r, acc)

    def values(self, n: int) -> list[int]:
        """True values of the first ``n`` leaves (for rebuilds)."""
        out: list[int] = []
        self._collect(1, 0, self.size, n, 0, out)
        return out

    def _collect(self, node: int, lo: int, hi: int, n: int, acc: int, out: list[int]) -> None:
        if lo >= n:
            return
        if node >= self.size:
            out.append(self._mn[node] + acc)
            return
        acc += self._lz[node]
        mid = (lo + hi) // 2
        self._collect(2 * node, lo, mid, n, acc, out)
        self._collect(2 * node + 1, mid, hi, n, acc, out)


class _Entry:
    """One queued request plus its position and lazy O3-visit state."""

    __slots__ = (
        "request", "model_id", "key", "slot", "alive", "starved",
        "visits_at_entry", "rem0", "leaf_applied",
    )

    def __init__(self, request: InferenceRequest, key: tuple[float, int], slot: int) -> None:
        self.request = request
        self.model_id = request.model_id  # the bucket this entry is filed under
        self.key = key  # (arrival_time, push sequence): total queue order
        self.slot = slot  # index into the queue's entry array
        self.alive = True
        self.starved = False
        #: visit count as of the last settle; an attached entry's live
        #: value adds the lazy prefix bumps that covered its slot since
        self.visits_at_entry = 0
        #: remaining skip budget as of the last settle
        self.rem0 = 0
        #: whether the visit tree holds this entry's budget.  False while
        #: the entry sits in the queue's unattached tail, where each
        #: covering scan updates ``visits_at_entry`` / ``rem0`` in place —
        #: both are then exact, and a request pushed and dispatched on a
        #: shallow queue never touches the tree at all.
        self.leaf_applied = False


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
        self._tree = _VisitTree(64) if o3_limit is not None else None
        #: the unattached tail: exactly the live, non-starved entries the
        #: tree does not hold, in slot order (fewer than the cap)
        self._pending_leaves: list[_Entry] = []
        #: live, non-starved entries the tree holds; the tree is read and
        #: written only while this is non-zero
        self._attached = 0
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
        tree = self._tree
        if tree is not None and slot >= tree.size:
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
        still compacted and the visit tree re-based on this path — an O(n)
        splice with small constants, acceptable because failures are rare.
        """
        if request.request_id in self._by_id:
            raise ValueError(f"request {request.request_id} already queued")
        self._reindex()  # settle slots so position == insertion index
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
            self._attach_visits(entry)
            # the new entry may sit ahead of older unattached ones
            self._pending_leaves.sort(key=_entry_slot)
            if self._attached:
                self._rebuild_tree()  # every leaf past pos moved up a slot

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
            request._visits = self._entry_visits(entry)
            if entry.starved:
                self._starved_dead += 1
            elif entry.leaf_applied:
                # park the live countdown so the starvation search never
                # surfaces the slot (starved leaves already sit at infinity)
                self._tree.point_set(entry.slot, _INF)
                self._attached -= 1
            else:
                self._pending_leaves.remove(entry)
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
        entries that outlived it by one prefix update on the visit tree.
        Requests whose skip budget reaches zero move to the starved set
        (their ``visits`` freeze at limit+1, since starved requests are
        never skipped again — Alg. 1 line 11 routes them instead).
        """
        if self._o3_limit is None:
            raise RuntimeError("queue does not track O3 visits (no o3_limit)")
        r = len(self._entries) if stop_slot is None else stop_slot
        if r <= 0:
            return
        starved_now = False
        for entry in self._pending_leaves:
            if entry.slot >= r:
                break
            entry.visits_at_entry += 1
            entry.rem0 -= 1
            if not entry.rem0:
                entry.starved = starved_now = True
                insort(self._starved, entry, key=_entry_slot)
        if starved_now:
            self._pending_leaves = [e for e in self._pending_leaves if not e.starved]
        if not self._attached:
            return
        tree = self._tree
        tree.prefix_add(r, -1)
        while (slot := tree.first_depleted(r)) is not None:
            entry = self._entries[slot]
            assert entry is not None and not entry.starved
            entry.visits_at_entry += entry.rem0  # freeze at limit + 1
            entry.starved = True
            tree.point_set(slot, _INF)
            self._attached -= 1
            insort(self._starved, entry, key=_entry_slot)

    def _attach_visits(self, entry: _Entry) -> None:
        request = entry.request
        entry.visits_at_entry = request._visits
        need = self._o3_limit + 1 - entry.visits_at_entry  # type: ignore[operator]
        if need <= 0:
            # re-queued with its starvation already earned (fairness:
            # resubmit preserves visits) — surface it immediately
            entry.starved = True
            insort(self._starved, entry, key=_entry_slot)
        else:
            entry.rem0 = need
            pending = self._pending_leaves
            pending.append(entry)
            if len(pending) >= _MAX_PENDING_LEAVES:
                # the tail outlived the cap (a backlog is building): hand
                # it to the tree, so no scan ever walks more than a
                # constant number of entries — §VI's per-pass bound must
                # not degrade to O(pushes since the last dispatch)
                tree = self._tree
                for e in pending:
                    tree.point_set(e.slot, e.rem0)  # type: ignore[union-attr]
                    e.leaf_applied = True
                self._attached += len(pending)
                self._pending_leaves = []
        # the request reads/writes its live visit count through this pair
        request._queue_probe = (self, entry)

    def _entry_visits(self, entry: _Entry) -> int:
        if entry.starved or not entry.leaf_applied:
            return entry.visits_at_entry
        return entry.visits_at_entry + (entry.rem0 - self._tree.point_get(entry.slot))

    def _entry_set_visits(self, entry: _Entry, value: int) -> None:
        # Direct writes (the reference scan's `request.visits += 1`) re-base
        # the accounting: the baseline takes the new value and the skip
        # budget (the tree leaf, for an attached entry) is reset to match,
        # so a later fast scan sees exactly the state an all-lazy history
        # would have produced (including crossing into the starved set).
        entry.visits_at_entry = value
        if entry.starved:
            return
        remaining = self._o3_limit + 1 - value  # type: ignore[operator]
        if remaining > 0:
            entry.rem0 = remaining
            if entry.leaf_applied:
                self._tree.point_set(entry.slot, remaining)
            return
        entry.starved = True
        if entry.leaf_applied:
            self._tree.point_set(entry.slot, _INF)
            self._attached -= 1
        else:
            self._pending_leaves.remove(entry)
        insort(self._starved, entry, key=_entry_slot)

    # ------------------------------------------------------------------
    # Re-indexing (hole compaction / tree growth / positional insert)
    # ------------------------------------------------------------------
    def _reindex(self) -> None:
        """Drop holes, renumber slots 0..live-1, rebuild keys and tree."""
        if self._attached:
            # settle: fold the tree's countdowns into the attached entries
            values = self._tree.values(len(self._entries))
            for entry in self._entries:
                if entry is not None and not entry.starved and entry.leaf_applied:
                    rem = values[entry.slot]
                    entry.visits_at_entry += entry.rem0 - rem
                    entry.rem0 = rem
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
        if self._tree is not None:
            self._rebuild_tree()

    def _rebuild_tree(self) -> None:
        """A tree sized for the live entries, holding the (settled)
        budgets of the attached ones; the unattached tail stays out."""
        need = max(64, 2 * (self._live + 1))
        cap = 1 << (need - 1).bit_length()
        leaves = None
        if self._attached:
            leaves = [
                e.rem0 if e is not None and e.leaf_applied and not e.starved else _INF
                for e in self._entries
            ]
        self._tree = _VisitTree(cap, leaves)


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
