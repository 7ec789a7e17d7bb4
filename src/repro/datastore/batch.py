"""The control plane's batched write path: :class:`WriteBatch`.

Every scheduling action in the paper's control plane touches several
Datastore keys — an LRU list, a model's locations, the GPU's status and
estimated finish time, a latency record.  Issued as individual ``put``
calls each one bumps the MVCC revision; real etcd clients instead batch
related mutations into one transaction.

A :class:`WriteBatch` accumulates those dirty keys and commits them as
**one atomic transaction → one revision**, last-write-wins per key.  Two
kinds of entry exist:

* ``put(key, value)`` / ``delete(key)`` — eager: the value is captured at
  call time (repeated writes to one key keep only the last);
* ``put_lazy(key, thunk)`` — a *dirty-key* entry: only the key is marked
  dirty and ``thunk()`` is evaluated once at flush time.  This is how the
  Cache Manager mirrors LRU lists — ten touches between flushes serialize
  the eviction order once, not ten times.  A thunk may return
  :data:`DELETE` to turn the entry into a delete (e.g. a model's location
  list becoming empty).

The batch also answers overlay reads (:meth:`peek`) so a batched
:class:`~repro.datastore.client.DatastoreClient` keeps read-your-writes
semantics between flushes.

Ephemeral keys accumulate, coalesce and overlay exactly like durable keys.
They differ at the commit: :meth:`WriteBatch.flush` applies them to the
store's live view in line, storing one exact-tuple row per ephemeral key
and nothing else (no history, no snapshot of the batch); durable keys go
through ``KVStore._apply_put``.  A lease carried by a put (the health
watchdog's) attaches to its key once the commit has a revision.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter_ns
from typing import TYPE_CHECKING, Any, Callable, Iterator

from .kv import BatchCommit, KVStore, _tuple_new

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .lease import Lease

__all__ = ["DELETE", "WriteBatch", "WriteStats"]


class _Delete:
    """Sentinel a lazy thunk returns to request deletion of its key."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<DELETE>"


DELETE = _Delete()

_PUT = "put"
_LAZY = "lazy"
_DEL = "delete"
#: shared singleton delete op — one commit may carry many deletes and the
#: coalesced map needs no per-entry state for them
_DELETE_OP = (_DEL,)


@dataclass
class WriteStats:
    """Write-amplification counters for the control-plane write path.

    ``logical_writes`` counts every ``put``/``put_lazy``/``delete`` — what
    the components *asked* for.  ``flushes``, ``committed_keys``, and
    ``coalesced_writes`` describe the batched path only (they stay 0 on a
    write-through ``Datastore()``, where every logical write commits
    individually and the revision counter tracks the logical stream).
    Revisions come from ``kv.revision``; ``writes-per-revision`` (logical /
    revisions) is the amplification the batched path removes.
    """

    logical_writes: int = 0
    flushes: int = 0
    committed_keys: int = 0
    coalesced_writes: int = 0  # logical writes absorbed by LWW

    def as_dict(self) -> dict[str, int]:
        return {
            "logical_writes": self.logical_writes,
            "flushes": self.flushes,
            "committed_keys": self.committed_keys,
            "coalesced_writes": self.coalesced_writes,
        }


class WriteBatch:
    """Accumulates puts/deletes; :meth:`flush` commits them as one txn."""

    #: optional flight recorder (installed by the runtime when tracing is
    #: on); a class attribute so every flush pays one attribute
    #: load + identity test and no per-instance slot
    _tracer = None

    def __init__(self, store: KVStore) -> None:
        self._store = store
        # key -> ("put", value, fresh) | ("lazy", thunk, fresh) | ("delete",)
        # in first-touch order.  ``fresh`` marks a put that landed over a
        # pending delete: the store recreates the key (version 1), just as
        # the sequential delete-then-put would have.  It is filled in at
        # flush time from ``_deleted``, so a write never reads the entry
        # it replaces.
        #
        # The dict object is stable for the batch's lifetime (flush drains
        # it in place): the Datastore's per-event safety-net hook closes
        # over it so the no-op path is a single truthiness test.
        self._pending: dict[str, tuple] = {}
        #: keys deleted since the last flush (rare: function CRUD and the
        #: latency-log window)
        self._deleted: set[str] = set()
        #: keys whose latest put/put_lazy carried a lease (rare: only lease
        #: users pay for it; the empty-dict truthiness test on the lease-less
        #: path is one attribute load)
        self._leases: dict[str, "Lease"] = {}
        #: whether anything was marked lazy since the last flush, so a
        #: flush with none skips the thunk-resolution pass entirely
        self._lazy = False
        #: what was asked for and what was committed; a Datastore shares
        #: this object as its ``stats``
        self.stats = WriteStats()
        #: ``stats.logical_writes`` as of the last flush
        self._flushed_writes = 0

    @property
    def pending_map(self) -> dict:
        """The live pending dict (stable identity; treat as read-only)."""
        return self._pending

    @property
    def overwritten(self) -> int:
        """Writes of the open batch absorbed by last-write-wins so far —
        each one is a revision bump the batch removed."""
        return self.stats.logical_writes - self._flushed_writes - len(self._pending)

    # ------------------------------------------------------------------
    # Accumulation: a store into the pending map and a count, nothing read
    # back — these run several times per scheduling action, and a root
    # client of a batched Datastore binds them as its own ``put`` /
    # ``put_lazy``
    # ------------------------------------------------------------------
    def put(self, key: str, value: Any, *, lease: "Lease | None" = None) -> None:
        """Record a put; overwrites any pending entry for ``key``."""
        self.stats.logical_writes += 1
        self._pending[key] = (_PUT, value, False)
        if lease is not None:
            self._leases[key] = lease
        elif self._leases:
            self._leases.pop(key, None)

    def put_lazy(
        self, key: str, thunk: Callable[[], Any], *, lease: "Lease | None" = None
    ) -> None:
        """Mark ``key`` dirty; ``thunk()`` supplies the value at flush time
        (or :data:`DELETE` to delete the key instead)."""
        self.stats.logical_writes += 1
        self._lazy = True
        self._pending[key] = (_LAZY, thunk, False)
        if lease is not None:
            self._leases[key] = lease
        elif self._leases:
            self._leases.pop(key, None)

    def delete(self, key: str) -> None:
        """Record a delete; overwrites any pending entry for ``key``."""
        self.stats.logical_writes += 1
        self._pending[key] = _DELETE_OP
        self._deleted.add(key)
        if self._leases:
            self._leases.pop(key, None)

    # ------------------------------------------------------------------
    # Overlay reads (read-your-writes between flushes)
    # ------------------------------------------------------------------
    def peek(self, key: str) -> tuple[str, Any] | None:
        """Pending state of ``key``: ``("put", value)``, ``("delete",
        None)``, or None when the batch does not touch it.  Lazy thunks are
        evaluated fresh — they reflect the live component state that would
        be committed if the flush happened now."""
        entry = self._pending.get(key)
        if entry is None:
            return None
        kind = entry[0]
        if kind is _LAZY:
            value = entry[1]()
            return (_DEL, None) if value is DELETE else (_PUT, value)
        if kind is _PUT:
            return (_PUT, entry[1])
        return (_DEL, None)

    def pending_items(self) -> Iterator[tuple[str, str, Any]]:
        """Iterate ``(key, kind, value)`` of every pending entry (lazy
        thunks evaluated), for range-overlay reads."""
        for key in list(self._pending):
            resolved = self.peek(key)
            if resolved is not None:
                yield key, resolved[0], resolved[1]

    def __len__(self) -> int:
        return len(self._pending)

    def __bool__(self) -> bool:
        return bool(self._pending)

    def __contains__(self, key: str) -> bool:
        return key in self._pending

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------
    def flush(self) -> BatchCommit:
        """Commit every pending entry as one atomic transaction.

        Lazy thunks are resolved now, the entries are applied to the
        store's live view right here, and leases attach to their
        committed keys before the pending set is cleared.  (Thunks are
        value *serializers*: they must not write back into the batch —
        they run while the pending map is being drained in place.)
        """
        pending = self._pending
        if not pending:
            return BatchCommit(revision=None, count=0)
        tracer = self._tracer
        t0 = 0
        if tracer is not None:
            # count every commit; clock-probe only the stride-sampled
            # ones (t0 stays 0 otherwise — perf_counter_ns is never 0)
            state = tracer._c_state
            n = state[2] + 1
            state[2] = n
            if not n % tracer.span_stride:
                t0 = perf_counter_ns()
        stats = self.stats
        stats.coalesced_writes += stats.logical_writes - self._flushed_writes - len(pending)
        self._flushed_writes = stats.logical_writes
        # after the two passes below every entry has the coalesced
        # {key: op} shape the store consumes (value reassignment on an
        # existing key never resizes the dict, so iterating while storing
        # is safe)
        if self._deleted:
            for key in self._deleted:
                entry = pending[key]
                if entry is not _DELETE_OP:  # written again after the delete
                    pending[key] = (entry[0], entry[1], True)
            self._deleted.clear()
        if self._lazy:
            for key, entry in pending.items():
                if entry[0] is _LAZY:
                    value = entry[1]()
                    pending[key] = (
                        _DELETE_OP if value is DELETE else (_PUT, value, entry[2])
                    )
            self._lazy = False
        # nothing can run between these stores, so the revision is claimed
        # up front and handed back if no entry turns out to be effective
        # (deletes of missing keys)
        store = self._store
        live = store._live
        eph = store._ephemeral
        revision = store._revision = store._revision + 1
        count = eph_count = 0
        for key, entry in pending.items():
            if entry[0] is _PUT:
                if eph and key.startswith(eph):
                    # KVStore._apply_put's ephemeral lane, in line: the
                    # control plane commits 2-3 of these per action
                    if key not in live:
                        store._sorted_keys = None
                    live[key] = (key, entry[1], revision, revision, 1)
                    eph_count += 1
                else:
                    store._apply_put(key, entry[1], fresh=entry[2])
            elif key in live:
                store._apply_delete(key)
            else:
                continue
            count += 1
        store.ephemeral_writes += eph_count
        if not count:
            store._revision -= 1
            revision = None
        leases = self._leases
        if leases:
            if revision is not None:
                for key, lease in leases.items():
                    # a lazy entry whose thunk returned DELETE keeps its lease
                    # recorded but commits as a delete — never attach for those
                    if lease.alive and pending[key][0] is _PUT:
                        lease.attach(key)
            leases.clear()
        pending.clear()
        commit = _tuple_new(BatchCommit, (revision, count))
        if commit.revision is not None:
            stats.flushes += 1
            stats.committed_keys += commit.count
        if t0:
            # write the commit ring in place (the tracer here is always
            # the runtime-installed FlightRecorder; one closure call per
            # commit is measurable at 2k-replay flush rates)
            wall = perf_counter_ns() - t0
            state = tracer._c_state
            buf = tracer._c_buf
            i = state[0]
            b = i * 3
            buf[b] = tracer._sim._now
            buf[b + 1] = wall
            buf[b + 2] = commit.count
            state[1] += 1
            i += 1
            state[0] = 0 if i == tracer.capacity else i
        return commit
