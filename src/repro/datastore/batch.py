"""The control plane's batched write path: :class:`WriteBatch`.

Every scheduling action in the paper's control plane touches several
Datastore keys — an LRU list, a model's locations, the GPU's status and
estimated finish time, a latency record.  Issued as individual ``put``
calls each one bumps the MVCC revision; real etcd clients instead batch
related mutations into one transaction.

A :class:`WriteBatch` accumulates those ``put(key, value)`` /
``delete(key)`` calls and commits them as **one atomic transaction → one
revision**, last-write-wins per key: the value is captured at call time
and repeated writes to one key keep only the last.

Ephemeral keys accumulate and coalesce exactly like durable keys.  They
differ at the commit: :meth:`WriteBatch.flush` applies them to the
store's live view in line, storing (or dropping) one exact-tuple row per
ephemeral key and nothing else (no history, no snapshot of the batch);
durable keys go through ``KVStore._apply_put`` / ``_apply_delete``.  A
lease carried by a put (the health watchdog's) attaches to its key once
the commit has a revision.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter_ns
from typing import TYPE_CHECKING, Any

from .kv import BatchCommit, KVStore, _tuple_new

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .lease import Lease

__all__ = ["WriteBatch", "WriteStats"]

_PUT = "put"
_DEL = "delete"
#: shared singleton delete op — one commit may carry many deletes and the
#: coalesced map needs no per-entry state for them
_DELETE_OP = (_DEL,)


@dataclass
class WriteStats:
    """Write-amplification counters for the control-plane write path.

    ``logical_writes`` counts every ``put``/``delete`` — what the
    components *asked* for.  ``flushes``, ``committed_keys``, and
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


class WriteBatch:
    """Accumulates puts/deletes; :meth:`flush` commits them as one txn."""

    #: optional flight recorder (installed by the runtime when tracing is
    #: on); a class attribute so every flush pays one attribute
    #: load + identity test and no per-instance slot
    _tracer = None

    def __init__(self, store: KVStore) -> None:
        self._store = store
        # key -> ("put", value, fresh) | ("delete",) in first-touch order.
        # ``fresh`` marks a put that landed over a pending delete: the
        # store recreates the key (version 1), just as the sequential
        # delete-then-put would have.  It is filled in at flush time from
        # ``_deleted``, so a write never reads the entry it replaces.
        #
        # The dict object is stable for the batch's lifetime (flush drains
        # it in place): the Datastore's per-event safety-net hook closes
        # over it so the no-op path is a single truthiness test.
        self._pending: dict[str, tuple] = {}
        #: keys deleted since the last flush (rare: function CRUD and a
        #: model's last copy leaving the cache)
        self._deleted: set[str] = set()
        #: keys whose latest put carried a lease (rare: only lease users
        #: pay for it; the empty-dict truthiness test on the lease-less
        #: path is one attribute load)
        self._leases: dict[str, "Lease"] = {}
        #: what was asked for and what was committed; a Datastore shares
        #: this object as its ``stats``
        self.stats = WriteStats()
        #: ``stats.logical_writes`` as of the last flush
        self._flushed_writes = 0

    # ------------------------------------------------------------------
    # Accumulation: a store into the pending map and a count, nothing read
    # back — these run several times per scheduling action, and a batched
    # Datastore binds them as its own ``put`` / ``delete``
    # ------------------------------------------------------------------
    def put(self, key: str, value: Any, *, lease: "Lease | None" = None) -> None:
        """Record a put; overwrites any pending entry for ``key``."""
        self.stats.logical_writes += 1
        self._pending[key] = (_PUT, value, False)
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
    # Commit
    # ------------------------------------------------------------------
    def flush(self) -> BatchCommit:
        """Commit every pending entry as one atomic transaction.

        The entries are applied to the store's live view right here, and
        leases attach to their committed keys before the pending set is
        cleared.
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
        if self._deleted:
            for key in self._deleted:
                entry = pending[key]
                if entry is not _DELETE_OP:  # written again after the delete
                    pending[key] = (_PUT, entry[1], True)
            self._deleted.clear()
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
                if eph and key.startswith(eph):  # _apply_delete's lane, in line
                    del live[key]
                    store._sorted_keys = None
                    eph_count += 1
                else:
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
                    if lease.alive:
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
