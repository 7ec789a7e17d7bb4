"""Datastore facade and the key schema shared by the FaaS components.

:class:`Datastore` bundles the MVCC store, the lease manager, and —
when built with ``batched=True`` — the control plane's shared
:class:`~repro.datastore.batch.WriteBatch`.  :class:`DatastoreClient` adds
a key-prefix namespace per component.

Key schema (paper §III-E: "The Datastore stores the estimated latency of
each inference request, the LRU list of each GPU, and the status of each
GPU"):

==============================  =======  ====================================
key                             history  value
==============================  =======  ====================================
``gpu/status/<gpu_id>``         none     ``"busy"`` | ``"idle"``
``gpu/finish_time/<gpu_id>``    none     float, absolute estimated finish time
``gpu/lru/<gpu_id>``            none     tuple[str, ...], LRU order (head = coldest)
``cache/locations/<model>``     MVCC     tuple[str, ...], GPUs where the model is resident
``fn/meta/<fn_name>``           MVCC     dict, registered-function metadata
``fn/latency/<request_id>``     none     exact 7-tuple in ``LatencyRecord`` field order (``LatencyRecord(*value)`` names it)
``fn/scale/<fn_name>``          MVCC     int, current replica count
==============================  =======  ====================================

*history* says which tier a key commits through.  ``MVCC`` keys keep full
etcd semantics (per-key history, historical reads, compaction).  ``none``
keys — the prefixes in :data:`EPHEMERAL_HOT_PREFIXES` — are the
blackboard the Scheduler only ever reads live: identical live reads and
read-your-writes, but no MVCC history, so historical reads of them raise
:class:`~repro.datastore.kv.EphemeralKeyError` (see :mod:`.kv`).

Batched write path
------------------
With ``batched=True`` every client ``put``/``delete``/``put_lazy`` lands in
the Datastore's single pending :class:`WriteBatch` instead of committing
immediately.  All writes of one scheduling action — a cache touch, the GPU
status flip, the finish-time estimate, the latency record — then flush as
**one atomic transaction → one revision** (last-write-wins per key).
Flushing happens at the control plane's action boundaries: the
Scheduler's entry points, the Gateway's CRUD/invoke calls, and (as the
safety net covering every other event handler) a simulator post-event
hook.  Client reads overlay the pending batch, so components
keep read-your-writes semantics between flushes.
:class:`~repro.runtime.FaaSCluster` always builds its Datastore batched;
a bare ``Datastore()`` writes through — one revision per put — and is
the write-path specification ``tests/core/test_differential.py`` puts
under the same system.
"""

from __future__ import annotations

from typing import Any, Callable

from ..sim import Simulator
from .batch import DELETE, WriteBatch, WriteStats
from .kv import KeyValue, KVStore
from .lease import Lease, LeaseManager

__all__ = ["Datastore", "DatastoreClient", "WriteStats", "EPHEMERAL_HOT_PREFIXES"]

#: the schema's history-free keys (the ``none`` rows above): written on
#: every dispatch and completion, never read at a historical revision.
#: :class:`~repro.runtime.FaaSCluster` always builds its Datastore with
#: these; a bare ``Datastore``/``KVStore`` keeps full history for every
#: key.  Ordered most-frequently-written first, since the store's
#: membership test (``str.startswith`` over the tuple) probes in order.
EPHEMERAL_HOT_PREFIXES = (
    "gpu/status/", "gpu/finish_time/", "fn/latency/", "gpu/lru/"
)


class Datastore:
    """The system-wide etcd-like store (KV + leases + the write batch)."""

    def __init__(
        self,
        sim: Simulator,
        *,
        batched: bool = False,
        ephemeral_prefixes: tuple[str, ...] = (),
        autocompact_keep: int | None = None,
    ) -> None:
        self.sim = sim
        self.kv = KVStore(ephemeral_prefixes=ephemeral_prefixes)
        self.leases = LeaseManager(sim, self.kv)
        self.batched = batched
        self.pending = WriteBatch(self.kv)
        self.stats: WriteStats = self.pending.stats
        #: sliding-horizon history compaction (etcd ``--auto-compaction``
        #: analogue; None = keep everything): see :meth:`_autocompact`.
        #: Checked where revisions are minted — after each flush — so a
        #: batched replay pays nothing per simulator event for it; a
        #: write-through store, which never flushes, checks after every
        #: event.
        self.autocompact_keep = autocompact_keep
        if batched:
            # The action boundary: whatever writes a simulator event handler
            # issued commit as one transaction once the handler returns.
            # The hook closes over the batch's stable pending dict so the
            # no-op path — most events write nothing — is one truthiness
            # test instead of a flush call that discovers it has no work.
            pending_map = self.pending.pending_map
            flush = self.flush

            def _post_event_flush() -> None:
                if pending_map:
                    flush()

            sim.subscribe_post_event(_post_event_flush)
        elif autocompact_keep is not None:
            sim.subscribe_post_event(self._autocompact)

    def client(self, namespace: str = "") -> "DatastoreClient":
        """A client view under ``namespace`` (empty = root)."""
        return DatastoreClient(self, namespace)

    def flush(self) -> int:
        """Commit the pending write batch; returns keys committed.

        No-op when nothing is pending (a write-through store never has
        anything pending).  The commit is one :meth:`WriteBatch.flush`,
        which also keeps :attr:`stats`.
        """
        pending = self.pending
        if not pending._pending:
            return 0
        committed = pending.flush().count
        if self.autocompact_keep is not None:
            self._autocompact()
        return committed

    def _autocompact(self) -> None:
        """Once more than 2×keep revisions of history have accumulated,
        discard everything below ``revision - keep``.  The hysteresis
        keeps the O(durable keys) compaction walk off the per-commit
        path; compaction never touches live keys, so scheduling decisions
        are unaffected."""
        kv = self.kv
        keep = self.autocompact_keep
        if kv.revision - kv.compacted_revision > 2 * keep:
            kv.compact(kv.revision - keep)


class DatastoreClient:
    """A view of the Datastore under a key prefix (etcd namespacing).

    In batched mode writes accumulate in the shared
    :class:`~repro.datastore.batch.WriteBatch` and reads overlay it
    (read-your-writes); :meth:`flush` commits at an action boundary.
    """

    def __init__(self, store: Datastore, namespace: str = "") -> None:
        if namespace and not namespace.endswith("/"):
            namespace += "/"
        self._store = store
        self.namespace = namespace
        if store.batched and not namespace:
            # nothing to prefix and nothing to commit yet: the batch's own
            # methods are this client's write path (same signatures, one
            # frame per put below the component)
            self.put = store.pending.put
            self.put_lazy = store.pending.put_lazy

    # ------------------------------------------------------------------
    def _k(self, key: str) -> str:
        return self.namespace + key

    def put(self, key: str, value: Any, *, lease: Lease | None = None) -> KeyValue | None:
        """Write a namespaced key (optionally bound to a lease).

        Batched mode defers the write to the next flush and returns None
        (no :class:`KeyValue` exists until the transaction commits).
        """
        store = self._store
        if store.batched:
            store.pending.put(self.namespace + key, value, lease=lease)
            return None
        store.stats.logical_writes += 1
        kv = store.kv.put(self._k(key), value)
        if lease is not None:
            lease.attach(self._k(key))
        return kv

    def put_lazy(
        self, key: str, thunk: Callable[[], Any], *, lease: Lease | None = None
    ) -> None:
        """Mark a namespaced key dirty; ``thunk()`` supplies the value at
        flush time (:data:`~repro.datastore.batch.DELETE` → delete it).

        This is the dirty-key write path: between flushes any number of
        marks serialize the value once.  Unbatched it degenerates to an
        immediate ``put`` (or ``delete``) of ``thunk()``'s result.
        """
        store = self._store
        if store.batched:
            store.pending.put_lazy(self.namespace + key, thunk, lease=lease)
            return
        store.stats.logical_writes += 1
        value = thunk()
        if value is DELETE:
            self._store.kv.delete(self._k(key))
            return
        self._store.kv.put(self._k(key), value)
        if lease is not None:
            lease.attach(self._k(key))

    def get(self, key: str, default: Any = None) -> Any:
        """Latest value of a namespaced key, or ``default``.

        Batched mode overlays the pending batch (read-your-writes).
        """
        full = self._k(key)
        if self._store.batched:
            pending = self._store.pending.peek(full)
            if pending is not None:
                kind, value = pending
                return default if kind == "delete" else value
        return self._store.kv.get_value(full, default)

    def delete(self, key: str) -> bool:
        """Delete a namespaced key; True if it (visibly) existed."""
        full = self._k(key)
        if self._store.batched:
            pending = self._store.pending.peek(full)
            existed = (
                pending[0] == "put" if pending is not None else full in self._store.kv
            )
            self._store.pending.delete(full)
            return existed
        self._store.stats.logical_writes += 1
        return self._store.kv.delete(full)

    def range(self, prefix: str) -> dict[str, Any]:
        """Live key→value pairs under ``prefix`` (namespace stripped).

        Batched mode merges the pending batch over the committed range.
        """
        full = self._k(prefix)
        n = len(self.namespace)
        out = {kv.key[n:]: kv.value for kv in self._store.kv.range(full)}
        if self._store.batched:
            for key, kind, value in self._store.pending.pending_items():
                if not key.startswith(full):
                    continue
                if kind == "delete":
                    out.pop(key[n:], None)
                else:
                    out[key[n:]] = value
        return out

    def lease(self, ttl: float) -> Lease:
        """Grant a TTL lease from the shared lease manager."""
        return self._store.leases.grant(ttl)

    def flush(self) -> int:
        """Commit the Datastore's pending write batch (action boundary)."""
        return self._store.flush()
