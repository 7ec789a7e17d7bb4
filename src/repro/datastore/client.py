"""The Datastore and the key schema shared by the FaaS components.

:class:`Datastore` bundles the MVCC store, the lease manager, and —
when built with ``batched=True`` — the control plane's shared
:class:`~repro.datastore.batch.WriteBatch`.  It is the one write API:
``put(key, value, *, lease=None)``, ``delete(key)`` and ``flush()``.

Key schema (paper §III-E: "The Datastore stores the estimated latency of
each inference request, the LRU list of each GPU, and the status of each
GPU"; §II-A adds the Watchdog's per-invocation metrics):

================================  =======  ==================================
key                               history  value (writer)
================================  =======  ==================================
``gpu/status/<gpu_id>``           none     ``"idle"`` | ``"busy"`` |
                                           ``"draining"`` | ``"offline"``
                                           (GPU Manager)
``gpu/finish_time/<gpu_id>``      none     float, absolute estimated finish
                                           time (GPU Manager)
``gpu/lru/<gpu_id>``              none     tuple[str, ...], eviction order,
                                           head = coldest (Cache Manager)
``gpu/health/<gpu_id>``           MVCC     ``"ok"``, bound to a TTL lease
                                           (health watchdog)
``cache/locations/<model>``       MVCC     tuple[str, ...], GPUs where the
                                           model is resident; deleted when
                                           none (Cache Manager)
``fn/meta/<fn_name>``             MVCC     dict, registered-function
                                           metadata (Gateway)
``fn/invocations/<fn_name>``      MVCC     int, invocations so far (Gateway)
``fn/metrics/<fn_name>/<id>``     MVCC     dict, one invocation's status,
                                           latency, container and error
                                           (Watchdog)
``fn/latency/<fn_name>``          none     exact 7-tuple in ``LatencyRecord``
                                           field order, the function's latest
                                           completion (GPU Manager;
                                           ``LatencyRecord(*value)`` names it)
================================  =======  ==================================

*history* says which tier a key commits through.  ``MVCC`` keys keep full
etcd semantics (per-key history, historical reads, compaction).  ``none``
keys — the prefixes in :data:`EPHEMERAL_HOT_PREFIXES` — are the
blackboard's hot rows: identical live reads, but no MVCC history, so
historical reads of them raise
:class:`~repro.datastore.kv.EphemeralKeyError` (see :mod:`.kv`).

Batched write path
------------------
With ``batched=True`` every ``put``/``delete`` lands in the Datastore's
single pending :class:`WriteBatch` instead of committing immediately; the
value is captured at the call.  All writes of one scheduling action — a
cache touch, the GPU status flip, the finish-time estimate, the latency
record — then flush as **one atomic transaction → one revision**
(last-write-wins per key).  Flushing happens at the control plane's
action boundaries: the Scheduler's entry points, the Gateway's
CRUD/invoke calls, and (as the safety net covering every other event
handler) a simulator post-event hook.  Reads go to ``kv`` and see
committed state only; no component reads between its writes and the
flush.  :class:`~repro.runtime.FaaSCluster` always builds its Datastore
batched; a bare ``Datastore()`` writes through — one revision per put —
and is the write-path specification ``tests/core/test_differential.py``
puts under the same system.
"""

from __future__ import annotations

from typing import Any

from ..sim import Simulator
from .batch import WriteBatch, WriteStats
from .kv import KVStore
from .lease import Lease, LeaseManager

__all__ = ["Datastore", "WriteStats", "EPHEMERAL_HOT_PREFIXES"]

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
            # the batch's own methods are the write path (same signatures,
            # one frame per put below the component)
            self.put = self.pending.put
            self.delete = self.pending.delete
            # The action boundary: whatever writes a simulator event handler
            # issued commit as one transaction once the handler returns.
            # The hook closes over the batch's stable pending dict so the
            # no-op path — most events write nothing — is one truthiness
            # test instead of a flush call that discovers it has no work.
            pending_map = self.pending._pending
            flush = self.flush

            def _post_event_flush() -> None:
                if pending_map:
                    flush()

            sim.subscribe_post_event(_post_event_flush)
        elif autocompact_keep is not None:
            sim.subscribe_post_event(self._autocompact)

    def put(self, key: str, value: Any, *, lease: Lease | None = None) -> None:
        """Write ``key``, optionally bound to ``lease``.

        This body is the write-through path: one revision per put.  A
        batched Datastore replaces it with :meth:`WriteBatch.put`, which
        defers the write (and the lease binding) to the next flush.
        """
        self.stats.logical_writes += 1
        self.kv.put(key, value)
        if lease is not None:
            lease.attach(key)

    def delete(self, key: str) -> None:
        """Delete ``key`` (a missing key is a no-op); batched: at the next
        flush, through :meth:`WriteBatch.delete`."""
        self.stats.logical_writes += 1
        self.kv.delete(key)

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
        keep, kv = self.autocompact_keep, self.kv
        if keep is not None and kv._revision - kv._compacted > 2 * keep:
            kv.compact(kv._revision - keep)  # _autocompact, in line
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
