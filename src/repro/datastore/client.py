"""The Datastore and the key schema shared by the FaaS components.

:class:`Datastore` bundles the MVCC store, the lease manager and the
control plane's pending write batch.  It is the one write API:
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
``cache/locations/<model>``       none     tuple[str, ...], GPUs where the
                                           model is resident; deleted when
                                           none (Cache Manager)
``fn/meta/<fn_name>``             MVCC     dict, registered-function
                                           metadata (Gateway)
``fn/invocations/<fn_name>``      MVCC     int, invocations so far (Gateway)
``fn/metrics/<fn_name>``          MVCC     dict, the latest invocation's ID,
                                           status, latency, container and
                                           error (Watchdog)
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

Write path
----------
Every ``put``/``delete`` lands in the Datastore's pending batch instead
of committing immediately; the value is captured at the call.  All
writes of one scheduling action — a cache touch, the GPU status flip,
the finish-time estimate, the latency record — then flush as **one
atomic transaction → one revision** (last-write-wins per key), the
commit ``KVStore.apply_batch`` specifies.  Flushing happens at the
control plane's action boundaries: the Scheduler's entry points, the
Gateway's CRUD/invoke calls, and (as the safety net covering every other
event handler) a simulator post-event hook.  Reads go to ``kv`` and see
committed state only; no component reads between its writes and the
flush.  The write-through specification — one revision per put — is
``tests/spec/datastore.py``, which the differential suite replays the
system against.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any

from ..sim import Simulator
from .kv import KVStore
from .lease import Lease, LeaseManager

__all__ = ["Datastore", "WriteStats", "EPHEMERAL_HOT_PREFIXES"]

#: the schema's history-free keys (the ``none`` rows above): written on
#: every dispatch and completion, never read at a historical revision.
#: Every Datastore commits them through the store's ephemeral lane; a
#: bare ``KVStore`` keeps full history for every key.  Ordered
#: most-frequently-written first, since the store's membership test
#: (``str.startswith`` over the tuple) probes in order.
EPHEMERAL_HOT_PREFIXES = (
    "gpu/status/", "gpu/finish_time/", "fn/latency/", "gpu/lru/", "cache/locations/"
)

_PUT = "put"
#: shared singleton delete op — one commit may carry many deletes and the
#: coalesced map needs no per-entry state for them
_DELETE_OP = ("delete",)


@dataclass
class WriteStats:
    """Write-amplification counters for the control-plane write path.

    ``logical_writes`` counts every ``put``/``delete`` — what the
    components *asked* for.  ``flushes`` and ``committed_keys`` count the
    commits that minted a revision and the keys they mutated;
    ``coalesced_writes`` the logical writes last-write-wins absorbed.
    Revisions come from ``kv.revision``; ``writes-per-revision`` (logical /
    revisions) is the amplification batching removes.
    """

    logical_writes: int = 0
    flushes: int = 0
    committed_keys: int = 0
    coalesced_writes: int = 0  # logical writes absorbed by LWW


class Datastore:
    """The system-wide etcd-like store (KV + leases + the write batch)."""

    #: optional flight recorder (installed by the runtime when tracing is
    #: on); a class attribute so every flush pays one attribute
    #: load + identity test and no per-instance slot
    _tracer = None

    def __init__(self, sim: Simulator, *, autocompact_keep: int | None = None) -> None:
        self.sim = sim
        self.kv = KVStore(ephemeral_prefixes=EPHEMERAL_HOT_PREFIXES)
        self.leases = LeaseManager(sim, self.kv)
        #: sliding-horizon history compaction (etcd ``--auto-compaction``
        #: analogue; None = keep everything): once more than 2×keep
        #: revisions of history have accumulated, :meth:`flush` discards
        #: everything below ``revision - keep``.  The hysteresis keeps the
        #: O(durable keys) compaction walk off the per-commit path, and
        #: checking where revisions are minted costs nothing per simulator
        #: event; compaction never touches live keys, so scheduling
        #: decisions are unaffected.
        self.autocompact_keep = autocompact_keep
        # key -> ("put", value, fresh) | ("delete",) in first-touch order.
        # ``fresh`` marks a put that landed over a pending delete: the
        # store recreates the key (version 1), just as the sequential
        # delete-then-put would have.  It is filled in at flush time from
        # ``_deleted``, so a write never reads the entry it replaces.
        self._pending: dict[str, tuple] = {}
        #: keys deleted since the last flush (rare: function CRUD and a
        #: model's last copy leaving the cache)
        self._deleted: set[str] = set()
        #: keys whose latest put carried a lease (rare: only lease users
        #: pay for it; the empty-dict truthiness test on the lease-less
        #: path is one attribute load)
        self._leases: dict[str, Lease] = {}
        #: key -> commits through the ephemeral lane (classified on first commit)
        self._hot: dict[str, bool] = {}
        self.stats = WriteStats()
        #: ``stats.logical_writes`` as of the last flush
        self._flushed_writes = 0

        # The action boundary: whatever writes a simulator event handler
        # issued commit as one transaction once the handler returns.  The
        # hook closes over the stable pending dict (flush drains it in
        # place) so the no-op path — most events write nothing — is one
        # truthiness test instead of a flush call that discovers it has no
        # work.
        pending_map = self._pending
        flush = self.flush

        def _post_event_flush() -> None:
            if pending_map:
                flush()

        sim.subscribe_post_event(_post_event_flush)

    # ------------------------------------------------------------------
    # Accumulation: a store into the pending map and a count, nothing read
    # back — these run several times per scheduling action
    # ------------------------------------------------------------------
    def put(self, key: str, value: Any, *, lease: Lease | None = None) -> None:
        """Write ``key`` at the next flush, bound to ``lease`` once it
        commits; overwrites any pending entry for ``key``."""
        self.stats.logical_writes += 1
        self._pending[key] = (_PUT, value, False)
        if lease is not None:
            self._leases[key] = lease
        elif self._leases:
            self._leases.pop(key, None)

    def delete(self, key: str) -> None:
        """Delete ``key`` at the next flush (a missing key is a no-op);
        overwrites any pending entry for ``key``."""
        self.stats.logical_writes += 1
        self._pending[key] = _DELETE_OP
        self._deleted.add(key)
        if self._leases:
            self._leases.pop(key, None)

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------
    def flush(self) -> int:
        """Commit every pending entry as one atomic transaction; returns
        the keys committed.

        No-op when nothing is pending.  The entries are applied to the
        store's live view right here, leases attach to their committed
        keys before the pending set is cleared, and the autocompaction
        horizon is checked last.
        """
        pending = self._pending
        if not pending:
            return 0
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
        kv = self.kv
        live = kv._live
        eph = kv._ephemeral
        hot_of = self._hot
        revision = kv._revision = kv._revision + 1
        count = eph_count = 0
        for key, entry in pending.items():
            try:
                hot = hot_of[key]
            except KeyError:
                hot = hot_of[key] = key.startswith(eph)
            if entry[0] is _PUT:
                if hot:
                    # KVStore._apply_put's ephemeral lane, in line: the
                    # control plane commits 2-3 of these per action
                    if key not in live:
                        kv._sorted_keys = None
                    live[key] = (key, entry[1], revision, revision, 1)
                    eph_count += 1
                else:
                    kv._apply_put(key, entry[1], fresh=entry[2])
            elif key in live:
                if hot:  # _apply_delete's lane, in line
                    del live[key]
                    kv._sorted_keys = None
                    eph_count += 1
                else:
                    kv._apply_delete(key)
            else:
                continue
            count += 1
        kv.ephemeral_writes += eph_count
        if count:
            stats.flushes += 1
            stats.committed_keys += count
        else:
            kv._revision -= 1
        leases = self._leases
        if leases:
            if count:
                for key, lease in leases.items():
                    if lease.alive:
                        lease.attach(key)
            leases.clear()
        pending.clear()
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
            buf[b + 2] = count
            state[1] += 1
            i += 1
            state[0] = 0 if i == tracer.capacity else i
        keep = self.autocompact_keep
        if keep is not None and kv._revision - kv._compacted > 2 * keep:
            kv.compact(kv._revision - keep)
        return count
