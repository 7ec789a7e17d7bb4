"""Revisioned (MVCC) key-value store — the core of the etcd-like Datastore.

The paper's Datastore is etcd (§III-E): "a distributed key-value store that
guarantees a high level of consistency".  The Cache Manager and GPU Managers
publish GPU status, LRU lists, and estimated latencies here, and the
Scheduler reads them to make dispatch decisions.

This module implements the etcd data model faithfully enough for all of
those interactions plus the tests' linearizability checks:

* a single, monotonically increasing **store revision** bumped by every
  mutation (put / delete / lease expiry),
* **atomic multi-key commits** (:meth:`KVStore.apply_batch`): a batch of
  puts/deletes applies all-or-nothing under *one* revision bump with
  last-write-wins coalescing per key — exactly how an etcd transaction
  mutates the store,
* per-key ``create_revision`` / ``mod_revision`` / ``version`` metadata,
* historical reads (``get(key, revision=...)``) backed by per-key history,
* range / prefix reads, and
* compaction that discards history below a revision.

Values are arbitrary Python objects; like etcd, the store never interprets
them.  It is in-process and synchronous — the "distributed" aspect of etcd
matters to the paper only as a consistent shared blackboard, which a single
linearizable store models exactly.

Ephemeral-key tier
------------------
The blackboard's hot keys (GPU status, finish time, LRU list, latency
record, model locations) are written on every dispatch, completion, load
or eviction, yet nothing reads them at a historical revision — paying
full MVCC history bookkeeping for them is pure commit-path residue.  A store built
with ``ephemeral_prefixes=(...)`` routes matching keys through a fast
lane: the live view and current-value reads are identical, but no
per-key history columns are retained, and revision *lineage* is not
tracked — an ephemeral key's ``create_revision`` always equals its
``mod_revision`` and its ``version`` is pinned at 1, because without
history there is nothing to anchor lineage to.  The trade is explicit
and typed: ``get(key, revision=...)`` raises :class:`EphemeralKeyError`
for ephemeral keys, and compaction becomes near-free for them (there is
nothing to discard).  Which keys are history-free is a property of the
key schema
(:data:`~repro.datastore.client.EPHEMERAL_HOT_PREFIXES`, which every
``Datastore`` builds its store with); a bare ``KVStore()`` keeps full
etcd semantics for every key, bit for bit — the full-history reference
the tests hold the ephemeral lane to.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, NamedTuple, Sequence

__all__ = ["KeyValue", "KVStore", "CompactedError", "EphemeralKeyError", "BatchCommit"]

_TOMBSTONE = object()


class CompactedError(LookupError):
    """Raised when reading at a revision that has been compacted away."""


class EphemeralKeyError(LookupError):
    """Raised on a historical read of a key in the store's ephemeral tier:
    ephemeral keys keep no MVCC history, so the requested view never
    existed."""


class KeyValue(NamedTuple):
    """A key-value pair plus its etcd-style revision metadata.

    What reads return.  A durable key holds one (live view and history);
    an ephemeral key holds the *exact* 5-tuple of these fields,
    named on read — CPython's cyclic collector never untracks a tuple
    subclass, so one minted per hot key would stay on its books while the
    key lives.
    """

    key: str
    value: Any
    create_revision: int
    mod_revision: int
    version: int  # number of writes since creation; 1 for a fresh key


#: mint KeyValues via ``_tuple_new(KeyValue, (...))`` on the commit path:
#: it builds the identical object but skips the generated Python-level
#: ``__new__`` wrapper (~2x faster per mint, one mint per committed key)
_tuple_new = tuple.__new__


def _named(row: tuple | None) -> KeyValue | None:
    """A live-view entry as reads return it (ephemeral rows are bare)."""
    return _tuple_new(KeyValue, row) if type(row) is tuple else row


class BatchCommit(NamedTuple):
    """Result of one atomic multi-key commit (:meth:`KVStore.apply_batch`).

    ``revision`` is None when the batch had no effect (empty, or only
    deletes of missing keys) — exactly like a failed single-key delete, no
    revision is consumed.  ``count`` is the number of keys the commit
    mutated, all at ``revision``.
    """

    revision: int | None
    count: int = 0


class KVStore:
    """In-memory MVCC key-value store with etcd semantics."""

    def __init__(self, *, ephemeral_prefixes: Sequence[str] = ()) -> None:
        for prefix in ephemeral_prefixes:
            if not isinstance(prefix, str) or not prefix:
                raise ValueError("ephemeral prefixes must be non-empty strings")
        #: key prefixes routed through the ephemeral fast lane (no per-key
        #: history; see the module docstring).  A tuple because
        #: ``str.startswith`` accepts one natively — the per-put membership
        #: test is a single C-level call, and with the default ``()`` it
        #: short-circuits on the falsy tuple.
        self._ephemeral: tuple[str, ...] = tuple(ephemeral_prefixes)
        #: writes that took the ephemeral fast lane (puts + deletes)
        self.ephemeral_writes = 0
        self._revision = 0
        self._compacted = 0
        # live view: key -> KeyValue (durable) | exact 5-tuple (ephemeral)
        self._live: dict[str, tuple] = {}
        # history: key -> ([mod_revisions], [KeyValue-or-tombstone])
        self._history: dict[str, tuple[list[int], list[Any]]] = {}
        # sorted live-key cache for range/keys/items; invalidated whenever
        # the *key set* changes (value-only updates keep it valid)
        self._sorted_keys: list[str] | None = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def revision(self) -> int:
        """Current store revision (0 before any write)."""
        return self._revision

    @property
    def compacted_revision(self) -> int:
        """Highest revision whose history has been discarded."""
        return self._compacted

    def __len__(self) -> int:
        return len(self._live)

    def __contains__(self, key: str) -> bool:
        return key in self._live

    @property
    def ephemeral_prefixes(self) -> tuple[str, ...]:
        """The configured ephemeral-tier prefixes (empty = tier off)."""
        return self._ephemeral

    def is_ephemeral(self, key: str) -> bool:
        """Whether ``key`` routes through the ephemeral fast lane."""
        return bool(self._ephemeral) and key.startswith(self._ephemeral)

    def history_entry_count(self) -> int:
        """Total per-key history entries currently retained (bench probe:
        the commit-path residue the ephemeral tier removes)."""
        return sum(len(revs) for revs, _ in self._history.values())

    def keys(self) -> list[str]:
        """All live keys, sorted (cached until the key set changes)."""
        return list(self._sorted())

    def _sorted(self) -> list[str]:
        if self._sorted_keys is None:
            self._sorted_keys = sorted(self._live)
        return self._sorted_keys

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def _apply_put(self, key: str, value: Any, *, fresh: bool = False) -> KeyValue:
        """Write ``key`` at the current (already bumped) revision.

        ``fresh`` recreates the key (version 1, new create_revision) — used
        when a batch deleted the key before re-putting it, so coalescing
        preserves the sequential delete-then-put metadata.
        """
        revision = self._revision
        live = self._live
        if self._ephemeral and key.startswith(self._ephemeral):
            # ephemeral fast lane: live view only — no history columns
            # and no lineage (a lineage-free mint: create_revision =
            # mod_revision, version pinned at 1 — without history there is
            # nothing to anchor version counting to, and skipping the prev
            # lookup keeps the lane a mint + dict store).  The sorted-key cache only cares
            # whether the key *set* grew.
            row = (key, value, revision, revision, 1)
            if key not in live:
                self._sorted_keys = None
            live[key] = row
            self.ephemeral_writes += 1
            return _tuple_new(KeyValue, row)  # for put()'s caller
        prev = None if fresh else live.get(key)
        if prev is None:
            kv = _tuple_new(KeyValue, (key, value, revision, revision, 1))
            self._sorted_keys = None
        else:
            # prev[2]/prev[4] = create_revision/version by index: this runs
            # per committed key and NamedTuple attribute descriptors cost
            kv = _tuple_new(KeyValue, (key, value, prev[2], revision, prev[4] + 1))
        live[key] = kv
        hist = self._history.get(key)
        if hist is None:  # first write: mint the history pre-populated
            self._history[key] = ([revision], [kv])
        else:
            hist[0].append(revision)
            hist[1].append(kv)
        return kv

    def _apply_delete(self, key: str) -> None:
        """Remove live ``key`` at the current (already bumped) revision."""
        del self._live[key]
        self._sorted_keys = None
        if self._ephemeral and key.startswith(self._ephemeral):
            # ephemeral fast lane: no tombstone — a delete costs only
            # the live-map removal
            self.ephemeral_writes += 1
            return
        self._record(key, _TOMBSTONE)

    def put(self, key: str, value: Any) -> KeyValue:
        """Write ``key`` and return its new :class:`KeyValue`."""
        if not isinstance(key, str) or not key:
            raise ValueError("key must be a non-empty string")
        self._revision += 1
        return self._apply_put(key, value)

    def delete(self, key: str) -> bool:
        """Delete ``key``; returns whether it existed."""
        if key not in self._live:
            return False
        self._revision += 1
        self._apply_delete(key)
        return True

    def apply_batch(self, ops: Sequence[tuple]) -> BatchCommit:
        """Atomically apply a batch of mutations under **one** revision.

        ``ops`` is a sequence of ``("put", key, value)`` / ``("delete",
        key)`` tuples.  Ops are coalesced last-write-wins per key (etcd
        txn semantics: one transaction → one revision → at most one event
        per key) and applied all-or-nothing.  A put that follows a delete of
        the same key *within the batch* recreates the key (version 1, fresh
        create_revision), matching what the ops would have produced applied
        sequentially.  Deletes of missing keys are no-ops; a batch with no
        effective mutation consumes no revision.
        """
        # key -> ("put", value, fresh) | ("delete",)
        coalesced: dict[str, tuple] = {}
        for op in ops:
            kind, key = op[0], op[1]
            if kind == "put":
                if not isinstance(key, str) or not key:
                    raise ValueError("key must be a non-empty string")
                prior = coalesced.get(key)
                fresh = prior is not None and (prior[0] == "delete" or prior[2])
                coalesced[key] = ("put", op[2], fresh)
            elif kind == "delete":
                coalesced[key] = ("delete",)
            else:
                raise ValueError(f"unknown batch op kind {kind!r}")
        live = self._live
        if not any(
            entry[0] == "put" or key in live for key, entry in coalesced.items()
        ):
            return BatchCommit(revision=None, count=0)
        self._revision += 1
        count = 0
        for key, entry in coalesced.items():
            if entry[0] == "put":
                self._apply_put(key, entry[1], fresh=entry[2])
            elif key in live:
                self._apply_delete(key)
            else:
                continue
            count += 1
        return BatchCommit(self._revision, count)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, key: str, revision: int | None = None) -> KeyValue | None:
        """Read ``key`` at the latest (or a historical) revision.

        Historical reads of ephemeral-tier keys raise
        :class:`EphemeralKeyError` — those keys keep no history by design.
        """
        if revision is None:
            return _named(self._live.get(key))
        if self._ephemeral and key.startswith(self._ephemeral):
            raise EphemeralKeyError(
                f"{key!r} is in the ephemeral tier: historical reads are "
                "unavailable (no MVCC history is retained; configured "
                f"ephemeral prefixes: {self._ephemeral!r})"
            )
        if revision < self._compacted:
            raise CompactedError(
                f"revision {revision} compacted (compacted at {self._compacted})"
            )
        if revision > self._revision:
            raise ValueError(f"revision {revision} is in the future (now {self._revision})")
        hist = self._history.get(key)
        if hist is None:
            return None
        revs, vals = hist
        idx = bisect.bisect_right(revs, revision) - 1
        if idx < 0:
            return None
        val = vals[idx]
        return None if val is _TOMBSTONE else val

    def get_value(self, key: str, default: Any = None) -> Any:
        """Convenience: latest value of ``key`` or ``default``."""
        kv = self._live.get(key)
        return kv[1] if kv is not None else default

    def range(self, prefix: str, *, limit: int | None = None) -> list[KeyValue]:
        """Live pairs whose key starts with ``prefix``, sorted by key.

        ``limit`` bounds the result like etcd's range limit (None = all).
        Served from the sorted-key cache: O(log n + matches) instead of
        re-sorting every live key per call.
        """
        if limit is not None and limit < 0:
            raise ValueError("limit cannot be negative")
        keys = self._sorted()
        out: list[KeyValue] = []
        for i in range(bisect.bisect_left(keys, prefix), len(keys)):
            if not keys[i].startswith(prefix) or (limit is not None and len(out) >= limit):
                break
            out.append(_named(self._live[keys[i]]))
        return out

    def items(self) -> Iterator[KeyValue]:
        """Iterate live pairs in key order."""
        for k in self._sorted():
            yield _named(self._live[k])

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self, revision: int) -> None:
        """Discard history strictly below ``revision``.

        Live values are never discarded; only the ability to read old
        versions is lost, matching etcd's compaction contract.
        """
        if revision > self._revision:
            raise ValueError("cannot compact beyond current revision")
        if revision <= self._compacted:
            return
        self._compacted = revision
        empty = []
        for key, (revs, vals) in self._history.items():
            # Keep the newest entry at-or-below `revision` so historical reads
            # at exactly `revision` still work.
            idx = bisect.bisect_right(revs, revision) - 1
            if idx > 0:
                del revs[:idx]
                del vals[:idx]
            if len(revs) == 1 and vals[0] is _TOMBSTONE and key not in self._live:
                empty.append(key)
        for key in empty:
            del self._history[key]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _record(self, key: str, entry: Any) -> None:
        revs, vals = self._history.setdefault(key, ([], []))
        revs.append(self._revision)
        vals.append(entry)
