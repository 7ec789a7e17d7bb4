"""The write-through Datastore: the executable spec of the batched one.

Production ``Datastore`` (``repro.datastore.client``) defers every write
to a pending batch and commits an action's writes as one revision at the
action boundary.  The class here is the plain etcd client instead: every
``put`` / ``delete`` commits its own revision on the spot, a lease binds
its key at the call, and the autocompaction horizon is checked after
every simulator event.  It takes the production constructor's arguments,
so a test swaps it in under ``repro.runtime.system``;
``tests/core/test_differential.py`` replays workloads on both and
requires identical decisions and final live KV.
"""

from typing import Any

import repro.datastore.client as client
from repro.datastore import KVStore, Lease, LeaseManager, WriteStats
from repro.sim import Simulator

__all__ = ["WriteThroughDatastore"]


class WriteThroughDatastore:
    """One revision per put; nothing is ever pending."""

    def __init__(self, sim: Simulator, *, autocompact_keep: int | None = None) -> None:
        self.sim = sim
        # read at construction, so a test that patches the schema's hot
        # prefixes to () gets a full-history store here too
        self.kv = KVStore(ephemeral_prefixes=client.EPHEMERAL_HOT_PREFIXES)
        self.leases = LeaseManager(sim, self.kv)
        self.stats = WriteStats()
        self.autocompact_keep = autocompact_keep
        if autocompact_keep is not None:
            sim.subscribe_post_event(self._autocompact)

    def put(self, key: str, value: Any, *, lease: Lease | None = None) -> None:
        self.stats.logical_writes += 1
        self.kv.put(key, value)
        if lease is not None:
            lease.attach(key)

    def delete(self, key: str) -> None:
        self.stats.logical_writes += 1
        self.kv.delete(key)

    def flush(self) -> int:
        """Every write has committed already."""
        return 0

    def _autocompact(self) -> None:
        """Once more than 2×keep revisions of history have accumulated,
        discard everything below ``revision - keep``."""
        kv = self.kv
        keep = self.autocompact_keep
        if kv.revision - kv.compacted_revision > 2 * keep:
            kv.compact(kv.revision - keep)
