"""Leases: TTL-scoped keys, bound to the simulated clock.

GPU Managers attach their status keys to leases; if a manager dies (stops
refreshing), its keys disappear and the Scheduler stops dispatching to that
GPU — the standard etcd liveness pattern.
"""

from __future__ import annotations

import itertools

from ..sim import Event, Simulator
from .kv import KVStore

__all__ = ["Lease", "LeaseManager"]


class Lease:
    """A TTL lease; keys attached to it are deleted when it expires."""

    def __init__(self, mgr: "LeaseManager", ttl: float) -> None:
        if ttl <= 0:
            raise ValueError("ttl must be positive")
        self.lease_id = next(mgr._ids)
        self.ttl = float(ttl)
        self._mgr = mgr
        self.keys: set[str] = set()
        self.expired = False
        self.revoked = False
        self._timer: Event | None = None
        self._expiry_callbacks: list = []

    def on_expire(self, fn) -> None:
        """Register a callback fired when the lease *expires* (TTL runs out
        without a refresh).  Explicit :meth:`revoke` does not fire it — a
        clean shutdown is not a liveness failure.  Callbacks run after the
        lease's keys are reaped, so the store no longer holds them."""
        if not self.alive:
            raise RuntimeError(f"lease {self.lease_id} is not alive")
        self._expiry_callbacks.append(fn)

    @property
    def alive(self) -> bool:
        return not (self.expired or self.revoked)

    def attach(self, key: str) -> None:
        if not self.alive:
            raise RuntimeError(f"lease {self.lease_id} is not alive")
        self.keys.add(key)

    def refresh(self) -> None:
        """Keep-alive: restart the TTL countdown."""
        if not self.alive:
            raise RuntimeError(f"cannot refresh dead lease {self.lease_id}")
        self._mgr._arm(self)

    def revoke(self) -> None:
        """Explicitly end the lease, deleting attached keys immediately."""
        if not self.alive:
            return
        self.revoked = True
        self._mgr._reap(self)


class LeaseManager:
    """Creates leases and reaps their keys on expiry."""

    def __init__(self, sim: Simulator, store: KVStore) -> None:
        self._sim = sim
        self._store = store
        #: per-manager IDs, so every Datastore grants lease 1 first
        self._ids = itertools.count(1)
        self.leases: dict[int, Lease] = {}

    def grant(self, ttl: float) -> Lease:
        lease = Lease(self, ttl)
        self.leases[lease.lease_id] = lease
        self._arm(lease)
        return lease

    def _arm(self, lease: Lease) -> None:
        if lease._timer is not None:
            lease._timer.cancel()
        lease._timer = self._sim.schedule(lease.ttl, self._expire, lease)

    def _expire(self, lease: Lease) -> None:
        if not lease.alive:
            return
        lease.expired = True
        self._reap(lease)
        # liveness escalation: the health watchdog turns a missed-heartbeat
        # expiry into scheduling action (go_offline).  Fired after the reap
        # so the KV state already reflects the expiry.
        for fn in lease._expiry_callbacks:
            fn(lease)

    def _reap(self, lease: Lease) -> None:
        if lease._timer is not None:
            lease._timer.cancel()
            lease._timer = None
        for key in sorted(lease.keys):
            self._store.delete(key)
        lease.keys.clear()
        self.leases.pop(lease.lease_id, None)
