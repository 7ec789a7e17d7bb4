"""etcd-like Datastore: MVCC KV store, leases, and the control plane's
batched write path.

:class:`Datastore` is the one write API the components hold (``put`` /
``delete`` / ``flush``).  Its writes commit at action boundaries as
atomic multi-key batches — one revision, last-write-wins per key — the
commit ``KVStore.apply_batch`` specifies; ``KVStore.put`` / ``delete``
commit one revision each.
"""

from .client import EPHEMERAL_HOT_PREFIXES, Datastore, WriteStats
from .kv import BatchCommit, CompactedError, EphemeralKeyError, KeyValue, KVStore
from .lease import Lease, LeaseManager

__all__ = [
    "Datastore",
    "WriteStats",
    "EPHEMERAL_HOT_PREFIXES",
    "BatchCommit",
    "CompactedError",
    "EphemeralKeyError",
    "KeyValue",
    "KVStore",
    "Lease",
    "LeaseManager",
]
