"""etcd-like Datastore: MVCC KV store, leases, and the control plane's
batched write path (:class:`WriteBatch`).

:class:`Datastore` is the one write API the components hold (``put`` /
``delete`` / ``flush``).  Mutations commit either one-per-revision (a
write-through ``Datastore()``, ``KVStore.put``/``delete``) or as atomic
multi-key batches (``Datastore(batched=True)``'s :class:`WriteBatch`, and
its reference ``KVStore.apply_batch`` — one revision, last-write-wins per
key).
"""

from .batch import WriteBatch
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
    "WriteBatch",
    "Lease",
    "LeaseManager",
]
