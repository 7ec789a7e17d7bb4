"""etcd-like Datastore: MVCC KV store, leases, and the control plane's
batched write path (:class:`WriteBatch`).

Mutations commit either one-per-revision (``KVStore.put``/``delete``) or as
atomic multi-key batches (``KVStore.apply_batch`` — one revision,
last-write-wins per key), which is what ``Datastore(batched=True)`` builds
the control-plane write path on.
"""

from .batch import DELETE, WriteBatch
from .client import EPHEMERAL_HOT_PREFIXES, Datastore, DatastoreClient, WriteStats
from .kv import BatchCommit, CompactedError, EphemeralKeyError, KeyValue, KVStore
from .lease import Lease, LeaseManager

__all__ = [
    "Datastore",
    "DatastoreClient",
    "WriteStats",
    "EPHEMERAL_HOT_PREFIXES",
    "BatchCommit",
    "CompactedError",
    "EphemeralKeyError",
    "KeyValue",
    "KVStore",
    "DELETE",
    "WriteBatch",
    "Lease",
    "LeaseManager",
]
