"""etcd-like Datastore: MVCC KV store, leases, and the control plane's
batched write path.

:class:`Datastore` is the one write API the components hold (``put`` /
``delete`` / ``flush``).  Its writes commit at action boundaries as
atomic multi-key batches — one revision, last-write-wins per key — the
commit ``KVStore.apply_batch`` specifies; ``KVStore.put`` / ``delete``
commit one revision each.
"""

from .. import _lazy_exports

_EXPORTS = {
    "Datastore": ".client",
    "WriteStats": ".client",
    "EPHEMERAL_HOT_PREFIXES": ".client",
    "BatchCommit": ".kv",
    "CompactedError": ".kv",
    "EphemeralKeyError": ".kv",
    "KeyValue": ".kv",
    "KVStore": ".kv",
    "Lease": ".lease",
    "LeaseManager": ".lease",
}

__all__ = [*_EXPORTS]
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
