"""The global Cache Manager (paper §III-D).

Treats the models uploaded to each GPU's memory as cache items:

* keeps one replacement-policy list per GPU (LRU by default) — the per-GPU
  separation is what keeps the global manager scalable (§VI),
* answers hit/miss lookups for the GPU Managers,
* chooses eviction victims on a miss, given the GPU's free space and the
  missing model's occupation size,
* maintains the model → [GPUs caching it] index the Scheduler uses
  (§VI: "the Cache Manager maintains the lists of GPUs where each model is
  cached, and shares this information with the Scheduler through the
  Datastore"),
* mirrors each GPU's LRU list and every model's locations into the
  Datastore — as *dirty keys*: each cache event marks the touched GPU's
  LRU key and the model's location key via ``put_lazy``, and the eviction
  order is serialized once per write-batch flush rather than once per
  touch (against a batched Datastore, ten LRU touches within one
  scheduling action commit as one transaction carrying one list).
"""

from __future__ import annotations

from typing import Callable, Protocol

from ..cluster.gpu import GPUDevice
from ..datastore.batch import DELETE
from ..datastore.client import DatastoreClient
from ..models.profiles import ModelInstance
from ..sim import Simulator
from .replacement import EvictionPolicy, LRUPolicy

__all__ = ["CacheManager", "CacheEvent"]


class CacheEvent(Protocol):  # pragma: no cover - typing helper
    """Observer signature: ``fn(kind, gpu_id, model_id, now)``.

    ``kind`` is one of ``"load"``, ``"evict"``, ``"use"``.
    """

    def __call__(self, kind: str, gpu_id: str, model_id: str, now: float) -> None: ...


class CacheManager:
    """Global manager of the models cached across all GPU memories."""

    def __init__(
        self,
        sim: Simulator,
        gpus: list[GPUDevice],
        *,
        datastore: DatastoreClient | None = None,
        policy_factory: Callable[[], EvictionPolicy] = LRUPolicy,
    ) -> None:
        self.sim = sim
        self._gpus = {g.gpu_id: g for g in gpus}
        self._policies: dict[str, EvictionPolicy] = {
            g.gpu_id: policy_factory() for g in gpus
        }
        self._locations: dict[str, set[str]] = {}  # model_id -> gpu_ids
        self._locations_sorted: dict[str, list[str]] = {}  # invalidated on load/evict
        self._datastore = datastore
        self._observers: list[CacheEvent] = []
        #: optional flight recorder (installed by the runtime when tracing
        #: is on); load/evict only — ``on_used`` runs on every dispatch and
        #: stays uninstrumented
        self.tracer = None
        # dirty-key names and thunks, built once per GPU / lazily per model:
        # _publish runs on every cache touch, so no f-strings or closures
        # are allocated on that path.  Published values are tuples — an
        # immutable snapshot per commit; the store's history retains one
        # per flush, and immutable tuples drop out of cyclic-GC tracking,
        # which matters over 100k+-request replays.
        self._lru_marks = {
            g.gpu_id: (
                f"gpu/lru/{g.gpu_id}",
                # late-bound through _policies: ablations swap the policy
                # objects after construction (Belady oracle)
                lambda gid=g.gpu_id: self._policies[gid].eviction_order_tuple(),
            )
            for g in gpus
        }
        self._location_marks: dict[str, tuple[str, Callable[[], object]]] = {}

    # ------------------------------------------------------------------
    # Lookups (used by GPU Managers and the Scheduler)
    # ------------------------------------------------------------------
    def is_cached_on(self, model_id: str, gpu_id: str) -> bool:
        return gpu_id in self._locations.get(model_id, ())

    def locations(self, model_id: str) -> list[str]:
        """GPUs where ``model_id`` is resident, sorted for determinism.

        Cached between residency changes (Alg. 2 asks on every scan);
        callers must not mutate the returned list.
        """
        cached = self._locations_sorted.get(model_id)
        if cached is None:
            cached = self._locations_sorted[model_id] = sorted(
                self._locations.get(model_id, ())
            )
        return cached

    def duplicates(self, model_id: str) -> int:
        """Number of GPUs simultaneously caching ``model_id`` (Fig. 6 metric)."""
        return len(self._locations.get(model_id, ()))

    def cached_anywhere(self, model_id: str) -> bool:
        return bool(self._locations.get(model_id))

    def models_on(self, gpu_id: str) -> frozenset[str]:
        """Model instances resident on ``gpu_id`` (cached view, O(1)).

        This is the §VI bound the scheduling fast path leans on: LALB's
        first scan asks for *this* set and does one queue-index lookup per
        member, so its cost is "bounded by the number of models cached on
        the GPU" rather than the queue length.
        """
        return self._policies[gpu_id].resident

    def lru_list(self, gpu_id: str) -> list[str]:
        """Eviction order of ``gpu_id`` (coldest first)."""
        return self._policies[gpu_id].eviction_order()

    # ------------------------------------------------------------------
    # Victim selection (§III-D)
    # ------------------------------------------------------------------
    def choose_victims(
        self, gpu_id: str, instance: ModelInstance, pinned: list[str] | None = None
    ) -> list[str]:
        """Victims that must be evicted from ``gpu_id`` to fit ``instance``.

        Mirrors the paper's protocol: the GPU Manager sends the GPU's
        available memory and the missing model's ID; the Cache Manager
        answers with victims chosen from that GPU's LRU list.
        """
        gpu = self._gpus[gpu_id]
        return self._policies[gpu_id].choose_victims(
            instance.occupied_mb, gpu.free_mb, pinned or []
        )

    # ------------------------------------------------------------------
    # State transitions (driven by GPU Managers)
    # ------------------------------------------------------------------
    def on_loaded(self, gpu_id: str, instance: ModelInstance) -> None:
        """A model finished uploading to ``gpu_id``."""
        self._policies[gpu_id].on_insert(instance.instance_id, instance.occupied_mb, self.sim.now)
        self._locations.setdefault(instance.instance_id, set()).add(gpu_id)
        self._locations_sorted.pop(instance.instance_id, None)
        self._publish(gpu_id, instance.instance_id)
        for fn in self._observers:
            fn("load", gpu_id, instance.instance_id, self.sim._now)
        if self.tracer is not None:
            self.tracer.cache_event("load", gpu_id, instance.instance_id)

    def on_evicted(self, gpu_id: str, model_id: str) -> None:
        """A model's process was killed and its memory released."""
        self._policies[gpu_id].on_evict(model_id)
        locs = self._locations.get(model_id)
        if locs:
            locs.discard(gpu_id)
            if not locs:
                del self._locations[model_id]
        self._locations_sorted.pop(model_id, None)
        self._publish(gpu_id, model_id)
        for fn in self._observers:
            fn("evict", gpu_id, model_id, self.sim._now)
        if self.tracer is not None:
            self.tracer.cache_event("evict", gpu_id, model_id)

    def on_used(self, gpu_id: str, model_id: str) -> None:
        """An inference on ``gpu_id`` reused the cached model (LRU touch).

        A use cannot change where the model is resident, and often (hot
        model re-used on its home GPU) does not even reorder the LRU
        list, so the no-op halves of the mirror write are elided: the
        locations key is never re-put on a use, and the LRU key only when
        the replacement policy reports the order actually changed.  Each
        skipped mark was one committed key, one ``KeyValue``, and one
        history entry per completion that said nothing — etcd clients do
        not re-put values they know are unchanged either.
        """
        now = self.sim._now
        if self._policies[gpu_id].on_access(model_id, now):
            self._publish(gpu_id, model_id, locations_changed=False)
        for fn in self._observers:
            fn("use", gpu_id, model_id, now)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def subscribe(self, fn: CacheEvent) -> None:
        """Register a cache-event observer (the metrics collector)."""
        self._observers.append(fn)

    def _publish(
        self, gpu_id: str, model_id: str, *, locations_changed: bool = True
    ) -> None:
        """Mark the GPU's LRU list and the model's locations dirty (§III-E).

        The values are supplied lazily: a batched Datastore evaluates the
        thunks once at flush time (dirty-key semantics — repeated touches
        between flushes serialize the eviction order once), an unbatched
        one immediately, preserving the literal per-put path.  An empty
        location list deletes the key, exactly like the eager path did.
        ``locations_changed=False`` (cache *uses*) skips the locations
        mark: residency did not move, so the write would commit an
        unchanged value.
        """
        if self._datastore is None:
            return
        lru_key, lru_thunk = self._lru_marks[gpu_id]
        self._datastore.put_lazy(lru_key, lru_thunk)
        if not locations_changed:
            return
        mark = self._location_marks.get(model_id)
        if mark is None:
            mark = (
                f"cache/locations/{model_id}",
                lambda model_id=model_id: tuple(self.locations(model_id)) or DELETE,
            )
            self._location_marks[model_id] = mark
        self._datastore.put_lazy(mark[0], mark[1])
