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
  Datastore (§III-E): each cache event puts the touched GPU's eviction
  order and, on a load or eviction, the model's locations (or deletes the
  key once no GPU holds the model).  The Datastore coalesces the
  puts of one scheduling action per key, so ten LRU touches
  commit as one transaction carrying the last list.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Protocol

from ..cluster.gpu import GPUDevice
from ..datastore.client import Datastore
from ..models.profiles import ModelInstance
from ..sim import Simulator
from .replacement import EvictionPolicy, LRUPolicy

__all__ = ["CacheManager", "CacheEvent"]

_gpu_id = attrgetter("gpu_id")


class CacheEvent(Protocol):  # pragma: no cover - typing helper
    """Observer signature: ``fn(kind, gpu_id, model_id, now)``.

    ``kind`` is one of ``"load"``, ``"evict"``, ``"use"``; the GPU is
    named by its ``gpu_id`` (observers record it as data).
    """

    def __call__(self, kind: str, gpu_id: str, model_id: str, now: float) -> None: ...


class CacheManager:
    """Global manager of the models cached across all GPU memories.

    Every per-GPU table is keyed by the :class:`GPUDevice`; the
    ``gpu_id`` strings appear only in what is published (Datastore keys
    and values, observer arguments).
    """

    def __init__(
        self,
        sim: Simulator,
        gpus: list[GPUDevice],
        *,
        datastore: Datastore,
        policy_factory: Callable[[], EvictionPolicy] = LRUPolicy,
    ) -> None:
        self.sim = sim
        self._policies: dict[GPUDevice, EvictionPolicy] = {
            g: policy_factory() for g in gpus
        }
        self._locations: dict[str, set[GPUDevice]] = {}  # model_id -> devices
        # model_id -> devices in gpu_id order; invalidated on load/evict
        self._locations_sorted: dict[str, list[GPUDevice]] = {}
        self._datastore = datastore
        self._observers: list[CacheEvent] = []
        #: optional flight recorder (installed by the runtime when tracing
        #: is on); load/evict only — ``on_used`` runs on every dispatch and
        #: stays uninstrumented
        self.tracer = None
        # key strings interned once per GPU / lazily per model: the
        # publishes run on every cache touch.  Published values are tuples
        # — an immutable snapshot per commit; the store's history retains
        # one per flush, and immutable tuples drop out of cyclic-GC
        # tracking, which matters over 100k+-request replays.
        self._lru_key = {g: f"gpu/lru/{g.gpu_id}" for g in gpus}
        self._location_key: dict[str, str] = {}

    # ------------------------------------------------------------------
    # Lookups (used by GPU Managers and the Scheduler)
    # ------------------------------------------------------------------
    def is_cached_on(self, model_id: str, gpu: GPUDevice) -> bool:
        return gpu in self._locations.get(model_id, ())

    def locations(self, model_id: str) -> list[GPUDevice]:
        """GPUs where ``model_id`` is resident, in ``gpu_id`` order.

        Cached between residency changes (Alg. 2 asks on every scan);
        callers must not mutate the returned list.
        """
        cached = self._locations_sorted.get(model_id)
        if cached is None:
            cached = self._locations_sorted[model_id] = sorted(
                self._locations.get(model_id, ()), key=_gpu_id
            )
        return cached

    def duplicates(self, model_id: str) -> int:
        """Number of GPUs simultaneously caching ``model_id`` (Fig. 6 metric)."""
        return len(self._locations.get(model_id, ()))

    def cached_anywhere(self, model_id: str) -> bool:
        return bool(self._locations.get(model_id))

    def models_on(self, gpu: GPUDevice) -> frozenset[str]:
        """Model instances resident on ``gpu`` (cached view, O(1)).

        This is the §VI bound the scheduling fast path leans on: LALB's
        first scan asks for *this* set and does one queue-index lookup per
        member, so its cost is "bounded by the number of models cached on
        the GPU" rather than the queue length.
        """
        return self._policies[gpu].resident

    def lru_list(self, gpu: GPUDevice) -> list[str]:
        """Eviction order of ``gpu`` (coldest first)."""
        return self._policies[gpu].eviction_order()

    # ------------------------------------------------------------------
    # Victim selection (§III-D)
    # ------------------------------------------------------------------
    def choose_victims(
        self, gpu: GPUDevice, instance: ModelInstance, pinned: list[str] | None = None
    ) -> list[str]:
        """Victims that must be evicted from ``gpu`` to fit ``instance``.

        Mirrors the paper's protocol: the GPU Manager sends the GPU's
        available memory and the missing model's ID; the Cache Manager
        answers with victims chosen from that GPU's LRU list.
        """
        return self._policies[gpu].choose_victims(
            instance.occupied_mb, gpu.free_mb, pinned or []
        )

    # ------------------------------------------------------------------
    # State transitions (driven by GPU Managers)
    # ------------------------------------------------------------------
    def on_loaded(self, gpu: GPUDevice, instance: ModelInstance) -> None:
        """A model finished uploading to ``gpu``."""
        self._policies[gpu].on_insert(instance.instance_id, instance.occupied_mb, self.sim.now)
        self._locations.setdefault(instance.instance_id, set()).add(gpu)
        self._locations_sorted.pop(instance.instance_id, None)
        self._publish(gpu, instance.instance_id)
        for fn in self._observers:
            fn("load", gpu.gpu_id, instance.instance_id, self.sim._now)
        if self.tracer is not None:
            self.tracer.cache_event("load", gpu.gpu_id, instance.instance_id)

    def on_evicted(self, gpu: GPUDevice, model_id: str) -> None:
        """A model's process was killed and its memory released."""
        self._policies[gpu].on_evict(model_id)
        locs = self._locations.get(model_id)
        if locs:
            locs.discard(gpu)
            if not locs:
                del self._locations[model_id]
        self._locations_sorted.pop(model_id, None)
        self._publish(gpu, model_id)
        for fn in self._observers:
            fn("evict", gpu.gpu_id, model_id, self.sim._now)
        if self.tracer is not None:
            self.tracer.cache_event("evict", gpu.gpu_id, model_id)

    def on_used(self, gpu: GPUDevice, model_id: str) -> None:
        """An inference on ``gpu`` reused the cached model (LRU touch).

        A use cannot change where the model is resident, and often (hot
        model re-used on its home GPU) does not even reorder the LRU
        list, so the no-op halves of the mirror write are elided: the
        locations key is never re-put on a use, and the LRU key only when
        the replacement policy reports the order actually changed.  Each
        skipped put was one committed key, one ``KeyValue``, and one
        history entry per completion that said nothing — etcd clients do
        not re-put values they know are unchanged either.
        """
        now = self.sim._now
        policy = self._policies[gpu]
        if policy.on_access(model_id, now):
            self._datastore.put(self._lru_key[gpu], policy.eviction_order_tuple())
        for fn in self._observers:
            fn("use", gpu.gpu_id, model_id, now)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def subscribe(self, fn: CacheEvent) -> None:
        """Register a cache-event observer (the metrics collector)."""
        self._observers.append(fn)

    def _publish(self, gpu: GPUDevice, model_id: str) -> None:
        """Put the GPU's eviction order and the model's locations (§III-E).

        The policy is read at publish time, so a swapped-in policy object
        (the Belady ablation's) is what gets published.  An empty location
        list deletes the key.
        """
        datastore = self._datastore
        policy = self._policies[gpu]
        datastore.put(self._lru_key[gpu], policy.eviction_order_tuple())
        key = self._location_key.get(model_id)
        if key is None:
            key = self._location_key[model_id] = f"cache/locations/{model_id}"
        locations = self.locations(model_id)
        if locations:
            datastore.put(key, tuple(map(_gpu_id, locations)))
        else:
            datastore.delete(key)
