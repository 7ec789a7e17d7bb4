"""Cache-replacement policies for models resident in GPU memory.

The paper's Cache Manager "largely follows the LRU replacement policy"
(§III-D) and notes that "our system's design can easily support other cache
replacement policies (by replacing the LRU lists with other types of sorted
lists)" (§VI).  This module provides that pluggable sorted list: LRU plus
FIFO, LFU, size-aware, and an offline Belady oracle used by the ablation
benchmarks.

A policy instance manages *one* GPU's residency order; the Cache Manager
holds one per GPU (that per-GPU separation is what makes the global Cache
Manager scalable, §VI).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import Callable, Iterable

__all__ = [
    "EvictionPolicy",
    "LRUPolicy",
    "FIFOPolicy",
    "LFUPolicy",
    "SizeAwarePolicy",
    "BeladyPolicy",
    "make_policy",
    "POLICY_NAMES",
]


class EvictionPolicy(ABC):
    """Ordering of one GPU's resident models, best eviction victim first.

    The ``resident`` and ``eviction_order()`` views are cached between
    residency changes: victim queries and the scheduler's per-pass
    resident-model lookups no longer rebuild a fresh set/sorted list each
    time.  Returned views are shared snapshots — callers must not mutate
    them (every invalidation builds a new object, so snapshots previously
    handed out stay intact).
    """

    def __init__(self) -> None:
        self._resident: dict[str, float] = {}  # model_id -> occupied_mb
        self._resident_view: frozenset[str] | None = None
        self._order_view: list[str] | None = None
        # published-tuple cache, keyed by the list view's identity
        self._order_tuple: tuple[str, ...] = ()
        self._order_tuple_src: list[str] | None = None

    # -- residency bookkeeping ------------------------------------------
    def on_insert(self, model_id: str, size_mb: float, now: float) -> None:
        if model_id in self._resident:
            raise ValueError(f"{model_id} already tracked")
        self._resident[model_id] = size_mb
        self._resident_view = None
        self._order_view = None
        self._insert(model_id, now)

    def on_access(self, model_id: str, now: float) -> bool:
        """Record a cache hit; returns whether the eviction order changed.

        The return value is a dirty signal: the Cache Manager skips
        re-publishing a GPU's LRU list when a touch provably left it
        unchanged (e.g. re-using the most-recently-used model — the
        common case under locality scheduling).  Policies that cannot
        decide cheaply report True (conservative).
        """
        if model_id not in self._resident:
            raise KeyError(f"{model_id} is not resident")
        changed = self._access(model_id, now)
        if changed:
            self._order_view = None
        return changed

    def on_evict(self, model_id: str) -> None:
        if model_id not in self._resident:
            raise KeyError(f"{model_id} is not resident")
        del self._resident[model_id]
        self._resident_view = None
        self._order_view = None
        self._forget(model_id)

    @property
    def resident(self) -> frozenset[str]:
        view = self._resident_view
        if view is None:
            view = self._resident_view = frozenset(self._resident)
        return view

    # -- policy-specific hooks -------------------------------------------
    @abstractmethod
    def _insert(self, model_id: str, now: float) -> None: ...

    @abstractmethod
    def _access(self, model_id: str, now: float) -> bool:
        """Observe a hit; return whether it can reorder the victims (True
        when in doubt; exact in LRU — already-MRU — and FIFO — never)."""

    @abstractmethod
    def _forget(self, model_id: str) -> None: ...

    @abstractmethod
    def _compute_eviction_order(self) -> list[str]:
        """Resident models, best victim first (e.g. coldest first for LRU)."""

    def eviction_order(self) -> list[str]:
        """Resident models, best victim first (cached between changes)."""
        order = self._order_view
        if order is None:
            order = self._order_view = self._compute_eviction_order()
        return order

    def eviction_order_tuple(self) -> tuple[str, ...]:
        """The eviction order as an immutable tuple (what the Cache
        Manager publishes to the Datastore), cached alongside the list
        view so repeated flushes between changes serialize it once."""
        order = self.eviction_order()
        if self._order_tuple_src is not order:
            self._order_tuple = tuple(order)
            self._order_tuple_src = order
        return self._order_tuple

    # -- victim selection (§III-D) ----------------------------------------
    def choose_victims(
        self, needed_mb: float, free_mb: float, pinned: Iterable[str] = ()
    ) -> list[str]:
        """Victims to evict so ``needed_mb`` fits given current ``free_mb``.

        Walks the eviction order, skipping pinned models, until enough
        memory is freed.  Raises :class:`MemoryError` when even evicting
        every non-pinned model would not make room.
        """
        if needed_mb <= free_mb:
            return []
        pinned = set(pinned)
        victims: list[str] = []
        reclaimable = free_mb
        for model_id in self.eviction_order():
            if model_id in pinned:
                continue
            victims.append(model_id)
            reclaimable += self._resident[model_id]
            if needed_mb <= reclaimable:
                return victims
        raise MemoryError(
            f"cannot make {needed_mb:.0f} MB: only {reclaimable:.0f} MB reclaimable"
        )


class LRUPolicy(EvictionPolicy):
    """Least-recently-used — the paper's default (§III-D)."""

    def __init__(self) -> None:
        super().__init__()
        self._order: OrderedDict[str, None] = OrderedDict()  # coldest first

    def _insert(self, model_id: str, now: float) -> None:
        self._order[model_id] = None  # newly loaded = most recently used

    def _access(self, model_id: str, now: float) -> bool:
        if next(reversed(self._order)) == model_id:
            return False  # re-using the most-recently-used model
        self._order.move_to_end(model_id)
        return True

    def _forget(self, model_id: str) -> None:
        del self._order[model_id]

    def _compute_eviction_order(self) -> list[str]:
        return list(self._order)

    def lru_list(self) -> list[str]:
        """The LRU list as published to the Datastore (coldest → hottest)."""
        return self.eviction_order()


class FIFOPolicy(EvictionPolicy):
    """Evict in load order, ignoring reuse."""

    def __init__(self) -> None:
        super().__init__()
        self._order: OrderedDict[str, None] = OrderedDict()

    def _insert(self, model_id: str, now: float) -> None:
        self._order[model_id] = None

    def _access(self, model_id: str, now: float) -> bool:
        return False  # load order is fixed at insertion

    def _forget(self, model_id: str) -> None:
        del self._order[model_id]

    def _compute_eviction_order(self) -> list[str]:
        return list(self._order)


class LFUPolicy(EvictionPolicy):
    """Least-frequently-used, ties broken by least recent use."""

    def __init__(self) -> None:
        super().__init__()
        self._counts: dict[str, int] = {}
        self._last_use: dict[str, float] = {}

    def _insert(self, model_id: str, now: float) -> None:
        self._counts[model_id] = 0
        self._last_use[model_id] = now

    def _access(self, model_id: str, now: float) -> bool:
        self._counts[model_id] += 1
        self._last_use[model_id] = now
        return True

    def _forget(self, model_id: str) -> None:
        del self._counts[model_id]
        del self._last_use[model_id]

    def _compute_eviction_order(self) -> list[str]:
        return sorted(self._counts, key=lambda m: (self._counts[m], self._last_use[m]))


class SizeAwarePolicy(EvictionPolicy):
    """Evict the largest models first (frees space with fewest kills)."""

    def __init__(self) -> None:
        super().__init__()
        self._last_use: dict[str, float] = {}

    def _insert(self, model_id: str, now: float) -> None:
        self._last_use[model_id] = now

    def _access(self, model_id: str, now: float) -> bool:
        self._last_use[model_id] = now
        return True

    def _forget(self, model_id: str) -> None:
        del self._last_use[model_id]

    def _compute_eviction_order(self) -> list[str]:
        # largest first; ties broken LRU so hot small models survive
        return sorted(self._resident, key=lambda m: (-self._resident[m], self._last_use[m]))


class BeladyPolicy(EvictionPolicy):
    """Offline optimal (evict the model reused farthest in the future).

    Requires a ``next_use`` oracle: ``next_use(model_id, now) -> float``
    returning the next simulated time the model will be requested (``inf``
    if never).  Only meaningful in benchmarks where the whole workload is
    known up front; it bounds how much any online policy could gain.
    """

    def __init__(self, next_use: Callable[[str, float], float]) -> None:
        super().__init__()
        self._next_use = next_use
        self._now = 0.0

    def _insert(self, model_id: str, now: float) -> None:
        self._now = now

    def _access(self, model_id: str, now: float) -> bool:
        self._now = now
        return True

    def _forget(self, model_id: str) -> None:
        pass

    def _compute_eviction_order(self) -> list[str]:
        return sorted(self._resident, key=lambda m: -self._next_use(m, self._now))

    def eviction_order(self) -> list[str]:
        # the oracle is time-dependent: never serve a stale cached ordering
        return self._compute_eviction_order()


#: name -> policy class (Belady is absent: it needs its oracle)
_POLICY_CLASSES: dict[str, type[EvictionPolicy]] = {
    "lru": LRUPolicy,
    "fifo": FIFOPolicy,
    "lfu": LFUPolicy,
    "size": SizeAwarePolicy,
}
POLICY_NAMES = tuple(_POLICY_CLASSES)


def make_policy(name: str) -> EvictionPolicy:
    """Instantiate a replacement policy by name (Belady needs its oracle)."""
    if name not in _POLICY_CLASSES:
        raise KeyError(f"unknown replacement policy {name!r}; known: {sorted(POLICY_NAMES)}")
    return _POLICY_CLASSES[name]()
