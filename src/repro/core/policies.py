"""Scheduling policies (paper §IV).

* :class:`LoadBalancingPolicy` (**LB**) — the baseline: "simply dispatches
  the request at the head of the global queue whenever a GPU becomes idle"
  (§V-A).
* :class:`LALBPolicy` — locality-aware load-balancing, Algorithms 1 and 2,
  parameterized by the out-of-order (O3) skip limit.  ``limit=0`` is the
  paper's **LALB** (``"lalb"``); ``limit=25`` (the default) is **LALBO3**
  (``"lalbo3"``); any other N is ``"lalbo3(limit=N)"``, its one name.

Policies act through the :class:`SchedulerOps` interface exposed by the
Scheduler, so they are pure decision logic and unit-testable against fakes.

Index scans (§VI scalability)
-----------------------------
LB and LALB have one queue scan each, quota or not.  Alg. 1's first scan
probes the GlobalQueue's model index once per model resident on the GPU
(§VI's bound); the O3 ``visits`` bookkeeping is one O(log n) prefix update
in the queue, which owns the counts; starved requests come from the
queue's ordered starved set; the second scan walks queue heads, so its
cost is proportional to decisions made.  A tenant quota answers alike for
every queued request of a model within one per-GPU scan, so a scan asks
it once per queued model, and only while ``may_refuse`` is set.  The
literal O(GPUs × queue) transcription is the executable spec in
``tests/spec/policies.py``; ``tests/core/test_differential.py`` requires
byte-identical ``DecisionLog``s from both.

Pass elision (dirty signals)
----------------------------
A policy declares no guard.  The Scheduler's one
:class:`~repro.core.signals.PassGuard` holds for any policy, because it
reasons about the :class:`SchedulerOps` actions a pass can take, and the
Scheduler consults it before every would-be pass.  Inside a pass,
policies that support it consult the same predicate
(``SchedulerOps.pass_work_remaining``) to stop walking idle GPUs once no
remaining GPU can act.  Elision changes *which provably-empty scans
run*, never a decision: the differential suite replays identical
workloads under the spec's conservative guard with an always-True probe
and requires byte-identical ``DecisionLog``s.

Every per-GPU table a policy reads — local queues, cache residency and
locations, finish times, quota lookups — is keyed by the
:class:`~repro.cluster.gpu.GPUDevice`, and ``CacheManager.locations``
returns devices: a pass never turns a ``gpu_id`` back into a device.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Protocol

from ..cluster.gpu import GPUDevice
from .cache_manager import CacheManager
from .estimator import FinishTimeEstimator
from .queues import GlobalQueue, LocalQueues
from .request import InferenceRequest
from .tenancy import TenancyController

__all__ = [
    "SchedulerOps",
    "SchedulingPolicy",
    "LoadBalancingPolicy",
    "LocalityOnlyPolicy",
    "LALBPolicy",
    "make_scheduling_policy",
    "SCHEDULING_POLICY_NAMES",
    "DEFAULT_O3_LIMIT",
]

#: Paper §IV-B: "it sets a specified limit (by default 25)".
DEFAULT_O3_LIMIT = 25


class SchedulerOps(Protocol):  # pragma: no cover - typing interface
    """What a policy may observe and do; implemented by the Scheduler.

    ``pass_work_remaining`` is the mid-pass narrowing probe: the
    Scheduler binds it to its :class:`PassGuard` so a pass can
    stop walking idle GPUs the moment no remaining GPU can possibly act
    (the same provable-no-op predicate that elides whole passes).
    """

    global_queue: GlobalQueue
    local_queues: LocalQueues
    cache: CacheManager
    estimator: FinishTimeEstimator
    #: admission controller, or None when may_dispatch is trivially true
    tenancy: TenancyController | None
    #: every GPU in Alg. 1's use-frequency order (busy ones included); the
    #: order does not change within a pass
    gpus_by_frequency: list[GPUDevice]
    pass_work_remaining: Callable[[], bool]
    #: explain-mode cause log, or None
    explain: object | None

    def idle_gpus(self) -> list[GPUDevice]: ...
    def idle_gpus_by_frequency(self) -> list[GPUDevice]: ...
    def dispatch(self, request: InferenceRequest, gpu: GPUDevice) -> None: ...
    def dispatch_local_head(self, gpu: GPUDevice) -> None: ...
    def move_to_local(self, request: InferenceRequest, gpu: GPUDevice) -> None: ...
    def may_dispatch(self, request: InferenceRequest, gpu: GPUDevice) -> bool: ...


_NO_MODELS: frozenset[str] = frozenset()


def _refused_models(
    s: SchedulerOps, gpu: GPUDevice, *, cached_nowhere: bool = False
) -> set[str]:
    """Queued models whose requests ``s.may_dispatch`` refuses on ``gpu``:
    the check reads only the model, so one probe per queued model.
    ``cached_nowhere`` keeps only models resident on no GPU (Algorithm 2
    may still place any other as a hit or a local-queue move)."""
    may_dispatch = s.may_dispatch
    cached_anywhere = s.cache.cached_anywhere
    return {
        r.model_id
        for r in s.global_queue.model_heads()
        if not (cached_nowhere and cached_anywhere(r.model_id)) and not may_dispatch(r, gpu)
    }


class SchedulingPolicy(ABC):
    """One pass of scheduling decisions over the current system state."""

    name: str = "abstract"
    #: Alg. 1's O3 skip limit (None: the policy counts no visits)
    limit: int | None = None

    @abstractmethod
    def schedule_pass(self, s: SchedulerOps) -> bool:
        """Make dispatch decisions; return True if anything changed.

        The Scheduler re-invokes the pass until it reports no progress, so a
        policy need not drain every opportunity in a single pass.
        """


class LoadBalancingPolicy(SchedulingPolicy):
    """Default load-balancing baseline (no locality awareness)."""

    name = "lb"

    def schedule_pass(self, s: SchedulerOps) -> bool:
        work = s.pass_work_remaining
        queue = s.global_queue
        tenancy = s.tenancy
        progress = False
        for gpu in s.idle_gpus():
            if not gpu.is_idle:  # may have changed earlier in this pass
                continue
            request = queue.head()
            if request is None:
                continue
            if tenancy is not None and tenancy.may_refuse and not s.may_dispatch(request, gpu):
                # refused here: the oldest request of a model admitted here
                request = queue.head(_refused_models(s, gpu))
                if request is None:
                    continue
            s.dispatch(request, gpu)
            progress = True
            # narrowing: state changed; if no remaining idle GPU can act,
            # the rest of the walk is provably a no-op
            if not work():
                return True
        return progress


class LocalityOnlyPolicy(SchedulingPolicy):
    """Pure locality: always wait for the GPU that caches the model.

    The strawman §I warns about: "favoring locality may increase the
    average latency of requests because all the requests are forwarded to
    the GPU that has the model cached while the others are left idle."

    A request whose model is cached *anywhere* is bound to a caching GPU
    (idle → dispatch, busy → local queue, however long the wait); only
    requests whose model is cached nowhere may use an idle GPU.  Exists to
    quantify why LALB balances locality against load (see
    ``benchmarks/test_ablation_locality_only.py``).

    The guard gates pass *entry* only: once running, the global-queue
    walk may still bind requests to busy GPUs after the last idle GPU is
    consumed, so this pass never narrows mid-walk.
    """

    name = "locality"

    def schedule_pass(self, s: SchedulerOps) -> bool:
        peek = s.local_queues.peek
        progress = False
        # serve local queues first, like LALB
        for gpu in s.idle_gpus_by_frequency():
            if not gpu.is_idle:
                continue
            if peek(gpu) is not None:
                s.dispatch_local_head(gpu)
                progress = True
        # One pass-local idle view instead of re-probing per queue entry:
        # within a pass GPUs only *leave* the idle set (completions arrive
        # as separate simulator events) and completion counts are frozen,
        # so filtering the snapshot on ``is_idle`` yields exactly the
        # membership and frequency order a fresh probe would.
        idle_view = s.idle_gpus_by_frequency()
        # model_id -> the first idle GPU that admits a miss of it (None:
        # none does).  The answer reads only the model and the idle,
        # local-queue, cache and quota state, which within a pass only a
        # dispatch changes (a miss may evict its tenant's own process and
        # so re-admit a refused model): one probe per model between
        # dispatches.
        first_admitting: dict[str, GPUDevice | None] = {}
        # the live iteration allocates no snapshot; each visited request is
        # either left in place or removed, so the walk sees the same
        # sequence a snapshot would
        for request in s.global_queue.iter_requests():
            model_id = request.model_id
            locations = s.cache.locations(model_id)
            if locations:
                if self._bind_to_cached_gpu(s, request, locations):
                    progress = True
                    first_admitting.clear()
                continue
            if model_id in first_admitting:
                target = first_admitting[model_id]
            else:
                target = first_admitting[model_id] = self._first_admitting(
                    s, request, idle_view
                )
            if target is not None:
                s.dispatch(request, target)
                progress = True
                first_admitting.clear()
        return progress

    @staticmethod
    def _first_admitting(s: SchedulerOps, request, idle_view) -> GPUDevice | None:
        peek = s.local_queues.peek
        for gpu in idle_view:
            if gpu.is_idle and peek(gpu) is None and s.may_dispatch(request, gpu):
                return gpu
        return None

    @staticmethod
    def _bind_to_cached_gpu(s: SchedulerOps, request, locations) -> bool:
        for gpu in locations:
            if gpu.is_idle and s.local_queues.peek(gpu) is None:
                s.dispatch(request, gpu)
                return True
        # every caching GPU is busy → wait behind the least-loaded copy,
        # no matter how long (that is the point of the strawman)
        busy = [g for g in locations if not g.is_idle and g.is_online]
        if not busy:
            return False  # caching GPUs exist but are unusable right now
        target = min(busy, key=lambda g: (s.estimator.estimated_finish_time(g), g.gpu_id))
        s.move_to_local(request, target)
        return True


class LALBPolicy(SchedulingPolicy):
    """Locality-Aware Load-Balancing with optional out-of-order dispatch.

    Implements Algorithm 1 (per idle GPU, sorted by use frequency):

    1. serve the GPU's local queue first;
    2. scan the global queue in arrival order for a request whose model is
       cached on this GPU and dispatch it (the O3 promotion), force-routing
       any request that has been skipped more than ``limit`` times through
       :meth:`_locality_load_balance` (Algorithm 2) to prevent starvation;
    3. if no queued request is cached here, run Algorithm 2 over the queue
       in arrival order until some request lands on this GPU.

    Each per-GPU scan is the §VI index-driven one (see the module
    docstring).
    """

    def __init__(self, limit: int = DEFAULT_O3_LIMIT) -> None:
        if limit < 0:
            raise ValueError("O3 limit cannot be negative")
        self.limit = limit
        self.name = {0: "lalb", DEFAULT_O3_LIMIT: "lalbo3"}.get(limit, f"lalbo3(limit={limit})")

    def schedule_pass(self, s: SchedulerOps) -> bool:
        work = s.pass_work_remaining
        exp = s.explain
        peek = s.local_queues.peek
        queue = s.global_queue
        progress = False
        for gpu in s.gpus_by_frequency:  # Alg. 1's order, stable within a pass
            if not gpu.is_idle:  # busy, or dispatched to earlier in this pass
                continue
            # Alg. 1 lines 2–5: local queue has absolute priority.
            if peek(gpu) is not None:
                if exp is not None:
                    exp.note("alg1:local_queue_priority", gpu.gpu_id)
                s.dispatch_local_head(gpu)
            elif queue._live == 0 or not self._schedule_gpu(s, gpu):
                continue
            progress = True
            # narrowing: a dispatch just changed cluster/queue state; when
            # no remaining idle GPU can possibly act (queue drained, no
            # idle local work), the rest of the walk is provably a no-op
            if not work():
                return True
        return progress

    # ------------------------------------------------------------------
    def _schedule_gpu(self, s: SchedulerOps, gpu: GPUDevice) -> bool:
        """Algorithm 1 lines 6–22 for one idle GPU; True if anything changed.

        The literal scan's decisions without iterating the queue: the hit
        is the oldest admitted request of a model resident on ``gpu``; the
        starved entries before it come off the starved set; every admitted
        request before the stop gets its line-15 visit in one prefix bump.
        """
        queue = s.global_queue
        exp = s.explain
        tenancy = s.tenancy
        # models cached nowhere whose queued requests the quota refuses
        # on this GPU, for this whole scan
        refused = (
            _refused_models(s, gpu, cached_nowhere=True)
            if tenancy is not None and tenancy.may_refuse
            else _NO_MODELS
        )
        acted = False
        # -- first scan (lines 6–16) --------------------------------------
        # strategy pick off two O(1) signals: when the queue (including
        # holes past the head cursor) is no longer than the GPU's
        # resident-model list, walking it in arrival order costs less than
        # one index probe per resident model; both routes compute the same
        # oldest-hit entry.
        hit = None  # oldest queued request whose model is cached on `gpu`
        resident = s.cache.models_on(gpu)
        if refused:
            resident = resident - refused
        if len(queue._entries) - queue._head <= len(resident):
            hit = queue.first_entry_matching(resident)
        else:
            for model_id in resident:
                first = queue.first_for_model(model_id)
                if first is not None and (hit is None or first.slot < hit.slot):
                    hit = first
        stop_slot = hit.slot if hit is not None else None
        # line 11: requests already skipped past the limit, in queue order,
        # that the literal scan would reach before the hit.  The O(1)
        # starved counter elides the sweep outright in the common
        # nothing-starved state.  A model Algorithm 2 blocks stays blocked
        # for the rest of the scan (idle candidates only shrink, queued
        # costs only grow, nothing loads), here and in the second scan.
        blocked = refused
        if queue._starved:
            for starved in queue.starved_entries_before(stop_slot):
                if starved.model_id in blocked:
                    continue
                if exp is not None:
                    exp.note(
                        "alg1:starved_promotion",
                        f"request={starved.request_id}",
                        f"visits={starved.visits}>limit={self.limit}",
                    )
                slot = starved.slot  # before Algorithm 2 removes it (slot -1)
                outcome = self._locality_load_balance(s, gpu, starved)
                if outcome == "to_this_gpu":
                    # line 13: GPUi consumed; everything scanned before this
                    # request was skipped once more (line 15)
                    queue.bump_visits_before(slot, refused)
                    return True
                if outcome == "blocked":
                    blocked = blocked | {starved.model_id}
                else:
                    acted = True
        if hit is not None:
            queue.bump_visits_before(stop_slot, refused)  # skips before the hit
            if exp is not None:
                exp.note("alg1:cached_here", hit.model_id, gpu.gpu_id)
            s.dispatch(hit, gpu)  # line 8
            return True
        queue.bump_visits_before(None, refused)  # no hit: all was skipped
        # -- second scan (lines 17–21) ------------------------------------
        # each Algorithm-2 outcome removes the head, except "blocked"
        while (head := queue.head(blocked)) is not None:
            outcome = self._locality_load_balance(s, gpu, head)
            if outcome == "to_this_gpu":
                return True
            if outcome == "blocked":
                blocked = blocked | {head.model_id}
            else:
                acted = True
        return acted

    def _locality_load_balance(
        self,
        s: SchedulerOps,
        gpu_i: GPUDevice,
        request: InferenceRequest,
    ) -> str:
        """Algorithm 2.  Outcomes:

        * ``"to_this_gpu"`` — dispatched to ``gpu_i`` as a cache miss
          (Alg. 2 returns True);
        * ``"handled"`` — dispatched to another idle GPU with the model
          cached, or moved into a busy GPU's local queue (returns False);
        * ``"blocked"`` — left in the global queue because the tenant's
          quota forbids starting a new GPU process (§VI extension).
        """
        exp = s.explain
        locations = s.cache.locations(request.model_id)
        # Lines 1–3: not cached anywhere → allow the miss on GPUi
        # (subject to the tenant's quota on new GPU processes, §VI).
        if not locations:
            if s.tenancy is not None and not s.may_dispatch(request, gpu_i):
                if exp is not None:
                    exp.note("alg2:blocked_by_quota", request.model.tenant, gpu_i.gpu_id)
                return "blocked"  # stays queued for a GPU where the tenant may load
            if exp is not None:
                exp.note("alg2:not_cached_anywhere", "miss on", gpu_i.gpu_id)
            s.dispatch(request, gpu_i)
            return "to_this_gpu"
        if exp is not None:
            exp.note("alg2:candidates", *[g.gpu_id for g in locations])
        # Lines 4–6: cached on another idle GPU → dispatch there instead.
        # (Skip idle GPUs whose local queue is pending — Alg. 1 gives local
        # queues absolute priority, so those GPUs are already spoken for.)
        for other in locations:
            if other.is_idle and other is not gpu_i and s.local_queues.peek(other) is None:
                if exp is not None:
                    exp.note("alg2:cached_on_idle_gpu", other.gpu_id)
                s.dispatch(request, other)
                return "handled"
            elif exp is not None:
                why = (
                    "is_scanning_gpu" if other is gpu_i
                    else ("busy" if not other.is_idle else "local_queue_pending")
                )
                exp.note("alg2:rejected", other.gpu_id, why)
        # Lines 8–15: cached on busy GPUs → queue behind the cached copy
        # when the wait beats the model-loading time on the idle GPU.
        for busy in locations:
            if busy.is_idle:
                continue
            if s.estimator.hit_on_busy_beats_miss_on_idle(request, busy, gpu_i):
                if exp is not None:
                    exp.note("alg2:wait_beats_load", busy.gpu_id)
                s.move_to_local(request, busy)
                return "handled"
            elif exp is not None:
                exp.note("alg2:load_beats_wait", busy.gpu_id)
        # Lines 16–18: no busy GPU wins → allow the cache miss on GPUi
        # (again subject to the tenant's new-process quota).
        if s.tenancy is not None and not s.may_dispatch(request, gpu_i):
            if exp is not None:
                exp.note("alg2:blocked_by_quota", request.model.tenant, gpu_i.gpu_id)
            return "blocked"
        if exp is not None:
            exp.note("alg2:miss_on_idle_wins", gpu_i.gpu_id)
        s.dispatch(request, gpu_i)
        return "to_this_gpu"


#: name -> builder: the paper's three schedulers plus the ``"locality"``
#: strawman of §I
_POLICY_BUILDERS: dict[str, Callable[[], SchedulingPolicy]] = {
    "lb": LoadBalancingPolicy,
    "locality": LocalityOnlyPolicy,
    "lalb": lambda: LALBPolicy(limit=0),
    "lalbo3": LALBPolicy,
}
SCHEDULING_POLICY_NAMES = tuple(_POLICY_BUILDERS)


def make_scheduling_policy(name: str) -> SchedulingPolicy:
    """Build the policy whose ``.name`` is exactly ``name``: one of
    ``SCHEDULING_POLICY_NAMES`` or ``"lalbo3(limit=N)"`` for N not 0 or 25."""
    builder = _POLICY_BUILDERS.get(name)
    if builder is not None:
        return builder()
    digits = name[len("lalbo3(limit=") : -1]
    # the round trip rejects every other spelling of a limit (0, 25, 05)
    if digits.isdecimal() and (policy := LALBPolicy(int(digits))).name == name:
        return policy
    known = ", ".join(SCHEDULING_POLICY_NAMES)
    raise ValueError(f"unknown policy {name!r}; known: {known}, lalbo3(limit=N)")
