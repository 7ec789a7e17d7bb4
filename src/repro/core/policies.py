"""Scheduling policies (paper §IV).

* :class:`LoadBalancingPolicy` (**LB**) — the baseline: "simply dispatches
  the request at the head of the global queue whenever a GPU becomes idle"
  (§V-A).
* :class:`LALBPolicy` — locality-aware load-balancing, Algorithms 1 and 2,
  parameterized by the out-of-order (O3) skip limit.  ``limit=0`` is the
  paper's **LALB**; ``limit=25`` (the default) is **LALBO3**.

Policies act through the :class:`SchedulerOps` interface exposed by the
Scheduler, so they are pure decision logic and unit-testable against fakes.

Fast path (§VI scalability)
---------------------------
LB and LALB carry two implementations of their queue scan, and each
per-GPU scan picks its route from an observable property of the system —
whether a tenant quota can bind during this pass (see below) — never
from a setting:

* the **index-driven fast path** — Alg. 1's first scan asks the
  Cache Manager for the GPU's resident models and the GlobalQueue's
  model index for each model's oldest request, so its cost is bounded by
  the number of models cached on the GPU, exactly as §VI argues; the O3
  ``visits`` bookkeeping collapses into one O(log n) prefix update; the
  starvation guard walks the queue's ordered starved set instead of
  rediscovering starved requests by rescanning; the second scan walks
  queue heads (every Algorithm-2 outcome removes the head, so the cost is
  proportional to decisions made, not queue length);
* the **reference scan** — the literal O(GPUs × queue) loop transcribed
  from Algorithms 1/2, whose per-request ``may_dispatch`` probes handle
  quota refusals exactly.  It is the production route whenever a quota
  binds, and the executable specification the fast path must match:
  ``tests/core/test_differential.py`` sends every scan down it and
  requires byte-identical ``DecisionLog`` sequences.

Pass elision (dirty signals)
----------------------------
Every policy also declares a :class:`~repro.core.signals.PassGuard` — the
preconditions under which one pass can produce any decision.  The
Scheduler consults it before every would-be pass and skips passes the
guard proves are no-ops; inside a pass, policies that support it consult
the same predicate (``SchedulerOps.pass_work_remaining``) to stop
walking idle GPUs once no remaining GPU can act.  Elision changes *which
provably-empty scans run*, never a decision: the differential suite
replays identical workloads under the conservative base guard with the
probe unbound and requires byte-identical ``DecisionLog``s.  (The
``fast_scans``/``reference_scans`` counters may legitimately differ
between the two — an elided pass performs no scans at all.)

The fast path assumes the admission check is trivially true.  With a
:class:`~repro.core.tenancy.TenancyController` installed the policies no
longer fall back to the reference scans wholesale: before each per-GPU
scan they ask the controller to *certify the pass* from the GlobalQueue's
tenant index (``pass_admission_trivial`` — every queued tenant has enough
quota headroom to absorb the pass's worst case, so no ``may_dispatch``
probe can refuse).  Only when a quota is actually binding does the scan
drop to the literal reference loops, whose per-request probes handle
refusals exactly.  ``fast_scans`` / ``reference_scans`` count which route
each per-GPU scan took.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Protocol

from ..cluster.gpu import GPUDevice
from .cache_manager import CacheManager
from .estimator import FinishTimeEstimator
from .queues import GlobalQueue, LocalQueues
from .request import InferenceRequest
from .signals import DispatchableWorkGuard, PassGuard

__all__ = [
    "SchedulerOps",
    "SchedulingPolicy",
    "LoadBalancingPolicy",
    "LocalityOnlyPolicy",
    "LALBPolicy",
    "make_scheduling_policy",
    "DEFAULT_O3_LIMIT",
]

#: Paper §IV-B: "it sets a specified limit (by default 25)".
DEFAULT_O3_LIMIT = 25


class SchedulerOps(Protocol):  # pragma: no cover - typing interface
    """What a policy may observe and do; implemented by the Scheduler.

    ``pass_work_remaining`` is the optional mid-pass narrowing probe: the
    Scheduler binds it to the policy's :class:`PassGuard` so a pass can
    stop walking idle GPUs the moment no remaining GPU can possibly act
    (the same provable-no-op predicate that elides whole passes).
    Implementations without it (unit-test fakes, the differential
    suite's literal arm) simply run the full walk — policies look it up
    with ``getattr(..., None)`` and never require it.
    """

    global_queue: GlobalQueue
    local_queues: LocalQueues
    cache: CacheManager
    estimator: FinishTimeEstimator
    #: admission controller, or None when may_dispatch is trivially true.
    #: Implementations whose may_dispatch can refuse requests MUST expose a
    #: non-None value here, or the fast paths will skip the admission probes.
    tenancy: object | None

    def idle_gpus(self) -> list[GPUDevice]: ...
    def idle_gpus_by_frequency(self) -> list[GPUDevice]: ...
    def busy_gpus(self) -> list[GPUDevice]: ...
    def gpu(self, gpu_id: str) -> GPUDevice: ...
    def dispatch(self, request: InferenceRequest, gpu: GPUDevice) -> None: ...
    def dispatch_local_head(self, gpu: GPUDevice) -> None: ...
    def move_to_local(self, request: InferenceRequest, gpu: GPUDevice) -> None: ...
    def may_dispatch(
        self, request: InferenceRequest, gpu: GPUDevice | None = None
    ) -> bool: ...


_MISSING = object()


def _admission_is_trivial(s: SchedulerOps) -> bool:
    """True when no ``may_dispatch`` probe can refuse for the rest of this
    scheduling pass, so an index-driven scan that skips the probes is
    decision-identical to the reference loop.

    Three cases:

    * no tenancy controller — trivially true (the PR-1 fast-path gate);
    * a controller exposing ``pass_admission_trivial`` — certified from
      the GlobalQueue's tenant index against the pass's worst case (at
      most one new model load per currently idle GPU), O(quota'd tenants)
      instead of a queue scan;
    * anything else (a ``tenancy`` object without the probe, or an ops
      implementation omitting the attribute) — fail safe: the reference
      scans run and probe ``may_dispatch`` per request.
    """
    tenancy = getattr(s, "tenancy", _MISSING)
    if tenancy is None:
        return True
    if tenancy is _MISSING:
        return False
    probe = getattr(tenancy, "pass_admission_trivial", None)
    if probe is None:
        return False
    return probe(s.global_queue, len(s.idle_gpus()))


class SchedulingPolicy(ABC):
    """One pass of scheduling decisions over the current system state."""

    name: str = "abstract"
    #: preconditions for a pass to act; the Scheduler consults this
    #: before every would-be pass.  The base guard is the conservative
    #: fail-safe (exactly the historical run conditions), so subclasses
    #: that declare nothing are never over-elided.
    guard: PassGuard = PassGuard()

    def __init__(self) -> None:
        #: per-GPU scans served by the index-driven fast path
        self.fast_scans = 0
        #: per-GPU scans that dropped to the literal reference loops
        self.reference_scans = 0

    @abstractmethod
    def schedule_pass(self, s: SchedulerOps) -> bool:
        """Make dispatch decisions; return True if anything changed.

        The Scheduler re-invokes the pass until it reports no progress, so a
        policy need not drain every opportunity in a single pass.
        """


class LoadBalancingPolicy(SchedulingPolicy):
    """Default load-balancing baseline (no locality awareness)."""

    name = "lb"
    guard = DispatchableWorkGuard()

    def schedule_pass(self, s: SchedulerOps) -> bool:
        work = getattr(s, "pass_work_remaining", None)
        progress = False
        for gpu in s.idle_gpus():
            if not gpu.is_idle:  # may have changed earlier in this pass
                continue
            # LB never populates local queues, but drain defensively so a
            # policy switch mid-experiment cannot strand requests.
            if s.local_queues.peek(gpu.gpu_id) is not None:
                s.dispatch_local_head(gpu)
                progress = True
            else:
                request = self._head(s, gpu)
                if request is None:
                    continue
                s.dispatch(request, gpu)
                progress = True
            # narrowing: state changed; if no remaining idle GPU can act,
            # the rest of the walk is provably a no-op
            if work is not None and not work():
                return True
        return progress

    def _head(self, s: SchedulerOps, gpu: GPUDevice) -> InferenceRequest | None:
        if _admission_is_trivial(s):
            self.fast_scans += 1
            return s.global_queue.head()  # O(1): admission cannot refuse it
        self.reference_scans += 1
        return self._head_reference(s, gpu)

    @staticmethod
    def _head_reference(s: SchedulerOps, gpu: GPUDevice) -> InferenceRequest | None:
        for request in s.global_queue:
            if s.may_dispatch(request, gpu):
                return request
        return None


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
    """

    name = "locality"
    #: the guard gates pass *entry* only: once running, the global-queue
    #: walk below may still bind requests to busy GPUs after the last
    #: idle GPU is consumed, so this pass never narrows mid-walk
    guard = DispatchableWorkGuard()

    def schedule_pass(self, s: SchedulerOps) -> bool:
        progress = False
        # serve local queues first, like LALB
        for gpu in s.idle_gpus_by_frequency():
            if not gpu.is_idle:
                continue
            if s.local_queues.peek(gpu.gpu_id) is not None:
                s.dispatch_local_head(gpu)
                progress = True
        # One pass-local idle view instead of re-probing per queue entry:
        # within a pass GPUs only *leave* the idle set (completions arrive
        # as separate simulator events) and completion counts are frozen,
        # so filtering the snapshot on ``is_idle`` yields exactly the
        # membership and frequency order a fresh probe would.
        idle_view = s.idle_gpus_by_frequency()
        # the live iteration allocates no snapshot; each visited request is
        # either left in place or removed, so the walk sees the same
        # sequence a snapshot would
        for request in s.global_queue.iter_requests():
            if not s.may_dispatch(request):
                continue
            locations = s.cache.locations(request.model_id)
            if locations:
                handled = self._bind_to_cached_gpu(s, request, locations)
                progress = progress or handled
            else:
                idle = [
                    g
                    for g in idle_view
                    if g.is_idle
                    and s.local_queues.peek(g.gpu_id) is None
                    and s.may_dispatch(request, g)
                ]
                if idle:
                    s.dispatch(request, idle[0])
                    progress = True
        return progress

    @staticmethod
    def _bind_to_cached_gpu(s: SchedulerOps, request, locations) -> bool:
        for gpu_id in locations:
            gpu = s.gpu(gpu_id)
            if gpu.is_idle and s.local_queues.peek(gpu_id) is None:
                s.dispatch(request, gpu)
                return True
        # every caching GPU is busy → wait behind the least-loaded copy,
        # no matter how long (that is the point of the strawman)
        busy = [s.gpu(g) for g in locations if not s.gpu(g).is_idle and s.gpu(g).is_online]
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

    Each per-GPU scan takes the §VI index-driven fast path unless a tenant
    quota can bind during the pass, in which case it runs the literal
    scan (see the module docstring).
    """

    guard = DispatchableWorkGuard()

    def __init__(self, limit: int = DEFAULT_O3_LIMIT) -> None:
        super().__init__()
        if limit < 0:
            raise ValueError("O3 limit cannot be negative")
        self.limit = limit
        self.name = "lalbo3" if limit > 0 else "lalb"

    def schedule_pass(self, s: SchedulerOps) -> bool:
        work = getattr(s, "pass_work_remaining", None)
        # explain mode: the Scheduler always defines the attribute (None
        # when off), so this getattr stays on the found-attribute path
        exp = getattr(s, "explain", None)
        peek = s.local_queues.peek
        queue = s.global_queue
        progress = False
        for gpu in s.idle_gpus_by_frequency():
            if not gpu.is_idle:  # became busy earlier in this pass
                continue
            # Alg. 1 lines 2–5: local queue has absolute priority.
            if peek(gpu.gpu_id) is not None:
                if exp is not None:
                    exp.note("alg1:local_queue_priority", gpu.gpu_id)
                s.dispatch_local_head(gpu)
                progress = True
            elif queue._live == 0 or not self._schedule_gpu(s, gpu):
                continue
            else:
                progress = True
            # narrowing: a dispatch just changed cluster/queue state; when
            # no remaining idle GPU can possibly act (queue drained, no
            # idle local work), the rest of the walk is provably a no-op
            if work is not None and not work():
                return True
        return progress

    # ------------------------------------------------------------------
    def _schedule_gpu(self, s: SchedulerOps, gpu: GPUDevice) -> bool:
        if (
            # the queue's lazy starvation tracking must assume *this*
            # policy's limit (guards against policy swaps mid-experiment);
            # read the private field — this check runs per idle-GPU scan
            s.global_queue._o3_limit == self.limit
            and _admission_is_trivial(s)
        ):
            self.fast_scans += 1
            return self._schedule_gpu_fast(s, gpu)
        self.reference_scans += 1
        return self._schedule_gpu_reference(s, gpu)

    def _schedule_gpu_fast(self, s: SchedulerOps, gpu: GPUDevice) -> bool:
        """Index-driven Algorithm 1 for one idle GPU.

        Produces exactly the decision sequence of
        :meth:`_schedule_gpu_reference` (asserted by the parity tests)
        while never iterating the queue:

        * the first scan's cache hit is the oldest queued request of any
          model resident on ``gpu`` — an index lookup per resident model;
        * starved requests positioned before that hit are exactly the
          queue's starved-set entries with smaller slots;
        * every request the reference scan would have skipped (those before
          the stop position) receives its Alg. 1 line-15 visit via one
          lazy prefix update.
        """
        queue = s.global_queue
        exp = getattr(s, "explain", None)
        acted = False
        # -- first scan (lines 6–16) --------------------------------------
        # strategy pick off two O(1) signals: when the queue (including
        # holes past the head cursor) is no longer than the GPU's
        # resident-model list, walking it in arrival order costs less than
        # one index probe per resident model; both routes compute the same
        # oldest-hit entry.
        hit = None  # oldest queued entry whose model is cached on `gpu`
        resident = s.cache.models_on(gpu.gpu_id)
        if queue.scan_span() <= len(resident):
            hit = queue.first_entry_matching(resident)
        else:
            for model_id in resident:
                entry = queue.first_entry_for_model(model_id)
                if entry is not None and (hit is None or entry.slot < hit.slot):
                    hit = entry
        stop_slot = hit.slot if hit is not None else None
        # line 11: requests already skipped past the limit, in queue order,
        # that the reference scan would reach before the hit.  The O(1)
        # starved counter elides the sweep outright in the common
        # nothing-starved state.
        if queue.starved_count:
            for entry in queue.starved_entries_before(stop_slot):
                if exp is not None:
                    exp.note(
                        "alg1:starved_promotion",
                        f"request={entry.request.request_id}",
                        f"visits={entry.request.visits}>limit={self.limit}",
                    )
                outcome = self._locality_load_balance(
                    s, gpu, entry.request, admission_trivial=True
                )
                if outcome == "to_this_gpu":
                    # line 13: GPUi consumed; everything scanned before this
                    # request was skipped once more (line 15)
                    queue.bump_visits_before(entry.slot)
                    return True
                acted = True  # "handled" (admission is trivial, never "blocked")
        if hit is not None:
            queue.bump_visits_before(stop_slot)  # skips strictly before the hit
            if exp is not None:
                exp.note("alg1:cached_here", hit.request.model_id, gpu.gpu_id)
            s.dispatch(hit.request, gpu)  # line 8
            return True
        queue.bump_visits_before(None)  # no hit: the whole queue was skipped
        # -- second scan (lines 17–21) ------------------------------------
        # Algorithm 2 either dispatches the head here, dispatches it to
        # another idle GPU, or binds it to a busy GPU's local queue — the
        # head always leaves the queue, so walking heads costs O(decisions).
        while (head := queue.head()) is not None:
            outcome = self._locality_load_balance(s, gpu, head, admission_trivial=True)
            if outcome == "to_this_gpu":
                return True
            if outcome == "blocked":  # pragma: no cover - impossible w/o tenancy
                break
            acted = True
        return acted

    def _schedule_gpu_reference(self, s: SchedulerOps, gpu: GPUDevice) -> bool:
        """Algorithm 1 lines 6–22 for one idle GPU; True if anything changed.

        The literal O(queue) transcription of the paper's pseudocode; the
        fast path above must match it decision for decision.
        """
        exp = getattr(s, "explain", None)
        acted = False
        # -- first scan (lines 6–16): look for a cache hit on this GPU ----
        for request in s.global_queue:
            if not s.may_dispatch(request):
                continue
            if s.cache.is_cached_on(request.model_id, gpu.gpu_id):
                if exp is not None:
                    exp.note("alg1:cached_here", request.model_id, gpu.gpu_id)
                s.dispatch(request, gpu)  # line 8
                return True
            if request.visits > self.limit:  # line 11: starvation guard
                if exp is not None:
                    exp.note(
                        "alg1:starved_promotion",
                        f"request={request.request_id}",
                        f"visits={request.visits}>limit={self.limit}",
                    )
                outcome = self._locality_load_balance(s, gpu, request)
                if outcome == "to_this_gpu":
                    return True  # line 13: GPUi consumed → next GPU
                if outcome == "handled":
                    acted = True
                continue  # blocked or handled elsewhere; keep scanning
            request.visits += 1  # line 15: skipped once more
        # -- second scan (lines 17–21): no cached request for this GPU ----
        for request in s.global_queue:
            if not s.may_dispatch(request):
                continue
            outcome = self._locality_load_balance(s, gpu, request)
            if outcome == "to_this_gpu":
                return True
            if outcome == "handled":
                acted = True
        return acted

    def _locality_load_balance(
        self,
        s: SchedulerOps,
        gpu_i: GPUDevice,
        request: InferenceRequest,
        *,
        admission_trivial: bool = False,
    ) -> str:
        """Algorithm 2.  Outcomes:

        * ``"to_this_gpu"`` — dispatched to ``gpu_i`` as a cache miss
          (Alg. 2 returns True);
        * ``"handled"`` — dispatched to another idle GPU with the model
          cached, or moved into a busy GPU's local queue (returns False);
        * ``"blocked"`` — left in the global queue because the tenant's
          quota forbids starting a new GPU process (§VI extension).
        """
        exp = getattr(s, "explain", None)
        locations = s.cache.locations(request.model_id)
        # Lines 1–3: not cached anywhere → allow the miss on GPUi
        # (subject to the tenant's quota on new GPU processes, §VI).
        # ``admission_trivial`` is the fast path's per-pass certificate
        # that no probe can refuse, so the probes themselves are elided.
        if not locations:
            if not admission_trivial and not s.may_dispatch(request, gpu_i):
                if exp is not None:
                    exp.note("alg2:blocked_by_quota", request.tenant, gpu_i.gpu_id)
                return "blocked"  # stays queued until the tenant's usage drops
            if exp is not None:
                exp.note("alg2:not_cached_anywhere", "miss on", gpu_i.gpu_id)
            s.dispatch(request, gpu_i)
            return "to_this_gpu"
        if exp is not None:
            exp.note("alg2:candidates", *locations)
        # Lines 4–6: cached on another idle GPU → dispatch there instead.
        # (Skip idle GPUs whose local queue is pending — Alg. 1 gives local
        # queues absolute priority, so those GPUs are already spoken for.)
        for gpu_id in locations:
            other = s.gpu(gpu_id)
            if (
                other.is_idle
                and other.gpu_id != gpu_i.gpu_id
                and s.local_queues.peek(other.gpu_id) is None
            ):
                if exp is not None:
                    exp.note("alg2:cached_on_idle_gpu", other.gpu_id)
                s.dispatch(request, other)
                return "handled"
            elif exp is not None:
                why = (
                    "is_scanning_gpu" if other.gpu_id == gpu_i.gpu_id
                    else ("busy" if not other.is_idle else "local_queue_pending")
                )
                exp.note("alg2:rejected", other.gpu_id, why)
        # Lines 8–15: cached on busy GPUs → queue behind the cached copy
        # when the wait beats the model-loading time on the idle GPU.
        for gpu_id in locations:
            busy = s.gpu(gpu_id)
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
        if not admission_trivial and not s.may_dispatch(request, gpu_i):
            if exp is not None:
                exp.note("alg2:blocked_by_quota", request.tenant, gpu_i.gpu_id)
            return "blocked"
        if exp is not None:
            exp.note("alg2:miss_on_idle_wins", gpu_i.gpu_id)
        s.dispatch(request, gpu_i)
        return "to_this_gpu"


def make_scheduling_policy(name: str, *, o3_limit: int = DEFAULT_O3_LIMIT) -> SchedulingPolicy:
    """Factory: the paper's three schedulers (``"lb"``, ``"lalb"``,
    ``"lalbo3"``) plus the ``"locality"`` strawman of §I."""
    key = name.lower()
    if key == "lb":
        return LoadBalancingPolicy()
    if key == "locality":
        return LocalityOnlyPolicy()
    if key == "lalb":
        return LALBPolicy(limit=0)
    if key == "lalbo3":
        return LALBPolicy(limit=o3_limit)
    raise KeyError(f"unknown policy {name!r}; known: lb, locality, lalb, lalbo3")
