"""The global Scheduler (paper §III-B).

Receives requests forwarded by the Gateway into the system-wide global
queue, and dispatches them to GPUs according to the configured scheduling
policy, using the GPU status, estimated finish times, and cache LRU lists
maintained by the GPU Managers and Cache Manager.

The Scheduler implements :class:`~repro.core.policies.SchedulerOps`: the
policy objects decide, the Scheduler executes (removing requests from
queues, invoking GPU Managers, shipping the GPU address with the dispatch).

Pass elision
------------
There is one engine and one guard, whose proof covers every policy (see
``signals.py``).  Every entry point (``submit`` / ``on_gpu_idle`` /
``resubmit``) consults :attr:`Scheduler.guard` before every would-be
pass — the initial pass of an action and every re-invocation after a
productive one — and skips passes the guard proves are no-ops, reacting
to the dirty signals the components publish (idle-set delta, queue
length, idle local work) instead of re-deriving "nothing to do" from
full state.  ``passes_executed`` / ``passes_elided`` count every
considered pass into exactly one of the two bins, so benchmarks can gate
that elision actually engages.  The literal always-pass engine is this
same loop under ``tests/spec/guard.py``'s conservative guard with a
mid-pass probe that always answers True; that is how
``tests/core/test_differential.py`` builds its reference arm.
"""

from __future__ import annotations

from time import perf_counter_ns

from ..cluster.gpu import GPUDevice
from ..cluster.topology import Cluster
from ..datastore.client import Datastore
from ..sim import Simulator
from .cache_manager import CacheManager
from .decisions import DecisionKind, DecisionLog
from .estimator import FinishTimeEstimator
from .gpu_manager import GPUManager
from .policies import SchedulingPolicy
from .queues import GlobalQueue, LocalQueues
from .request import InferenceRequest, RequestState
from .signals import PassGuard
from .tenancy import TenancyController

__all__ = ["Scheduler"]


class Scheduler:
    """Global scheduler: one per FaaS system."""

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        policy: SchedulingPolicy,
        cache: CacheManager,
        estimator: FinishTimeEstimator,
        gpu_managers: dict[str, GPUManager],
        *,
        datastore: Datastore,
        tenancy: TenancyController | None = None,
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        # SchedulerOps' GPU observations are the Cluster's own, handed out
        # without a forwarding frame; callers must not mutate by_frequency
        self.idle_gpus = cluster.idle_gpus
        self.idle_gpus_by_frequency = cluster.idle_gpus_by_frequency
        self.gpus_by_frequency = cluster.by_frequency
        self.policy = policy
        self.cache = cache
        self.estimator = estimator
        self.local_queues = estimator.local_queues
        self.datastore = datastore
        self.tenancy = tenancy
        self.global_queue = GlobalQueue(o3_limit=policy.limit)
        # per-GPU dispatch plumbing, keyed by device and precomputed once:
        # the "GPU address" (server IP + device name, §III-B) shipped with
        # every dispatch, and the node's manager that executes it
        self._address: dict[GPUDevice, tuple[str, str]] = {}
        self._manager: dict[GPUDevice, GPUManager | None] = {}
        for node in cluster.nodes:
            manager = gpu_managers.get(node.node_id)
            for g in node.gpus:
                self._address[g] = node.gpu_address(g)
                self._manager[g] = manager
        self._scheduling = False
        self._work_exhausted = False
        self.dispatched_count = 0
        #: callback(request, reason) fired when a request is dropped; the
        #: runtime wires this to MetricsCollector.on_lost
        self.on_lost = None
        self.decisions = DecisionLog()
        self._append_decision = self.decisions.append  # hot-path bound method
        #: the pass-elision predicate (signals.py), read before every
        #: would-be pass and by the mid-pass narrowing probe
        self.guard = PassGuard()
        #: scheduling actions seen (entry-point invocations)
        self.actions = 0
        #: passes actually run
        self.passes_executed = 0
        #: passes proven no-ops by the guard and skipped
        self.passes_elided = 0
        #: the mid-pass narrowing probe the policies read once per pass
        self.pass_work_remaining = self._pass_work_remaining
        #: flight recorder, installed by the runtime when tracing is on
        self._tracer = None
        #: ExplainLog when SystemConfig(trace_decisions=True), else None
        self.explain = None

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def submit(self, request: InferenceRequest) -> None:
        """Accept a request from the Gateway into the global queue."""
        request.state = RequestState.QUEUED
        self.global_queue.push(request)
        self.actions += 1
        self._run_policy()
        # Outside a simulator event this entry point is the action
        # boundary and commits the action's Datastore writes as one
        # transaction.  Inside one the post-event hook flushes, so a
        # handler that calls several entry points (a failure resubmitting
        # many requests) still commits once.
        if not self.sim._running:
            self.datastore.flush()

    def on_gpu_idle(self, gpu: GPUDevice) -> None:
        """GPU Manager callback: a GPU finished its request."""
        self.actions += 1
        self._run_policy()
        if not self.sim._running:
            self.datastore.flush()

    def drain_local(self, gpu: GPUDevice) -> list[InferenceRequest]:
        """Empty a GPU's local queue (failure handling): the locality that
        bound these requests here is gone with the GPU's memory."""
        drained = []
        while self.local_queues.peek(gpu) is not None:
            drained.append(self.local_queues.pop(gpu))
        return drained

    def resubmit(self, request: InferenceRequest) -> None:
        """Return a request to the global queue at its arrival position."""
        request.reset_for_retry()
        self._record(DecisionKind.RESUBMIT, request, None)
        self.global_queue.push_sorted(request)
        self.actions += 1
        self._run_policy()
        if not self.sim._running:
            self.datastore.flush()

    def give_up(self, request: InferenceRequest, reason: str) -> None:
        """Drop a request the caller has already taken out of every queue
        (the replay's ``"stranded"`` drain): it leaves the system as LOST."""
        self._record(DecisionKind.LOST, request, None)
        request.state = RequestState.LOST
        if self.on_lost is not None:
            self.on_lost(request, reason)

    def _pass_work_remaining(self) -> bool:
        """The narrowing probe policies consult mid-pass.

        Same provable-no-op predicate the guard applies between passes,
        evaluated from the live dirty signals — so a pass stops walking
        idle GPUs the moment nothing it visits can act.  A False
        answer is remembered (``_work_exhausted``) so the engine can elide
        the post-pass guard re-evaluation: nothing changes between the
        probe and the pass returning.
        """
        if self.guard.may_act(self):
            return True
        self._work_exhausted = True
        return False

    def _run_policy(self) -> None:
        """Run scheduling passes until the policy makes no more progress.

        §IV-A: the scheduler acts when at least one request is waiting
        (global or local) and at least one GPU is idle.  The re-entrancy
        guard matters because dispatching can synchronously change GPU
        state, which policies observe mid-pass.

        The :class:`PassGuard` states those run/stop conditions:
        every would-be pass — the first of an action and each
        re-invocation after a productive one — is either executed or,
        when the guard proves it a no-op, elided and counted.

        The tracer/explain hooks live here, once: "off" is the attribute
        being ``None``, so the default path pays one attribute load per
        action (a second once armed) and one identity test per hook site
        reached.  The pass ring
        is written *in place* rather than through a recorder method:
        one closure call per executed pass is measurable at 2k-replay
        rates, and ``_tracer`` here is always the runtime-installed
        :class:`~repro.obs.FlightRecorder` (the lower-rate instant
        hooks elsewhere call its methods).
        """
        if self._scheduling:
            return
        guard_may_act = self.guard.may_act
        explain = self.explain
        if not guard_may_act(self):
            self.passes_elided += 1
            if explain is not None:
                explain.pass_elided(self.sim._now, self._signal_state())
            return
        tracer = self._tracer
        if tracer is not None:
            # loop-invariant tracer state, bound once per armed action
            # (after the early-out: most actions elide, and the elided
            # path should pay nothing extra).  The log's monotonic row
            # count is read, not its length: a full ring's length stays
            # at maxlen, so a pass would record 0 decisions
            decisions = self.decisions
            p_state = tracer._p_state
            p_stride = tracer.span_stride
        schedule_pass = self.policy.schedule_pass
        self._scheduling = True
        try:
            while True:
                self.passes_executed += 1
                self._work_exhausted = False
                if explain is not None:
                    explain.pass_begin(self.passes_executed, self._signal_state())
                if tracer is None:
                    progressed = schedule_pass(self)
                else:
                    # count every pass; clock + record only the
                    # stride-sampled ones (the probes are the cost)
                    n = p_state[2] + 1
                    p_state[2] = n
                    if n % p_stride:
                        progressed = schedule_pass(self)
                    else:
                        d0 = decisions.appended
                        t0 = perf_counter_ns()
                        progressed = schedule_pass(self)
                        wall = perf_counter_ns() - t0
                        p_buf = tracer._p_buf
                        i = p_state[0]
                        b = i * 3
                        p_buf[b] = self.sim._now
                        p_buf[b + 1] = wall
                        p_buf[b + 2] = decisions.appended - d0
                        p_state[1] += 1
                        i += 1
                        p_state[0] = 0 if i == tracer.capacity else i
                if not progressed:
                    break
                if self._work_exhausted or not guard_may_act(self):
                    self.passes_elided += 1
                    if explain is not None:
                        explain.pass_elided(self.sim._now, self._signal_state())
                    break
        finally:
            self._scheduling = False
            if explain is not None:
                explain.pass_end()

    def _signal_state(self) -> str:
        """The dirty-signal snapshot an armed/elided pass saw (explain
        mode only — builds a string, never called on the default path)."""
        return (
            f"idle={self.cluster.idle_count} "
            f"queued={self.global_queue._live} "
            f"local={self.local_queues.total()} "
            f"idle_local_work={any(g.is_idle for g in self.local_queues._nonempty)}"
        )

    # ------------------------------------------------------------------
    # SchedulerOps: observations (the GPU views are the Cluster's own
    # methods, bound in __init__)
    # ------------------------------------------------------------------
    def may_dispatch(self, request: InferenceRequest, gpu: GPUDevice) -> bool:
        """Tenancy admission check (§VI isolation) of ``request`` on ``gpu``:
        a model not cached there starts a new GPU process, which counts
        against the tenant's process quota; a cache hit does not."""
        tenancy = self.tenancy
        return tenancy is None or tenancy.allows(request, gpu)

    # ------------------------------------------------------------------
    # SchedulerOps: actions
    # ------------------------------------------------------------------
    def dispatch(self, request: InferenceRequest, gpu: GPUDevice) -> None:
        """Remove ``request`` from the global queue and execute it on ``gpu``.

        The dispatch carries the GPU address (server IP + device name) as
        §III-B describes; it is recorded on the request for the logs.
        (:meth:`_record` and :meth:`_execute`, written out in line.)
        """
        self.global_queue.remove(request)
        model_id = request.model_id
        hit = self.cache.is_cached_on(model_id, gpu)
        self._append_decision(
            self.sim._now,
            DecisionKind.DISPATCH_HIT if hit else DecisionKind.DISPATCH_MISS,
            request.request_id,
            model_id,
            gpu.gpu_id,
            request.visits,
        )
        if self.explain is not None:
            self.explain.attach(self.decisions.last(1)[0])
        tenancy = self.tenancy
        if not hit and tenancy is not None and tenancy.may_refuse:
            # a tenant at its cap replaces its own coldest process here,
            # an ordinary eviction for the cache, its mirror and the count
            victim = tenancy.victim_for(request, gpu)
            if victim is not None:
                gpu.evict(victim)
                self.cache.on_evicted(gpu, victim)
        request.gpu_address = self._address[gpu]
        self._manager[gpu].execute(request, gpu)
        self.dispatched_count += 1

    def dispatch_local_head(self, gpu: GPUDevice) -> None:
        """Serve the head of ``gpu``'s local queue (Alg. 1 lines 2–5)."""
        request = self.local_queues.pop(gpu)
        self._record(DecisionKind.DISPATCH_LOCAL, request, gpu.gpu_id)
        self._execute(request, gpu)

    def move_to_local(self, request: InferenceRequest, gpu: GPUDevice) -> None:
        """Bind ``request`` to busy ``gpu``'s local queue (Alg. 2 line 12)."""
        if gpu.is_idle:
            raise RuntimeError(
                f"refusing to local-queue on idle {gpu.gpu_id}; dispatch instead"
            )
        self.global_queue.remove(request)
        self._record(DecisionKind.MOVE_TO_LOCAL, request, gpu.gpu_id)
        self.local_queues.push(gpu, request)

    def _record(self, kind: DecisionKind, request: InferenceRequest, gpu_id: str | None) -> None:
        # cached bound method + direct _now read: one row is appended per
        # scheduling action, and only explain mode mints the named view.
        # The request sits in no global queue here: ``visits`` is exact.
        self._append_decision(
            self.sim._now, kind, request.request_id, request.model_id, gpu_id, request.visits
        )
        explain = self.explain
        if explain is not None:
            explain.attach(self.decisions.last(1)[0])

    def _execute(self, request: InferenceRequest, gpu: GPUDevice) -> None:
        # the "GPU address" shipped with the function's container (§III-B);
        # the manager stamps RequestState.DISPATCHED as part of execute()
        request.gpu_address = self._address[gpu]
        self._manager[gpu].execute(request, gpu)
        self.dispatched_count += 1
