"""The assembled GPU-enabled FaaS system.

:class:`FaaSCluster` wires every component of Fig. 2 together: the
simulated GPU cluster, the etcd-like Datastore, the global Cache Manager
and Scheduler, and one GPU Manager per node.  The FaaS front-end (Gateway,
Watchdog, containers) plugs in on top via :mod:`repro.faas`; experiments
that only exercise scheduling submit :class:`InferenceRequest` objects
directly.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from ..chaos.plan import build_fault_plan
from ..cluster.topology import Cluster, GPUTypeSpec, build_cluster
from ..core.cache_manager import CacheManager
from ..core.estimator import FinishTimeEstimator
from ..core.gpu_manager import GPUManager
from ..core.policies import make_scheduling_policy
from ..core.queues import LocalQueues
from ..core.replacement import make_policy
from ..core.request import InferenceRequest
from ..core.scheduler import Scheduler
from ..core.tenancy import TenancyController
from ..datastore.client import Datastore
from ..metrics.collector import MetricsCollector
from ..models.profiler import ProfileRegistry
from ..models.profiles import ModelInstance
from ..sim import Simulator
from ..traces.workload import StreamingWorkload, Workload
from .config import SystemConfig

if TYPE_CHECKING:  # imported where a config turns them on
    from ..chaos.health import HealthWatchdog
    from ..chaos.injector import ChaosInjector
    from ..obs.explain import ExplainLog
    from ..obs.tracer import FlightRecorder

__all__ = ["FaaSCluster"]


class FaaSCluster:
    """A complete, ready-to-run GPU-enabled FaaS system."""

    def __init__(self, config: SystemConfig | None = None) -> None:
        self.config = config or SystemConfig()
        self.sim = Simulator()
        self.cluster: Cluster = build_cluster(self.sim, self.config.cluster)
        self.datastore = Datastore(self.sim, autocompact_keep=self.config.retention)

        # model profiles for every GPU type present (§VI heterogeneity)
        type_specs: list[GPUTypeSpec] = [spec for _, spec in self.config.cluster.nodes]
        self.registry = ProfileRegistry.from_table1(type_specs)

        self.metrics = MetricsCollector(self.sim, exact_cap=self.config.retention)
        # ---- observability: flight recorder + explain log -------------
        # "Off" is the attribute staying None, not a no-op object:
        # every hook site in the hot path is one attribute load and one
        # identity test, nothing else.
        self.tracer: FlightRecorder | None = None
        if self.config.tracer == "flight":
            from ..obs.tracer import FlightRecorder

            self.tracer = FlightRecorder(self.sim)
            self.metrics.tracer = self.tracer
            self.datastore._tracer = self.tracer
        self._completion_listeners: list = []
        self.request_ids = itertools.count(1)  # for gateway model handles' requests
        self.cache = CacheManager(
            self.sim,
            self.cluster.gpus,
            datastore=self.datastore,
            policy_factory=lambda: make_policy(self.config.replacement),
        )
        self.cache.subscribe(self.metrics.on_cache_event)
        if self.tracer is not None:
            self.cache.tracer = self.tracer

        local_queues = LocalQueues()
        self.estimator = FinishTimeEstimator(
            self.sim, self.registry, local_queues, self.cluster.gpus
        )

        self.tenancy: TenancyController | None = None
        if self.config.quotas:
            self.tenancy = TenancyController(quotas=self.config.quotas, cache=self.cache)
            self.cache.subscribe(self.tenancy.on_cache_event)

        self._managers: dict[str, GPUManager] = {}
        for node in self.cluster.nodes:
            self._managers[node.node_id] = GPUManager(
                self.sim,
                node,
                self.cache,
                self.registry,
                self.estimator,
                datastore=self.datastore,
                on_complete=self._on_request_complete,
                # only tenancy observes dispatches
                on_dispatch=(
                    self.tenancy.on_dispatch if self.tenancy is not None else None
                ),
                on_drained=self._on_gpu_drained,
            )

        policy = make_scheduling_policy(self.config.policy)
        self.scheduler = Scheduler(
            self.sim,
            self.cluster,
            policy,
            self.cache,
            self.estimator,
            self._managers,
            datastore=self.datastore,
            tenancy=self.tenancy,
        )
        self.scheduler.on_lost = self.metrics.on_lost
        if self.tracer is not None:
            self.scheduler._tracer = self.tracer
        #: structured decision causes (explain mode); None unless
        #: ``SystemConfig(trace_decisions=True)``
        self.explain: ExplainLog | None = None
        if self.config.trace_decisions:
            from ..obs.explain import ExplainLog

            self.explain = ExplainLog()
            self.scheduler.explain = self.explain
        # completions wake the scheduler directly; nothing can complete
        # before this line, so on_idle is wired here, once it exists
        for manager in self._managers.values():
            manager.on_idle = self.scheduler.on_gpu_idle

        # ---- chaos: materialize and arm the fault schedule ------------
        # Armed during construction, before any workload is submitted, so
        # the fault events hold a fixed, plan-determined position in the
        # simulator's tie-break order — the root of replay determinism.
        # With no faults (the default) nothing is built: no watchdog, no
        # heartbeat events, byte-identical to the pre-chaos runtime.
        plan = self.config.fault_plan
        if plan is None and self.config.fault_profile != "none":
            plan = build_fault_plan(
                self.config.fault_profile,
                seed=self.config.seed,
                gpus=len(self.cluster.gpus),
            )
        self.fault_plan = plan if plan is not None and len(plan) else None
        self.health: HealthWatchdog | None = None
        self.chaos: ChaosInjector | None = None
        if self.fault_plan is not None:
            from ..chaos.health import HEARTBEAT_S, TTL_S, HealthWatchdog
            from ..chaos.injector import ChaosInjector

            self.health = HealthWatchdog(
                self,
                # heartbeats retire once every fault has played out (plus
                # one TTL of slack for a trailing expiry to self-heal), so
                # the replay still drains to a fixed event horizon
                horizon_s=self.fault_plan.end_s + TTL_S + 2 * HEARTBEAT_S,
            )
            self.health.start()
            self.chaos = ChaosInjector(self, self.fault_plan)
            self.chaos.arm()

        # commit construction-time writes (initial GPU statuses) so the
        # first workload event starts from an empty batch, exactly as a
        # write-through store would
        self.datastore.flush()

    # ------------------------------------------------------------------
    # Wiring callbacks
    # ------------------------------------------------------------------
    def _on_request_complete(self, request: InferenceRequest) -> None:
        self.metrics.on_complete(request)
        tracer = self.tracer
        if tracer is not None:
            # write the request ring in place (same trade as the
            # scheduler-pass and commit sites: one hook call per
            # completion is measurable at replay rates); the ring holds
            # a borrowed reference — the request's stamps are final once
            # complete, and fields are read at snapshot time
            state = tracer._r_state
            i = state[0]
            tracer._r_objs[i] = request
            state[1] += 1
            i += 1
            state[0] = 0 if i == tracer.capacity else i
        if self._completion_listeners:  # skip the defensive copy when empty
            for listener in list(self._completion_listeners):
                listener(request)

    def subscribe_completion(self, listener) -> None:
        """Register a callback invoked with every completed request."""
        self._completion_listeners.append(listener)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def register_model(self, instance: ModelInstance) -> None:
        """Make the runtime aware of a deployed model instance (tenancy)."""
        if self.tenancy is not None:
            self.tenancy.register_instance(instance)

    def submit(self, request: InferenceRequest) -> None:
        """Enqueue a request immediately (it must arrive now or earlier)."""
        if request.arrival_time > self.sim.now:
            raise ValueError(
                f"request arrives at {request.arrival_time} but now is {self.sim.now}; "
                "use submit_at()"
            )
        self.scheduler.submit(request)

    def submit_at(self, request: InferenceRequest) -> None:
        """Schedule the request's arrival at ``request.arrival_time``."""
        self.sim.schedule_at(request.arrival_time, self.scheduler.submit, request)

    def submit_workload(
        self,
        workload,
        *,
        minutes_per_chunk: int = 8,
        low_water: int = 64,
    ) -> None:
        """Inject a request stream at its arrival times, chunk by chunk.

        A :class:`~repro.traces.Workload` or
        :class:`~repro.traces.StreamingWorkload` is fed in blocks of
        ``minutes_per_chunk`` minutes (:meth:`~repro.traces.Workload.chunks`):
        each block's arrival column enters the kernel's arrival lane through
        :meth:`~repro.sim.Simulator.schedule_many` — no event object, heap
        entry or sift per request — and a refill is armed at the arrival
        ``low_water`` rows from the block's tail, which injects the next
        block (the last block arms none).  So the lane holds at most one
        block plus that tail, never the stream.  A ``Workload`` builds each
        request when its arrival fires
        (:meth:`~repro.traces.Workload.arrivals`): none exists before its
        arrival, none is kept past its completion, and replaying the
        workload again builds fresh ones.  A ``StreamingWorkload`` draws
        each block and builds its requests
        (:meth:`~repro.traces.StreamingWorkload.materialize`) at the refill.

        The refill event carries ``priority=-1``: it beats the same-time
        arrival in the tie-break, so the lane never runs dry mid-stream.
        Chunk boundaries and refill times are pure functions of the
        workload; the chunking changes how much of the stream is in
        memory, not what the run decides
        (``tests/experiments/test_streaming_replay.py`` replays every
        chunking against a one-block injection).

        Any other iterable of requests is injected whole, as given — the
        way to hold the objects a replay mutates
        (``submit_workload(workload.requests())``).
        """
        if not isinstance(workload, (Workload, StreamingWorkload)):
            requests = list(workload)
            self.sim.schedule_many(
                [r.arrival_time for r in requests],
                self.scheduler.submit,
                ((r,) for r in requests),
            )
            return
        if low_water < 1:
            raise ValueError("low_water must be >= 1")
        chunk_iter = workload.chunks(minutes_per_chunk)
        submit = self.scheduler.submit
        minutes = workload.spec.minutes

        def inject_next() -> None:
            for chunk in chunk_iter:
                n = len(chunk)
                if not n:  # idle minutes: nothing to schedule, keep pulling
                    continue
                times, fn, args = workload.arrivals(chunk, submit)
                self.sim.schedule_many(times, fn, args)
                if chunk.start_minute + chunk.minutes < minutes:  # more to come
                    self.sim.schedule_at(
                        times[max(0, n - low_water)], inject_next, priority=-1
                    )
                return

        inject_next()

    #: the same injector, under the name streaming callers use
    submit_workload_streaming = submit_workload

    def run(self, until: float | None = None) -> None:
        """Advance the simulation (drains all work when ``until`` is None)."""
        self.sim.run(until=until)

    # ------------------------------------------------------------------
    # Failure injection / recovery
    # ------------------------------------------------------------------
    def fail_gpu(self, gpu_id: str) -> None:
        """Fail a GPU: its memory (cached models) is lost, the in-flight
        request and everything in its local queue return to the global
        queue and are retried elsewhere."""
        gpu = self.cluster.gpu(gpu_id)
        manager = self._managers[gpu.node_id]
        inflight = manager.abort(gpu)
        stranded = self.scheduler.drain_local(gpu)
        if inflight is not None:
            if self.tenancy is not None and inflight.cache_hit is False:
                self.tenancy.on_load_aborted(gpu_id, inflight.model_id)
            stranded.insert(0, inflight)
        for request in stranded:
            self.scheduler.resubmit(request)
        # commit the failure's writes (offline status, withdrawn LRU lists /
        # locations, resubmits) as one action when called outside the sim;
        # scheduled failures commit at the post-event boundary instead
        if not self.sim.is_running:
            self.datastore.flush()

    def drain_gpu(self, gpu_id: str) -> None:
        """Gracefully retire a GPU: running work finishes, queued work
        reschedules, cache locations are invalidated atomically.

        The drain protocol, in order: (1) the GPU's local queue is emptied
        and every request resubmitted at its arrival position; (2) the
        manager marks the GPU draining — an in-flight request finishes
        normally before the GPU retires, an idle GPU retires immediately;
        (3) at retirement every cached model is withdrawn in the same
        write batch as the ``"offline"`` status flip; (4) anything bound
        to the local queue during the drain window is re-queued via the
        manager's ``on_drained`` callback.  Unlike :meth:`fail_gpu`, no
        work is ever aborted.
        """
        gpu = self.cluster.gpu(gpu_id)
        stranded = self.scheduler.drain_local(gpu)
        self._managers[gpu.node_id].drain(gpu)
        for request in stranded:
            self.scheduler.resubmit(request)
        if not self.sim.is_running:
            self.datastore.flush()

    def _on_gpu_drained(self, gpu) -> None:
        """Drain completed mid-run: re-queue anything the policies bound to
        the (then busy, now offline) GPU's local queue during the window."""
        for request in self.scheduler.drain_local(gpu):
            self.scheduler.resubmit(request)

    def recover_gpu(self, gpu_id: str) -> None:
        """Bring a failed GPU back online (empty) and resume scheduling."""
        gpu = self.cluster.gpu(gpu_id)
        self._managers[gpu.node_id].recover(gpu)
        if not self.sim.is_running:
            self.datastore.flush()

    def gpu_managers(self) -> dict[str, GPUManager]:
        return dict(self._managers)
