"""GPU Managers (paper §III-C).

One GPU Manager runs per GPU node and manages the GPU processes on that
node — one per resident model, kept by the device as its residency
(:class:`~repro.cluster.gpu.GPUDevice` owns all of a GPU's state).  For
each dispatched request it:

1. asks the Cache Manager whether the model is resident (hit) or not (miss),
2. on a miss, evicts the victim models the Cache Manager selects (killing
   their processes), admits the new model (starting its process), and
   uploads it,
3. runs the inference (one request at a time per GPU),
4. reports the latency to the Datastore (one ``fn/latency/<function>``
   record per function, overwritten by each completion), updates the LRU
   list through the Cache Manager, flips the GPU's status busy↔idle in
   the Datastore, and notifies the Scheduler when the GPU becomes idle.

Execution is event-driven: upload and inference durations come from the
profiled model latencies and elapse on the simulated clock.

Datastore writes (status, finish time, latency records) are ``put``
calls on the system's :class:`~repro.datastore.client.Datastore`;
every write a single step issues — e.g. a
completion's LRU touch + status flip + latency record — accumulates and
commits as one transaction at the action boundary (the Scheduler's flush
or the simulator's post-event hook), one revision.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from ..cluster.gpu import GPUDevice, GPUState
from ..cluster.node import GPUNode
from ..datastore.client import Datastore
from ..models.profiler import ProfileRegistry
from ..sim import Simulator
from .cache_manager import CacheManager
from .estimator import FinishTimeEstimator
from .request import InferenceRequest, RequestState

__all__ = ["GPUManager", "LatencyRecord"]


class LatencyRecord(NamedTuple):
    """The names of a ``fn/latency/<function>`` value's fields.

    The store holds the *exact* 7-tuple in this order: the function's
    latest completion (the last write wins); ``LatencyRecord(*value)``
    names it on read.  Only exact tuples of atoms leave the cyclic
    collector's tracked set (a NamedTuple never does).
    """

    function: str
    model: str
    gpu: str | None
    latency_s: float
    queueing_s: float
    cache_hit: bool | None
    false_miss: bool


class GPUManager:
    """Per-node manager of GPU processes and request execution."""

    def __init__(
        self,
        sim: Simulator,
        node: GPUNode,
        cache: CacheManager,
        registry: ProfileRegistry,
        estimator: FinishTimeEstimator,
        *,
        datastore: Datastore,
        on_idle: Callable[[GPUDevice], None] | None = None,
        on_complete: Callable[[InferenceRequest], None] | None = None,
        on_dispatch: Callable[[InferenceRequest], None] | None = None,
        on_drained: Callable[[GPUDevice], None] | None = None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.cache = cache
        self.registry = registry
        self.estimator = estimator
        #: every report below goes through this one bound callable
        self._put = datastore.put
        self.on_idle = on_idle or (lambda gpu: None)
        self.on_complete = on_complete or (lambda req: None)
        #: observer of dispatches (tenancy accounting); None = nobody
        self.on_dispatch = on_dispatch
        self.on_drained = on_drained or (lambda gpu: None)
        # --- per-GPU lifecycle state, keyed by the node's devices -------
        gpus = node.gpus
        #: device -> in-flight request (None = nothing executing there)
        self._executing: dict[GPUDevice, InferenceRequest | None] = dict.fromkeys(gpus)
        #: device -> scheduled load/inference completion sim Event
        self._pending_event: dict[GPUDevice, object | None] = dict.fromkeys(gpus)
        #: device -> finishing its in-flight request before going offline
        self._draining: dict[GPUDevice, bool] = dict.fromkeys(gpus, False)
        #: straggler injection: device -> multiplicative slowdown on the
        #: *actual* load/inference durations (None = healthy)
        self._slowdown: dict[GPUDevice, float | None] = dict.fromkeys(gpus)
        # per-GPU key strings interned once: status and finish-time puts
        # happen on every dispatch and completion
        self._status_key = {g: f"gpu/status/{g.gpu_id}" for g in gpus}
        self._finish_key = {g: f"gpu/finish_time/{g.gpu_id}" for g in gpus}
        for key in self._status_key.values():
            self._put(key, "idle")

    # ------------------------------------------------------------------
    # Dispatch entry point (called by the Scheduler)
    # ------------------------------------------------------------------
    def execute(self, request: InferenceRequest, gpu: GPUDevice) -> None:
        """Run ``request`` on ``gpu`` (which must be idle and local)."""
        if gpu.node_id != self.node.node_id:
            raise ValueError(f"{gpu.gpu_id} is not managed by node {self.node.node_id}")
        if not gpu.is_idle:
            raise RuntimeError(f"{gpu.gpu_id} is busy; the Scheduler must dispatch to idle GPUs")
        if self._executing[gpu] is not None:
            raise RuntimeError(f"{gpu.gpu_id} already has an in-flight request")

        request.state = RequestState.DISPATCHED
        request.gpu_id = gpu.gpu_id
        request.dispatched_at = self.sim._now  # hot path: skip the property
        self._executing[gpu] = request
        self._put(self._status_key[gpu], "busy")

        model_id = request.model_id
        hit = request.cache_hit = self.cache.is_cached_on(model_id, gpu)
        if not hit:
            # §V-D "false miss": the model was resident on another GPU at
            # decision time, yet this dispatch re-uploads it here.
            request.false_miss = self.cache.cached_anywhere(model_id)
        if self.on_dispatch is not None:
            self.on_dispatch(request)
        if hit:
            self._start_inference(gpu, request)
        else:
            self._start_miss(gpu, request)

    # ------------------------------------------------------------------
    # Miss path: evict victims, start a process, upload the model
    # ------------------------------------------------------------------
    def _start_miss(self, gpu: GPUDevice, request: InferenceRequest) -> None:
        victims = self.cache.choose_victims(gpu, request.model)
        for victim in victims:
            gpu.evict(victim)
            self.cache.on_evicted(gpu, victim)
        gpu.admit(request.model_id, request.model.occupied_mb)
        gpu.begin_loading()
        load_t = self.estimator.load_time(request, gpu)
        infer_t = self.estimator.infer_time(request, gpu)
        slow = self._slowdown[gpu]
        if slow is not None:
            load_t *= slow
            infer_t *= slow
        now = self.sim._now
        # the finish time is never cleared on completion: a finished
        # request's time is in the past, which every reader clamps to now
        busy_until = gpu.busy_until = now + load_t + infer_t
        self._put(self._finish_key[gpu], busy_until)
        self._pending_event[gpu] = self.sim.schedule_at(
            now + load_t, self._loaded, gpu, request
        )

    def _loaded(self, gpu: GPUDevice, request: InferenceRequest) -> None:
        self.cache.on_loaded(gpu, request.model)
        self._start_inference(gpu, request)

    # ------------------------------------------------------------------
    # Hit path / common inference execution
    # ------------------------------------------------------------------
    def _start_inference(self, gpu: GPUDevice, request: InferenceRequest) -> None:
        gpu.begin_inference()
        now = request.exec_start_at = self.sim._now
        infer_t = self.estimator.infer_time(request, gpu)
        slow = self._slowdown[gpu]
        if slow is not None:
            infer_t *= slow
        busy_until = gpu.busy_until = now + infer_t
        self._put(self._finish_key[gpu], busy_until)
        # the completion fires at exactly the published finish time
        self._pending_event[gpu] = self.sim.schedule_at(
            busy_until, self._finished, gpu, request
        )

    def _finished(self, gpu: GPUDevice, request: InferenceRequest) -> None:
        draining = self._draining[gpu]
        if draining:
            gpu.completed_requests += 1  # the setter re-files: it goes offline next
        else:
            gpu._completed_requests += 1  # the idle flip re-files it
            gpu.become_idle()
        request.state = RequestState.COMPLETED
        request.completed_at = self.sim._now
        # If the model instance carries a real NumPy network (examples do),
        # actually run the forward pass so the response is genuine.
        network = request.model.metadata.get("network")
        if request.payload is not None and network is not None:
            request.result = network(request.payload)
        self._executing[gpu] = None
        self._pending_event[gpu] = None
        model_id = request.model_id
        if draining:
            # graceful drain completion: the request finished normally;
            # now retire the GPU.  The LRU touch is skipped — every cache
            # location is withdrawn in the same write batch as the status
            # flip, so readers see one atomic invalidation.
            self._take_offline(gpu)
            self._record_latency(request, model_id)
            self.on_complete(request)
            self.on_drained(gpu)
            return
        self.cache.on_used(gpu, model_id)
        self._put(self._status_key[gpu], "idle")
        self._record_latency(request, model_id)
        self.on_complete(request)
        self.on_idle(gpu)

    # ------------------------------------------------------------------
    # Failure handling (not in the paper's evaluation, but required of a
    # production runtime: a GPU can die mid-load or mid-inference)
    # ------------------------------------------------------------------
    def abort(self, gpu: GPUDevice) -> InferenceRequest | None:
        """Take ``gpu`` offline, discarding its state.

        Cancels the pending load/inference completion, kills every resident
        process (the models in its memory are lost), withdraws them from
        the Cache Manager, and returns the in-flight request (if any) so
        the caller can re-queue it.  Marks the GPU OFFLINE and its
        Datastore status ``"offline"``.
        """
        if gpu.node_id != self.node.node_id:
            raise ValueError(f"{gpu.gpu_id} is not managed by node {self.node.node_id}")
        event = self._pending_event[gpu]
        if event is not None:
            self._pending_event[gpu] = None
            event.cancel()  # O(1): releases the event's args immediately
        inflight = self._executing[gpu]
        self._executing[gpu] = None
        self._take_offline(gpu)
        return inflight

    def drain(self, gpu: GPUDevice) -> bool:
        """Begin a graceful drain of ``gpu``.

        Unlike :meth:`abort`, running work is allowed to finish: if a
        request is in flight the GPU is marked draining (Datastore status
        ``"draining"``) and retires itself on completion; otherwise it goes
        offline immediately.  Either way its cached models are withdrawn
        atomically with the status flip (one write batch).  Returns True
        when retirement was deferred to the in-flight completion.

        The caller owns the queues: drain the GPU's local queue and
        re-queue the work (``FaaSCluster.drain_gpu`` does both, and again
        via ``on_drained`` for anything bound during the drain window).
        """
        if gpu.node_id != self.node.node_id:
            raise ValueError(f"{gpu.gpu_id} is not managed by node {self.node.node_id}")
        if not gpu.is_online:
            return False
        if self._executing[gpu] is not None:
            self._draining[gpu] = True
            self._put(self._status_key[gpu], "draining")
            return True
        self._take_offline(gpu)
        return False

    def _take_offline(self, gpu: GPUDevice) -> None:
        """Shared retirement path (crash abort / drain completion): kill
        resident processes, withdraw cache locations, mark OFFLINE."""
        for model_id in gpu.resident_models():
            gpu.evict(model_id, force=True)
            # a model that was still uploading when the GPU died was never
            # registered as a cache item — only withdraw known ones
            if self.cache.is_cached_on(model_id, gpu):
                self.cache.on_evicted(gpu, model_id)
        gpu.go_offline()
        gpu.busy_until = 0.0  # nothing in flight: reads as now
        self._put(self._status_key[gpu], "offline")
        self._draining[gpu] = False

    def recover(self, gpu: GPUDevice) -> None:
        """Bring a failed GPU back, empty, and report it idle."""
        gpu.come_online()
        self._put(self._status_key[gpu], "idle")
        self.on_idle(gpu)

    def is_draining(self, gpu: GPUDevice) -> bool:
        return self._draining[gpu]

    def set_slowdown(self, gpu: GPUDevice, factor: float) -> None:
        """Multiply this GPU's *actual* load/inference durations by
        ``factor`` (straggler injection; 1.0 restores full speed).

        The estimator's profiled expectations are untouched — the policies
        keep planning with healthy numbers while the device underdelivers,
        exactly the blind spot a real straggler creates — but the
        busy-until estimates *published at dispatch time* reflect the
        slowdown (the manager knows how long its own work will take).
        Work already in flight keeps its original completion event.
        """
        if factor < 1.0:
            raise ValueError("slowdown factor must be >= 1.0")
        self._slowdown[gpu] = None if factor == 1.0 else factor

    # ------------------------------------------------------------------
    # Datastore reporting (§III-C, §III-E)
    # ------------------------------------------------------------------
    def _record_latency(self, request: InferenceRequest, model_id: str) -> None:
        arrival = request.arrival_time
        # keyed by function, not request: the live key set is bounded by
        # the functions deployed, not by the trace.  Bare tuple in
        # LatencyRecord order + inlined latency/queueing properties:
        # _finished just stamped both timestamps (no validation)
        self._put(
            f"fn/latency/{request.function_name}",
            (
                request.function_name,
                model_id,
                request.gpu_id,
                request.completed_at - arrival,
                request.dispatched_at - arrival,
                request.cache_hit,
                request.false_miss,
            ),
        )
