"""GPU Managers (paper §III-C).

One GPU Manager runs per GPU node and manages the GPU processes on that
node.  For each dispatched request it:

1. asks the Cache Manager whether the model is resident (hit) or not (miss),
2. on a miss, evicts the victim models the Cache Manager selects (killing
   their processes), starts a new GPU process, and uploads the model,
3. runs the inference (one request at a time per GPU),
4. reports the latency to the Datastore, updates the LRU list through the
   Cache Manager, flips the GPU's status busy↔idle in the Datastore, and
   notifies the Scheduler when the GPU becomes idle.

Execution is event-driven: upload and inference durations come from the
profiled model latencies and elapse on the simulated clock.

Datastore writes (status, finish time, latency records) go through the
manager's :class:`~repro.datastore.client.DatastoreClient`; against a
batched Datastore every write a single step issues — e.g. a completion's
LRU touch + status flip + latency record — accumulates and commits as one
transaction at the action boundary (the Scheduler's flush or the
simulator's post-event hook), one revision.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, NamedTuple

from ..cluster.gpu import GPUDevice, GPUState
from ..cluster.node import GPUNode
from ..cluster.process import GPUProcess
from ..datastore.client import DatastoreClient
from ..models.profiler import ProfileRegistry
from ..sim import Simulator
from .cache_manager import CacheManager
from .estimator import FinishTimeEstimator
from .request import InferenceRequest, RequestState

__all__ = ["GPUManager", "LatencyRecord"]


def _discard(key: str, value: object) -> None:
    """Where reports go when there is no Datastore to mirror them."""


class LatencyRecord(NamedTuple):
    """The names of a ``fn/latency/<request_id>`` value's fields.

    The store holds the *exact* 7-tuple in this order, one per completed
    request; ``LatencyRecord(*value)`` names it on read.  Only exact tuples
    of atoms leave the cyclic collector's tracked set (a NamedTuple never
    does) — at 100k requests, a full-heap pass over 100k fewer containers.
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
        datastore: DatastoreClient | None = None,
        latency_keep: int | None = None,
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
        self.datastore = datastore
        #: every report below goes through this one bound callable (a
        #: manager built without a Datastore discards them)
        self._put = datastore.put if datastore is not None else _discard
        self.on_idle = on_idle or (lambda gpu: None)
        self.on_complete = on_complete or (lambda req: None)
        #: observer of dispatches (tenancy accounting); None = nobody
        self.on_dispatch = on_dispatch
        self.on_drained = on_drained or (lambda gpu: None)
        # --- array-backed per-GPU lifecycle state -----------------------
        # Each device gets a dense node-local slot at construction; the
        # dispatch/completion chain then indexes preallocated lists instead
        # of hashing gpu_id strings into dicts on every event.  The cold
        # entry points that arrive with a bare gpu_id (set_slowdown,
        # is_draining, in_flight) translate through _slot_of once.
        n = len(node.gpus)
        self._slot_of: dict[str, int] = {}
        for slot, gpu in enumerate(node.gpus):
            gpu._mgr_slot = slot
            self._slot_of[gpu.gpu_id] = slot
        #: slot -> in-flight request (None = nothing executing there)
        self._executing: list[InferenceRequest | None] = [None] * n
        #: slot -> scheduled load/inference completion sim Event
        self._pending_event: list[object | None] = [None] * n
        #: slot -> finishing its in-flight request before going offline
        self._draining: list[bool] = [False] * n
        #: straggler injection: slot -> multiplicative slowdown on the
        #: *actual* load/inference durations (None = healthy)
        self._slowdown: list[float | None] = [None] * n
        # sliding window over this manager's fn/latency/* keys: when
        # latency_keep is set, writing record N deletes record N-keep in
        # the same batched transaction, so the store's live set (and the
        # row and value tuples it pins) stays bounded on
        # million-request replays.  Nothing reads these keys mid-run, so
        # scheduling is untouched either way.
        self._latency_keep = latency_keep
        self._latency_log: deque[str] = deque()
        # per-GPU key strings interned once, slot-indexed: status and
        # finish-time puts happen on every dispatch and completion
        self._status_key = [f"gpu/status/{g.gpu_id}" for g in node.gpus]
        self._finish_key = [f"gpu/finish_time/{g.gpu_id}" for g in node.gpus]
        for key in self._status_key:
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
        slot = gpu._mgr_slot
        if self._executing[slot] is not None:
            raise RuntimeError(f"{gpu.gpu_id} already has an in-flight request")

        request.state = RequestState.DISPATCHED
        request.gpu_id = gpu.gpu_id
        request.dispatched_at = self.sim._now  # hot path: skip the property
        self._executing[slot] = request
        self._put(self._status_key[slot], "busy")

        model_id = request.model_id
        hit = request.cache_hit = self.cache.is_cached_on(model_id, gpu.gpu_id)
        if not hit:
            # §V-D "false miss": the model was resident on another GPU at
            # decision time, yet this dispatch re-uploads it here.
            request.false_miss = self.cache.cached_anywhere(model_id)
        if self.on_dispatch is not None:
            self.on_dispatch(request)
        if hit:
            self._start_inference(gpu, gpu.process_for(model_id), request)
        else:
            self._start_miss(gpu, request)

    # ------------------------------------------------------------------
    # Miss path: evict victims, start a process, upload the model
    # ------------------------------------------------------------------
    def _start_miss(self, gpu: GPUDevice, request: InferenceRequest) -> None:
        victims = self.cache.choose_victims(gpu.gpu_id, request.model)
        for victim in victims:
            gpu.evict(victim)
            self.cache.on_evicted(gpu.gpu_id, victim)
        proc = gpu.admit(request.model_id, request.model.occupied_mb)
        gpu.begin_loading()
        load_t = self.estimator.load_time(request, gpu)
        infer_t = self.estimator.infer_time(request, gpu)
        slot = gpu._mgr_slot
        slow = self._slowdown[slot]
        if slow is not None:
            load_t *= slow
            infer_t *= slow
        busy_until = self.sim._now + load_t + infer_t
        self.estimator.set_busy_until(gpu.gpu_id, busy_until)
        self._put(self._finish_key[slot], busy_until)
        self._pending_event[slot] = self.sim.schedule(
            load_t, self._loaded, gpu, proc, request
        )

    def _loaded(self, gpu: GPUDevice, proc: GPUProcess, request: InferenceRequest) -> None:
        proc.mark_ready(self.sim.now)
        self.cache.on_loaded(gpu.gpu_id, request.model)
        self._start_inference(gpu, proc, request)

    # ------------------------------------------------------------------
    # Hit path / common inference execution
    # ------------------------------------------------------------------
    def _start_inference(self, gpu: GPUDevice, proc: GPUProcess, request: InferenceRequest) -> None:
        proc.mark_running()
        gpu.begin_inference()
        request.exec_start_at = self.sim._now
        infer_t = self.estimator.infer_time(request, gpu)
        slot = gpu._mgr_slot
        slow = self._slowdown[slot]
        if slow is not None:
            infer_t *= slow
        busy_until = self.sim._now + infer_t
        self.estimator.set_busy_until(gpu.gpu_id, busy_until)
        self._put(self._finish_key[slot], busy_until)
        self._pending_event[slot] = self.sim.schedule(
            infer_t, self._finished, gpu, proc, request
        )

    def _finished(self, gpu: GPUDevice, proc: GPUProcess, request: InferenceRequest) -> None:
        slot = gpu._mgr_slot
        draining = self._draining[slot]
        proc.mark_done()
        # bump the use-frequency under the state change that follows (the
        # idle flip here, go_offline when draining) and let that be the
        # one notice: a busy GPU is in none of the cluster's idle views,
        # so the bump alone has nothing to re-file, and the flip files
        # the GPU once, at its final rank
        gpu._completed_requests += 1
        if not draining:
            gpu.become_idle()
        request.state = RequestState.COMPLETED
        request.completed_at = self.sim._now
        # If the model instance carries a real NumPy network (examples do),
        # actually run the forward pass so the response is genuine.
        network = request.model.metadata.get("network")
        if request.payload is not None and network is not None:
            request.result = network(request.payload)
        self._executing[slot] = None
        self._pending_event[slot] = None
        self.estimator.clear_busy(gpu.gpu_id)
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
        self.cache.on_used(gpu.gpu_id, model_id)
        self._put(self._status_key[slot], "idle")
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
        slot = gpu._mgr_slot
        event = self._pending_event[slot]
        if event is not None:
            self._pending_event[slot] = None
            event.cancel()  # O(1): frees the event's slab slot immediately
        inflight = self._executing[slot]
        self._executing[slot] = None
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
        slot = gpu._mgr_slot
        if self._executing[slot] is not None:
            self._draining[slot] = True
            self._put(self._status_key[slot], "draining")
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
            if self.cache.is_cached_on(model_id, gpu.gpu_id):
                self.cache.on_evicted(gpu.gpu_id, model_id)
        gpu.go_offline()
        self.estimator.clear_busy(gpu.gpu_id)
        self._put(self._status_key[gpu._mgr_slot], "offline")
        self._draining[gpu._mgr_slot] = False

    def recover(self, gpu: GPUDevice) -> None:
        """Bring a failed GPU back, empty, and report it idle."""
        gpu.come_online()
        self._put(self._status_key[gpu._mgr_slot], "idle")
        self.on_idle(gpu)

    def is_draining(self, gpu_id: str) -> bool:
        return self._draining[self._slot_of[gpu_id]]

    def set_slowdown(self, gpu_id: str, factor: float) -> None:
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
        slot = self._slot_of[gpu_id]
        self._slowdown[slot] = None if factor == 1.0 else factor

    # ------------------------------------------------------------------
    # Datastore reporting (§III-C, §III-E)
    # ------------------------------------------------------------------
    def in_flight(self, gpu_id: str) -> InferenceRequest | None:
        return self._executing[self._slot_of[gpu_id]]

    def _record_latency(self, request: InferenceRequest, model_id: str) -> None:
        if self.datastore is None:
            return
        arrival = request.arrival_time
        # bare tuple in LatencyRecord order + inlined latency/queueing
        # properties: _finished just stamped both timestamps (no validation)
        key = f"fn/latency/{request.request_id}"
        self._put(
            key,
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
        if self._latency_keep is not None:
            log = self._latency_log
            log.append(key)
            if len(log) > self._latency_keep:
                self.datastore.delete(log.popleft())
