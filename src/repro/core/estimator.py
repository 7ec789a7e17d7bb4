"""Finish-time estimation (paper §III-C, §IV-A).

Each GPU Manager "estimates the GPU's finish time of its queued requests".
The LALB scheduler compares, for a request whose model is cached on a busy
GPU, the time it would *wait* there (current request plus local queue)
against the model *loading* time on an idle GPU (Alg. 2 lines 10–11).

Estimates come from the profiled per-model load/inference latencies
(Table I or the profiler) — the estimator never peeks at simulator
internals beyond what a real deployment would know.

The in-flight term is the device's own :attr:`GPUDevice.busy_until`,
which the GPU Manager writes on every dispatch.  The per-GPU
queued-work term is maintained **incrementally**: the estimator
subscribes to local-queue push/pop and keeps a running inference-time
sum per device, so :meth:`estimated_finish_time` is O(1) instead of
re-walking the GPU's local queue on every Alg. 2 comparison.  The sum
resets to exactly 0.0 whenever a queue empties (bounding floating-point
drift).  The estimator is built with the cluster's devices while their
local queues are still empty, so every mutation is costed as it happens.
"""

from __future__ import annotations

from ..cluster.gpu import GPUDevice
from ..models.profiler import ProfileRegistry
from ..sim import Simulator
from .queues import LocalQueues
from .request import InferenceRequest

__all__ = ["FinishTimeEstimator"]


class FinishTimeEstimator:
    """Estimates GPU finish times from profiles and queue state."""

    def __init__(
        self,
        sim: Simulator,
        registry: ProfileRegistry,
        local_queues: LocalQueues,
        gpus: list[GPUDevice],
    ) -> None:
        self.sim = sim
        self.registry = registry
        self.local_queues = local_queues
        #: device -> running sum of queued inference times
        self._queued_cost: dict[GPUDevice, float] = dict.fromkeys(gpus, 0.0)
        #: (model_id, gpu_type[, batch]) -> (model instance, latency): a hit
        #: reads no ``architecture`` property, and the stored instance
        #: guards against two instances sharing an id.  Profiles never
        #: change once registered, so the memo never invalidates.
        self._infer_memo: dict[tuple[str, str, int], tuple[object, float]] = {}
        self._load_memo: dict[tuple[str, str], tuple[object, float]] = {}
        local_queues.subscribe(self._on_queue_change)

    # ------------------------------------------------------------------
    # In-flight and queued work
    # ------------------------------------------------------------------
    def _on_queue_change(self, gpu: GPUDevice, request: InferenceRequest, added: bool) -> None:
        if self.local_queues.length(gpu) == 0:
            # exact resync at every empty point: incremental float error
            # cannot accumulate across queue generations
            self._queued_cost[gpu] = 0.0
            return
        cost = self.infer_time(request, gpu)
        if added:
            self._queued_cost[gpu] += cost
        else:
            self._queued_cost[gpu] -= cost

    def busy_until(self, gpu: GPUDevice) -> float:
        """When ``gpu`` finishes its in-flight work (now, if it has none)."""
        now = self.sim.now
        return max(gpu.busy_until, now)

    # ------------------------------------------------------------------
    # Queries (used by the LALB policy)
    # ------------------------------------------------------------------
    def infer_time(self, request: InferenceRequest, gpu: GPUDevice) -> float:
        """Profiled inference latency of ``request`` on ``gpu``'s type."""
        model = request.model
        key = (request.model_id, gpu.gpu_type, request.batch_size)
        memo = self._infer_memo.get(key)
        if memo is not None and memo[0] is model:
            return memo[1]
        t = self.registry.get(model.architecture, gpu.gpu_type).infer_time(request.batch_size)
        self._infer_memo[key] = (model, t)
        return t

    def load_time(self, request: InferenceRequest, gpu: GPUDevice) -> float:
        """Profiled model-upload latency of ``request`` on ``gpu``'s type."""
        model = request.model
        key = (request.model_id, gpu.gpu_type)
        memo = self._load_memo.get(key)
        if memo is not None and memo[0] is model:
            return memo[1]
        t = self.registry.get(model.architecture, gpu.gpu_type).load_time_s
        self._load_memo[key] = (model, t)
        return t

    def queued_cost(self, gpu: GPUDevice) -> float:
        """Total inference time queued on ``gpu``'s local queue (O(1)),
        served from the running sum the local-queue observer maintains."""
        return self._queued_cost[gpu]

    def estimated_finish_time(self, gpu: GPUDevice) -> float:
        """Absolute time when ``gpu`` would finish everything already bound
        to it: the in-flight request plus its local queue.

        Local-queue requests were bound there *because* their model is
        cached (Alg. 2), so they are costed as cache hits.
        """
        return self.busy_until(gpu) + self.queued_cost(gpu)

    def wait_time(self, gpu: GPUDevice) -> float:
        """Seconds until ``gpu`` could start a newly bound request."""
        return self.estimated_finish_time(gpu) - self.sim.now

    def hit_on_busy_beats_miss_on_idle(
        self, request: InferenceRequest, busy_gpu: GPUDevice, idle_gpu: GPUDevice
    ) -> bool:
        """Alg. 2 line 11: does waiting for the cached copy cost less than
        uploading the model to the idle GPU?

        Inference time is paid either way, so the comparison reduces to
        wait-time on the busy GPU vs. load-time on the idle one.  The
        wait-time expansion is inlined — Algorithm 2 evaluates this on
        every queue-behind-cached-copy decision, and the four-deep call
        chain (wait_time → estimated_finish_time → busy_until /
        queued_cost) was measurable.
        """
        now = self.sim._now
        busy = busy_gpu.busy_until
        if busy < now:
            busy = now
        return busy - now + self._queued_cost[busy_gpu] < self.load_time(request, idle_gpu)
