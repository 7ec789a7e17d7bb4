"""Finish-time estimation (paper §III-C, §IV-A).

Each GPU Manager "estimates the GPU's finish time of its queued requests".
The LALB scheduler compares, for a request whose model is cached on a busy
GPU, the time it would *wait* there (current request plus local queue)
against the model *loading* time on an idle GPU (Alg. 2 lines 10–11).

Estimates come from the profiled per-model load/inference latencies
(Table I or the profiler) — the estimator never peeks at simulator
internals beyond what a real deployment would know.

The per-GPU queued-work term is maintained **incrementally**: the
estimator subscribes to local-queue push/pop and keeps a running
inference-time sum per GPU, so :meth:`estimated_finish_time` is O(1)
instead of re-walking the GPU's local queue on every Alg. 2 comparison.
The sum resets to exactly 0.0 whenever a queue empties (bounding
floating-point drift).  The estimator is built with the cluster's devices
while their local queues are still empty, so every mutation is costed as
it happens.
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
        #: absolute time at which each GPU finishes its in-flight request;
        #: maintained by the GPU Managers on every dispatch/completion.
        self._busy_until: dict[str, float] = {}
        #: gpu_id -> device, for costing queue mutations as they happen
        self._devices: dict[str, GPUDevice] = {g.gpu_id: g for g in gpus}
        #: gpu_id -> running sum of queued inference times
        self._queued_cost: dict[str, float] = {g.gpu_id: 0.0 for g in gpus}
        #: (architecture, gpu_type, batch) -> profiled latency.  Profiles
        #: are immutable once registered, so the memo never invalidates;
        #: Alg. 2 evaluates these on every wait-vs-load comparison.
        self._infer_memo: dict[tuple[str, str, int], float] = {}
        self._load_memo: dict[tuple[str, str], float] = {}
        local_queues.subscribe(self._on_queue_change)

    # ------------------------------------------------------------------
    # Maintained by GPU Managers
    # ------------------------------------------------------------------
    def _on_queue_change(self, gpu_id: str, request: InferenceRequest, added: bool) -> None:
        if self.local_queues.length(gpu_id) == 0:
            # exact resync at every empty point: incremental float error
            # cannot accumulate across queue generations
            self._queued_cost[gpu_id] = 0.0
            return
        cost = self.infer_time(request, self._devices[gpu_id])
        if added:
            self._queued_cost[gpu_id] += cost
        else:
            self._queued_cost[gpu_id] -= cost

    def set_busy_until(self, gpu_id: str, t: float) -> None:
        self._busy_until[gpu_id] = t

    def clear_busy(self, gpu_id: str) -> None:
        self._busy_until.pop(gpu_id, None)

    def busy_until(self, gpu_id: str) -> float:
        return self._busy_until.get(gpu_id, self.sim.now)

    # ------------------------------------------------------------------
    # Queries (used by the LALB policy)
    # ------------------------------------------------------------------
    def infer_time(self, request: InferenceRequest, gpu: GPUDevice) -> float:
        """Profiled inference latency of ``request`` on ``gpu``'s type."""
        key = (request.model.architecture, gpu.gpu_type, request.batch_size)
        t = self._infer_memo.get(key)
        if t is None:
            profile = self.registry.get(key[0], key[1])
            t = self._infer_memo[key] = profile.infer_time(request.batch_size)
        return t

    def load_time(self, request: InferenceRequest, gpu: GPUDevice) -> float:
        """Profiled model-upload latency of ``request`` on ``gpu``'s type."""
        key = (request.model.architecture, gpu.gpu_type)
        t = self._load_memo.get(key)
        if t is None:
            t = self._load_memo[key] = self.registry.get(key[0], key[1]).load_time_s
        return t

    def queued_cost(self, gpu: GPUDevice) -> float:
        """Total inference time queued on ``gpu``'s local queue (O(1)),
        served from the running sum the local-queue observer maintains."""
        return self._queued_cost[gpu.gpu_id]

    def reference_queued_cost(self, gpu: GPUDevice) -> float:
        """The literal queue walk the running sum replaces: the oracle the
        incremental-vs-reference tests compare against."""
        cost = 0.0
        for req in self.local_queues.requests(gpu.gpu_id):
            cost += self.infer_time(req, gpu)
        return cost

    def estimated_finish_time(self, gpu: GPUDevice) -> float:
        """Absolute time when ``gpu`` would finish everything already bound
        to it: the in-flight request plus its local queue.

        Local-queue requests were bound there *because* their model is
        cached (Alg. 2), so they are costed as cache hits.
        """
        return max(self.busy_until(gpu.gpu_id), self.sim.now) + self.queued_cost(gpu)

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
        gpu_id = busy_gpu.gpu_id
        now = self.sim._now
        busy = self._busy_until.get(gpu_id, now)
        if busy < now:
            busy = now
        return busy - now + self._queued_cost[gpu_id] < self.load_time(request, idle_gpu)
