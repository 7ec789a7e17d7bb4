"""The literal Algorithm 1/2 scans: the executable spec of the index scans.

Production LB and LALB (``repro.core.policies``) never iterate the global
queue: they read the GlobalQueue's model index, let the queue own the O3
visit counts, and ask a tenant quota once per queued model; the locality
strawman asks it once per model between dispatches.  The classes here
are the pseudocode transcribed line by line instead — an O(GPUs × queue)
walk with one ``may_dispatch`` probe per queued request and idle GPU,
counting visits on the request itself — and ``install_spec_scans`` puts
them into a built system.  ``tests/core/test_differential.py`` replays
workloads on both and requires byte-identical decisions and final KV.
"""

from repro.cluster.gpu import GPUDevice
from repro.core.policies import (
    LALBPolicy,
    LoadBalancingPolicy,
    LocalityOnlyPolicy,
    SchedulerOps,
    SchedulingPolicy,
)
from repro.core.queues import GlobalQueue
from repro.core.request import InferenceRequest

__all__ = [
    "SpecLALBPolicy",
    "SpecLoadBalancingPolicy",
    "SpecLocalityOnlyPolicy",
    "install_spec_scans",
    "spec_policy",
]


class SpecLoadBalancingPolicy(LoadBalancingPolicy):
    """LB: the oldest request the quota admits on each idle GPU."""

    def schedule_pass(self, s: SchedulerOps) -> bool:
        work = s.pass_work_remaining
        progress = False
        for gpu in s.idle_gpus():
            if not gpu.is_idle:  # may have changed earlier in this pass
                continue
            request = self._head_reference(s, gpu)
            if request is None:
                continue
            s.dispatch(request, gpu)
            progress = True
            if not work():
                return True
        return progress

    @staticmethod
    def _head_reference(s: SchedulerOps, gpu: GPUDevice) -> InferenceRequest | None:
        for request in s.global_queue:
            if s.may_dispatch(request, gpu):
                return request
        return None


class SpecLocalityOnlyPolicy(LocalityOnlyPolicy):
    """The locality strawman probing every idle GPU for every queued
    request whose model is cached nowhere."""

    def schedule_pass(self, s: SchedulerOps) -> bool:
        progress = False
        for gpu in s.idle_gpus_by_frequency():
            if not gpu.is_idle:
                continue
            if s.local_queues.peek(gpu) is not None:
                s.dispatch_local_head(gpu)
                progress = True
        idle_view = s.idle_gpus_by_frequency()
        for request in list(s.global_queue):
            locations = s.cache.locations(request.model_id)
            if locations:
                handled = self._bind_to_cached_gpu(s, request, locations)
                progress = progress or handled
            else:
                idle = [
                    g
                    for g in idle_view
                    if g.is_idle
                    and s.local_queues.peek(g) is None
                    and s.may_dispatch(request, g)
                ]
                if idle:
                    s.dispatch(request, idle[0])
                    progress = True
        return progress


class SpecLALBPolicy(LALBPolicy):
    """LALB / LALBO3 with Alg. 1's per-GPU scan as the literal loop."""

    def _schedule_gpu_reference(self, s: SchedulerOps, gpu: GPUDevice) -> bool:
        """Algorithm 1 lines 6–22 for one idle GPU; True if anything changed.

        The literal O(queue) transcription of the paper's pseudocode; the
        index scan (``LALBPolicy._schedule_gpu``) must match it decision
        for decision.
        """
        exp = s.explain
        acted = False
        # -- first scan (lines 6–16): look for a cache hit on this GPU ----
        for request in s.global_queue:
            if self._refused(s, gpu, request):
                continue
            if s.cache.is_cached_on(request.model_id, gpu):
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
            if self._refused(s, gpu, request):
                continue
            outcome = self._locality_load_balance(s, gpu, request)
            if outcome == "to_this_gpu":
                return True
            if outcome == "handled":
                acted = True
        return acted

    _schedule_gpu = _schedule_gpu_reference

    @staticmethod
    def _refused(s: SchedulerOps, gpu: GPUDevice, request: InferenceRequest) -> bool:
        """The quota refuses ``request`` on ``gpu`` and Algorithm 2 has no
        other place for it (its model is cached nowhere)."""
        return not s.cache.cached_anywhere(request.model_id) and not s.may_dispatch(
            request, gpu
        )


def spec_policy(policy: SchedulingPolicy) -> SchedulingPolicy:
    """The literal twin of ``policy``."""
    if isinstance(policy, LALBPolicy):
        return SpecLALBPolicy(limit=policy.limit)
    if isinstance(policy, LoadBalancingPolicy):
        return SpecLoadBalancingPolicy()
    if isinstance(policy, LocalityOnlyPolicy):
        return SpecLocalityOnlyPolicy()
    raise TypeError(f"no spec twin for {type(policy).__name__}")


def install_spec_scans(system) -> None:
    """Swap a freshly built ``FaaSCluster``'s scans for the literal ones,
    over a global queue that tracks no visits (the literal scan counts on
    the request).  Call before anything is submitted."""
    scheduler = system.scheduler
    assert len(scheduler.global_queue) == 0, "install before submitting"
    scheduler.policy = spec_policy(scheduler.policy)
    scheduler.global_queue = GlobalQueue()
