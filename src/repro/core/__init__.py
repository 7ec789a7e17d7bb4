"""The paper's contribution: GPU Manager, Cache Manager, and the
locality-aware load-balancing Scheduler with its policies."""

from .. import _lazy_exports

_EXPORTS = {
    "CacheManager": ".cache_manager",
    "Decision": ".decisions",
    "DecisionKind": ".decisions",
    "DecisionLog": ".decisions",
    "FinishTimeEstimator": ".estimator",
    "GPUManager": ".gpu_manager",
    "DEFAULT_O3_LIMIT": ".policies",
    "LALBPolicy": ".policies",
    "LoadBalancingPolicy": ".policies",
    "LocalityOnlyPolicy": ".policies",
    "SchedulingPolicy": ".policies",
    "SCHEDULING_POLICY_NAMES": ".policies",
    "make_scheduling_policy": ".policies",
    "GlobalQueue": ".queues",
    "LocalQueues": ".queues",
    "POLICY_NAMES": ".replacement",
    "BeladyPolicy": ".replacement",
    "EvictionPolicy": ".replacement",
    "FIFOPolicy": ".replacement",
    "LFUPolicy": ".replacement",
    "LRUPolicy": ".replacement",
    "SizeAwarePolicy": ".replacement",
    "make_policy": ".replacement",
    "InferenceRequest": ".request",
    "RequestState": ".request",
    "Scheduler": ".scheduler",
    "PassGuard": ".signals",
    "TenancyController": ".tenancy",
    "TenantQuota": ".tenancy",
}

__all__ = [*_EXPORTS]
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
