"""The paper's contribution: GPU Manager, Cache Manager, and the
locality-aware load-balancing Scheduler with its policies."""

from .cache_manager import CacheManager
from .decisions import Decision, DecisionKind, DecisionLog
from .estimator import FinishTimeEstimator
from .gpu_manager import GPUManager
from .policies import (
    DEFAULT_O3_LIMIT,
    LALBPolicy,
    LoadBalancingPolicy,
    SCHEDULING_POLICY_NAMES,
    LocalityOnlyPolicy,
    SchedulingPolicy,
    make_scheduling_policy,
)
from .queues import GlobalQueue, LocalQueues
from .replacement import (
    POLICY_NAMES,
    BeladyPolicy,
    EvictionPolicy,
    FIFOPolicy,
    LFUPolicy,
    LRUPolicy,
    SizeAwarePolicy,
    make_policy,
)
from .request import InferenceRequest, RequestState
from .scheduler import Scheduler
from .signals import PassGuard
from .tenancy import TenancyController, TenantQuota

__all__ = [
    "CacheManager",
    "Decision",
    "DecisionKind",
    "DecisionLog",
    "FinishTimeEstimator",
    "GPUManager",
    "DEFAULT_O3_LIMIT",
    "LALBPolicy",
    "LoadBalancingPolicy",
    "LocalityOnlyPolicy",
    "SchedulingPolicy",
    "SCHEDULING_POLICY_NAMES",
    "make_scheduling_policy",
    "GlobalQueue",
    "LocalQueues",
    "POLICY_NAMES",
    "BeladyPolicy",
    "EvictionPolicy",
    "FIFOPolicy",
    "LFUPolicy",
    "LRUPolicy",
    "SizeAwarePolicy",
    "make_policy",
    "InferenceRequest",
    "RequestState",
    "Scheduler",
    "PassGuard",
    "TenancyController",
    "TenantQuota",
]
