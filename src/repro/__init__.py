"""repro — GPU-enabled Function-as-a-Service for ML inference.

A complete, self-contained reproduction of *"GPU-enabled Function-as-a-
Service for Machine Learning Inference"* (Zhao, Jha, Hong — IPDPS 2023,
arXiv:2303.05601): an OpenFaaS-like platform extended with distributed GPU
Managers, a global model-cache manager, and the locality-aware
load-balancing (LALB / LALBO3) schedulers, evaluated on a calibrated
synthetic Azure Functions trace against the 22 CNN models of Table I.

Quick tour
----------
>>> from repro import FaaSCluster, SystemConfig, Gateway, FunctionSpec
>>> system = FaaSCluster(SystemConfig(policy="lalbo3"))
>>> gateway = Gateway(system)
>>> _ = gateway.register(FunctionSpec(name="classify", model_architecture="resnet50"))
>>> inv = gateway.invoke("classify")
>>> system.run()
>>> inv.latency > 0
True

Package map
-----------
====================  =====================================================
``repro.core``        the paper's contribution: Scheduler (LB/LALB/LALBO3),
                      Cache Manager, GPU Managers, finish-time estimation,
                      replacement policies, multi-tenant quotas
``repro.faas``        OpenFaaS-like substrate: Gateway, Watchdog,
                      containers, autoscaler, intercepted ML API
``repro.cluster``     simulated GPU cluster: devices, PCIe, nodes, processes
``repro.datastore``   etcd-like store: MVCC KV, leases, batched writes
``repro.models``      Table I zoo, profiles, NumPy CNN engine, profiler
``repro.traces``      synthetic Azure trace, workload extraction, datasets
``repro.chaos``       deterministic fault injection: seeded FaultPlans,
                      the chaos injector, the lease-backed health watchdog
``repro.metrics``     per-run collection and §V metric summaries
``repro.experiments`` regenerates every table and figure of §V
====================  =====================================================
"""

from .chaos import FaultPlan, build_fault_plan
from .cluster import PAPER_TESTBED, ClusterSpec, GPUTypeSpec
from .core import (
    InferenceRequest,
    LALBPolicy,
    LoadBalancingPolicy,
    TenancyController,
    TenantQuota,
    make_scheduling_policy,
)
from .faas import Autoscaler, FunctionSpec, Gateway, Invocation, InvocationStatus
from .metrics import RunSummary, summarize
from .models import ModelInstance, ModelProfile, ProfileRegistry, get_profile
from .runtime import FaaSCluster, SystemConfig
from .traces import SyntheticAzureTrace, Workload, WorkloadSpec, build_workload

__version__ = "1.0.0"

__all__ = [
    "FaultPlan",
    "build_fault_plan",
    "PAPER_TESTBED",
    "ClusterSpec",
    "GPUTypeSpec",
    "InferenceRequest",
    "LALBPolicy",
    "LoadBalancingPolicy",
    "TenancyController",
    "TenantQuota",
    "make_scheduling_policy",
    "Autoscaler",
    "FunctionSpec",
    "Gateway",
    "Invocation",
    "InvocationStatus",
    "RunSummary",
    "summarize",
    "ModelInstance",
    "ModelProfile",
    "ProfileRegistry",
    "get_profile",
    "FaaSCluster",
    "SystemConfig",
    "SyntheticAzureTrace",
    "Workload",
    "WorkloadSpec",
    "build_workload",
    "__version__",
]
