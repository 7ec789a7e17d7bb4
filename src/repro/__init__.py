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

Names import on first access: the package and its subpackages resolve
their re-exports through :func:`_lazy_exports`, so a trace replay loads
the scheduler, cache, datastore and metrics modules it runs and not the
FaaS front-end, the NumPy CNN engine, the tracer or the chaos injector.
"""

import importlib

__version__ = "1.0.0"


def _lazy_exports(namespace: dict, exports: dict[str, str]):
    """PEP 562 ``__getattr__`` and ``__dir__`` for a package whose public
    names import on first access.

    ``exports`` maps each name to the module, relative to the package,
    that defines it.  The first access imports that module and binds the
    value in ``namespace``, so later lookups never reach the hook;
    ``from package import *`` resolves ``__all__`` through it too.
    """
    package = namespace["__name__"]

    def __getattr__(name: str):
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | exports.keys())

    return __getattr__, __dir__


_EXPORTS = {
    "FaultPlan": ".chaos",
    "build_fault_plan": ".chaos",
    "PAPER_TESTBED": ".cluster",
    "ClusterSpec": ".cluster",
    "GPUTypeSpec": ".cluster",
    "InferenceRequest": ".core",
    "LALBPolicy": ".core",
    "LoadBalancingPolicy": ".core",
    "TenancyController": ".core",
    "TenantQuota": ".core",
    "make_scheduling_policy": ".core",
    "Autoscaler": ".faas",
    "FunctionSpec": ".faas",
    "Gateway": ".faas",
    "Invocation": ".faas",
    "InvocationStatus": ".faas",
    "RunSummary": ".metrics",
    "summarize": ".metrics",
    "ModelInstance": ".models",
    "ModelProfile": ".models",
    "ProfileRegistry": ".models",
    "get_profile": ".models",
    "FaaSCluster": ".runtime",
    "SystemConfig": ".runtime",
    "SyntheticAzureTrace": ".traces",
    "Workload": ".traces",
    "WorkloadSpec": ".traces",
    "build_workload": ".traces",
}

__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
