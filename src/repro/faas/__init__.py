"""OpenFaaS-like FaaS framework substrate: Gateway, Watchdog, containers,
autoscaler, and the intercepted ML API for GPU-enabled functions."""

from .. import _lazy_exports

_EXPORTS = {
    "Autoscaler": ".autoscaler",
    "Container": ".container",
    "ContainerPool": ".container",
    "ContainerState": ".container",
    "FunctionNotFound": ".gateway",
    "Gateway": ".gateway",
    "RegisteredFunction": ".gateway",
    "GPUModelHandle": ".interceptor",
    "InterceptedMLAPI": ".interceptor",
    "Dockerfile": ".spec",
    "FunctionSpec": ".spec",
    "default_template": ".spec",
    "Invocation": ".watchdog",
    "InvocationStatus": ".watchdog",
    "Watchdog": ".watchdog",
    "HealthWatchdog": ".watchdog",
}

__all__ = [*_EXPORTS]
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
