"""OpenFaaS-like FaaS framework substrate: Gateway, Watchdog, containers,
autoscaler, and the intercepted ML API for GPU-enabled functions."""

from .autoscaler import Autoscaler
from .container import Container, ContainerPool, ContainerState
from .gateway import FunctionNotFound, Gateway, RegisteredFunction
from .interceptor import GPUModelHandle, InterceptedMLAPI
from .spec import Dockerfile, FunctionSpec, default_template
from .watchdog import HealthWatchdog, Invocation, InvocationStatus, Watchdog

__all__ = [
    "Autoscaler",
    "Container",
    "ContainerPool",
    "ContainerState",
    "FunctionNotFound",
    "Gateway",
    "RegisteredFunction",
    "GPUModelHandle",
    "InterceptedMLAPI",
    "Dockerfile",
    "FunctionSpec",
    "default_template",
    "Invocation",
    "InvocationStatus",
    "Watchdog",
    "HealthWatchdog",
]
