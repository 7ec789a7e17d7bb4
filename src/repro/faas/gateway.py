"""The Gateway: the public entry point of the FaaS platform.

§II-A: "The Gateway is the public route that interacts with the end-users
by handling the Create, Read, Update, and Delete (CRUD) operations of
functions and invoking the registered functions."

§III-A adds the GPU path: at registration, the Gateway checks the
GPU-enable flag in the function's Dockerfile and, when set, swaps the
function's ML interface for the intercepted one that redirects model
loading and inference to the GPU Managers through the Scheduler.
"""

from __future__ import annotations

from typing import Any, Callable

from ..runtime.system import FaaSCluster
from .container import ContainerPool
from .interceptor import GPUModelHandle, InterceptedMLAPI
from .spec import FunctionSpec
from .watchdog import Invocation, InvocationStatus, Watchdog

__all__ = ["Gateway", "FunctionNotFound", "RegisteredFunction"]


class FunctionNotFound(KeyError):
    """Invoked or managed a function that is not registered."""


class RegisteredFunction:
    """Everything the platform holds for one deployed function."""

    def __init__(
        self,
        spec: FunctionSpec,
        pool: ContainerPool,
        watchdog: Watchdog,
        model_handle: GPUModelHandle | None,
    ) -> None:
        self.spec = spec
        self.pool = pool
        self.watchdog = watchdog
        self.model_handle = model_handle
        self.invocations = 0


class Gateway:
    """Function CRUD + invocation routing."""

    def __init__(self, system: FaaSCluster) -> None:
        self.system = system
        self.sim = system.sim
        self.datastore = system.datastore
        self._functions: dict[str, RegisteredFunction] = {}

    # ------------------------------------------------------------------
    # CRUD (§II-A)
    # ------------------------------------------------------------------
    def register(self, spec: FunctionSpec) -> RegisteredFunction:
        """Create: build the function image and start min_replicas."""
        if spec.name in self._functions:
            raise ValueError(f"function {spec.name!r} already registered; use update()")
        if spec.is_inference and not spec.gpu_enabled:
            raise ValueError(
                f"{spec.name}: inference functions must set the GPU-enable flag "
                "in their Dockerfile (ENV GPU_ENABLE=1)"
            )
        model_handle = None
        if spec.gpu_enabled and spec.is_inference:
            # §III-A: replace torch.load/model(input) with the interceptor.
            api = InterceptedMLAPI(self.system, spec.name, tenant=spec.tenant)
            model_handle = api.load(spec.model_architecture, instance_id=f"{spec.name}#model")
        watchdog = Watchdog(
            self.sim, spec, datastore=self.datastore, model_handle=model_handle
        )
        pool = ContainerPool(self.sim, spec)
        pool.build(on_done=lambda: pool.scale_to(spec.min_replicas))
        fn = RegisteredFunction(spec, pool, watchdog, model_handle)
        self._functions[spec.name] = fn
        self._put_meta(spec)
        self._flush_writes()  # registration is a complete control-plane action
        return fn

    def get(self, name: str) -> RegisteredFunction:
        try:
            return self._functions[name]
        except KeyError:
            raise FunctionNotFound(name) from None

    def list_functions(self) -> list[str]:
        return sorted(self._functions)

    def logs(self, name: str, *, tail: int | None = None) -> list[str]:
        """The function's Watchdog log lines (like ``faas-cli logs``)."""
        return self.get(name).watchdog.logs(tail)

    def update(self, spec: FunctionSpec) -> RegisteredFunction:
        """Update: re-register with a new spec (replaces the pool)."""
        if spec.name not in self._functions:
            raise FunctionNotFound(spec.name)
        old = self._functions.pop(spec.name)
        for c in old.pool.containers:
            c.stop()
        self.datastore.delete(f"fn/meta/{spec.name}")
        return self.register(spec)

    def delete(self, name: str) -> None:
        fn = self.get(name)
        for c in fn.pool.containers:
            c.stop()
        del self._functions[name]
        self.datastore.delete(f"fn/meta/{name}")
        self._flush_writes()

    # ------------------------------------------------------------------
    # Invocation (the RESTful entry point)
    # ------------------------------------------------------------------
    def invoke(
        self,
        name: str,
        payload: Any = None,
        *,
        on_response: Callable[[Invocation], None] | None = None,
    ) -> Invocation:
        """Invoke a registered function; the response arrives via callback."""
        fn = self.get(name)
        invocation = Invocation(
            function=name,
            payload=payload,
            submitted_at=self.sim.now,
            on_response=on_response,
        )
        fn.invocations += 1
        self.datastore.put(f"fn/invocations/{name}", fn.invocations)

        if not fn.pool.built:
            # registration build still in flight — queue behind it
            fn.pool.build(on_done=lambda: self._route(fn, invocation))
        else:
            self._route(fn, invocation)
        # one invocation = one action: the counter bump and whatever routing
        # wrote commit together
        self._flush_writes()
        return invocation

    def _route(self, fn: RegisteredFunction, invocation: Invocation) -> None:
        if fn.pool.replica_count() == 0:
            fn.pool.scale_to(max(1, fn.spec.min_replicas))
        fn.pool.acquire(lambda container: fn.watchdog.handle(invocation, container))

    # ------------------------------------------------------------------
    def _flush_writes(self) -> None:
        """Commit this CRUD/invoke action's accumulated Datastore writes.

        Nested inside a simulator event the flush defers to the post-event
        hook, so the enclosing handler still commits as one transaction;
        called from user context it is the action boundary itself.
        """
        if not self.sim.is_running:
            self.datastore.flush()

    def _put_meta(self, spec: FunctionSpec) -> None:
        self.datastore.put(
            f"fn/meta/{spec.name}",
            {
                "name": spec.name,
                "gpu_enabled": spec.gpu_enabled,
                "model": spec.model_architecture,
                "tenant": spec.tenant,
                "min_replicas": spec.min_replicas,
                "max_replicas": spec.max_replicas,
            },
        )


# re-export for convenient assertions in user code
__all__.append("InvocationStatus")
