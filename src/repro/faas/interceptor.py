"""The customized ML interface injected into GPU-enabled functions.

§III-A: for GPU-enabled functions the Gateway "replaces the interface that
the function uses for loading and running a model with a customized
interface that redirects those requests to the GPU Manager.  This change of
interface is not visible to the end-user."

User code keeps calling the familiar two-step API::

    model = api.load("resnet50")      # torch.load(...)
    out = model(batch, on_result=cb)  # model(input)

but ``load`` returns a :class:`GPUModelHandle` whose call builds an
:class:`~repro.core.request.InferenceRequest` and submits it to the global
Scheduler instead of touching any GPU directly.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable

from ..core.request import InferenceRequest
from ..models.profiles import ModelInstance
from ..models.zoo import get_profile
from ..runtime.system import FaaSCluster

__all__ = ["GPUModelHandle", "InterceptedMLAPI"]


class GPUModelHandle:
    """Stands in for a loaded model object inside the function container.

    Calling the handle submits the inference to the Scheduler and returns
    the request; the result arrives asynchronously via ``on_result``.
    """

    def __init__(self, system: FaaSCluster, instance: ModelInstance, function_name: str) -> None:
        self._system = system
        self.instance = instance
        self.function_name = function_name
        self._pending: dict[int, Callable[[InferenceRequest], None]] = {}
        system.subscribe_completion(self._route)

    def __call__(
        self,
        batch: Any,
        *,
        batch_size: int = 32,
        on_result: Callable[[InferenceRequest], None] | None = None,
    ) -> InferenceRequest:
        request = InferenceRequest(
            function_name=self.function_name,
            model=self.instance,
            arrival_time=self._system.sim.now,
            request_id=next(self._system.request_ids),
            batch_size=batch_size,
            payload=batch,
        )
        if on_result is not None:
            self._pending[request.request_id] = on_result
        self._system.submit(request)
        return request

    def _route(self, request: InferenceRequest) -> None:
        cb = self._pending.pop(request.request_id, None)
        if cb is not None:
            cb(request)


class InterceptedMLAPI:
    """The replacement for ``torch`` seen by GPU-enabled functions."""

    def __init__(self, system: FaaSCluster, function_name: str, tenant: str = "default") -> None:
        self._system = system
        self._function_name = function_name
        self._tenant = tenant
        self._instance_ids = itertools.count(1)

    def load(
        self,
        architecture: str,
        *,
        instance_id: str | None = None,
        with_network: bool = False,
        seed: int = 0,
    ) -> GPUModelHandle:
        """The intercepted ``torch.load`` — mints this function's private
        model instance (its own cache item) instead of reading weights.

        With ``with_network=True`` the instance carries a real NumPy network
        (built by :func:`repro.models.nn.build_model`), so completed requests
        contain genuine class probabilities in ``request.result``.
        """
        instance = ModelInstance(
            instance_id or f"{self._function_name}#m{next(self._instance_ids)}",
            get_profile(architecture),
            tenant=self._tenant,
        )
        if with_network:
            from ..models.nn import build_model

            instance.metadata["network"] = build_model(architecture, seed=seed)
        self._system.register_model(instance)
        return GPUModelHandle(self._system, instance, self._function_name)
