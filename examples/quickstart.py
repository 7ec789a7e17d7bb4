"""Quickstart: deploy an ML inference function on the GPU-enabled FaaS.

Walks the paper's end-user story (§II-A / §III-A):

1. build the system (3 nodes x 4 GPUs, the paper's testbed),
2. register a function whose Dockerfile carries the GPU-enable flag —
   the Gateway transparently swaps its ``torch.load``/``model(input)``
   calls for the interceptor that routes through the Scheduler,
3. invoke it twice and watch the cold-start (model upload over PCIe)
   versus the warm cache hit.

Run:  python examples/quickstart.py
"""

from repro.faas import FunctionSpec, Gateway
from repro.runtime import FaaSCluster, SystemConfig


def main() -> None:
    # 1. the system: paper testbed, locality-aware scheduler with O3 dispatch
    system = FaaSCluster(SystemConfig(policy="lalbo3"))
    gateway = Gateway(system)

    # 2. register an image-classification function backed by resnet50.
    #    The default Dockerfile template sets ENV GPU_ENABLE=1.
    gateway.register(FunctionSpec(name="classify", model_architecture="resnet50"))
    # the runtime keeps no finished request: subscribe to see them
    served = []
    system.subscribe_completion(served.append)

    # 3a. first invocation: container cold start + model upload + inference
    first = gateway.invoke("classify", payload=None)
    system.run()
    print(f"cold invocation : {first.latency:6.2f} s  (build + cold start + load + infer)")

    # 3b. second invocation: warm container, model already in GPU memory
    second = gateway.invoke("classify")
    system.run()
    print(f"warm invocation : {second.latency:6.2f} s  (cache hit: inference only)")

    request = served[-1]
    print(f"cache hit       : {request.cache_hit}")
    ip, device = request.gpu_address
    print(f"served by       : {device} on {ip}")
    speedup = first.latency / second.latency
    print(f"speedup         : {speedup:.1f}x from GPU model caching")
    assert request.cache_hit and speedup > 2


if __name__ == "__main__":
    main()
