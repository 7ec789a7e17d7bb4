"""A multi-model image-classification service with real NumPy inference.

The paper's motivating workload (§I): latency-sensitive image
classification served by FaaS functions on shared GPUs.  This example
deploys three functions over different CNN families, feeds them the three
datasets of §V-A.2 (MNIST-, CIFAR-, and Hymenoptera-like synthetic
images), and runs *real* forward passes — the Hymenoptera photos are
variable-size and get compressed to 32x32 in the function's preprocess
step, exactly as the paper describes.

Run:  python examples/image_classification_service.py
"""

import numpy as np

from repro.faas import FunctionSpec, Gateway
from repro.models.nn import build_model
from repro.runtime import FaaSCluster, SystemConfig
from repro.traces import cifar_like, compress_to_batch, hymenoptera_like, mnist_like


def main() -> None:
    system = FaaSCluster(SystemConfig(policy="lalbo3"))
    gateway = Gateway(system)

    # -- three services over different model families -------------------
    services = {
        "digits": ("squeezenet1.1", 1, 28),     # MNIST-like, grayscale
        "objects": ("resnet50", 3, 32),         # CIFAR-like, RGB
        "insects": ("vgg16", 3, 32),            # Hymenoptera-like, compressed
    }
    for name, (arch, in_channels, size) in services.items():
        preprocess = None
        if name == "insects":
            # raw photos are variable-size; compress before batching (§V-A.2)
            preprocess = lambda photos: compress_to_batch(photos, size=32)  # noqa: E731
        spec = FunctionSpec(
            name=name,
            model_architecture=arch,
            preprocess=preprocess,
            postprocess=lambda probs: probs.argmax(axis=-1),
        )
        fn = gateway.register(spec)
        # attach a real NumPy network so responses are genuine probabilities
        fn.model_handle.instance.metadata["network"] = build_model(
            arch, in_channels=in_channels, input_size=size, seed=42
        )

    # -- cold phase: first request of each dataset ------------------------
    digits = mnist_like(8, seed=1).images
    objects = cifar_like(8, seed=2).images
    insects = hymenoptera_like(6, min_size=64, max_size=256, seed=3)

    cold = [
        gateway.invoke("digits", payload=digits),
        gateway.invoke("objects", payload=objects),
        gateway.invoke("insects", payload=insects),
    ]
    system.run()

    # -- warm phase: the models now sit in GPU memory → cache hits --------
    warm = [
        gateway.invoke("objects", payload=objects),
        gateway.invoke("insects", payload=insects),
    ]
    system.run()

    print(f"{'function':9s} {'phase':5s} {'latency':>8s}  predictions")
    for phase, invocations in (("cold", cold), ("warm", warm)):
        for inv in invocations:
            labels = np.asarray(inv.response)
            print(f"{inv.function:9s} {phase:5s} {inv.latency:7.2f}s  {labels.tolist()}")

    hits = system.metrics.completed_count - system.metrics.miss_count
    print(f"\ncache hits: {hits}/{system.metrics.completed_count} "
          f"(warm-phase calls reused the GPU-resident models)")
    assert hits == len(warm)
    assert all(inv.response is not None for inv in cold + warm)
    # warm calls skip the model upload entirely
    assert max(i.latency for i in warm) < min(i.latency for i in cold)


if __name__ == "__main__":
    main()
