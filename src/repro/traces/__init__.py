"""Workload substrate: synthetic Azure trace, extraction pipeline, datasets."""

from .. import _lazy_exports

_EXPORTS = {
    "AzureTraceConfig": ".azure",
    "SyntheticAzureTrace": ".azure",
    "calibrate_zipf_exponent": ".azure",
    "ImageBatch": ".datasets",
    "cifar_like": ".datasets",
    "compress_to_batch": ".datasets",
    "hymenoptera_like": ".datasets",
    "load_dataset": ".datasets",
    "mnist_like": ".datasets",
    "StreamingWorkload": ".workload",
    "Workload": ".workload",
    "WorkloadChunk": ".workload",
    "WorkloadSpec": ".workload",
    "assign_architectures": ".workload",
    "build_workload": ".workload",
    "build_workload_streaming": ".workload",
    "spec_for_requests": ".workload",
}

__all__ = [*_EXPORTS]
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
