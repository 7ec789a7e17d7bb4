"""Workload substrate: synthetic Azure trace, extraction pipeline, datasets."""

from .azure import AzureTraceConfig, SyntheticAzureTrace, calibrate_zipf_exponent
from .datasets import (
    ImageBatch,
    cifar_like,
    compress_to_batch,
    hymenoptera_like,
    load_dataset,
    mnist_like,
)
from .workload import (
    StreamingWorkload,
    Workload,
    WorkloadChunk,
    WorkloadSpec,
    assign_architectures,
    build_workload,
    build_workload_streaming,
    spec_for_requests,
)

__all__ = [
    "AzureTraceConfig",
    "SyntheticAzureTrace",
    "calibrate_zipf_exponent",
    "ImageBatch",
    "cifar_like",
    "compress_to_batch",
    "hymenoptera_like",
    "load_dataset",
    "mnist_like",
    "StreamingWorkload",
    "Workload",
    "WorkloadChunk",
    "WorkloadSpec",
    "assign_architectures",
    "build_workload",
    "build_workload_streaming",
    "spec_for_requests",
]
